"""``python -m digraphlab``: the command-line interface."""

from .cli import entry

entry()
