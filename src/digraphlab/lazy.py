"""numpy, imported on first use.

Most subcommands run no array pass, and importing numpy takes about half of
a fresh CLI process's start-up.  So a module that uses numpy binds
``np = LazyNumpy(globals())`` instead of importing it.  The first attribute
read through ``np`` imports numpy and rebinds the module's global ``np`` to
it, so every later read is a plain global lookup of numpy itself.
"""

from __future__ import annotations


class LazyNumpy:
    """numpy's stand-in in one module's namespace until numpy is first used."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
