"""Structured-document helpers shared by the CLI.

Exact quantities are emitted as strings (decimal integers, "p/q" fractions);
floats appear as {"value": ..., "precision": ...} objects so downstream
consumers never re-parse a lossy decimal as exact data.
"""

from __future__ import annotations

import json
from fractions import Fraction

FLOAT_PRECISION = "ieee-754 binary64, shortest round-trip repr"


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def int_str(x: int) -> str:
    return str(int(x))


def float_field(value: float) -> dict:
    return {"value": value, "precision": FLOAT_PRECISION}


def render_document(doc: dict) -> str:
    """Deterministic serialisation: fixed key order (insertion), repr floats."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
