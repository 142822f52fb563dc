"""Exact edge-weight parameter and exact weighted-size comparisons.

The weighted size of a digraph is ``a*f2 + f1`` where f2 counts double edges
(2-cycles) and f1 counts single edges.  The parameter ``a`` is either an exact
rational or ``log2(k)`` for an integer k that is not a power of two.  In both
cases every comparison this package performs (density thresholds, extremal
maxima) is decided exactly: ``log2(k) <=> p/q`` reduces to ``k**q <=> 2**p``,
which logarithms settle first only when they stand far beyond their rounding.
No verdict ever depends on floating-point rounding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PreconditionError

_LOG2_RE = re.compile(r"log2\(([0-9]+)\)")
# p, p/q or a plain decimal; Fraction's exponent forms such as 1e-9999999
# would first build a ten-million-digit integer
_NUMBER_RE = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def parse_fraction(text: str, what: str) -> Fraction:
    """The exact value of a number flag written p, p/q or as a plain decimal."""
    text = text.strip()
    if _NUMBER_RE.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # q = 0, or past int's digit limit
            pass
    raise ParseError(f"malformed {what}: {text!r}; expected p, p/q or a decimal such as 1.5")


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _cmp_log2_vs_fraction(k: int, q: Fraction) -> int:
    """Sign of log2(k) - q, decided exactly."""
    num, den = q.numerator, q.denominator  # den > 0
    if num <= 0:
        return 1  # log2(k) >= log2(3) > 0 >= q
    # k**den costs time and memory that grow with den (a pipeline eps of 1/10^9
    # gives den near 10^10), so the logarithms of den*log2(k) and num decide
    # first when their gap is far above the float rounding of each term
    gap = math.log2(den) + math.log2(math.log2(k)) - math.log2(num)
    if abs(gap) > 2.0 ** -40 * (1 + math.log2(den) + math.log2(num)):
        return 1 if gap > 0 else -1
    lhs = k ** den
    rhs = 2 ** num
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class WeightParam:
    """Weight a >= 1 for the weighted size a*f2 + f1, stored exactly."""

    rational: Fraction | None = None
    log_arg: int | None = None

    def __post_init__(self):
        if (self.rational is None) == (self.log_arg is None):
            raise ValueError("exactly one of rational/log_arg must be set")
        if self.rational is not None and self.rational < 1:
            raise PreconditionError(f"weight a={self.rational} must be >= 1")
        if self.log_arg is not None:
            k = self.log_arg
            if k < 3 or (k & (k - 1)) == 0:
                raise ValueError("log_arg must be >= 3 and not a power of two")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "WeightParam":
        return cls(rational=Fraction(value))

    @classmethod
    def log2(cls, k: int) -> "WeightParam":
        if k < 2:
            raise PreconditionError(f"log2({k}) is below the minimum weight 1")
        if k & (k - 1) == 0:  # exact power of two: the weight is an integer
            return cls(rational=Fraction(k.bit_length() - 1))
        return cls(log_arg=k)

    @classmethod
    def parse(cls, text: str) -> "WeightParam":
        """Parse "2", "7/2", "1.5" or "log2(3)"."""
        text = text.strip()
        m = _LOG2_RE.fullmatch(text)
        if m:
            try:
                k = int(m.group(1))
            except ValueError:  # past int's digit limit
                raise ParseError(f"malformed weight: {text!r}") from None
            return cls.log2(k)
        value = parse_fraction(text, "weight")
        if value < 1:
            raise PreconditionError(f"weight a={text} must be >= 1")
        return cls(rational=value)

    # -- basic views --------------------------------------------------------

    @property
    def a_float(self) -> float:
        if self.rational is not None:
            return float(self.rational)
        return math.log2(self.log_arg)

    @property
    def exact_str(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        return f"log2({self.log_arg})"

    # -- exact comparisons --------------------------------------------------

    def cmp_to_fraction(self, q: Fraction) -> int:
        """Sign of a - q."""
        if self.rational is not None:
            return _sign((self.rational > q) - (self.rational < q))
        return _cmp_log2_vs_fraction(self.log_arg, q)

    def cmp_pairs(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        """Sign of (a*x2 + x1) - (a*y2 + y1) for pairs (f2, f1); f1 may be a Fraction."""
        d2 = x[0] - y[0]
        d1 = x[1] - y[1]
        if self.rational is not None:
            return _sign(self.rational.numerator * d2 + self.rational.denominator * d1)
        if d2 == 0:
            return _sign(d1)
        if d2 > 0:
            # a*d2 + d1 <=> 0  iff  a <=> -d1/d2
            return _cmp_log2_vs_fraction(self.log_arg, Fraction(-d1, d2))
        return -_cmp_log2_vs_fraction(self.log_arg, Fraction(d1, -d2))

    # -- weighted-size values ------------------------------------------------

    def ea_fraction(self, f2: int, f1: int) -> Fraction | None:
        """Exact value of a*f2 + f1, or None when a is irrational."""
        if self.rational is None:
            return None
        return self.rational * f2 + f1

    def ea_float(self, f2: int, f1: int) -> float:
        return self.a_float * f2 + f1

    def ea_str(self, f2: int, f1: int) -> str:
        """Exact string for a*f2 + f1."""
        if self.rational is not None:
            return str(self.rational * f2 + f1)
        if f2 == 0:
            return str(f1)
        base = f"{f2}*log2({self.log_arg})" if f2 != 1 else f"log2({self.log_arg})"
        if f1 == 0:
            return base
        return f"{base}+{f1}" if f1 > 0 else f"{base}{f1}"
