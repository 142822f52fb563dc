"""Exact weight parameter arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraphlab import WeightParam
from digraphlab.errors import DigraphLabError, ParseError, PreconditionError


def test_parse_forms():
    assert WeightParam.parse("2").rational == 2
    assert WeightParam.parse("7/2").rational == Fraction(7, 2)
    assert WeightParam.parse("1.5").rational == Fraction(3, 2)
    w = WeightParam.parse("log2(3)")
    assert w.rational is None and w.exact_str == "log2(3)"


def test_parse_rejects():
    with pytest.raises(PreconditionError):
        WeightParam.parse("1/2")  # below 1
    for text in ("two", "1e3", "1e-9999999", "2/0", "inf", "1_000", ".5", "log2(3", "log2(1e3)"):
        with pytest.raises(ParseError):
            WeightParam.parse(text)


def test_log2_power_of_two_collapses_to_rational():
    assert WeightParam.log2(4).rational == 2
    assert WeightParam.log2(2).rational == 1


def test_cmp_to_fraction_log():
    w = WeightParam.parse("log2(3)")
    # 3/2 < log2(3) < 8/5
    assert w.cmp_to_fraction(Fraction(3, 2)) == 1
    assert w.cmp_to_fraction(Fraction(8, 5)) == -1
    assert w.cmp_to_fraction(Fraction(-1)) == 1
    # sanity against float on random fractions away from the value
    rng = random.Random(1)
    for _ in range(200):
        q = Fraction(rng.randint(-100, 400), rng.randint(1, 250))
        s = w.cmp_to_fraction(q)
        float_side = (math.log2(3) > float(q)) - (math.log2(3) < float(q))
        if abs(math.log2(3) - float(q)) > 1e-9:
            assert s == float_side


def test_cmp_to_fraction_log_near_and_huge():
    # convergents of log2(3) against the big-integer comparison 3^q <=> 2^p;
    # the last one lies inside the float gap's guard band
    w = WeightParam.parse("log2(3)")
    for p, q in [(8, 5), (485, 306), (24727, 15601), (176251, 111202), (301994, 190537)]:
        assert w.cmp_to_fraction(Fraction(p, q)) == (3 ** q > 2 ** p) - (3 ** q < 2 ** p)
    # denominators whose big-integer powers would take gigabytes
    assert w.cmp_to_fraction(Fraction(16 * 10 ** 9 + 1, 10 ** 10)) == -1
    assert w.cmp_to_fraction(Fraction(15 * 10 ** 9 + 1, 10 ** 10)) == 1
    assert w.cmp_to_fraction(Fraction(10 ** 400 + 1, 10 ** 400)) == 1


def test_cmp_pairs_rational():
    w = WeightParam.from_rational(2)
    assert w.cmp_pairs((1, 0), (0, 2)) == 0  # one double edge = two singles
    assert w.cmp_pairs((2, 0), (0, 3)) == 1
    w = WeightParam.from_rational(Fraction(3, 2))
    assert w.cmp_pairs((2, 0), (0, 3)) == 0


def test_cmp_pairs_log_exact_total_order():
    w = WeightParam.parse("log2(3)")
    rng = random.Random(2)
    a = math.log2(3)
    for _ in range(300):
        x = (rng.randint(0, 12), rng.randint(0, 12))
        y = (rng.randint(0, 12), rng.randint(0, 12))
        s = w.cmp_pairs(x, y)
        vx, vy = a * x[0] + x[1], a * y[0] + y[1]
        if abs(vx - vy) > 1e-9:
            assert s == (vx > vy) - (vx < vy)
        else:
            # irrational weight: equal values force equal pairs
            assert (s == 0) == (x == y)


def test_ea_strings():
    w = WeightParam.from_rational(Fraction(7, 2))
    assert w.ea_str(1, 3) == "13/2"
    w = WeightParam.parse("log2(3)")
    assert w.ea_str(0, 4) == "4"
    assert w.ea_str(1, 0) == "log2(3)"
    assert w.ea_str(2, 5) == "2*log2(3)+5"


def test_ea_values():
    w = WeightParam.from_rational(2)
    assert w.ea_fraction(3, 1) == 7
    assert w.ea_float(3, 1) == 7.0
    w = WeightParam.parse("log2(3)")
    assert w.ea_fraction(3, 1) is None
    assert w.ea_float(1, 1) == math.log2(3) + 1


_WEIGHT_NOISE = "0123456789./-+eE_ \tlog2()x\u00b2\u0663"


@st.composite
def weight_texts(draw):
    text = draw(st.sampled_from(["2", "7/2", "1.5", "log2(3)", "log2(8)", "10/3", ""]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.text(_WEIGHT_NOISE, max_size=3)) + text[i + cut:]
    return text


@settings(max_examples=400, deadline=None, database=None)
@given(weight_texts())
def test_parse_fuzz_fails_only_with_package_errors(text):
    try:
        w = WeightParam.parse(text)
    except DigraphLabError:
        return
    # only p, p/q, a plain decimal or log2(k) get through, and never below 1
    body = text.strip()
    if body.startswith("log2("):
        k = int(body[5:-1])
        # a power of two is stored as its exponent; leading zeros are read
        assert w.log_arg == k if w.rational is None else 2 ** w.rational == k
    else:
        assert not set(body) - set("0123456789./-")
        assert w.rational == Fraction(body) >= 1
