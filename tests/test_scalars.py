from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conway_genera.scalars import (RADICAL_BASIS, RadicalScalar, format_radical,
                                   parse_radical)


def rs(**kw):
    return RadicalScalar({int(k[1:]): v for k, v in kw.items()})


def test_sqrt2_times_sqrt3_is_sqrt6():
    assert RadicalScalar({2: 1}) * RadicalScalar({3: 1}) == RadicalScalar({6: 1})


def test_pure_sqrt5_multiple_squares_to_rational():
    d = RadicalScalar({5: 25})
    assert d * d == RadicalScalar.from_rational(3125)


def test_conjugate_product():
    a = rs(d1=1, d2=1)    # 1 + sqrt(2)
    b = rs(d1=1, d2=-1)   # 1 - sqrt(2)
    assert a * b == RadicalScalar.from_rational(-1)


def test_is_rational():
    ok, val = RadicalScalar.from_rational(4096).as_rational()
    assert ok and val == 4096
    ok, val = RadicalScalar({2: 32}).as_rational()
    assert not ok and val is None
    ok, val = RadicalScalar().as_rational()
    assert ok and val == 0


def test_inverse():
    x = rs(d1=Fraction(1, 2), d6=3, d10=Fraction(-2, 7))
    assert x * x.inverse() == RadicalScalar.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        RadicalScalar().inverse()


def test_division():
    x = RadicalScalar({30: 1})
    assert x / RadicalScalar({5: 1}) == RadicalScalar({6: 1})
    assert x / 2 == RadicalScalar({30: Fraction(1, 2)})


def test_basis_is_enforced():
    with pytest.raises(ValueError):
        RadicalScalar({7: 1})


def test_format_and_parse_roundtrip():
    x = rs(d1=Fraction(-3, 2), d2=1, d15=Fraction(7, 4))
    assert parse_radical(format_radical(x)) == x
    assert format_radical(RadicalScalar()) == "0"
    assert parse_radical("0") == RadicalScalar()
    assert parse_radical("4096") == RadicalScalar.from_rational(4096)
    assert parse_radical("-8") == RadicalScalar.from_rational(-8)
    assert parse_radical("25*sqrt(5)") == RadicalScalar({5: 25})
    assert parse_radical("1/2*sqrt(6)") == RadicalScalar({6: Fraction(1, 2)})
    assert parse_radical("sqrt(3)") == RadicalScalar({3: 1})
    assert parse_radical("3 - 1/2*sqrt(2)") == rs(d1=3, d2=Fraction(-1, 2))
    assert parse_radical("- 1") == RadicalScalar.from_rational(-1)


@pytest.mark.parametrize("text", ["4 096", "3 0", "1/ 2", "s qrt(5)"])
def test_parse_rejects_a_blank_inside_a_term(text):
    # each used to parse with its blank deleted: 4096, 30, 1/2 and sqrt(5)
    with pytest.raises(ValueError, match="cannot parse radical-scalar term"):
        parse_radical(text)


@pytest.mark.parametrize("text", ["1/0", "3 - 2/0*sqrt(2)"])
def test_parse_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_radical(text)


@pytest.mark.parametrize("text", ["1+", "+", "--1", "1++2", "3*", "sqrt(2)-", "1-+2", "-"])
def test_parse_rejects_text_not_covered_by_signed_terms(text):
    with pytest.raises(ValueError):
        parse_radical(text)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=7)
elements = st.builds(
    lambda pairs: RadicalScalar(dict(pairs)),
    st.lists(st.tuples(st.sampled_from(RADICAL_BASIS), rationals),
             max_size=4, unique_by=lambda t: t[0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(-2 ** 70, 2 ** 70) | rationals)
def test_a_rational_value_hashes_as_the_rational_it_equals(x):
    a = RadicalScalar.from_rational(x)
    assert a == x and hash(a) == hash(x)
    assert len({a, x}) == 1 and x in {a: 1}


@settings(max_examples=150, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.sampled_from(RADICAL_BASIS),
                       st.fractions(-2 ** 80, 2 ** 80, max_denominator=2 ** 70)))
def test_parse_format_roundtrip_random(parts):
    a = RadicalScalar(parts)
    assert parse_radical(format_radical(a)) == a


def test_d_magnitudes_square_rationally(data):
    for rec in data.classes.values():
        for mag in rec.d_magnitude.values():
            ok, _ = (mag * mag).as_rational()
            assert ok


def _to_sympy(sympy, x):
    return sum((sympy.Rational(a.numerator, a.denominator) * sympy.sqrt(d)
                for d, a in x.parts.items()), sympy.Integer(0))


@settings(max_examples=100, deadline=None)
@given(elements, elements)
def test_field_operations_match_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    sa, sb = _to_sympy(sympy, a), _to_sympy(sympy, b)
    assert sympy.expand(_to_sympy(sympy, a + b) - (sa + sb)) == 0
    assert sympy.expand(_to_sympy(sympy, a * b) - sa * sb) == 0
    if not a.is_zero:
        assert sympy.expand(_to_sympy(sympy, a.inverse()) * sa) == 1
