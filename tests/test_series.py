from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from conway_genera import modforms, series
from conway_genera.scalars import RADICAL_BASIS, RadicalScalar
from conway_genera.series import (GridError, JacobiSeries, QSeries, ThetaRows, combine,
                                  first_difference)


def as_dict(series):
    return {k: v.rational_value() for k, v in series.coeffs.items()}


def test_monomial_product():
    a = QSeries({1: 1}, 100)
    assert (a * a).coeff(2) == 1


def test_eta_times_eta23_is_delta():
    limit = 144
    e = modforms.eta(limit)
    product = e * e ** 23
    expected = brute.brute_delta(limit)
    got = as_dict(product.truncate(limit))
    assert got == expected


def test_zero_product_truncation():
    limit = 120
    pm = modforms.phi_minus21(limit)
    z = JacobiSeries.zero(40)
    prod = pm * z
    assert prod.is_zero
    assert prod.trunc == 40 + 0  # min exponent of phi-21 is 0


def test_geometric_inverse():
    f = QSeries({0: 1, 24: -1}, 240)
    inv = f.inverse()
    assert all(inv.coeff(24 * k) == 1 for k in range(10))


def test_delta_inverse_is_two_sided():
    limit = 24 * 9
    d = modforms.delta(limit)
    inv = d.inverse()
    assert inv.coeff(-24) == 1
    assert inv.coeff(0) == 24
    assert inv.coeff(24) == 324
    one = d * inv
    assert first_difference(one, QSeries.one(one.trunc)) is None
    other = inv * d
    assert first_difference(other, QSeries.one(other.trunc)) is None


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError, match="non-invertible"):
        QSeries.zero(10).inverse()


def test_scale_argument_moves_exponents():
    e2 = modforms.eisenstein_e2(96)
    doubled = e2.scale_argument(2)
    assert doubled.coeff(96) == e2.coeff(48)


def test_scale_argument_off_grid_rejected():
    with pytest.raises(GridError, match="grid violation"):
        modforms.eta(96).scale_argument(Fraction(1, 2))


def test_scale_argument_round_trip():
    e2 = modforms.eisenstein_e2(96)
    assert e2.scale_argument(2).scale_argument(Fraction(1, 2)) == e2


def test_half_period_shift_signs():
    f = QSeries({12: 1, 24: 1}, 48)
    shifted = f.half_period_shift()
    assert shifted.coeff(12) == -1
    assert shifted.coeff(24) == 1


def test_half_period_shift_off_grid():
    with pytest.raises(GridError, match="grid violation"):
        QSeries({1: 1}, 48).half_period_shift()


def test_half_period_shift_swaps_ratio_classes(data):
    # tau -> tau + 1 on the half grid turns the class ratio into minus
    # the ratio of the negated class
    rec = data.record("2B")
    prec = 24 * 8
    r = modforms.eta_ratio_half(rec.fs_g, prec)
    r_neg = modforms.eta_ratio_half(rec.fs_neg_g, prec)
    assert first_difference(r.half_period_shift(), -r_neg) is None


def test_specialize_z0():
    assert modforms.phi01(96).specialize_z0() == QSeries({0: 12}, 96)
    assert modforms.phi_minus21(96).specialize_z0().is_zero
    f = JacobiSeries({(0, 2): 1, (0, 0): -2, (0, -2): 1}, 48)
    assert f.specialize_z0().is_zero


def test_dump_format():
    f = JacobiSeries({(25, 1): RadicalScalar({2: 1}),
                      (0, -2): Fraction(1, 2)}, 48)
    assert f.dump() == "0 -1 1/2\n25/24 1/2 sqrt(2)"


def test_truncate_cannot_extend():
    with pytest.raises(ValueError):
        QSeries.one(10).truncate(20)


def test_coeff_beyond_truncation_raises():
    with pytest.raises(ValueError, match="beyond the truncation"):
        QSeries.one(10).coeff(10)


keys = st.integers(min_value=-6, max_value=10)
vals = st.integers(min_value=-9, max_value=9).filter(bool)
qseries = st.builds(
    lambda pairs, extra: QSeries({24 * k: v for k, v in pairs}, 24 * (11 + extra)),
    st.lists(st.tuples(keys, vals), max_size=5, unique_by=lambda t: t[0]),
    st.integers(min_value=0, max_value=3))


@settings(max_examples=80, deadline=None)
@given(qseries, qseries)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(qseries, qseries, qseries)
def test_mul_associative_up_to_truncation(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert first_difference(lhs, rhs) is None


@settings(max_examples=60, deadline=None)
@given(qseries)
def test_inverse_is_two_sided(f):
    if f.is_zero:
        return
    inv = f.inverse()
    assert first_difference(f * inv, QSeries.one((f * inv).trunc)) is None
    assert first_difference(inv * f, QSeries.one((inv * f).trunc)) is None


# -- the integer kernel against the field arithmetic ---------------------------

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=8)
# exponents on the (1/2)Z grid from q^(-1/2), as for eta_ratio_half
jacobi_rational = st.builds(
    lambda coeffs, t: JacobiSeries({(12 * k, 2 * r): v for (k, r), v in coeffs.items()},
                                   12 * t),
    st.dictionaries(st.tuples(st.integers(-1, 8), st.integers(-3, 3)), fractions,
                    max_size=8),
    st.integers(1, 12))


def qseries_over(values):
    return st.builds(lambda coeffs, t: QSeries({12 * k: v for k, v in coeffs.items()}, 12 * t),
                     st.dictionaries(st.integers(-1, 8), values, max_size=6),
                     st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(jacobi_rational, qseries_over(fractions))
def test_integer_rows_times_rational_series_is_jacobi_mul(j, f):
    assert j.times(f) == f.times(j) == brute.field_mul(j, f)


@settings(max_examples=60, deadline=None)
@given(jacobi_rational, st.integers(0, 4))
def test_integer_kernel_powers_match_jacobi_pow(j, n):
    power = JacobiSeries.one(j.trunc)
    for _ in range(n):
        power = power.times(j)
    assert power == brute.field_pow(j, n) == j ** n


# every squarefree d | 30, so that products such as sqrt(2) sqrt(10) = 2 sqrt(5)
# and sqrt(3) sqrt(15) = 3 sqrt(5) cross between parts
field = st.builds(lambda pairs: RadicalScalar(dict(pairs)),
                  st.lists(st.tuples(st.sampled_from(RADICAL_BASIS), fractions),
                           max_size=3, unique_by=lambda t: t[0]))


@st.composite
def series_pairs(draw, values=field):
    """Two series of either kind with coefficients drawn from `values`; half
    the pairs share one trunc."""
    t_a = draw(st.integers(1, 10))
    t_b = t_a if draw(st.booleans()) else draw(st.integers(1, 10))

    def one(t):
        if draw(st.booleans()):
            coeffs = draw(st.dictionaries(st.integers(-1, 6), values, max_size=5))
            return QSeries({12 * k: v for k, v in coeffs.items()}, 12 * t)
        coeffs = draw(st.dictionaries(st.tuples(st.integers(-1, 6), st.integers(-3, 3)), values,
                                      max_size=6))
        return JacobiSeries({(12 * k, 2 * r): v for (k, r), v in coeffs.items()}, 12 * t)
    return one(t_a), one(t_b)


S2, S5, S10, S15 = (RadicalScalar({d: 1}) for d in (2, 5, 10, 15))

#: combine terms (kappa, (A, B)): constants over every radical of the field,
#: products of rational series
combine_terms = st.lists(st.tuples(field, series_pairs(fractions)), min_size=1, max_size=3)
#: two terms on sqrt(15) over different denominators, a constant over three
#: radicals, and a zero product
KAPPA_TERMS = [
    (S15, (QSeries({0: Fraction(1, 2), 24: 1}, 48), QSeries({0: 3, 12: Fraction(-2, 3)}, 48))),
    (RadicalScalar({1: Fraction(2, 3), 3: 1, 15: Fraction(-1, 4)}),
     (JacobiSeries({(0, 2): 1, (12, 0): Fraction(-1, 4)}, 48), QSeries({0: 5}, 36))),
    (RadicalScalar({1: 2, 30: -1}), (QSeries.zero(24), JacobiSeries({}, 24)))]


def field_sum(terms):
    """sum kappa * A * B by brute.field_mul, as a JacobiSeries."""
    products = [brute.field_mul(a, b) * kappa for kappa, (a, b) in terms]
    total = JacobiSeries.zero(min(p.trunc for p in products))
    for p in products:
        total = total + p
    return total


@settings(max_examples=120, deadline=None)
@given(combine_terms)
@example(KAPPA_TERMS)
def test_combine_is_the_field_sum_of_jacobi_products(terms):
    got = combine([(kappa, a, b) for kappa, (a, b) in terms])
    assert got == field_sum(terms)


@settings(max_examples=120, deadline=None)
@given(combine_terms, st.integers(-12, 150))
@example(KAPPA_TERMS, 30)
def test_combine_stops_at_the_requested_truncation(terms, t):
    full = field_sum(terms)
    cut = combine([(kappa, a, b) for kappa, (a, b) in terms], t)
    assert cut.trunc == min(t, full.trunc)
    assert cut == full.truncate(cut.trunc)


@settings(max_examples=150, deadline=None)
@given(series_pairs(fractions))
@example((QSeries({0: Fraction(1, 2), 24: 1}, 48), QSeries({0: 3, 12: Fraction(-2, 3)}, 48)))
@example((QSeries({-12: 3, 0: 2}, 72), JacobiSeries({(0, 2): 5, (12, -2): Fraction(1, 7)}, 36)))
@example((JacobiSeries({(0, 1): 2, (24, 0): 3}, 48), QSeries({0: Fraction(1, 10), 24: 15}, 48)))
@example((QSeries.zero(48), QSeries({0: 2}, 24)))
@example((JacobiSeries({(12, 2): 15}, 48), JacobiSeries.zero(36)))
@example((QSeries({}, 24), JacobiSeries({}, 24)))
def test_series_products_match_field_mul(pair):
    for a, b in (pair, pair[::-1]):
        got, want = a * b, brute.field_mul(a, b)
        assert type(got) is type(want)
        assert got.trunc == want.trunc and got.coeffs == want.coeffs


def test_times_rejects_an_irrational_factor():
    half = QSeries({0: Fraction(1, 2)}, 24)
    assert half.times(half) == JacobiSeries({(0, 0): Fraction(1, 4)}, 24)
    # a field constant on a rational pair is what combine is for
    assert combine([(S2, half, half)]) == JacobiSeries({(0, 0): S2 * Fraction(1, 4)}, 24)
    products = (lambda a, b: a.times(b), lambda a, b: a * b,
                lambda a, b: combine([(1, a, b)]), lambda a, b: ThetaRows(a, 0) * ThetaRows(b, 0))
    q_root2 = QSeries({0: 1, 24: S2}, 48)
    for irrational in (q_root2, JacobiSeries({(0, 2): 1, (24, 0): S2}, 48)):
        for a, b in ((irrational, half), (half, irrational)):
            for product in products:
                with pytest.raises(ValueError, match="rational"):
                    product(a, b)
        with pytest.raises(ValueError, match="rational"):
            irrational ** 2
    for call in (q_root2.inverse, lambda: q_root2 ** -1):
        with pytest.raises(ValueError, match="rational"):
            call()


# -- the Newton inverse against the field recursion ----------------------------


@st.composite
def invertible(draw):
    """A rational QSeries on a coarse grid of step s: lead term at s*m for m
    in [-2, 3], a few terms above it, known below s*(m + t) for t in [1, 8]."""
    step = draw(st.sampled_from([1, 6, 12, 24]))
    low = draw(st.integers(-2, 3))
    lead = draw(fractions.filter(bool))
    rest = draw(st.dictionaries(st.integers(1, 7), fractions, max_size=4))
    coeffs = {step * (low + k): c for k, c in rest.items()}
    coeffs[step * low] = lead
    return QSeries(coeffs, step * (low + draw(st.integers(1, 8))))


@settings(max_examples=120, deadline=None)
@given(invertible())
@example(QSeries({-24: 2, 0: 1, 24: Fraction(-1, 15)}, 120))
@example(QSeries({12: Fraction(3, 5), 36: -7}, 240))
def test_inverse_is_the_field_recursion(f):
    inv = f.inverse()
    assert inv.trunc == f.trunc - 2 * f.min_key()
    assert inv == brute.field_inverse(f)


# -- the integer-row storage against the field model ---------------------------


def same_kind(a, b):
    return isinstance(a, QSeries) == isinstance(b, QSeries)


def matches(got, want, kind):
    assert type(got) is kind
    assert brute.model(got) == want
    assert got.dump() == brute.model_dump(want)


@settings(max_examples=150, deadline=None)
@given(series_pairs(), field, st.integers(-3, 3), st.integers(-12, 130),
       st.one_of(st.none(), st.integers(-12, 130)))
@example((QSeries({0: S2, 12: Fraction(1, 6)}, 48), QSeries({0: S2, 12: Fraction(1, 3)}, 48)),
         RadicalScalar({2: Fraction(1, 2), 3: 3}), 1, 24, None)
@example((JacobiSeries({(0, 2): S15, (12, -2): S10}, 36), JacobiSeries({(0, 2): S15}, 24)),
         RadicalScalar({6: 1, 10: Fraction(-2, 7), 30: 1}), -2, 0, 12)
@example((QSeries({0: Fraction(1, 2), 12: -3}, 48), JacobiSeries({(0, 2): 5, (12, -2): 1}, 36)),
         RadicalScalar({2: 1, 5: Fraction(-1, 3)}), 1, 24, None)
@example((JacobiSeries({(-12, -2): 3, (-12, 2): -5, (0, -6): 1, (24, 0): -2}, 48),
          QSeries({-12: 2, 0: -7}, 24)),
         RadicalScalar({1: -1}), -1, -12, 0)
@example((QSeries({0: RadicalScalar({5: Fraction(1, 3)}), 12: RadicalScalar({5: Fraction(-2, 3)})},
                  48),
          JacobiSeries({(0, 2): RadicalScalar({3: Fraction(1, 2)}), (-12, -2): RadicalScalar(
              {3: Fraction(-5, 4)})}, 36)),
         RadicalScalar({5: Fraction(1, 5)}), 2, 12, None)
@example((JacobiSeries({(0, 0): S5, (12, -2): S5 * -2, (24, 2): S5 * 3}, 48),
          QSeries({0: S5, 36: S5 * -1}, 48)),
         S5, 0, 48, 24)
@example((JacobiSeries({(0, 2): RadicalScalar({1: 1, 5: -2}),
                        (12, 0): RadicalScalar({2: 1, 3: Fraction(1, 2), 30: -1})}, 36),
          JacobiSeries({(0, 2): RadicalScalar({1: -1, 5: 2}), (12, 0): 3}, 36)),
         RadicalScalar({2: 1, 3: -1}), 0, 36, None)
def test_integer_storage_matches_the_field_model(pair, c, key, cut, through):
    # the last four explicit examples: integer rows over den 1 with negative
    # q and y exponents, one radical over den > 1, a pure sqrt(5) series and
    # several radicals at one key, the cases text_rows prints apart
    a, b = pair
    ma, mb = brute.model(a), brute.model(b)
    for f, m in ((a, ma), (b, mb)):
        assert f.dump() == brute.model_dump(m)
        assert "\n".join(" ".join(row) for row in f.text_rows()) == f.dump()
        rebuilt = type(f)(dict(f.coeffs), f.trunc)
        assert rebuilt == f and hash(rebuilt) == hash(f)
        if c:
            back = (f * c) * c.inverse()
            assert back == f and hash(back) == hash(f)
        matches(f * c, brute.model_scale(m, c), type(f))
        matches(c * f, brute.model_scale(m, c), type(f))
        if f.trunc >= cut:
            matches(f.truncate(cut), brute.model_truncate(m, cut), type(f))
        else:
            with pytest.raises(ValueError):
                f.truncate(cut)
        if isinstance(f, QSeries):
            matches(f.shift(12 * key), brute.model_shift(m, 12 * key), QSeries)
        else:
            matches(f.row0(), brute.model_row0(m), QSeries)
            matches(f.specialize_z0(), brute.model_specialize_z0(m), QSeries)
    kind = QSeries if isinstance(a, QSeries) and isinstance(b, QSeries) else JacobiSeries
    matches(a + b, brute.model_add(ma, mb), kind)
    matches(a - b, brute.model_add(ma, mb, -1), kind)
    if {*a.parts, *b.parts} <= {1}:
        matches(a * b, brute.model_mul(ma, mb), kind)
    else:
        with pytest.raises(ValueError, match="rational"):
            a * b
    if same_kind(a, b):
        assert first_difference(a, b, through) == brute.model_first_difference(ma, mb, through)
        assert (a == b) == (ma == mb)
        if a == b:
            assert hash(a) == hash(b)
    else:
        assert a != b
        with pytest.raises(TypeError):
            first_difference(a, b)


# -- the two product kernels ---------------------------------------------------

@st.composite
def int_rows(draw):
    """Integer rows {y half-index: {q grid index: int}} as series store them:
    ragged, each on its own q step 1, 12 or 24, some entries above 2^64."""
    rows = {}
    for y in draw(st.lists(st.integers(-4, 4), max_size=4, unique=True)):
        step, first = draw(st.sampled_from((1, 12, 24))), draw(st.integers(-30, 30))
        values = draw(st.lists(st.integers(-9, 9) | st.integers(-2 ** 80, 2 ** 80),
                               min_size=1, max_size=10))
        row = {first + step * i: v for i, v in enumerate(values) if v}
        if row:
            rows[y] = row
    return rows


def _rows_series(rows, trunc):
    return JacobiSeries.from_parts({1: rows}, 1, trunc)


@settings(max_examples=150, deadline=None)
@given(int_rows(), int_rows(), st.integers(-80, 400))
@example({}, {0: {0: 1}}, 24)
@example({0: {5: 3}}, {2: {7: -4}}, 12)
@example({0: {5: 3}}, {2: {7: -4}}, 13)
@example({0: {0: 255}}, {0: {0: 1}}, 1)
@example({0: {0: -(2 ** 64), 24: 2 ** 64 - 1}}, {0: {0: 2 ** 64 - 1, 24: -(2 ** 64)}}, 48)
@example({0: {0: 127, 1: 127}, 1: {0: 127, 1: 127}},
         {0: {0: 127, 1: 127}, -1: {0: 127, 1: 127}}, 2)
@example({0: {0: 1, 12: 2}, 2: {6: 5, 30: -1}}, {0: {24: 7}, 1: {1: 1, 2: 1}}, 60)
@example({0: {0: 1, 20: -(2 ** 80)}}, {0: {0: 1, 20: 2 ** 80}}, 24)
@example({0: {0: 1}, 2: {0: -5}}, {0: {0: -3, 24: 7}}, 400)
def test_both_kernels_are_the_field_product(rows_a, rows_b, trunc):
    # the last two explicit examples: a product whose digits past trunc are
    # large and negative, and output rows that end well before trunc
    by_dict = _rows_series(series._convolve_dict(rows_a, rows_b, trunc), trunc)
    by_kronecker = _rows_series(series._convolve_kronecker(rows_a, rows_b, trunc), trunc)
    assert by_kronecker == by_dict
    far = 10 ** 4   # past every key, so the product is known below trunc
    want = brute.field_mul(_rows_series(rows_a, far), _rows_series(rows_b, far))
    assert by_dict == want.truncate(trunc)


@settings(max_examples=100, deadline=None)
@given(int_rows(), int_rows(), st.integers(-80, 400))
@example({0: {0: 1}, 2: {0: 1}}, {0: {0: 1}, -2: {0: 1}}, 24)
@example({0: {0: 1}}, {2: {0: 1}}, 24)
def test_both_kernels_compute_every_row(rows_a, rows_b, trunc):
    want = _rows_series(series._convolve_dict(rows_a, rows_b, trunc), trunc)
    for kernel in (series._convolve_dict, series._convolve_kronecker, series._convolve):
        assert _rows_series(kernel(rows_a, rows_b, trunc), trunc) == want, kernel.__name__


def test_kernel_routing_counts_every_pair_of_rows(monkeypatch):
    rows = {0: {24 * i: 1 for i in range(50)}, 2: {24 * i: 1 for i in range(50)}}
    called = []
    for name in ("_convolve_dict", "_convolve_kronecker"):
        monkeypatch.setattr(series, name, lambda *args, name=name: called.append(name))
    monkeypatch.setattr(series, "KRONECKER_MIN_PAIRS", 5000)
    series._convolve(rows, rows, 10 ** 4)              # 4 pairs of rows, 10000 term pairs
    series._convolve(rows, {0: rows[0]}, 10 ** 4)      # 2 pairs of rows, 5000 term pairs
    series._convolve({0: rows[0]}, {0: rows[0]}, 10 ** 4)   # 1 pair of rows, 2500 term pairs
    assert called == ["_convolve_kronecker", "_convolve_kronecker", "_convolve_dict"]


def test_series_arithmetic_with_every_product_packed(monkeypatch):
    monkeypatch.setattr(series, "KRONECKER_MIN_PAIRS", 0)
    limit = 240
    e = modforms.eta(limit)
    assert as_dict((e * e ** 23).truncate(limit)) == brute.brute_delta(limit)
    phi = modforms.phi_minus21(limit)
    assert phi * phi == brute.field_mul(phi, phi)
    assert first_difference(e * e.inverse(), QSeries.one(limit)) is None


# -- the theta-row product -----------------------------------------------------

@st.composite
def theta_form(draw):
    """The ThetaRows of a rational form of index m in 0..3: each row on the
    integer or the (1/2)Z q-grid from q^-1 on, some entries above 2^64, cut at
    a truncation that the shifted copies of the rows cross; a y-free form is
    sometimes a QSeries."""
    m, step = draw(st.integers(0, 3)), draw(st.sampled_from((12, 24)))
    rows = {}
    for r0 in range(m + 1):
        first = draw(st.integers(-24 // step, 2)) * step
        values = draw(st.lists(st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70), max_size=5))
        row = {first + step * i: v for i, v in enumerate(values) if v}
        if row:
            rows[2 * r0] = row
    trunc, den = draw(st.integers(1, 120)), draw(st.sampled_from((1, 2, 12)))
    if m == 0 and draw(st.booleans()):
        return ThetaRows(QSeries.from_parts({1: rows}, den, trunc), m)
    return ThetaRows(JacobiSeries.from_parts({1: rows}, den, trunc), m)


#: the largest signed 64-bit integer
BIG = 2 ** 63 - 1


@settings(max_examples=150, deadline=None)
@given(theta_form(), theta_form())
@example(ThetaRows(JacobiSeries.from_parts({1: {0: {0: BIG}, 2: {0: BIG}}}, 1, 49), 1),
         ThetaRows(JacobiSeries.from_parts({1: {0: {0: BIG}, 2: {0: BIG}}}, 1, 49), 1))
@example(ThetaRows(JacobiSeries.from_parts({1: {0: {0: 1, 48: 1}}}, 1, 100), 1),
         ThetaRows(JacobiSeries.from_parts({1: {0: {0: 1}, 2: {0: 1}}}, 1, 100), 1))
@example(ThetaRows(QSeries.from_parts({1: {0: {0: 3, 12: -1}}}, 2, 30), 0),
         ThetaRows(JacobiSeries.from_parts({1: {2: {-24: 2 ** 70}, 6: {0: 5}}}, 1, 97), 3))
@example(ThetaRows(JacobiSeries.zero(40), 2), ThetaRows(JacobiSeries.one(40), 1))
@example(ThetaRows(JacobiSeries.from_parts({1: {0: {-24: 1, 0: -(2 ** 70)},
                                                4: {48: 3, 72: -(2 ** 70)}}}, 1, 150), 2),
         ThetaRows(JacobiSeries.from_parts({1: {0: {-24: -1, 24: 5},
                                                4: {48: 2 ** 70, 96: -7}}}, 1, 150), 3))
@example(ThetaRows(JacobiSeries.from_parts({1: {0: {0: 1}, 2: {-12: 3}}}, 1, 400), 1),
         ThetaRows(QSeries.from_parts({1: {0: {0: 5, 24: -1}}}, 1, 400), 0))
def test_theta_rows_product_is_the_full_row_product(a, b):
    # the first two explicit examples: three products of the largest terms
    # on one coefficient, and a factor on q^2 whose copies shift by q^1.  The
    # next: both theta rows 2 start at q^2, so every copy of their product is
    # shifted up from the first slot of the output row it lands on.  The last:
    # output rows that end well before the truncation.
    # The cut is at index m_a + m_b, so == checks the product's index too
    full = brute.field_mul(a.expand(), b.expand())
    assert a * b == series.cut_theta_rows(full, a.index + b.index)[0]


@st.composite
def field_theta_rows(draw):
    """A theta_form, or the product of two, times a drawn field constant:
    den > 1 and several radicals at once."""
    f = draw(theta_form())
    if draw(st.booleans()):
        f = f * draw(theta_form())
    return ThetaRows(f.rows * draw(field), f.index)


@settings(max_examples=150, deadline=None)
@given(field_theta_rows())
@example(ThetaRows(JacobiSeries({(0, 0): RadicalScalar({1: Fraction(1, 6), 5: Fraction(-2, 3)}),
                                 (-24, 2): RadicalScalar({3: Fraction(5, 4)})}, 100), 1))
def test_expand_is_canonical_as_built(f):
    full = f.expand()
    assert full == type(full).from_parts(full.parts, full.den, full.trunc)
    assert hash(full) == hash(type(full).from_parts(full.parts, full.den, full.trunc))
    rows = [row for rs in full.parts.values() for row in rs.values()]
    assert all(full.parts.values()) and all(rows)
    assert all(n for row in rows for n in row.values())
    assert gcd(full.den, *(n for row in rows for n in row.values())) == 1


def test_theta_rows_product_needs_rational_factors():
    root2 = JacobiSeries({(0, 0): RadicalScalar({2: Fraction(1)})}, 24)
    with pytest.raises(ValueError, match="rational"):
        ThetaRows(root2, 0) * ThetaRows(JacobiSeries.one(24), 0)
