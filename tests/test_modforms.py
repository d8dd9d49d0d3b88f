from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from conway_genera import genera, sigma
from conway_genera import modforms as mf
from conway_genera.conway import FrameShape
from conway_genera.series import GridError, JacobiSeries, QSeries, first_difference


def test_eta_leading_terms():
    e = mf.eta(200)
    assert e.coeff(1) == 1
    assert e.coeff(25) == -1


def test_delta_expansion_matches_brute_product():
    limit = 144
    d = mf.delta(limit)
    expected = brute.brute_delta(limit)
    assert {k: v.rational_value() for k, v in d.coeffs.items()} == expected
    assert d.coeff(48) == -24


def test_eta_times_inverted_euler_product_is_pure_power():
    prec = 24 * 6
    unit = mf._euler_product(prec, 24).inverse()
    product = mf.eta(prec) * unit
    assert first_difference(product, QSeries({1: 1}, product.trunc)) is None


def test_eta_matches_euler_pentagonal_series():
    prec = 24 * 30
    assert mf.eta(prec) == QSeries(brute.pentagonal_eta(prec), prec)


#: {a: e} maps over a few grid steps, so that the gcd step varies
_EXPONENT_KEYS = st.integers(1, 40).map(lambda a: 6 * a)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_EXPONENT_KEYS, st.integers(-6, 6), max_size=6), st.integers(1, 200))
def test_power_product_matches_brute_expansion(exponents, prec):
    got = mf.power_product(exponents, prec)
    expected = brute.product_one_minus(sorted(exponents.items()), prec)
    assert got.trunc == prec
    assert {k: v.rational_value() for k, v in got.coeffs.items()} == expected


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_EXPONENT_KEYS, st.integers(-6, 6), max_size=6), st.integers(1, 200))
def test_power_product_of_negated_exponents_is_inverse(exponents, prec):
    negated = {a: -e for a, e in exponents.items()}
    product = mf.power_product(exponents, prec) * mf.power_product(negated, prec)
    assert product == QSeries.one(prec)


def test_power_product_matches_brute_expansion_on_every_frame_shape_map(data, monkeypatch):
    # the {a: e} maps eta_product and eta_ratio_half hand to the kernel
    maps = []
    kernel = mf.power_product

    def recording(exponents, prec):
        maps.append((dict(exponents), prec))
        return kernel(exponents, prec)

    monkeypatch.setattr(mf, "power_product", recording)
    prec = 24 * 10
    shapes = {fs for rec in data.classes.values() for fs in (rec.fs_g, rec.fs_neg_g)}
    for fs in shapes:
        mf.eta_product.__wrapped__(fs, prec)
        mf.eta_ratio_half.__wrapped__(fs, prec)
    assert len(maps) == 2 * len(shapes)
    for exponents, work in maps:
        got = kernel(exponents, work)
        expected = brute.product_one_minus(sorted(exponents.items()), work)
        assert {k: v.rational_value() for k, v in got.coeffs.items()} == expected, exponents


def test_power_product_rejects_inexact_steps_and_bad_exponents():
    # a half-integer exponent forges a step with a remainder at once
    with pytest.raises(ValueError, match="inexact"):
        mf.power_product({24: Fraction(1, 2)}, 48)
    with pytest.raises(ValueError, match="positive"):
        mf.power_product({0: 1}, 48)


def test_products_use_no_series_power_inverse_or_product(data, cold_caches, monkeypatch):
    calls = {"mul": 0, "pow": 0, "inverse": 0, "jacobi_mul": 0}
    mul, pow_, inverse = QSeries.__mul__, QSeries.__pow__, QSeries.inverse
    jacobi_mul = JacobiSeries.__mul__

    def counting_mul(self, other):
        calls["mul"] += isinstance(other, QSeries)
        return mul(self, other)

    def counting_jacobi_mul(self, other):
        calls["jacobi_mul"] += isinstance(other, (QSeries, JacobiSeries))
        return jacobi_mul(self, other)

    def counting_pow(self, n):
        calls["pow"] += 1
        return pow_(self, n)

    def counting_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(QSeries, "__mul__", counting_mul)
    monkeypatch.setattr(QSeries, "__rmul__", counting_mul)
    monkeypatch.setattr(QSeries, "__pow__", counting_pow)
    monkeypatch.setattr(QSeries, "inverse", counting_inverse)
    monkeypatch.setattr(JacobiSeries, "__mul__", counting_jacobi_mul)
    monkeypatch.setattr(JacobiSeries, "__rmul__", counting_jacobi_mul)
    prec = 24 * 8
    for rec in (data.record("1A"), data.record("5C"), data.record("12L")):
        for fs in (rec.fs_g, rec.fs_neg_g):
            mf.eta_product(fs, prec)
            mf.eta_ratio_half(fs, prec)
        for j in range(5):
            genera.f_2j_g(rec, j, 4)
        for sign in (1, -1):
            genera.f_g(rec, sign, 4)
    mf.delta(prec)
    for kind in (mf.THETA2, mf.THETA3, mf.THETA4, mf.THETA1SQ):
        mf.theta_quotient(kind, prec)
    sigma.u_characters(prec)
    assert calls == {"mul": 0, "pow": 0, "inverse": 0, "jacobi_mul": 0}


def test_eisenstein_e2():
    e2 = mf.eisenstein_e2(120)
    assert e2.coeff(0) == 1
    assert e2.coeff(24) == -24
    assert e2.coeff(48) == -72


def test_lambda2_constant_term():
    assert mf.lambda_n(2, 96).coeff(0) == Fraction(1, 12)


def test_lambda4_level_identities():
    prec = 24 * 8
    l4 = mf.lambda_n(4, prec)
    l2 = mf.lambda_n(2, prec)
    l2_scaled = mf.lambda_n(2, prec // 2).scale_argument(2)
    assert first_difference(l4, l2_scaled * 4 + l2 * 2, prec) is None
    # tau + 1/2 variant, built through pre-scaled half-period signs
    e2 = mf.eisenstein_e2(prec)
    e2_half_shift = e2.scale_argument(Fraction(1, 2)).half_period_shift() \
        .scale_argument(2)
    e4 = mf.eisenstein_e2(prec // 4).scale_argument(4)
    l4_shifted = (e4 * 4 - e2_half_shift) * Fraction(4, 24)
    assert first_difference(l4_shifted, l2_scaled * 8 - l2 * 2, prec) is None


def test_lambda2_half_values():
    prec = 24 * 6
    plain = mf.lambda2_half("plain", prec)
    shifted = mf.lambda2_half("shifted", prec)
    assert plain.coeff(0) == Fraction(1, 12)
    assert plain.coeff(12) == 2
    assert shifted == plain.half_period_shift()
    total = plain + shifted
    assert all(k % 24 == 0 for k in total.coeffs)
    assert first_difference(total, mf.lambda_n(2, prec) * 2, prec) is None


def test_eta_product_identity_class():
    fs = FrameShape.from_pairs([(1, 24)])
    assert mf.eta_product(fs, 168) == mf.delta(168)


def test_eta_product_negated_identity_class():
    fs = FrameShape.from_pairs([(2, 24), (1, -24)])
    limit = 120
    got = mf.eta_product(fs, limit)
    expected = brute.brute_delta2_over_delta(limit)
    assert {k: v.rational_value() for k, v in got.coeffs.items()} == expected


def test_eta_product_leading_exponent_is_q(data):
    for rec in data.classes.values():
        ep = mf.eta_product(rec.fs_g, 72)
        assert ep.min_key() == 24
        assert ep.coeff(24) == 1


def test_eta_ratio_identity_class_matches_brute():
    limit = 24 * 4
    r = mf.eta_ratio_half(FrameShape.from_pairs([(1, 24)]), limit)
    expected = brute.brute_ratio_identity_class(limit)
    assert {k: v.rational_value() for k, v in r.coeffs.items()} == expected
    assert r.coeff(-12) == 1
    assert r.coeff(0) == -24
    assert r.coeff(12) == 276


def test_eta_ratio_even_frame_shape():
    # all parts even: the product only involves odd powers of q
    r = mf.eta_ratio_half(FrameShape.from_pairs([(2, 12)]), 24 * 4)
    assert r.coeff(-12) == 1
    assert all((k + 12) % 24 == 0 for k in r.coeffs)


def test_eta_ratio_consistency_with_eta_product(data):
    # ratio * eta_product = eta_product with all exponents halved
    for name in ("1A", "3C", "8H"):
        rec = data.record(name)
        prec = 24 * 6
        ratio = mf.eta_ratio_half(rec.fs_g, prec)
        ep = mf.eta_product(rec.fs_g, prec)
        halved = mf.eta_product(rec.fs_g, 2 * prec).scale_argument(Fraction(1, 2))
        assert first_difference(ratio * ep, halved, prec) is None


def _q0_row(f):
    """The y half-index coefficients of a two-variable series at q^0."""
    return {ry: v for (kq, ry), v in f.coeffs.items() if kq == 0}


def test_theta_quotient_ground_rows():
    prec = 96
    assert _q0_row(mf.theta_quotient(mf.THETA3, prec)) == {0: 1}
    q2 = _q0_row(mf.theta_quotient(mf.THETA2, prec))
    assert q2 == {2: Fraction(1, 4), 0: Fraction(1, 2), -2: Fraction(1, 4)}
    pm = _q0_row(mf.phi_minus21(prec))
    assert pm == {-2: 1, 0: -2, 2: 1}


#: grid indices for the triple-product check: below, at and past the first
#: half-integer and integer q-orders, and half an order past 6 and past the
#: 48 q-orders that compute and verify accept
_THETA_GRIDS = (1, 2, 3, 12, 13, 24, 25, 6 * 24 + 12, 48 * 24 + 12)


def test_theta_sums_match_products():
    for prec in _THETA_GRIDS:
        for kind in (mf.THETA2, mf.THETA3, mf.THETA4, mf.THETA1SQ):
            got = mf.theta_quotient(kind, prec)
            assert got.trunc == prec
            assert {k: v.rational_value() for k, v in got.coeffs.items()} \
                == brute.triple_product_quotient(kind, prec), (kind, prec)
    # 12 orders cover the deep benchmark's work grid of 252 (10 orders + genera._MARGIN)
    prec = 24 * 12
    for i, kind in ((2, mf.THETA2), (3, mf.THETA3), (4, mf.THETA4)):
        from_sums = mf.theta_quotient_from_sums(i, prec)
        assert first_difference(from_sums, mf.theta_quotient(kind, prec), prec) is None
    # theta_1^2 / eta^6 = -(i theta_1)^2 / eta^6, eta from Euler's pentagonal series
    work = prec + 24
    eta6 = QSeries(brute.pentagonal_eta(work), work) ** 6
    s = mf.theta_sum(1, work)
    from_sums = -(s * s) * eta6.inverse()
    assert from_sums.trunc >= prec
    assert first_difference(from_sums, mf.theta_quotient(mf.THETA1SQ, prec), prec) is None


def test_phi01_discriminant_invariance():
    prec = 24 * 6
    p01 = mf.phi01(prec)
    seen = {}
    for (kq, ry), v in p01.coeffs.items():
        n, r = kq // 24, ry // 2
        key = (4 * n - r * r, r % 2)
        if key in seen:
            assert seen[key] == v
        else:
            seen[key] = v


def test_hecke_t2_monomials():
    f = QSeries({24 * 4: 5, 24 * 3: 7}, 24 * 10)
    out = mf.hecke_t2(f)
    assert out.coeff(48) == 5          # q^4 -> q^2
    assert all(k != 36 for k in out.coeffs)  # odd exponent killed
    const = mf.hecke_t2(QSeries({0: 9}, 48))
    assert const.coeff(0) == 9


def test_hecke_t2_grid_violation():
    with pytest.raises(GridError):
        mf.hecke_t2(QSeries({12: 1}, 48))


def test_hecke_reproduces_weight_two_combination(data):
    # F'' = T(2) of (1/2) t Lambda_4 for the class 2B, both sides independent
    rec = data.record("2B")
    orders = 6
    prec = 24 * orders
    work = 4 * prec
    ep = mf.eta_product(rec.fs_g, work)
    ep2 = mf.eta_product(rec.fs_g, work // 2).scale_argument(2)
    t = ep * ep2.inverse()
    f = t * mf.lambda_n(4, work) * Fraction(1, 2)
    lhs = mf.hecke_t2(f.truncate(2 * prec))
    # F'' assembled from the half-argument pieces
    r_g = mf.eta_ratio_half(rec.fs_g, prec)
    r_neg = mf.eta_ratio_half(rec.fs_neg_g, prec)
    f2 = (mf.lambda2_half("plain", prec) * r_g
          - mf.lambda2_half("shifted", prec) * r_neg) * Fraction(1, 2) \
        - mf.lambda_n(2, prec) * mf.eta_product(rec.fs_neg_g, prec) * rec.c_neg_g
    rhs = f2 - mf.lambda_n(2, prec) * (2 * rec.chi)
    assert first_difference(lhs, rhs, prec) is None


def test_verify_theta_identities():
    reports = mf.verify_theta_identities(4)
    assert all(r.status == "pass" for r in reports)
    assert all(r.status == "pass" for r in mf.verify_theta_identities(1))


def test_every_theta_identity_can_fail_at_one_order(monkeypatch):
    # q^(1/2) in Lambda2(tau/2) and Lambda2(tau/2+1/2), q^0 in Lambda2
    lambda2_half, lambda_n = mf.lambda2_half, mf.lambda_n
    monkeypatch.setattr(mf, "lambda2_half",
                        lambda v, prec: lambda2_half(v, prec) + QSeries({12: 1}, prec))
    monkeypatch.setattr(mf, "lambda_n",
                        lambda n, prec: lambda_n(n, prec) + QSeries({0: 1}, prec))
    reports = mf.verify_theta_identities(1)
    assert len(reports) == 3
    assert all(r.status == "fail" and r.first_deviation for r in reports)
