"""Acceptance suite: the exact identity checks the package must pass.

Every check is an exact coefficientwise identity (zero tolerance); each
test prints one PASS line when it completes.  Stated runtime budgets
are asserted.
"""

import time

from conway_genera import genera, oracle, sigma
from conway_genera.conway import c_squared_oracle, d_squared_oracle
from conway_genera.genera import GenusRequest
from conway_genera.scalars import RadicalScalar
from conway_genera.series import QSeries, first_difference


def _announce(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_eta_identity(data):
    start = time.time()
    for rec in data.classes.values():
        report = genera.verify_eta_identity(rec, 8)
        assert report.ok, report.line()
    elapsed = time.time() - start
    assert elapsed < 10, f"eta identity suite took {elapsed:.1f}s"
    _announce(1, f"eta identity exact over {len(data.classes)} classes, "
                 f"8 q-orders ({elapsed:.1f}s)")


def test_criterion_02_decomposition(data):
    start = time.time()
    count = 0
    for rec in data.classes.values():
        signs = (1,) if rec.d_magnitude[2].is_zero else (1, -1)
        for sign in signs:
            report = genera.verify_decomposition(rec, sign, 5)
            assert report.ok, report.line()
            count += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"decomposition suite took {elapsed:.1f}s"
    _announce(2, f"index-1 decomposition exact for {count} (class, sign) "
                 f"pairs, 5 q-orders ({elapsed:.1f}s)")


def test_criterion_03_k3_genus(data):
    k3 = genera.k3_elliptic_genus(5)
    phi = genera.phi_g(data.record("1A"), 1, 5)
    assert first_difference(k3, phi, 120) is None
    z0 = k3.specialize_z0()
    assert z0 == QSeries({0: 24}, z0.trunc)
    assert genera.f_g(data.record("1A"), 1, 10).is_zero
    _announce(3, "K3 genus equals the identity-class genus (5 q-orders), "
                 "value 24 at z=0, weight-2 multiplier vanishes to 10 q-orders")


def test_criterion_04_higher_lambency(data):
    count = 0
    for ell in (3, 4, 5, 7):
        for rec in data.for_lambency(ell):
            signs = (1,) if rec.d_magnitude[ell].is_zero else (1, -1)
            for sign in signs:
                req = GenusRequest(rec, sign, ell, 4)
                report = genera.verify_decomposition_ell(req)
                assert report.ok, report.line()
                z0 = genera.phi_g_ell(req).specialize_z0()
                assert z0 == QSeries({0: rec.chi}, z0.trunc), (rec.co0_name, ell)
                count += 1
            f0 = genera.f_2j_g(rec, 0, 4)
            assert f0 == QSeries({0: 2 * rec.chi}, f0.trunc), rec.co0_name
    _announce(4, f"binomial decomposition, constant weight-0 form and chi "
                 f"specialization for {count} higher-index genera, 4 q-orders")


def test_criterion_05_weak_jacobi_structure(data):
    count = 0
    for ell in (2, 3, 4, 5, 7):
        for rec in data.for_lambency(ell):
            signs = (1,) if rec.d_magnitude[ell].is_zero else (1, -1)
            for sign in signs:
                phi = genera.phi_g_ell(GenusRequest(rec, sign, ell, 6))
                report = genera.verify_jacobi_invariance(phi, ell - 1)
                assert report.ok, (rec.co0_name, ell, sign, report.line())
                count += 1
    _announce(5, f"discriminant invariance and weakness for {count} genera "
                 f"at 6 q-orders")


def test_criterion_06_coincidences(data):
    reports = genera.verify_coincidences(data, 5)
    passed = [r for r in reports if r.status == "pass"]
    skipped = [r for r in reports if r.status == "skipped"]
    failed = [r for r in reports if r.status == "fail"]
    assert not failed, [r.line() for r in failed]
    assert len(passed) >= 14
    assert len(passed) + len(skipped) == len(data.relations)
    _announce(6, f"{len(passed)} internal coincidence relations exact at 5 "
                 f"q-orders; {len(skipped)} rows reported skipped")


def test_criterion_07_constant_oracles(data):
    for rec in data.classes.values():
        assert rec.fs_g.negate() == rec.fs_neg_g
        c_sq = c_squared_oracle(rec.fs_g)
        assert rec.c_neg_g * rec.c_neg_g == RadicalScalar.from_rational(c_sq)
        for ell, mag in rec.d_magnitude.items():
            d_sq = d_squared_oracle(rec.fs_g, ell)
            assert mag * mag == RadicalScalar.from_rational(d_sq)
    # the named anchor values
    fs = {rec.co0_name: rec.fs_g for rec in data.classes.values()}
    assert c_squared_oracle(fs["1A"]) == 4096 ** 2
    assert c_squared_oracle(fs["3C"]) == 64
    assert d_squared_oracle(fs["5C"], 2) == 3125
    assert d_squared_oracle(fs["2C"], 3) == 65536
    assert d_squared_oracle(fs["1A"], 7) == 1
    _announce(7, "squared-constant oracles reproduce every tabulated value; "
                 "negation reproduces every negated Frame shape")


def test_criterion_08_brute_force_oracle(data):
    start = time.time()
    cases = (("1A", 1), ("2B", 1), ("2D", 1), ("3D", 1), ("4D", 1), ("4D", -1))
    for name, sign in cases:
        rec = data.record(name)
        for which in ("g", "g_tw"):
            mismatch = oracle.first_mismatch(oracle.brute_ts(rec, which, 2),
                                             genera.ts_g(rec, which, "chi", 3))
            assert mismatch is None, (name, which, mismatch)
        mismatch = oracle.first_mismatch(oracle.brute_phi(rec, sign, 2, 2),
                                         genera.phi_g(rec, sign, 3))
        assert mismatch is None, (name, sign, mismatch)
    assert len(oracle.enumerate_basis("twisted", 1)) == 4096
    elapsed = time.time() - start
    assert elapsed < 120, f"oracle suite took {elapsed:.1f}s"
    _announce(8, f"brute-force traces match closed forms through degree 2 "
                 f"for {len(cases)} cases; twisted ground dimension 4096 "
                 f"({elapsed:.1f}s)")


def test_criterion_09_sigma_model_characters():
    start = time.time()
    reports = sigma.verify_sigma_isomorphism(6)
    for report in reports:
        assert report.ok, report.line()
    elapsed = time.time() - start
    assert elapsed < 30, f"sigma suite took {elapsed:.1f}s"
    _announce(9, f"all {len(reports)} character identities exact at 6 "
                 f"q-orders ({elapsed:.1f}s)")


def test_criterion_10_known_fourier_data(data):
    ts = genera.ts_g(data.record("1A"), "g", "chi", 8)
    assert ts.coeff(-12) == 1
    assert ts.coeff(0).is_zero
    for rec in data.classes.values():
        tw_chi = genera.ts_g(rec, "g_tw", "chi", 8)
        expected = QSeries({0: -rec.chi}, 24 * 8)
        assert tw_chi == expected, rec.co0_name
        tw_direct = genera.ts_g(rec, "g_tw", "direct", 8)
        assert first_difference(tw_direct, expected, 24 * 8) is None, rec.co0_name
    _announce(10, "leading trace shape q^(-1/2) + 0 + O(q^(1/2)) and constant "
                  "twisted traces -chi for all classes, 8 q-orders")
