from fractions import Fraction

import pytest

import brute
from conway_genera import cli, genera, modforms, series
from conway_genera.conway import LAMBENCIES
from conway_genera.genera import GenusRequest
from conway_genera.modforms import THETA1SQ, THETA2, THETA3, THETA4
from conway_genera.scalars import RadicalScalar
from conway_genera.series import JacobiSeries, QSeries, ThetaRows, first_difference

#: the shared forms phi_{0,1}/12 + L Q1 of the decomposition, one per weight-2 form L
DECOMPOSED = tuple((genera._DECOMPOSED, kind)
                   for kind in (genera._L2_PLAIN, genera._L2_SHIFTED, genera._L2_NEG2))


def test_ts_identity_class_shape(data):
    ts = genera.ts_g(data.record("1A"), "g", "chi", 8)
    assert ts.coeff(-12) == 1
    assert ts.coeff(0).is_zero
    assert ts.coeff(12) == 276


def test_ts_twisted_identity_class_constant(data):
    tw = genera.ts_g(data.record("1A"), "g_tw", "chi", 8)
    assert tw == QSeries({0: -24}, 24 * 8)


def test_ts_direct_equals_chi_form(data):
    for rec in data.classes.values():
        for which in ("g", "g_tw"):
            direct = genera.ts_g(rec, which, "direct", 5)
            chi = genera.ts_g(rec, which, "chi", 5)
            assert first_difference(direct, chi, 120) is None, rec.co0_name


def test_eta_identity_selected_rows(data):
    for name in ("1A", "3C", "2D"):
        assert genera.verify_eta_identity(data.record(name), 10).ok


def test_eta_identity_all_rows(data):
    for rec in data.classes.values():
        assert genera.verify_eta_identity(rec, 8).ok, rec.co0_name


def test_phi_specializes_to_chi(data):
    for name in ("1A", "2C", "4D", "5C", "8H", "15D"):
        rec = data.record(name)
        z0 = genera.phi_g(rec, 1, 4).specialize_z0()
        assert z0 == QSeries({0: rec.chi}, z0.trunc), name


def test_phi_identity_class_is_twice_phi01(data):
    prec = 24 * 5
    phi = genera.phi_g(data.record("1A"), 1, 5)
    assert first_difference(phi, modforms.phi01(prec) * 2, prec) is None


def test_k3_genus(data):
    k3 = genera.k3_elliptic_genus(5)
    assert {ry: v for (kq, ry), v in k3.coeffs.items() if kq == 0} == {-2: 2, 0: 20, 2: 2}
    z0 = k3.specialize_z0()
    assert z0 == QSeries({0: 24}, z0.trunc)
    phi = genera.phi_g(data.record("1A"), 1, 5)
    assert first_difference(k3, phi, 120) is None


def test_f_identity_class_vanishes(data):
    assert genera.f_g(data.record("1A"), 1, 10).is_zero


def test_f_4d_equals_f_2d(data):
    f1 = genera.f_g(data.record("4D"), 1, 8)
    f2 = genera.f_g(data.record("2D"), 1, 8)
    assert first_difference(f1, f2, 24 * 8) is None


def test_f_lands_on_integer_grid(data):
    for name in ("5C", "9C", "12L"):
        f = genera.f_g(data.record(name), -1, 5)
        assert all(k % 24 == 0 for k in f.coeffs)


def test_f0_is_twice_chi(data):
    for rec in data.classes.values():
        f0 = genera.f_2j_g(rec, 0, 4)
        assert f0 == QSeries({0: 2 * rec.chi}, f0.trunc), rec.co0_name


def test_f0_values_for_named_rows(data):
    assert genera.f_2j_g(data.record("1A"), 0, 4).coeff(0) == 48
    # trace of the order-2 class with all parts even is 0, so F_0 = 0
    assert data.record("2D").chi == 0
    assert genera.f_2j_g(data.record("2D"), 0, 4).is_zero


def test_decomposition_all_rows_both_signs(data):
    for rec in data.classes.values():
        signs = (1,) if rec.d_magnitude[2].is_zero else (1, -1)
        for sign in signs:
            assert genera.verify_decomposition(rec, sign, 3).ok, \
                (rec.co0_name, sign)


def test_decomposition_ell2_matches_general_form(data):
    rec = data.record("6M")
    r1 = genera.verify_decomposition(rec, -1, 3)
    r2 = genera.verify_decomposition_ell(GenusRequest(rec, -1, 2, 3))
    assert r1.ok and r2.ok


def test_decomposition_higher_lambency_rows(data):
    cases = [("2C", 3, -1), ("3D", 3, 1), ("2D", 4, 1), ("2B", 5, -1),
             ("1A", 7, 1), ("1A", 7, -1)]
    for name, ell, sign in cases:
        req = GenusRequest(data.record(name), sign, ell, 3)
        assert genera.verify_decomposition_ell(req).ok, (name, ell, sign)


@pytest.mark.parametrize("orders", range(1, 7))
def test_every_genus_equals_its_binomial_decomposition(data, orders):
    # the class-level decomposition, by the full-row reference: the suites
    # decide it on the index-1 bases alone
    requests = list(cli._genus_requests(data, LAMBENCIES, orders))
    assert len(requests) == 92
    for req in requests:
        assert genera.phi_g_ell(req) == brute.full_decomposition_rhs(req), \
            (req.rec.co0_name, *req[1:])


@pytest.mark.parametrize("orders", [None, 24])
@pytest.mark.parametrize("suite, lambencies", [("decomposition", LAMBENCIES[:1]),
                                               ("higher-lambency", LAMBENCIES[1:])])
def test_decomposition_rows_build_no_class_form(data, monkeypatch, suite, lambencies, orders):
    # the shared powers of the two sides are equal ThetaRows at every
    # precision here, so only the suite's sign-flip rows build class forms
    run, default = cli._SUITES[suite]
    orders = orders or default
    calls = []
    class_form = genera._class_form
    monkeypatch.setattr(genera, "_class_form",
                        lambda *args: calls.append(args[-1]) or class_form(*args))
    reports = run(data, orders)
    in_suite = len(calls)
    flips = cli._sign_flips(data, lambencies, orders)
    assert all(r.ok for r in reports) and len(reports) > len(flips)
    assert in_suite == len(calls) - in_suite


@pytest.mark.parametrize("orders", [4, 24])
def test_passing_decomposition_rows_request_no_power_above_one(
        data, cold_caches, monkeypatch, orders):
    # equal index-1 bases decide a row, so a passing row builds no power
    requests = list(cli._genus_requests(data, LAMBENCIES[1:], orders))
    assert len(requests) == 28
    powers = []
    shared_power = genera._shared_power
    monkeypatch.setattr(genera, "_shared_power",
                        lambda kind, power, work: powers.append(power)
                        or shared_power(kind, power, work))
    assert all(genera.verify_decomposition_ell(req).ok for req in requests)
    assert powers and max(powers) == 1


@pytest.mark.parametrize("orders", [4, 24])
def test_equal_bases_have_equal_powers(orders):
    # the premise of deciding the decomposition on its index-1 bases
    work = 24 * orders + genera._MARGIN
    for theta, kind in zip(genera._GENUS_SLOTS, genera._F_SLOTS):
        if kind:
            for m in range(1, 7):
                assert (genera._shared_power(theta, m, work)
                        == genera._shared_power((genera._DECOMPOSED, kind), m, work)), (kind, m)


def test_decomposition_rows_are_named_by_the_checked_sign(data):
    # 1A's D vanishes at lambency 2, so its -1 request checks the +1 genus
    one = data.record("1A")
    report = genera.verify_decomposition(one, -1, 2)
    assert report.ok and report.name == "decomposition[1A, D sign +1]"
    ell_report = genera.verify_decomposition_ell(GenusRequest(one, -1, 2, 2))
    assert ell_report.name == "decomposition[1A, ell 2, D sign +1]"


def test_phi_matches_radical_reference_for_every_tabulated_genus(data):
    count = 0
    for ell in (2, 3, 4, 5, 7):
        for rec in data.for_lambency(ell):
            for sign in ((1,) if rec.d_magnitude[ell].is_zero else (1, -1)):
                req = GenusRequest(rec, sign, ell, 3)
                assert genera.phi_g_ell(req) == brute.radical_phi_g_ell(req), \
                    (rec.co0_name, sign, ell)
                count += 1
    assert count == 92


def test_genus_headroom_is_exact(data):
    work = 24 * 3 + genera._MARGIN
    starts = set()
    for rec in data.classes.values():
        for fs in (rec.fs_g, rec.fs_neg_g):
            starts.add(modforms.eta_ratio_half(fs, work).min_key())
            assert modforms.eta_product(fs, work).min_key() >= 0, rec.co0_name
    assert starts == {-12} == {-genera._MARGIN}
    weight2 = (genera._L2_PLAIN, genera._L2_SHIFTED, genera._L2_NEG2)
    kinds = (THETA1SQ, THETA2, THETA3, THETA4, genera._PHI01, *weight2, *DECOMPOSED)
    for power in range(1, 7):
        for kind in kinds:
            assert genera._shared_power(kind, power, work).rows.min_key() >= 0, (kind, power)


def test_each_shared_power_carries_its_index():
    work = 24 * 3 + genera._MARGIN
    weight2 = (genera._L2_PLAIN, genera._L2_SHIFTED, genera._L2_NEG2)
    for power in range(5):
        for kind in (THETA1SQ, THETA2, THETA3, THETA4, genera._PHI01, *weight2, *DECOMPOSED):
            shared = genera._shared_power(kind, power, work)
            index = 0 if kind in weight2 else power
            assert shared.index == index, (kind, power)
            # the rows hold theta rows y^0..y^index alone
            assert set(shared.rows.parts.get(1, {})) <= set(range(0, 2 * index + 1, 2)), \
                (kind, power)


def test_theta_row_assembly_matches_the_full_row_reference(data):
    orders = 6
    count = 0
    for ell in (2, 3, 4, 5, 7):
        for rec in data.for_lambency(ell):
            for sign in rec.d_signs(ell):
                req = GenusRequest(rec, sign, ell, orders)
                assert genera.phi_g_ell(req) == brute.full_phi_g_ell(req), \
                    (rec.co0_name, sign, ell)
                count += 1
    assert count == 92


def test_theta_row_assembly_matches_the_full_row_reference_at_24_orders(data):
    one = data.record("1A")
    for sign in one.d_signs(7):
        req = GenusRequest(one, sign, 7, 24)
        assert genera.phi_g_ell(req) == brute.full_phi_g_ell(req), sign
    # only 1A has a lambency-7 row: the other classes take the index-6
    # genus products with D = 1
    for name in ("2B", "12L"):
        rec = data.record(name)
        rows = genera._class_form(rec, 24, [(kind, 6) for kind in genera._GENUS_SLOTS], -1, 1,
                                  "index-6 form")
        assert ThetaRows(rows, 6).expand() == brute.full_genus(rec, 24, 6, -1), name


def test_theta_row_powers_match_the_full_row_reference_at_24_orders():
    work = 24 * 24 + genera._MARGIN
    for kind in genera._GENUS_SLOTS:
        assert (genera._shared_power(kind, 6, work).expand()
                == brute.full_shared_power(kind, 6, work)), kind
    for kind in DECOMPOSED:
        assert (genera._shared_power(kind, 6, work).expand()
                == brute.full_shared_power((brute.BINOMIAL, kind[1]), 6, work)), kind


def _perturbed(f, ry, kq):
    parts = {d: {y: dict(row) for y, row in rows.items()} for d, rows in f.parts.items()}
    parts[1].setdefault(ry, {})[kq] = parts[1].get(ry, {}).get(kq, 0) + 1
    return JacobiSeries.from_parts(parts, f.den, f.trunc)


def test_base_row_guard_fires_on_a_perturbed_coefficient(monkeypatch, cold_caches):
    orders = 5
    work = 24 * orders + genera._MARGIN
    base = modforms.phi01(work)
    rows, deviation = series.cut_theta_rows(base, 1)
    assert deviation is None and rows == genera._shared_power(genera._PHI01, 1, work)
    # y^-1 q^1, y^2 q^1 and y^-3 q^4 are dropped rows; y^1 q^2 is kept and
    # has dropped partners; y^(1/2) is off the integer y grid
    for ry, kq in ((-2, 24), (4, 24), (-6, 96), (2, 48), (1, 0)):
        assert series.cut_theta_rows(_perturbed(base, ry, kq), 1)[1] is not None, (ry, kq)
    bad = _perturbed(base, -2, 24)
    monkeypatch.setattr(modforms, "phi01", lambda prec: bad)
    reports = genera.verify_elliptic_law(orders)
    assert [r.name for r in reports if r.status == "fail"] == ["elliptic-law[phi01]"]
    assert reports[-1].first_deviation == {"q_exp": "1", "y_exp": "-1", "lhs": "-63",
                                           "rhs": "-64"}
    # the builder cuts the bad base to its theta rows and does not raise
    genera._shared_power.cache_clear()
    assert genera._shared_power(genera._PHI01, 1, work) == series.cut_theta_rows(bad, 1)[0]


def test_theta_rows_round_trip_the_decomposed_powers():
    work = 24 * 4 + genera._MARGIN
    for kind in DECOMPOSED:
        for m in range(4):
            shared = genera._shared_power(kind, m, work)
            assert set(shared.rows.parts[1]) <= set(range(0, 2 * m + 1, 2)), (kind, m)
            full = shared.expand()
            assert full == brute.full_shared_power((brute.BINOMIAL, kind[1]), m, work), (kind, m)
            assert series.cut_theta_rows(full, m) == (shared, None), (kind, m)


def test_genus_products_stop_at_requested_precision(data, monkeypatch):
    orders = 3
    cases = [GenusRequest(data.record(name), sign, ell, orders)
             for name, ell, sign in (("1A", 2, 1), ("5C", 2, -1), ("2B", 5, -1),
                                     ("4G", 3, 1), ("1A", 7, 1))]

    def run():
        for req in cases:
            genera.phi_g_ell(req)
            genera.verify_decomposition_ell(req)
            genera.f_2j_g(req.rec, req.ell - 1, orders)
            genera.verify_sign_flip(req.rec, req.ell, orders)
            if req.ell == 2:
                genera.verify_decomposition(req.rec, req.d_sign, orders)

    run()  # the shared powers are built once, at the working grid
    truncs = []
    convolve = series._convolve

    def traced(rows_a, rows_b, trunc):
        truncs.append(trunc)
        return convolve(rows_a, rows_b, trunc)

    monkeypatch.setattr(series, "_convolve", traced)
    run()
    assert truncs and max(truncs) <= 24 * orders


def test_warm_genus_side_forms_split_no_series(data, monkeypatch):
    cases = [GenusRequest(data.record(name), sign, ell, 3)
             for name, ell, sign in (("1A", 2, 1), ("5C", 2, -1), ("2B", 5, -1),
                                     ("4G", 3, 1), ("12N", 2, -1))]

    def run():
        for req in cases:
            genera.phi_g_ell(req)
            genera.f_2j_g(req.rec, req.ell, req.orders)
            assert genera.verify_decomposition_ell(req).ok

    run()  # class series and shared powers are cached from here on
    calls = []

    def counting(name, method):
        def counted(self, *args):
            calls.append(name)
            return method(self, *args)
        return counted

    for cls in (QSeries, JacobiSeries):
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    monkeypatch.setattr(series._Series, "times", counting("times", series._Series.times))
    run()
    assert calls == []


def test_cold_shared_powers_build_no_field_values(cold_caches, monkeypatch):
    work = 24 * 3 + genera._MARGIN
    built = []
    init = RadicalScalar.__init__

    def counted(self, parts=None):
        built.append(parts)
        init(self, parts)

    monkeypatch.setattr(RadicalScalar, "__init__", counted)
    for kind in (THETA1SQ, THETA2, THETA3, THETA4, genera._PHI01,
                 genera._L2_PLAIN, genera._L2_SHIFTED, genera._L2_NEG2, *DECOMPOSED):
        assert not genera._shared_power(kind, 3, work).rows.is_zero
        assert built == [], kind


#: RadicalScalars a genus may build: a few per class constant and per
#: combine term, however many coefficients the genus has
GENUS_FIELD_VALUES = 24


@pytest.mark.parametrize("orders", [6, 12])
def test_genus_check_and_dump_build_field_values_only_for_the_constants(
        data, monkeypatch, orders):
    built = []
    init = RadicalScalar.__init__

    def counted(self, parts=None):
        built.append(parts)
        init(self, parts)

    monkeypatch.setattr(RadicalScalar, "__init__", counted)
    rec = data.record("10H")  # D = 5 sqrt(5), C(-g) = 20
    phi = genera.phi_g_ell(GenusRequest(rec, -1, 2, orders))
    assert genera.verify_jacobi_invariance(phi, 1).ok
    text = phi.dump()
    assert len(text.splitlines()) > GENUS_FIELD_VALUES and "sqrt(5)" in text
    assert len(built) <= GENUS_FIELD_VALUES


def test_f_is_minus_half_of_f2_plus_the_d_term(data):
    orders = 4
    for rec in data.classes.values():
        eta_g = modforms.eta_product(rec.fs_g, 24 * orders)
        for sign in (1, -1):
            d_term = eta_g * rec.d_signed(2, sign)
            expected = (genera.f_2j_g(rec, 1, orders) + d_term) * Fraction(-1, 2)
            got = genera.f_g(rec, sign, orders)
            assert got.trunc == expected.trunc and got.coeffs == expected.coeffs, \
                (rec.co0_name, sign)


@pytest.mark.parametrize("orders", [2, 4])
def test_f_2j_matches_radical_reference_for_every_class(data, orders):
    for rec in data.classes.values():
        for j in range(7):
            got = genera.f_2j_g(rec, j, orders)
            want = brute.radical_f_2j_g(rec, j, orders)
            assert got.trunc == want.trunc and got.coeffs == want.coeffs, \
                (rec.co0_name, j)


@pytest.mark.parametrize("orders", [2, 4])
def test_f_matches_radical_reference_for_every_class_and_sign(data, orders):
    for rec in data.classes.values():
        for sign in (1, -1):
            got = genera.f_g(rec, sign, orders)
            want = brute.radical_f_g(rec, sign, orders)
            assert got.trunc == want.trunc and got.coeffs == want.coeffs, \
                (rec.co0_name, sign)


def test_phi_ell2_reduces_to_phi(data):
    rec = data.record("8D")
    a = genera.phi_g(rec, -1, 3)
    b = genera.phi_g_ell(GenusRequest(rec, -1, 2, 3))
    assert a == b


def test_phi_ell_specializes_to_chi(data):
    for ell in (3, 4, 5, 7):
        for rec in data.for_lambency(ell):
            signs = (1,) if rec.d_magnitude[ell].is_zero else (1, -1)
            for sign in signs:
                z0 = genera.phi_g_ell(GenusRequest(rec, sign, ell, 3)).specialize_z0()
                assert z0 == QSeries({0: rec.chi}, z0.trunc), (rec.co0_name, ell)


def test_phi_ell7_identity_class(data):
    rec = data.record("1A")
    phi = genera.phi_g_ell(GenusRequest(rec, -1, 7, 4))
    report = genera.verify_jacobi_invariance(phi, 6)
    assert report.ok
    z0 = phi.specialize_z0()
    assert z0 == QSeries({0: 24}, z0.trunc)


def test_jacobi_invariance_samples(data):
    phi = genera.phi_g(data.record("1A"), 1, 6)
    assert genera.verify_jacobi_invariance(phi, 1).ok
    phi5 = genera.phi_g_ell(GenusRequest(data.record("2B"), -1, 5, 6))
    assert genera.verify_jacobi_invariance(phi5, 4).ok


def _bumped(phi, bumps):
    coeffs = dict(phi.coeffs)
    for key, value in bumps.items():
        coeffs[key] = coeffs.get(key, RadicalScalar()) + value
    return JacobiSeries(coeffs, phi.trunc)


def test_jacobi_invariance_detects_corruption(data):
    phi = genera.phi_g(data.record("1A"), 1, 4)
    report = genera.verify_jacobi_invariance(_bumped(phi, {(24, 2): 1}), 1)
    # q^1 y^-1 is the kept q^1 y^1 by evenness: the form keeps its value there
    assert report.status == "fail"
    assert report.first_deviation == {"q_exp": "1", "y_exp": "-1", "lhs": "-128",
                                      "rhs": "-127"}


def test_jacobi_invariance_detects_corruption_of_an_irrational_part(data):
    phi = genera.phi_g(data.record("10H"), -1, 4)
    report = genera.verify_jacobi_invariance(
        _bumped(phi, {(24, 2): RadicalScalar({5: 1})}), 1)
    assert report.status == "fail"
    assert report.first_deviation == {"q_exp": "1", "y_exp": "-1",
                                      "lhs": "15/2 + 5/2*sqrt(5)", "rhs": "15/2 + 7/2*sqrt(5)"}


def test_jacobi_invariance_detects_a_form_odd_in_z(data):
    phi = genera.phi_g_ell(GenusRequest(data.record("2B"), 1, 3, 6))
    # q^1 y^1, q^2 y^-3 and q^4 y^5 share 8n - r^2 = 7 and r = 1 mod 4, so the
    # bumped form still obeys the elliptic law; only evenness fails
    odd = _bumped(phi, {(24, 2): 1, (48, -6): 1, (96, 10): 1})
    report = genera.verify_jacobi_invariance(odd, 2)
    assert report.status == "fail"
    assert report.first_deviation == {"q_exp": "1", "y_exp": "-1", "lhs": phi.text_at(24, -2),
                                      "rhs": odd.text_at(24, 2)}


def test_jacobi_invariance_at_index_zero_asks_for_a_y_free_form(data):
    phi = genera.phi_g_ell(GenusRequest(data.record("2B"), 1, 3, 4))
    assert genera.verify_jacobi_invariance(phi.row0(), 0).ok
    assert genera.verify_jacobi_invariance(JacobiSeries.one(96), 0).ok
    report = genera.verify_jacobi_invariance(phi, 0)
    assert report.status == "fail"
    assert report.first_deviation == {"q_exp": "0", "y_exp": "-1", "lhs": phi.text_at(0, -2),
                                      "rhs": "0"}


def test_jacobi_invariance_rejects_a_negative_index(data):
    phi = genera.phi_g(data.record("1A"), 1, 2)
    with pytest.raises(ValueError, match="negative"):
        genera.verify_jacobi_invariance(phi, -1)


def test_sign_flip_relation(data):
    for name, ell in (("5C", 2), ("12N", 2), ("4G", 3)):
        rec = data.record(name)
        assert genera.verify_sign_flip(rec, ell, 3).ok, (name, ell)


def test_coincidences(data):
    reports = genera.verify_coincidences(data, 4)
    by_name = {r.name: r for r in reports}
    assert all(r.status != "fail" for r in reports)
    internal = [r for r in reports if r.status == "pass"]
    skipped = [r for r in reports if r.status == "skipped"]
    assert len(internal) == 17
    assert len(skipped) == len(reports) - 17
    assert by_name["coincidence[ell 2: 4B]"].status == "pass"
    assert by_name["coincidence[ell 2: 7B]"].status == "skipped"


@pytest.mark.parametrize("lambency", [1, 6, 8])
def test_coincidences_reject_a_lambency_with_no_table(data, lambency):
    with pytest.raises(ValueError, match=f"lambency {lambency} is not one of"):
        genera.verify_coincidences(data, 4, lambency=lambency)


def test_coincidences_build_each_genus_once(data, monkeypatch):
    calls = []
    genus_rows = genera._genus_rows

    def counted(req):
        calls.append((req.rec.co0_name, req.d_sign, req.ell))
        return genus_rows(req)

    monkeypatch.setattr(genera, "_genus_rows", counted)
    genera.verify_coincidences(data, 5, lambency=2)
    assert len(calls) == len(set(calls)) == 23


def test_named_coincidence_rows(data):
    prec = 24 * 4

    def phi(name, sign=1):
        return genera.phi_g(data.record(name), sign, 4)

    assert first_difference(phi("4B"), phi("2B"), prec) is None
    combo = phi("1A") * Fraction(-1, 2) + phi("2B") * Fraction(3, 2)
    assert first_difference(phi("4D", -1), combo, prec) is None
    combo = (phi("1A") * Fraction(-1, 2) + phi("2B") * Fraction(1, 2)
             + phi("3B") * Fraction(1, 2) + phi("6K") * Fraction(1, 2))
    assert first_difference(phi("6G"), combo, prec) is None


def test_genus_request_validation(data):
    rec = data.record("5C")
    with pytest.raises(ValueError, match="not in the lambency-3 table"):
        GenusRequest(rec, 1, 3, 4)
    with pytest.raises(ValueError, match="sign"):
        GenusRequest(rec, 0, 2, 4)
    # zero multiplier: sign is normalized away
    req = GenusRequest(data.record("1A"), -1, 2, 4)
    assert req.d_sign == 1
