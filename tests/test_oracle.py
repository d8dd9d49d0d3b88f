import gc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from conway_genera import genera, oracle
from conway_genera.conway import FrameShape, bundled_data
from conway_genera.oracle import CycloNumber, OracleError
from conway_genera.scalars import RADICAL_BASIS, RadicalScalar
from conway_genera.series import JacobiSeries, QSeries

CLASSES = tuple(bundled_data().classes.values())

#: every eigenvalue order of the bundled classes
ORDERS = sorted({oracle.EigenSystem(rec.fs_g).order for rec in CLASSES})


def test_cyclotomic_polynomials():
    assert oracle.cyclotomic_poly(1) == (-1, 1)
    assert oracle.cyclotomic_poly(2) == (1, 1)
    assert oracle.cyclotomic_poly(4) == (1, 0, 1)
    assert oracle.cyclotomic_poly(6) == (1, -1, 1)
    assert oracle.cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in ORDERS:
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert oracle.cyclotomic_poly(n) == tuple(int(c) for c in want), n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cyclo_reduction_and_product_match_sympy_rem(draw):
    sympy = pytest.importorskip("sympy")
    n = draw.draw(st.sampled_from(ORDERS))
    deg = len(oracle.cyclotomic_poly(n)) - 1
    vectors = st.lists(st.integers(-50, 50), min_size=deg + 1, max_size=n + deg)
    u, w = draw.draw(vectors), draw.draw(vectors)
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x)

    def poly(vec):
        return sympy.Poly(list(reversed(vec)), x)

    def reduced(p):
        low = [Fraction(int(c)) for c in reversed(sympy.rem(p, phi).all_coeffs())]
        return tuple(low + [Fraction(0)] * (deg - len(low)))

    a, b = CycloNumber(n, u), CycloNumber(n, w)
    assert a.vec == reduced(poly(u))
    assert (a * b).vec == reduced(poly(u) * poly(w))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(-2 ** 70, 2 ** 70)
       | st.fractions(-40, 40, max_denominator=7))
def test_a_rational_cyclo_number_hashes_as_the_rational_it_equals(order, x):
    a = CycloNumber.from_rational(order, x)
    assert a == x and hash(a) == hash(x)
    assert len({a, x}) == 1 and x in {a: 1}


def test_cyclo_number_roots():
    i = brute.cyclo_root(4, 1)
    assert i * i == CycloNumber.from_rational(4, -1)
    z = brute.cyclo_root(6, 1)
    assert z * z * z == CycloNumber.from_rational(6, -1)


def test_sqrt_embeddings_square_correctly():
    for order, p in ((8, 2), (24, 2), (24, 3), (40, 5), (120, 5)):
        root = oracle._sqrt_embedding(order, p)
        assert root * root == CycloNumber.from_rational(order, p)


def test_embed_and_recover_radical():
    x = RadicalScalar({1: Fraction(3, 2), 6: -2})
    c = oracle.embed_radical(x, 24)
    assert brute.to_radical(c) == x


def test_to_radical_rejects_outside_field():
    z5 = brute.cyclo_root(5, 1)
    with pytest.raises(OracleError):
        brute.to_radical(z5)


def test_cm_ground_trace_identity():
    fs = FrameShape.from_pairs([(1, 24)])
    assert oracle.cm_ground_trace(fs, with_z=True).is_zero


def test_cm_ground_trace_negated_identity():
    fs = FrameShape.from_pairs([(2, 24), (1, -24)])
    t = oracle.cm_ground_trace(fs, with_z=True)
    assert brute.to_radical(t * t) == RadicalScalar.from_rational(2 ** 24)
    flipped = oracle.cm_ground_trace(fs, with_z=True, sign_choice=-1)
    assert flipped == -t
    assert brute.to_radical(t).as_rational()[1] in (4096, -4096)


def test_cm_ground_trace_3c_negative(data):
    t = oracle.cm_ground_trace(data.record("3C").fs_neg_g, with_z=True)
    assert brute.to_radical(t * t) == RadicalScalar.from_rational(64)


def test_cm_trace_squares_match_oracles(data):
    from conway_genera.conway import c_squared_oracle
    for name in ("1A", "3B", "5C", "8D"):
        rec = data.record(name)
        t = oracle.cm_ground_trace(rec.fs_neg_g, with_z=True)
        assert brute.to_radical(t * t) \
            == RadicalScalar.from_rational(c_squared_oracle(rec.fs_g))


def test_enumerate_basis_counts():
    # degree <= 0: vacuum (-1/2) and the 24 single half-modes (0)
    assert len(oracle.enumerate_basis("untwisted", 0)) == 25
    # degree <= 1/2 adds the C(24,2) double half-modes
    assert len(oracle.enumerate_basis("untwisted", Fraction(1, 2))) == 25 + 276
    # twisted ground level: 2^12 zero-mode monomials
    assert len(oracle.enumerate_basis("twisted", 1)) == 4096
    assert oracle.enumerate_basis("twisted", 0) == []
    # below the first half-mode only the vacuum, and below -1/2 nothing
    assert oracle.enumerate_basis("untwisted", Fraction(-1, 4)) == [()]
    assert oracle.enumerate_basis("untwisted", Fraction(-3, 4)) == []


def test_enumerate_basis_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        oracle.enumerate_basis("untwisted", 4)


def _dimension_counts(monomials, untwisted):
    counts = {}
    for m in monomials:
        if untwisted:
            deg2 = -1 + sum(2 * n - 1 for (_, _, n) in m)
        else:
            deg2 = 2 * (1 + sum(n for (_, _, n) in m))
        counts[deg2] = counts.get(deg2, 0) + 1
    return counts


def test_untwisted_dimensions_match_product():
    # generating function q^(-1/2) prod (1+q^(n-1/2))^24
    from conway_genera import modforms
    prec = 24 * 3
    prod = modforms._half_odd_product(prec + 12, 24, +1) ** 24
    gen = prod.shift(-12)
    counts = _dimension_counts(oracle.enumerate_basis("untwisted", 2), True)
    for deg2, count in counts.items():
        assert gen.coeff(12 * deg2) == count
    # degree 1 level: C(24,3) triples plus 24 single three-half modes
    assert counts[2] == 2024 + 24


def test_twisted_dimensions_match_product():
    from conway_genera import modforms
    prec = 24 * 3
    gen = (modforms._euler_product(prec - 24, 24, +1) ** 24 * 4096).shift(24)
    counts = _dimension_counts(oracle.enumerate_basis("twisted", 2), False)
    for deg2, count in counts.items():
        assert gen.coeff(12 * deg2) == count


def _assert_brute_matches(brute, series):
    mismatch = oracle.first_mismatch(brute, series)
    assert mismatch is None, f"deviation at (grid, y half-index) {mismatch}"


def test_brute_comparison_reads_both_trace_shapes(data):
    rec = data.record("2B")
    ts, phi = genera.ts_g(rec, "g", "chi", 3), genera.phi_g(rec, 1, 3)
    brute_ts, brute_phi = oracle.brute_ts(rec, "g", 2), oracle.brute_phi(rec, 1, 2, 2)
    assert oracle.first_mismatch(brute_ts, ts) is None
    assert oracle.first_mismatch(brute_ts, ts + 1) == (0, 0)
    assert oracle.first_mismatch(brute_phi, phi) is None
    assert oracle.first_mismatch(brute_phi, phi + JacobiSeries({(24, 2): 1}, phi.trunc)) \
        == (24, 2)
    # an empty trace compares up to grid 0, and a half-odd y power never matches
    assert oracle.first_mismatch({}, QSeries.zero(72)) is None
    assert oracle.first_mismatch({}, JacobiSeries({(0, 1): 1}, 72)) == (0, 1)


#: oracle degrees, each compared with the closed form at degree + 1
#: q-orders; degree-2 cases keep their plain ids, higher degrees get a suffix
DEGREES = (2, 3)


def _degree_id(base, degree):
    return base if degree == 2 else f"{base}-deg{degree}"


@pytest.mark.parametrize("name,degree", [
    pytest.param(rec.co0_name, degree, id=_degree_id(rec.co0_name, degree))
    for degree in DEGREES for rec in CLASSES])
def test_brute_ts_matches_closed_forms(data, name, degree):
    rec = data.record(name)
    for which in ("g", "g_tw"):
        _assert_brute_matches(oracle.brute_ts(rec, which, degree),
                                genera.ts_g(rec, which, "chi", degree + 1))


def _phi_case(rec, sign, degree):
    marks = ()
    if rec.co0_name == "5C":
        marks = pytest.mark.xfail(strict=True,
                                  reason="ROADMAP item 4: EigenSystem.normalize flips "
                                         "sigma on a distinguished pair")
    return pytest.param(rec.co0_name, sign, degree, marks=marks,
                        id=_degree_id(f"{rec.co0_name}-{sign}", degree))


@pytest.mark.parametrize("name,sign,degree", [
    _phi_case(rec, sign, degree) for degree in DEGREES for rec in CLASSES
    for sign in ((1,) if rec.d_magnitude[2].is_zero else (1, -1))])
def test_brute_traces_match_closed_forms(data, name, sign, degree):
    rec = data.record(name)
    _assert_brute_matches(oracle.brute_phi(rec, sign, 2, degree),
                                 genera.phi_g(rec, sign, degree + 1))


def _lambency_case(ell, name, sign, degree):
    marks = ()
    if ell == 7 and sign == -1:
        marks = pytest.mark.xfail(strict=True, raises=OracleError,
                                  reason="no pair available for a pairing swap")
    return pytest.param(ell, name, sign, degree, marks=marks,
                        id=_degree_id(f"{ell}-{name}-{sign:+d}", degree))


@pytest.mark.parametrize("ell,name,sign,degree", [
    _lambency_case(ell, rec.co0_name, sign, degree)
    for degree in DEGREES for ell in (3, 4, 5, 7)
    for rec in CLASSES if rec.in_table(ell)
    for sign in ((1,) if rec.d_magnitude[ell].is_zero else (1, -1))])
def test_brute_traces_match_higher_lambency_genera(data, ell, name, sign, degree):
    rec = data.record(name)
    _assert_brute_matches(
        oracle.brute_phi(rec, sign, ell, degree),
        genera.phi_g_ell(genera.GenusRequest(rec, sign, ell, degree + 1)))


def _vec_entries(value):
    """Every vec entry of a CycloNumber or of a (nested) dict of them."""
    if isinstance(value, CycloNumber):
        return list(value.vec)
    return [x for v in value.values() for x in _vec_entries(v)]


@pytest.mark.parametrize("name,sign", [
    ("1A", 1), ("4D", 1), ("4D", -1), ("10H", 1), ("15D", 1)])
def test_oracle_traces_stay_in_integers(data, name, sign):
    rec = data.record(name)
    system = oracle.build_system(rec, j_weight=True, d_sign=sign)
    outputs = [oracle.brute_ts(rec, "g", 2), oracle.brute_ts(rec, "g_tw", 2),
               oracle.brute_phi(rec, sign, 2, 2),
               system.cm_trace(False), system.d_product()]
    for out in outputs:
        entries = _vec_entries(out)
        assert entries and all(type(x) is int for x in entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subset_histogram_matches_literal_subsets(draw):
    order = draw.draw(st.sampled_from(ORDERS))
    size = draw.draw(st.integers(0, 24))
    labels = draw.draw(st.lists(
        st.tuples(st.integers(0, order - 1), st.sampled_from((-1, 0, 1))),
        min_size=size, max_size=size))
    max_k = draw.draw(st.integers(0, max(6, len(labels)) if len(labels) <= 12 else 6))
    bits = 24  # above C(24, 12), the largest subset count
    packed = oracle._subset_histogram(labels, order, max_k, bits)
    unpacked = [Counter({(e, c): count for c, p in row.items() for e in range(order)
                         if (count := (p >> e * bits) & ((1 << bits) - 1))})
                for row in packed]
    assert unpacked == brute.subset_histogram(labels, order, max_k)


@pytest.fixture(scope="module")
def bases():
    return {(sector, bound): oracle.enumerate_basis(sector, bound)
            for sector, bound in (("untwisted", 1), ("untwisted", 2), ("twisted", 1),
                                  ("twisted", 2), ("untwisted", Fraction(-1, 4)),
                                  ("untwisted", Fraction(-3, 4)))}


def _tally(system, monomials, twisted):
    """(degree, charge, parity) -> {exponent: count}, one monomial at a time."""
    labels = system.mode_labels()
    zero = system.zero_mode_labels()
    sigma, ground_exp, ground_charge = system.ground_data() if twisted else (1, 0, 0)
    buckets = {}
    for monomial in monomials:
        exp, charge = ground_exp, ground_charge
        for i, side, n in monomial:
            e, c = zero[i] if n == 0 else labels[2 * i + (side == -1)]
            exp += e
            charge += c
        if twisted:
            degree = 1 + sum(n for _, _, n in monomial)
        else:
            degree = -1 + sum(2 * n - 1 for _, _, n in monomial)
        slot = buckets.setdefault((degree, charge, len(monomial) % 2), {})
        exp %= system.order
        slot[exp] = slot.get(exp, 0) + sigma
    return buckets


@pytest.mark.parametrize("name,j_weight,sign", [
    ("1A", False, 1), ("4D", True, 1), ("4D", True, -1), ("5C", False, 1),
    ("5C", True, 1), ("15D", False, 1)])
def test_histogram_buckets_match_literal_enumeration(data, bases, name, j_weight, sign):
    system = oracle.build_system(data.record(name), j_weight=j_weight, d_sign=sign)
    for sector, bound in bases:
        want = _tally(system, bases[(sector, bound)], sector == "twisted")
        got = oracle._buckets(system, (sector,), Fraction(bound))[sector]
        assert got == want, (sector, bound)


def test_packed_buckets_match_plain_counts(data):
    """Every class, plain and genus systems at ell 2, 3 and 7 with both D
    signs, both sectors: the packed counts equal the plain-int walk.  1A at
    degree 3 carries the heaviest digits, so it exercises the digit width."""
    compared = 0
    for rec in CLASSES:
        systems = [oracle.build_system(rec)]
        for ell in (2, 3, 7):
            for sign in ((1, -1) if rec.in_table(ell) else ()):
                if (rec.co0_name, ell, sign) != ("1A", 7, -1):
                    systems.append(oracle.build_system(rec, True, sign, ell))
        for system in systems:
            for bound in map(Fraction, ("-3/4", "-1/4", 1, 2, 3)):
                # both sectors read one table, at the larger cap and digit size
                both = oracle._buckets(system, ("untwisted", "twisted"), bound)
                for sector in ("untwisted", "twisted"):
                    assert both[sector] == brute.counter_buckets(system, sector, bound), \
                        (rec.co0_name, sector, bound)
                    compared += 1
    assert compared == 1490


def _variants(fs):
    """The class's system, one with the first sigma flipped, and one with
    the first moving pair swapped, each with two pairs distinguished where
    two are fixed."""
    out = []
    for change in ("none", "flip", "swap"):
        system = oracle.EigenSystem(fs)
        if sum(p.lam_exp == 0 for p in system.pairs) >= 2:
            system.mark_distinguished(2)
        if change == "flip":
            system.pairs[0].sigma = -1
        moving = [p for p in system.pairs if p.lam_exp != 0]
        if change == "swap" and moving:
            moving[0].lam_exp = -moving[0].lam_exp % system.order
            moving[0].nu_exp = -moving[0].nu_exp % system.order
        out.append(system)
    return out


@pytest.mark.parametrize("name", [rec.co0_name for rec in CLASSES])
def test_ground_products_match_twelve_fold_products(data, name):
    rec = data.record(name)
    for fs in (rec.fs_g, rec.fs_neg_g):
        for system in _variants(fs):
            for got, want in (
                    (system.cm_trace(True), brute.nu_product(system, True)),
                    (system.cm_trace(False), brute.nu_product(system, False)),
                    (system.d_product(), brute.nu_product(system, True, True))):
                assert got == want and list(map(type, got.vec)) == list(map(type, want.vec))


@pytest.mark.parametrize("order", ORDERS)
def test_embed_radical_matches_term_by_term_sum(order):
    available = [d for d, _ in oracle._radical_columns(order)]
    scalars = [RadicalScalar({d: Fraction(3, 7)}) for d in available] + [
        RadicalScalar({d: Fraction(2 * d + 1, 2) for d in available}),
        RadicalScalar({d: d - 4 for d in available})]
    for x in scalars:
        got, want = oracle.embed_radical(x, order), brute.embed_term_by_term(x, order)
        assert got == want and list(map(type, got.vec)) == list(map(type, want.vec)), x
    for d in set(RADICAL_BASIS) - set(available):
        with pytest.raises(OracleError, match="not available"):
            oracle.embed_radical(RadicalScalar({d: 1}), order)


@pytest.mark.parametrize("call", [
    lambda rec: oracle.brute_ts(rec, "g", 2),
    lambda rec: oracle.brute_phi(rec, 1, 2, 2),
    lambda rec: oracle.brute_trace(rec, "twisted", True, True, 2),
    lambda rec: oracle.enumerate_basis("untwisted", 1),
    lambda rec: oracle.enumerate_basis("twisted", 2),
], ids=["brute_ts", "brute_phi", "brute_trace", "enumerate_untwisted",
        "enumerate_twisted"])
def test_oracle_leaves_no_reference_cycles(data, call):
    rec = data.record("2B")
    gc.collect()
    gc.disable()
    try:
        call(rec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_twisted_ground_dimension(data):
    rec = data.record("1A")
    tw = oracle.brute_trace(rec, "twisted", z_insertion=False, degree_bound=1)
    # identity class: plain trace at the ground level counts all 4096 states
    assert tw[24] == CycloNumber.from_rational(2, 4096)


def test_brute_trace_guard(data):
    rec = data.record("1A")
    with pytest.raises(ValueError, match="desk-scale"):
        oracle.brute_trace(rec, "twisted", degree_bound=5)
    with pytest.raises(ValueError, match="desk-scale"):
        oracle.brute_ts(rec, "g", 4)
    with pytest.raises(ValueError, match="desk-scale"):
        oracle.brute_phi(rec, 1, 2, 4)


def test_normalization_follows_requested_sign(data):
    rec = data.record("4D")
    plus = oracle.build_system(rec, j_weight=True, d_sign=1)
    minus = oracle.build_system(rec, j_weight=True, d_sign=-1)
    assert brute.to_radical(plus.d_product()) == rec.d_signed(2, 1)
    assert brute.to_radical(minus.d_product()) == rec.d_signed(2, -1)
    # and the ground trace stayed pinned in both cases
    want = oracle.embed_radical(rec.c_neg_g, plus.order)
    assert plus.cm_trace(with_z=False) == want
    assert minus.cm_trace(with_z=False) == want


#: every system the oracle builds: (class, None, 1) for the graded traces and
#: (class, lambency, D sign) for each genus, one sign where D vanishes
_SYSTEMS = [(rec.co0_name, None, 1) for rec in CLASSES] + [
    (rec.co0_name, ell, sign) for rec in CLASSES for ell in sorted(rec.d_magnitude)
    for sign in ((1,) if rec.d_magnitude[ell].is_zero else (1, -1))]


def test_every_normalized_system_matches_the_table_constants(data):
    """The table constants hold on every system normalize leaves."""
    built = 0
    for name, ell, sign in _SYSTEMS:
        rec = data.record(name)
        if (name, ell, sign) == ("1A", 7, -1):
            with pytest.raises(OracleError, match="no pair available for a pairing swap"):
                oracle.build_system(rec, j_weight=True, d_sign=sign, ell=ell)
            continue
        system = oracle.build_system(rec, j_weight=ell is not None, d_sign=sign, ell=ell or 2)
        assert system.cm_trace(False) == oracle.embed_radical(rec.c_neg_g, system.order)
        if ell is not None:
            assert system.d_product() == oracle.embed_radical(rec.d_signed(ell, sign),
                                                              system.order), (name, ell, sign)
        built += 1
    assert built == 133


def test_normalize_takes_each_product_once(data, monkeypatch):
    calls = []
    for method in ("cm_trace", "d_product"):
        original = getattr(oracle.EigenSystem, method)

        def counted(self, *args, _method=method, _original=original, **kwargs):
            calls.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(oracle.EigenSystem, method, counted)
    for name, sign in (("1A", 1), ("4D", 1), ("4D", -1), ("10H", -1), ("15D", 1)):
        calls.clear()
        oracle.build_system(data.record(name), j_weight=True, d_sign=sign)
        assert sorted(calls) == ["cm_trace", "d_product"], (name, sign)


@pytest.mark.parametrize("c_shift, d_shift, message", [
    (1, 0, "cannot match the tabulated twisted ground trace by a sign flip"),
    (0, 1, "cannot match the tabulated index multiplier by a pairing swap")])
def test_normalize_rejects_targets_no_sign_matches(data, c_shift, d_shift, message):
    rec = data.record("4D")
    system = oracle.EigenSystem(rec.fs_g)
    system.mark_distinguished(2)
    with pytest.raises(OracleError, match=message):
        system.normalize(rec.c_neg_g + c_shift, rec.d_signed(2, 1) + d_shift)
