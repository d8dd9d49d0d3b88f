from itertools import product
from math import isqrt

import pytest

import brute
from conway_genera import genera, modforms, sigma
from conway_genera.series import QSeries, first_difference


def test_root_lattice_theta():
    th = sigma.d4_coset_theta("0", 24 * 4)
    assert th.coeff(0) == 1
    assert th.coeff(24) == 24     # 24 roots
    assert th.coeff(48) == 24
    assert th.coeff(72) == 96


def test_vector_coset_minimal_vectors():
    th = sigma.d4_coset_theta("1", 24 * 2)
    assert th.min_key() == 12
    assert th.coeff(12) == 8


def test_nontrivial_cosets_share_theta():
    prec = 24 * 5
    t1 = sigma.d4_coset_theta("1", prec)
    tw = sigma.d4_coset_theta("omega", prec)
    twb = sigma.d4_coset_theta("omegabar", prec)
    assert t1 == tw == twb


#: precisions at and around the grid edges 3 * sum(m^2), and deep's sigma grid
BOX_PRECS = [1, 2, 3, 11, 12, 13, 24, 48, 504]


@pytest.mark.parametrize("prec", BOX_PRECS)
def test_coset_thetas_match_filtered_full_box(prec):
    radius = isqrt(prec // 3)
    counts = {label: {} for label in sigma.COSETS}
    for m in product(range(-radius, radius + 1), repeat=4):
        key = 3 * sum(x * x for x in m)
        if key < prec:
            for label in sigma.COSETS:
                if brute.in_coset(m, label):
                    counts[label][key] = counts[label].get(key, 0) + 1
    for label in sigma.COSETS:
        assert sigma.d4_coset_theta(label, prec) == QSeries(counts[label], prec), label


def test_coset_partition():
    prec = 24 * 5
    total = QSeries.zero(prec)
    for label in sigma.COSETS:
        total = total + sigma.d4_coset_theta(label, prec)
    assert first_difference(total, sigma.dual_lattice_theta(prec), prec) is None


@pytest.mark.parametrize("prec", BOX_PRECS)
def test_dual_lattice_theta_matches_box_enumeration(prec):
    assert sigma.dual_lattice_theta(prec) == QSeries(brute.dual_lattice_box(prec), prec)


def test_u_characters_against_lattice():
    prec = 24 * 5
    u = sigma.u_characters(prec)
    assert u["0"].min_key() == -4      # vacuum at q^(-1/6)
    assert u["0"].coeff(-4) == 1
    eta4_inv = (modforms.eta(prec + 4) ** 4).inverse()
    for label in sigma.COSETS:
        theta = sigma.d4_coset_theta(label, prec)
        assert first_difference(u[label], theta * eta4_inv, prec) is None, label


def test_u_triality():
    prec = 24 * 5
    u = sigma.u_characters(prec)
    assert first_difference(u["1"], u["omega"], prec) is None
    assert first_difference(u["1"], u["omegabar"], prec) is None


def test_module_character_vs_identity_trace(data):
    # the identity-class trace carries the central involution, so the
    # plain graded dimension exceeds it by twice the twisted-odd half
    prec = 24 * 6
    ch = sigma.module_character(prec)
    ts = genera.ts_g(data.record("1A"), "g", "chi", 6)
    diff = ch - ts
    twisted_odd = (modforms._euler_product(prec - 24, 24, +1) ** 24
                   * 4096).shift(24)
    assert first_difference(diff, twisted_odd, prec) is None
    assert ch.coeff(0).is_zero  # no states at the middle grading
    assert ch.coeff(-12) == 1   # one vacuum state


def test_twisted_module_character_ground(data):
    prec = 24 * 4
    ch = sigma.twisted_module_character(prec)
    # both routes: direct fermionic count vs the assembled characters
    _, odd, _, _ = sigma._sectors(24, prec)
    assert ch.coeff(0) == odd.coeff(0)    # 24 half-modes at the bottom
    assert ch.coeff(0) == 24


def test_sigma_isomorphism_suite():
    reports = sigma.verify_sigma_isomorphism(6)
    assert len(reports) == 13
    assert all(r.status == "pass" for r in reports)


@pytest.mark.parametrize("label, lhs, rhs", [("omega", "9", "8"), ("omegabar", "8", "9")])
def test_lattice_triality_fails_when_either_odd_coset_differs(monkeypatch, label, lhs, rhs):
    exact = sigma.d4_coset_theta

    def off_by_one(coset, prec):  # one more vector at |v|^2/2 = 1/2
        theta = exact(coset, prec)
        return theta + QSeries({12: 1}, prec) if coset == label else theta

    monkeypatch.setattr(sigma, "d4_coset_theta", off_by_one)
    reports = {r.name: r for r in sigma.verify_sigma_isomorphism(2)}
    lattice = reports["triality[lattice: omega = omegabar = 1]"]
    assert lattice.status == "fail"
    assert lattice.first_deviation == {"q_exp": "1/2", "y_exp": "0", "lhs": lhs, "rhs": rhs}
    assert reports["triality[1 = omega]"].status == "pass"
