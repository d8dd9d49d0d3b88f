"""Every family of reports that `verify` prints can fail.

A family is a report name with its class, its D sign and its lambency
removed, within one suite: `decomposition[3B, ell 3, D sign +1]` and
`decomposition[12L, ell 5, D sign -1]` are one family of the
higher-lambency suite.  Each entry of PERTURBATIONS patches one input (a
table constant, the D-sign home `ConwayClassRecord.d_signed`, or one
builder of `modforms` or `sigma`), runs the suites of the families it
names, and asserts that each of those families has a failing row, reported
and not raised.  The coverage test asserts that every family with a
non-skipped row is covered by an entry.
"""

import re

import pytest

from conway_genera import cli, genera, modforms, sigma
from conway_genera.conway import LAMBENCIES, ClassData, ConwayClassRecord
from conway_genera.series import QSeries

#: the q-orders every suite runs at: the first at which a form times
#: eta_{-g}, which starts at q^1, is seen
ORDERS = 2

def family(suite: str, name: str) -> tuple[str, str]:
    """The family of a report: its class names become X, and the values
    of its lambency and D sign are dropped."""
    name = re.sub(r"\b\d+[A-Z]\b", "X", name)
    return suite, re.sub(r"(ell|D sign) [+-]?\d+", r"\1", name)


def run_suites(data, suites) -> list[tuple[tuple[str, str], str]]:
    """(family, status) of every report of the named suites at ORDERS."""
    return [(family(name, report.name), report.status)
            for name in suites for report in cli._SUITES[name][0](data, ORDERS)]


def _plus(monkeypatch, module, name, key, when=lambda *args: True):
    """Patch module.name to add q^(key/24) to its value wherever when(*args)."""
    original = getattr(module, name)

    def perturbed(*args):
        out = original(*args)
        return out + QSeries({key: 1}, out.trunc) if when(*args) else out

    monkeypatch.setattr(module, name, perturbed)


def _frame_shape(data, name, which="fs_g"):
    """A predicate on a builder's arguments: its first is the Frame shape of a class."""
    shape = getattr(data.record(name), which)
    return lambda fs, *_: fs == shape


def _with_record(data, name, **changes):
    """The class table with one record replaced, the session data untouched."""
    record = data.record(name)._replace(**changes)
    return ClassData({**data.classes, name: record}, data.relations)


def _eta_ratio_3c(monkeypatch, data):
    _plus(monkeypatch, modforms, "eta_ratio_half", 24, _frame_shape(data, "3C"))


def _eta_ratio_1a_q0(monkeypatch, data):
    _plus(monkeypatch, modforms, "eta_ratio_half", 0, _frame_shape(data, "1A"))


def _eta_product_1a_neg(monkeypatch, data):
    _plus(monkeypatch, modforms, "eta_product", 24, _frame_shape(data, "1A", "fs_neg_g"))


def _eta_ratio_3c_off_grid(monkeypatch, data):
    _plus(monkeypatch, modforms, "eta_ratio_half", 1, _frame_shape(data, "3C"))


def _theta_quotient_q0(monkeypatch, data):
    # q^0 y^0 added to every theta quotient, and so to phi_{0,1}, breaks the law
    _plus(monkeypatch, modforms, "theta_quotient", 0)


def _lambda2_half_off_grid(monkeypatch, data):
    _plus(monkeypatch, modforms, "lambda2_half", 1)


def _c_neg_g_1a_negated(monkeypatch, data):
    return _with_record(data, "1A", c_neg_g=-data.record("1A").c_neg_g)


def _eta_product_1a_neg_below_q0(monkeypatch, data):
    # q^(-1/2) in eta_{-g} of 1A puts every genus of 1A below q^0
    _plus(monkeypatch, modforms, "eta_product", -12, _frame_shape(data, "1A", "fs_neg_g"))


def _eta_product_4d_neg(monkeypatch, data):
    _plus(monkeypatch, modforms, "eta_product", 48, _frame_shape(data, "4D", "fs_neg_g"))


def _lambda_n(monkeypatch, data):
    _plus(monkeypatch, modforms, "lambda_n", 0)


def _lambda2_half(variant):
    def patch(monkeypatch, data):
        _plus(monkeypatch, modforms, "lambda2_half", 24, lambda v, prec: v == variant)
    return patch


def _d_signed_unsigned(monkeypatch, data):
    d_signed = ConwayClassRecord.d_signed
    monkeypatch.setattr(ConwayClassRecord, "d_signed",
                        lambda self, ell, sign: d_signed(self, ell, 1))


def _r_half_8(monkeypatch, data):
    # the Ramond factor prod (1 + q^n)^8 of the 8-fermion sectors
    _plus(monkeypatch, modforms, "_euler_product", 0,
          lambda prec, step, sign=-1, power=1: (step, sign, power) == (24, 1, 8))


def _coset_theta(label):
    def patch(monkeypatch, data):
        _plus(monkeypatch, sigma, "d4_coset_theta", 24, lambda lab, prec: lab == label)
    return patch


def _ns_24(monkeypatch, data):
    # q^(1/2) in the NS factors of the 24 fermions lands on q^0 after the shift
    _plus(monkeypatch, modforms, "_half_odd_product", 12,
          lambda prec, step, sign=-1, power=1: power == 24)


#: (patch, families it must make fail); patch(monkeypatch, data) returns
#: the class table the suites run on where it changes the table
PERTURBATIONS = [
    pytest.param(_eta_ratio_3c, {("eta-identity", "eta-identity[X]")},
                 id="eta_ratio_half-3C-q1"),
    pytest.param(_eta_ratio_3c_off_grid, {("jacobi", "jacobi-invariance[X, ell, D sign]")},
                 id="eta_ratio_half-3C-off-grid"),
    pytest.param(_theta_quotient_q0, {("jacobi", f"elliptic-law[{base}]") for base in (
        "theta4", "theta3", "theta1sq", "theta2", "phi01")}, id="theta_quotient-q0"),
    pytest.param(_eta_ratio_1a_q0, {("fourier", "fourier[identity-class leading shape]")},
                 id="eta_ratio_half-1A-q0"),
    pytest.param(_eta_product_1a_neg, {("k3", "k3-genus[z=0 value 24]"),
                                       ("k3", "k3-genus[weight-2 multiplier vanishes]")},
                 id="eta_product-1A-neg-q1"),
    pytest.param(_c_neg_g_1a_negated, {
        ("k3", "k3-genus[equals identity-class genus]"),
        ("coincidences", "coincidence[ell: X]"),
        ("coincidences", "coincidence[ell: X, D sign]"),
        ("oracle", "oracle[X]")}, id="c_neg_g-1A-negated"),
    pytest.param(_eta_product_4d_neg, {("oracle", "oracle[X, D sign]")},
                 id="eta_product-4D-neg-q2"),
    pytest.param(_lambda_n, {
        ("theta", "theta2-quotient = phi01/12 + 2*Lambda2*phi-21"),
        ("decomposition", "decomposition[X, D sign]"),
        ("higher-lambency", "decomposition[X, ell, D sign]")}, id="lambda_n-q0"),
    pytest.param(_lambda2_half("shifted"),
                 {("theta", "theta3-quotient = phi01/12 - Lambda2(tau/2+1/2)*phi-21")},
                 id="lambda2_half-shifted-q1"),
    pytest.param(_lambda2_half("plain"),
                 {("theta", "theta4-quotient = phi01/12 - Lambda2(tau/2)*phi-21")},
                 id="lambda2_half-plain-q1"),
    pytest.param(_d_signed_unsigned, {("decomposition", "sign-flip[X, ell]"),
                                      ("higher-lambency", "sign-flip[X, ell]")},
                 id="d_signed-ignores-sign"),
    pytest.param(_r_half_8, {
        ("sigma", "boson-fermion[omega]"), ("sigma", "boson-fermion[omegabar]"),
        ("sigma", "triality[1 = omega]"), ("sigma", "triality[1 = omegabar]"),
        ("sigma", "module-character[8 summands]"),
        ("sigma", "twisted-module-character[8 summands]"),
        ("sigma", "orbifold-sector[NS-NS]"), ("sigma", "orbifold-sector[R-R]")},
                 id="euler_product-ramond-8-q0"),
    pytest.param(_coset_theta("0"), {("sigma", "boson-fermion[0]"),
                                     ("sigma", "coset-partition[sum = dual theta]")},
                 id="d4_coset_theta-0-q1"),
    pytest.param(_coset_theta("1"), {
        ("sigma", "boson-fermion[1]"),
        ("sigma", "triality[lattice: omega = omegabar = 1]")}, id="d4_coset_theta-1-q1"),
    pytest.param(_ns_24, {("sigma", "module-character[no q^0 term]")},
                 id="half_odd_product-24-q-half"),
]


@pytest.mark.parametrize("patch, families", PERTURBATIONS)
def test_perturbation_fails_its_families(data, cold_caches, monkeypatch, patch, families):
    table = patch(monkeypatch, data) or data
    rows = run_suites(table, sorted({suite for suite, _ in families}))
    failed = {fam for fam, status in rows if status == "fail"}
    assert families <= failed


@pytest.mark.parametrize("patch, suite, names", [
    (_eta_ratio_1a_q0, "fourier", {"fourier[identity-class leading shape]"}),
    (_eta_product_1a_neg, "k3", {"k3-genus[z=0 value 24]",
                                 "k3-genus[weight-2 multiplier vanishes]"}),
], ids=["eta_ratio_half-1A-q0", "eta_product-1A-neg-q1"])
def test_a_failing_shape_row_shows_its_first_deviation(data, cold_caches, monkeypatch,
                                                      patch, suite, names):
    patch(monkeypatch, data)
    deviations = {r.name: r.first_deviation for r in cli._SUITES[suite][0](data, ORDERS)}
    assert all(deviations[name] for name in names)


def test_eta_identity_fails_every_class_sharing_a_perturbed_frame_shape(
        data, cold_caches, monkeypatch):
    _eta_ratio_3c(monkeypatch, data)
    reports = cli._SUITES["eta-identity"][0](data, ORDERS)
    failed = {r.name: r.first_deviation for r in reports if r.status == "fail"}
    target = data.record("3C").fs_g
    touched = {rec.co0_name: 1 if rec.fs_g == target else -1
               for rec in data.classes.values() if target in (rec.fs_g, rec.fs_neg_g)}
    assert "3C" in touched
    assert set(failed) == {f"eta-identity[{name}]" for name in touched}
    # lhs is the direct form of the twisted trace, rhs its chi form -chi:
    # q r_g enters the direct form with 1/2, q r_{-g} with -1/2
    for name, sign in touched.items():
        assert failed[f"eta-identity[{name}]"] == {
            "q_exp": "1", "y_exp": "0", "lhs": "1/2" if sign > 0 else "-1/2", "rhs": "0"}


def test_every_family_with_a_checked_row_has_a_perturbation(data):
    rows = run_suites(data, cli._SUITES)
    assert all(status != "fail" for _, status in rows)
    checked = {fam for fam, status in rows if status != "skipped"}
    assert len(checked) == 35
    covered = set().union(*(param.values[1] for param in PERTURBATIONS))
    assert covered == checked


@pytest.mark.parametrize("patch", [_eta_ratio_3c_off_grid, _lambda2_half_off_grid,
                                   _theta_quotient_q0],
                         ids=["eta_ratio_half-3C-off-grid", "lambda2_half-off-grid",
                              "theta_quotient-q0"])
def test_a_broken_builder_is_reported_not_raised(data, cold_caches, monkeypatch, capsys,
                                                 patch):
    patch(monkeypatch, data)
    assert cli.main(["verify", "--suite", "all", "--prec", str(ORDERS)]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] " in out and err == ""


def _weak(lhs, y_exp):
    return {"q_exp": "-1/2", "y_exp": y_exp, "lhs": lhs, "rhs": "0 (weakness)"}


@pytest.mark.parametrize("patch, deviations", [
    (_eta_product_1a_neg_below_q0, {
        "jacobi-invariance[1A, ell 2, D sign +1]": _weak("-512", "-1"),
        "jacobi-invariance[1A, ell 3, D sign +1]": _weak("-128", "-2"),
        "jacobi-invariance[1A, ell 4, D sign +1]": _weak("-32", "-3"),
        "jacobi-invariance[1A, ell 5, D sign +1]": _weak("-8", "-4"),
        "jacobi-invariance[1A, ell 7, D sign +1]": _weak("-1/2", "-6"),
        "jacobi-invariance[1A, ell 7, D sign -1]": _weak("-1/2", "-6")}),
    (_eta_ratio_3c_off_grid, {"jacobi-invariance[3C, ell 2, D sign +1]": {
        "q_exp": "1/24", "y_exp": "0", "lhs": "off-grid exponent", "rhs": "integer grid"}}),
], ids=["eta_product-1A-neg-q-half", "eta_ratio_half-3C-off-grid"])
def test_a_failing_genus_jacobi_row_shows_its_first_deviation(data, cold_caches, monkeypatch,
                                                             patch, deviations):
    # a weakness deviation sits at the least full-row key, at a negative y
    # power that no theta row holds
    patch(monkeypatch, data)
    failed = {r.name: r.first_deviation for r in cli._SUITES["jacobi"][0](data, ORDERS)
              if r.status == "fail"}
    assert failed == deviations


@pytest.mark.parametrize("patch", [_lambda2_half("plain"), _lambda2_half("shifted"),
                                   _lambda2_half_off_grid, _lambda_n, _theta_quotient_q0],
                         ids=["lambda2_half-plain-q1", "lambda2_half-shifted-q1",
                              "lambda2_half-off-grid", "lambda_n-q0", "theta_quotient-q0"])
def test_a_perturbed_shared_form_keeps_the_decomposition_first_deviation(
        data, cold_caches, monkeypatch, patch):
    # the decomposition is decided on the shared powers; where they differ
    # the first deviation is still read off the two class forms
    patch(monkeypatch, data)
    failed = 0
    for req in cli._genus_requests(data, LAMBENCIES, ORDERS):
        full = genera._rows_deviation(genera._genus_rows(req), genera._decomposition_rows(req))
        assert genera._decomposition_deviation(req) == full, req[1:]
        failed += full is not None
    assert failed
