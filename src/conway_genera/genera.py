"""Twining genera and the identity suites that verify them.

For a class record with Frame shapes pi(g), pi(-g), twisted-trace
constant C(-g) and index multiplier D, the weight-0 index-(ell-1) genus
is linear in four class q-series and in the two constants:

    phi^(ell) = 1/2 (-B_1 r_g + B_2 r_{-g} + (-1)^ell D B_3 eta_g - C(-g) B_4 eta_{-g})

with r_h the half-argument ratio of eta_h and B_1..B_4 = Q4, Q3, Q1, Q2
to the power ell-1 (_GENUS_SLOTS): Q2/Q3/Q4 the normalized squared theta
quotients and Q1 = theta_1^2/eta^6.  This one combination is
_class_form, the assembler of every genus-side form: a caller names the
shared power in each slot (or none), the signed D and a rational scale.
The B_i do not depend on the class: each power is a rational series over
a power-of-two denominator, multiplied as series.ThetaRows in integers,
built once per process and shared by every class, sign and lambency.  The
class series have integer coefficients and are the cached series of
modforms.  The radicals of Q(sqrt 2, sqrt 3, sqrt 5) enter only through
the constants, as one integer multiplier per radical and term in
series.combine, whose integer rows per radical are the returned form.
RadicalScalar coefficients are built only when a caller reads them.

Every B_i = Q_i^m is a weak Jacobi form of index m = ell - 1, even in z,
so it is kept as a series.ThetaRows: its theta rows r = 0..m with m.  The
elliptic law is assumed in one place: _shared_base cuts each first power
taken from modforms -- the four theta quotients and phi_{0,1} -- to
index 1 (series.cut_theta_rows); verify_elliptic_law reports the same
cut's deviation on those five bases.  The weight-2 forms carry no y and
are index 0 uncut, and the decomposition's bases are sums of cut rows.
Every higher power is the ThetaRows product of the power below it and
the base, whose index is the sum: each pair of theta rows is multiplied
once and no full row is built.  _class_form sums against the four y-free
class series on rows 0..m and returns those rows, which the genus, the
decomposition and the sign-flip D term wrap at index ell - 1: the only
form of a genus-side series here.  The checks compare rows and expand
them only where they differ, to report the least full-row key; phi_g_ell
expands a genus for its callers.  Builders compute and suites check: a
builder raises only on its input and on a truncation shortfall of its
own, and returns a wrong form, off the integer q-grid say, as it is.

The companion weight-2j forms F_{2j} (and F at index 1) are the
independent route: the same combination at scale 2 with no eta_g term
(_F_SLOTS), over the weight-2 forms Lambda_2(tau/2), Lambda_2(tau/2 +
1/2) and -2 Lambda_2(tau), never over the theta quotients; F is -(F_2 +
D eta_g)/2, scale -1 with eta_g against 1.  The decomposition's right-hand
side is the genus with each theta-quotient power replaced by (phi_{0,1}/12
+ L Q1)^(ell-1), L the Lambda_2 form of F_{2j} in that slot: a shared
power like any other, whose binomial expansion is the paper's sum over j.
So _decomposition_deviation decides the decomposition on those shared
powers and builds the two class forms only to report a deviation.

A GenusRequest, the (class, D sign, lambency, precision) of one genus,
is a namedtuple subclass validated in its constructor.

Precision arguments here count integer q-orders; grid indices are used
internally.  Every product stops at the requested precision prec.  The
factors are built to work = prec + _MARGIN, and the margin is exactly
what the min rule needs: every tabulated class fixes a 4-space, so the
Frame shapes of g and -g have degree 24, eta_g starts at q^1 and r_g at
q^(-1/2) (grid -12), while every shared power starts at q^0 or above.
So each B_i times its class series is known below work - 12 = prec.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import modforms
from .conway import ClassData, CoincidenceRelation, ConwayClassRecord, FrameShape
from .modforms import THETA1SQ, THETA2, THETA3, THETA4
from .report import CheckReport
from .series import (JacobiSeries, QSeries, ThetaRows, combine, cut_theta_rows, first_difference,
                     grid_index)

#: grid head-room of the genus-side factors: r_g and r_{-g} start at grid
#: -12 and every other factor at 0 or above (see the module docstring)
_MARGIN = 12


class GenusRequest(namedtuple("GenusRequest", "rec d_sign ell orders")):
    """A (class, D-sign, lambency, precision) tuple, validated.

    A sign that gives no distinct genus, where D vanishes, becomes +1.
    """

    __slots__ = ()

    def __new__(cls, rec: ConwayClassRecord, d_sign: int, ell: int, orders: int):
        if ell not in rec.d_magnitude:
            raise ValueError(f"class {rec.co0_name} is not in the lambency-{ell} table")
        if d_sign not in (1, -1):
            raise ValueError("d_sign must be +1 or -1")
        if d_sign not in rec.d_signs(ell):
            d_sign = 1
        return super().__new__(cls, rec, d_sign, ell, orders)

    @property
    def d(self):
        """(-1)^ell D: the constant of Q1^(ell-1) eta_g in twice the genus."""
        return self.rec.d_signed(self.ell, self.d_sign) * (-1 if self.ell % 2 else 1)


# -- graded traces -------------------------------------------------------


def ts_g(rec: ConwayClassRecord, which: str = "g", form: str = "chi",
         orders: int = 5) -> QSeries:
    """McKay-Thompson style trace series for g or its twisted companion.

    Both the direct (four-term average) and the closed ("chi") form are
    available; their agreement is the content of verify_eta_identity.
    """
    if which not in ("g", "g_tw"):
        raise ValueError("which must be 'g' or 'g_tw'")
    if form not in ("direct", "chi"):
        raise ValueError("form must be 'direct' or 'chi'")
    prec = grid_index(orders)
    chi = rec.chi
    if form == "chi":
        if which == "g":
            return modforms.eta_ratio_half(rec.fs_g, prec) + chi
        # C_g = 0: conway._validate_record rejects a class fixing less than a 4-space
        return QSeries({0: -chi}, prec)
    r_g = modforms.eta_ratio_half(rec.fs_g, prec)
    r_neg = modforms.eta_ratio_half(rec.fs_neg_g, prec)
    c_term = modforms.eta_product(rec.fs_neg_g, prec) * rec.c_neg_g
    if which == "g":
        return (r_g + r_neg - c_term) * Fraction(1, 2)
    return (r_g - r_neg + c_term) * Fraction(1, 2)


def verify_eta_identity(rec: ConwayClassRecord, orders: int = 8) -> CheckReport:
    """The direct form of the twisted trace equals its chi form, -chi:
    r_g - r_{-g} + C(-g) eta_{-g} + 2 chi = 0 (C_g = 0), exactly."""
    dev = first_difference(ts_g(rec, "g_tw", "direct", orders), ts_g(rec, "g_tw", "chi", orders))
    return CheckReport.from_deviation(f"eta-identity[{rec.co0_name}]", dev)


# -- genera ---------------------------------------------------------------


#: selector of phi_{0,1} among the shared forms
_PHI01 = "phi01"
#: selectors of the weight-2 forms Lambda_2(tau/2), Lambda_2(tau/2 + 1/2)
#: and -2 Lambda_2(tau) among the shared forms
_L2_PLAIN = "lambda2_plain"
_L2_SHIFTED = "lambda2_shifted"
_L2_NEG2 = "lambda2_neg2"
#: (_DECOMPOSED, L) is phi_{0,1}/12 + L theta_1^2/eta^6: the theta-4, -3, -2
#: quotient for L plain, shifted, neg2, as the decomposition writes it
_DECOMPOSED = "decomposed"


def _shared_base(kind: str | tuple[str, str], work: int) -> ThetaRows:
    """The first power of a shared form: index 0 for a weight-2 form, else 1."""
    if kind == _L2_PLAIN:
        return ThetaRows(modforms.lambda2_half("plain", work), 0)
    if kind == _L2_SHIFTED:
        return ThetaRows(modforms.lambda2_half("shifted", work), 0)
    if kind == _L2_NEG2:
        return ThetaRows(modforms.lambda_n(2, work) * -2, 0)
    if isinstance(kind, tuple):  # (_DECOMPOSED, L): phi_{0,1}/12 + L theta_1^2/eta^6
        l_q1 = _shared_power(THETA1SQ, 1, work) * _shared_power(kind[1], 1, work)
        return ThetaRows(_shared_power(_PHI01, 1, work).rows * Fraction(1, 12) + l_q1.rows, 1)
    return cut_theta_rows(_index1_form(kind, work), 1)[0]


def _index1_form(kind: str, work: int) -> JacobiSeries:
    """phi_{0,1} or a theta quotient, in full rows as modforms builds it."""
    return modforms.phi01(work) if kind == _PHI01 else modforms.theta_quotient(kind, work)


@lru_cache(maxsize=None)
def _shared_power(kind: str | tuple[str, str], power: int, work: int) -> ThetaRows:
    """A theta quotient, phi_{0,1}, a weight-2 form or a (_DECOMPOSED, L) form to a power.

    Its index is the power, or 0 for a weight-2 form.  Class-independent,
    so built once per (kind, power, work) per process.
    """
    if power == 0:
        return ThetaRows(JacobiSeries.one(work), 0)
    if power == 1:
        return _shared_base(kind, work)
    return _shared_power(kind, power - 1, work) * _shared_power(kind, 1, work)


#: the shared forms against r_g, r_{-g}, eta_g and eta_{-g} in a genus, all
#: to the power ell - 1, and in F_{2j}, all to the power j, with no eta_g term
_GENUS_SLOTS = (THETA4, THETA3, THETA1SQ, THETA2)
_F_SLOTS = (_L2_PLAIN, _L2_SHIFTED, None, _L2_NEG2)


def _class_form(rec: ConwayClassRecord, orders: int, shared, d, scale,
                what: str) -> JacobiSeries:
    """scale/2 (-P0 r_g + P1 r_{-g} + d P2 eta_g - C(-g) P3 eta_{-g}), exact below prec.

    shared[i] is the (kind, power) of P_i = _shared_power(kind, power), or
    None for an empty slot; a slot whose constant is zero is skipped before
    its power is built.  Every shared power has the same index m and the
    class series are y-free, so the sum is taken on theta rows 0..m alone
    and returned as those rows; the caller, who knows m, wraps them.
    """
    prec = grid_index(orders)
    work = prec + _MARGIN
    series = (modforms.eta_ratio_half(rec.fs_g, work),
              modforms.eta_ratio_half(rec.fs_neg_g, work),
              modforms.eta_product(rec.fs_g, work), modforms.eta_product(rec.fs_neg_g, work))
    total = combine([(kappa * Fraction(scale, 2), _shared_power(*power, work).rows, s)
                     for kappa, power, s in zip((-1, 1, d, -rec.c_neg_g), shared, series)
                     if power and kappa], prec)
    if total.trunc < prec:
        raise ValueError(f"internal truncation shortfall in {what}")
    return total


def _genus_rows(req: GenusRequest) -> ThetaRows:
    """The theta rows of the genus of a table row, at index ell - 1."""
    shared = [(kind, req.ell - 1) for kind in _GENUS_SLOTS]
    return ThetaRows(_class_form(req.rec, req.orders, shared, req.d, 1, "genus"), req.ell - 1)


def phi_g_ell(req: GenusRequest) -> JacobiSeries:
    """The weight-0, index-(ell-1) genus attached to a table row."""
    return _genus_rows(req).expand()


def _rows_deviation(a: ThetaRows, b: ThetaRows) -> dict | None:
    """first_difference of two forms' full rows, from their theta rows:
    each full-row coefficient copies a theta-row one at a lower or equal q
    order, so only forms that differ are expanded.  Both are known below
    the same index, _class_form's truncation, so no bound is passed."""
    if first_difference(a.rows, b.rows) is None:
        return None
    return first_difference(a.expand(), b.expand())


def phi_g(rec: ConwayClassRecord, d_sign: int = 1, orders: int = 5) -> JacobiSeries:
    """Index-1 case of phi_g_ell."""
    return phi_g_ell(GenusRequest(rec, d_sign, 2, orders))


def f_g(rec: ConwayClassRecord, d_sign: int = 1, orders: int = 5) -> QSeries:
    """Weight-2 multiplier of phi_{-2,1} in the index-1 decomposition.

    F = -(F_2 + D eta_g)/2, assembled on the (1/2)Z grid, where the
    half-integer exponents cancel (the decomposition suite checks F).
    """
    # the eta_g slot holds Q1^0 = 1; GenusRequest rejects a class with no D at ell 2
    shared = [(kind, 1) if kind else (THETA1SQ, 0) for kind in _F_SLOTS]
    d = GenusRequest(rec, d_sign, 2, orders).d
    return _class_form(rec, orders, shared, d, -1, "F_g").row0()


def f_2j_g(rec: ConwayClassRecord, j: int, orders: int = 5) -> QSeries:
    """The weight-2j companion forms; F_0 is -(r_g - r_{-g} + C(-g) eta_{-g}),
    the constant 2 chi by verify_eta_identity."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    shared = [(kind, j) if kind else None for kind in _F_SLOTS]
    return _class_form(rec, orders, shared, 0, 2, "F_{2j}").row0()


def k3_elliptic_genus(orders: int = 5) -> JacobiSeries:
    """The K3 elliptic genus from discriminant-form ratios and quotients."""
    prec = grid_index(orders)
    work = prec + _MARGIN
    fs_e = FrameShape.from_pairs([(1, 24)])
    fs_neg = fs_e.negate()
    ratio_e = modforms.eta_ratio_half(fs_e, work)      # Delta(tau/2)/Delta(tau)
    ratio_neg = modforms.eta_ratio_half(fs_neg, work)  # Delta^2/(Delta(2tau) Delta(tau/2))
    eta_neg = modforms.eta_product(fs_neg, work)       # Delta(2tau)/Delta(tau)
    return combine([(Fraction(1, 2), modforms.theta_quotient(THETA3, work), ratio_neg),
                    (Fraction(-1, 2), modforms.theta_quotient(THETA4, work), ratio_e),
                    (-2 ** 11, modforms.theta_quotient(THETA2, work), eta_neg)], prec)


# -- verification suites ---------------------------------------------------


def _decomposition_rows(req: GenusRequest) -> ThetaRows:
    """The theta rows of D term + sum_j c_j phi01^(ell-1-j) Q1^j F_{2j}, with
    c_j = binom(ell-1, j) / (2 * 12^(ell-1-j)).  By linearity in the class
    series, F's terms take sum_j c_j phi01^(ell-1-j) Q1^j L^j, half the
    (_DECOMPOSED, L) power ell - 1, in place of L^j: the genus with those
    powers in place of the theta-quotient powers.  Each is a power of its
    own base phi01/12 + L Q1, never of the theta quotient it equals."""
    shared = [((_DECOMPOSED, kind) if kind else theta, req.ell - 1)
              for theta, kind in zip(_GENUS_SLOTS, _F_SLOTS)]
    return ThetaRows(_class_form(req.rec, req.orders, shared, req.d, 1, "decomposition"),
                     req.ell - 1)


def _decomposition_deviation(req: GenusRequest) -> dict | None:
    """First deviation of phi^(ell) from its binomial decomposition.  The sides differ
    only in the _F_SLOTS shared powers, so equal ThetaRows there decide it; the class
    forms are built only where a power differs, to report the deviation."""
    work, m = grid_index(req.orders) + _MARGIN, req.ell - 1
    same = all(_shared_power(theta, m, work) == _shared_power((_DECOMPOSED, kind), m, work)
               for theta, kind in zip(_GENUS_SLOTS, _F_SLOTS) if kind)
    return None if same else _rows_deviation(_genus_rows(req), _decomposition_rows(req))


def verify_decomposition(rec: ConwayClassRecord, d_sign: int = 1,
                         orders: int = 5) -> CheckReport:
    """phi = (chi/12) phi01 + F phi-21, decided on the shared powers by
    _decomposition_deviation; class forms are built only to report a deviation."""
    name = f"decomposition[{rec.co0_name}, D sign {d_sign:+d}]"
    return CheckReport.from_deviation(
        name, _decomposition_deviation(GenusRequest(rec, d_sign, 2, orders)))


def verify_decomposition_ell(req: GenusRequest) -> CheckReport:
    """The binomial decomposition of phi^(ell) into phi01/phi-21 monomials, decided
    on the shared powers; class forms are built only to report a deviation."""
    name = f"decomposition[{req.rec.co0_name}, ell {req.ell}, D sign {req.d_sign:+d}]"
    return CheckReport.from_deviation(name, _decomposition_deviation(req))


def verify_elliptic_law(orders: int) -> list[CheckReport]:
    """The deviation of series.cut_theta_rows (the index-1 elliptic law and
    evenness) of each base that _shared_base cuts, at the precision the
    genera of `orders` q-orders read it.  Theta3 and theta4 sit on the
    half-integer q-grid, so verify_jacobi_invariance does not apply."""
    work = grid_index(orders) + _MARGIN
    return [CheckReport.from_deviation(f"elliptic-law[{kind}]",
                                       cut_theta_rows(_index1_form(kind, work), 1)[1])
            for kind in (*_GENUS_SLOTS, _PHI01)]


def verify_jacobi_invariance(phi: JacobiSeries, index_m: int,
                             name: str = "jacobi-invariance") -> CheckReport:
    """Weak Jacobi structure at index m >= 0.

    Checks (i) no negative q-exponents, (ii) integer q- and y-exponents
    and (iii) evenness in z and the elliptic law, c(n, r) = c(n, -r) and
    a function of 4mn - r^2 and r mod 2m, by series.cut_theta_rows;
    index 0 asks for a y-free form.  It is the one check of a genus's
    integer q-grid; on a genus (iii) holds by construction, from the bases
    that verify_elliptic_law checks.
    """
    deviation = cut_theta_rows(phi, index_m)[1]   # ValueError at a negative index
    bad = [(kq, ry) for rows in phi.parts.values() for ry, row in rows.items() for kq in row
           if kq < 0 or kq % 24 or ry % 2]
    if bad:
        kq, ry = min(bad)
        lhs, rhs = ((phi.text_at(kq, ry), "0 (weakness)") if kq < 0
                    else ("off-grid exponent", "integer grid"))
        return CheckReport(name, "fail", {"q_exp": str(Fraction(kq, 24)),
                                          "y_exp": str(Fraction(ry, 2)), "lhs": lhs, "rhs": rhs})
    return CheckReport.from_deviation(name, deviation)


def verify_coincidences(data: ClassData, orders: int = 5,
                        lambency: int | None = None) -> list[CheckReport]:
    """Check every internally expressible coincidence row.

    Anchor (dictionary-defining) and externally-referencing rows are
    reported as skipped, never dropped.
    """
    built: dict[tuple[str, int, int], ThetaRows] = {}

    def genus(name: str, sign: int | None, ell: int) -> ThetaRows:
        key = (name, sign or 1, ell)
        if key not in built:
            built[key] = _genus_rows(GenusRequest(data.record(name), sign or 1, ell, orders))
        return built[key]

    reports = []
    for rel in data.relations:
        if lambency is not None and rel.lambency != lambency:
            continue
        label = _relation_label(rel)
        if rel.kind != "internal":
            reports.append(CheckReport(label, "skipped",
                                       note=f"{rel.kind}: {rel.source}"))
            continue
        lhs = genus(rel.lhs_class, rel.lhs_sign, rel.lambency)
        rhs = JacobiSeries.zero(lhs.rows.trunc)
        for coeff, name, sign in rel.rhs:
            rhs = rhs + genus(name, sign, rel.lambency).rows * coeff
        reports.append(CheckReport.from_deviation(
            label, _rows_deviation(lhs, ThetaRows(rhs, lhs.index)), note=rel.source))
    return reports


def _relation_label(rel: CoincidenceRelation) -> str:
    sign = {1: ", D sign +1", -1: ", D sign -1"}.get(rel.lhs_sign, "")
    return f"coincidence[ell {rel.lambency}: {rel.lhs_class}{sign}]"


def verify_sign_flip(rec: ConwayClassRecord, ell: int, orders: int = 4) -> CheckReport:
    """phi(+) - phi(-) is the explicit D-linear term, by linearity in D."""
    plus, minus = (GenusRequest(rec, sign, ell, orders) for sign in (1, -1))
    expected = _class_form(rec, orders, (None, None, (THETA1SQ, ell - 1), None), plus.d, 2,
                           "D term")
    flip = _genus_rows(plus).rows - _genus_rows(minus).rows
    name = f"sign-flip[{rec.co0_name}, ell {ell}]"
    return CheckReport.from_deviation(name, _rows_deviation(
        ThetaRows(flip, ell - 1), ThetaRows(expected, ell - 1)))
