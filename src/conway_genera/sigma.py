"""Character-level checks for the distinguished orbifold model.

The rank-4 even-sum lattice and its dual enter through exact theta
series (integer coefficients, no floating point).  The four irreducible
module characters of the 8-dimensional fermion algebra are matched
against lattice theta quotients, the three nontrivial cosets are checked
to share one character (triality), and the graded dimensions of the
24-fermion module and its twist are compared with the corresponding
sums of triple tensor products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import modforms
from .report import CheckReport
from .series import QSeries, first_difference

COSETS = ("0", "1", "omega", "omegabar")

#: coset -> (parity of the doubled coordinates, their sum mod 4)
_COSET_CLASS = {"0": (0, 0), "1": (0, 2), "omega": (1, 0), "omegabar": (1, 2)}


def _coordinates(radius: int, parity: int) -> list[int]:
    """Doubled coordinates of one parity with absolute value at most radius."""
    return [m for m in range(-radius, radius + 1) if m % 2 == parity]


@lru_cache(maxsize=None)
def d4_coset_theta(label: str, prec: int) -> QSeries:
    """Theta series of one dual-lattice coset, sum over q^(|v|^2/2).

    Exponent grid: |v|^2/2 = sum(m^2)/8 for doubled coordinates m, i.e.
    grid index 3*sum(m^2).  Only coordinates of the coset's parity are
    visited; the coordinate sum mod 4 then separates the two cosets of
    each parity.
    """
    if label not in COSETS:
        raise ValueError(f"unknown coset {label!r}")
    parity, residue = _COSET_CLASS[label]
    rng = _coordinates(isqrt(prec // 3), parity)  # need 3*sum(m^2) < prec
    counts: dict[int, int] = {}
    for m1 in rng:
        s1 = m1 * m1
        if 3 * s1 >= prec:
            continue
        for m2 in rng:
            s2 = s1 + m2 * m2
            if 3 * s2 >= prec:
                continue
            for m3 in rng:
                s3 = s2 + m3 * m3
                if 3 * s3 >= prec:
                    continue
                t3 = m1 + m2 + m3
                for m4 in rng:
                    key = 3 * (s3 + m4 * m4)
                    if key < prec and (t3 + m4) % 4 == residue:
                        counts[key] = counts.get(key, 0) + 1
    return QSeries(counts, prec)


def dual_lattice_theta(prec: int) -> QSeries:
    """Theta series of the full dual lattice, independent of the coset split.

    The dual lattice is every doubled vector whose coordinates are all
    even or all odd, so its theta series is the sum over the two parities
    of (sum c_m q^(3 m^2))^4, m >= 0 of that parity, c_0 = 1 and c_m = 2
    for m > 0: a product of one-coordinate sums.
    """
    total = QSeries.zero(prec)
    for parity in (0, 1):
        line = QSeries({3 * m * m: 2 if m else 1
                        for m in range(parity, isqrt(prec // 3) + 1, 2)}, prec)
        square = line * line
        total = total + square * square
    return total


def _sectors(dim: int, prec: int) -> tuple[QSeries, QSeries, QSeries, QSeries]:
    """Graded dimensions of the dim-dimensional fermion algebra's sectors by
    parity: (NS even, NS odd, R even, R odd).

    The NS ground state sits at -dim/48, and inserting the involution flips
    the sign of every mode factor; the parity halves are the half sum and
    half difference of the two traces.  The R sector has 2^(dim/2) ground
    states at grading dim/16 - dim/48 = dim/24, and its paired zero modes
    kill the inserted trace, so each parity holds half of it.
    """
    plain, flipped = (
        modforms._half_odd_product(prec + dim // 2, 24, sign, dim).shift(-dim // 2).truncate(prec)
        for sign in (1, -1))
    half = Fraction(1, 2)
    r_half = (modforms._euler_product(max(prec - dim, 0), 24, +1, dim)
              * 2 ** (dim // 2 - 1)).shift(dim).truncate(prec)
    return (plain + flipped) * half, (plain - flipped) * half, r_half, r_half


@lru_cache(maxsize=None)
def u_characters(prec: int) -> dict[str, QSeries]:
    """Characters of the four irreducible modules of the 8-fermion algebra:
    the cosets 0, 1, omega, omegabar are its NS even, NS odd, R even and R
    odd sectors."""
    return dict(zip(COSETS, _sectors(8, prec)))


def module_character(prec: int) -> QSeries:
    """Graded dimension of the 24-fermion module (NS even + R odd)."""
    ns_even, _, _, r_odd = _sectors(24, prec)
    return ns_even + r_odd


def twisted_module_character(prec: int) -> QSeries:
    """Graded dimension of its canonically-twisted companion (NS odd + R even)."""
    _, ns_odd, r_even, _ = _sectors(24, prec)
    return ns_odd + r_even


def verify_sigma_isomorphism(orders: int = 6) -> list[CheckReport]:
    """All character identities of the orbifold comparison, exactly."""
    prec = 24 * orders
    work = prec + 24
    reports: list[CheckReport] = []

    thetas = {label: d4_coset_theta(label, work) for label in COSETS}
    eta4_inv = modforms._euler_product(work, 24, -1, -4).shift(-4)
    u = u_characters(work)

    for label in COSETS:
        lhs = u[label]
        rhs = (thetas[label] * eta4_inv)
        reports.append(CheckReport.from_deviation(
            f"boson-fermion[{label}]", first_difference(lhs, rhs, prec)))

    for label in ("omega", "omegabar"):
        reports.append(CheckReport.from_deviation(
            f"triality[1 = {label}]", first_difference(u["1"], u[label], prec)))
    reports.append(CheckReport.from_deviation(
        "triality[lattice: omega = omegabar = 1]",
        first_difference(thetas["omega"], thetas["1"], prec)))

    total = thetas["0"] + thetas["1"] + thetas["omega"] + thetas["omegabar"]
    reports.append(CheckReport.from_deviation(
        "coset-partition[sum = dual theta]",
        first_difference(total, dual_lattice_theta(work), prec)))

    module, twisted = module_character(work), twisted_module_character(work)
    u0, u1, uw, uwb = u["0"], u["1"], u["omega"], u["omegabar"]
    ns_sum = u0 ** 3 + u0 * u1 * u1 * 3 + uw * uw * uwb * 3 + uwb ** 3
    rr_sum = u0 * u0 * u1 * 3 + u1 ** 3 + uw ** 3 + uw * uwb * uwb * 3
    reports.append(CheckReport.from_deviation(
        "module-character[8 summands]",
        first_difference(module, ns_sum, prec)))
    reports.append(CheckReport.from_deviation(
        "twisted-module-character[8 summands]",
        first_difference(twisted, rr_sum, prec)))

    # orbifold sector sums: the triality image of the same eight summands
    orb_ns = u0 ** 3 + u0 * uw * uw * 3 + u1 ** 3 + u1 * uwb * uwb * 3
    orb_rr = u0 * u0 * uw * 3 + uw ** 3 + u1 * u1 * uwb * 3 + uwb ** 3
    reports.append(CheckReport.from_deviation(
        "orbifold-sector[NS-NS]",
        first_difference(module, orb_ns, prec)))
    reports.append(CheckReport.from_deviation(
        "orbifold-sector[R-R]",
        first_difference(twisted, orb_rr, prec)))

    # no states at grading 1/2 - c/24 = 0 in the module itself
    zero_coeff = module.coeff(0)
    reports.append(CheckReport(
        "module-character[no q^0 term]",
        "pass" if zero_coeff.is_zero else "fail",
        None if zero_coeff.is_zero else {
            "q_exp": "0", "y_exp": "0", "lhs": str(zero_coeff), "rhs": "0"}))
    return reports
