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
from itertools import pairwise
from math import isqrt

from . import modforms
from .report import CheckReport
from .series import QSeries, first_difference, grid_index

COSETS = ("0", "1", "omega", "omegabar")

#: coset -> (parity of the doubled coordinates, their sum mod 4)
_COSET_CLASS = {"0": (0, 0), "1": (0, 2), "omega": (1, 0), "omegabar": (1, 2)}


@lru_cache(maxsize=None)
def d4_coset_theta(label: str, prec: int) -> QSeries:
    """Theta series of one dual-lattice coset, sum over q^(|v|^2/2).

    Exponent grid: |v|^2/2 = sum(m^2)/8 for doubled coordinates m, i.e.
    grid index 3*sum(m^2).  Vectors of the coset's parity are counted one
    coordinate at a time by (partial sum of m^2, coordinate sum mod 4),
    dropping partial norms with 3*sum(m^2) >= prec; the full sum mod 4
    then separates the two cosets of each parity.
    """
    if label not in COSETS:
        raise ValueError(f"unknown coset {label!r}")
    parity, residue = _COSET_CLASS[label]
    radius = isqrt(prec // 3)
    coordinates = [m for m in range(-radius, radius + 1) if m % 2 == parity]
    counts = {(0, 0): 1}
    for _ in range(4):
        step: dict[tuple[int, int], int] = {}
        for (norm, total), count in counts.items():
            for m in coordinates:
                key = (norm + m * m, (total + m) % 4)
                if 3 * key[0] < prec:
                    step[key] = step.get(key, 0) + count
        counts = step
    return QSeries({3 * norm: count for (norm, total), count in counts.items()
                    if total == residue}, prec)


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
    """All character identities of the orbifold comparison, exactly: each
    table row is a report name and a chain of series equal below q^orders."""
    prec = grid_index(orders)
    work = prec + 24
    th = {label: d4_coset_theta(label, work) for label in COSETS}
    eta4_inv = modforms._euler_product(work, 24, -1, -4).shift(-4)
    u = u_characters(work)
    u0, u1, uw, uwb = u.values()
    module, twisted = module_character(work), twisted_module_character(work)
    identities = [
        *((f"boson-fermion[{label}]", u[label], th[label] * eta4_inv) for label in COSETS),
        ("triality[1 = omega]", u1, uw),
        ("triality[1 = omegabar]", u1, uwb),
        ("triality[lattice: omega = omegabar = 1]", th["omega"], th["omegabar"], th["1"]),
        ("coset-partition[sum = dual theta]",
         th["0"] + th["1"] + th["omega"] + th["omegabar"], dual_lattice_theta(work)),
        ("module-character[8 summands]", module,
         u0 ** 3 + u0 * u1 * u1 * 3 + uw * uw * uwb * 3 + uwb ** 3),
        ("twisted-module-character[8 summands]", twisted,
         u0 * u0 * u1 * 3 + u1 ** 3 + uw ** 3 + uw * uwb * uwb * 3),
        # orbifold sector sums: the triality image of the same eight summands
        ("orbifold-sector[NS-NS]", module,
         u0 ** 3 + u0 * uw * uw * 3 + u1 ** 3 + u1 * uwb * uwb * 3),
        ("orbifold-sector[R-R]", twisted,
         u0 * u0 * uw * 3 + uw ** 3 + u1 * u1 * uwb * 3 + uwb ** 3),
        # no states at grading 1/2 - c/24 = 0 in the module itself
        ("module-character[no q^0 term]", QSeries({0: module.coeff(0)}, 1), QSeries.zero(1)),
    ]
    reports = []
    for name, *chain in identities:
        deviations = (first_difference(a, b, prec) for a, b in pairwise(chain))
        reports.append(CheckReport.from_deviation(name, next(filter(None, deviations), None)))
    return reports
