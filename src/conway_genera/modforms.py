"""Classical building blocks as exact truncated series.

Everything here is built from convergent product or sum formulas on the
(1/24)Z grid: the Dedekind eta function and its argument rescalings, the
discriminant form, the weight-2 Eisenstein combination Lambda_N, eta
products attached to Frame shapes together with their half-argument
ratios, the four Jacobi theta functions with their normalized quotients,
the standard weak Jacobi forms phi_{0,1} and phi_{-2,1}, and the order-2
Hecke operator.

Every product of (1 +- q^a) factors -- Euler products, eta and Delta,
the eta products of Frame shapes and their half-argument ratios, the
theta-quotient normalizers and the fermion characters of the sigma
module -- is one call of `power_product`, an integer recurrence on the
logarithmic derivative of prod (1 - q^a)^e, one builtin dot product per
coefficient, whose result is built as the series' integer row with no
field value.  A plus sign enters as 1 + x = (1 - x^2)/(1 - x) and an
inverse as a negative exponent, so no series power or inverse is taken
for any of them.  No product carries y: the y-dependence of the theta
quotients comes from the theta lattice sums alone, squared and
multiplied by their normalizer with `times`, in Python ints, so no field
value is built.

All constructors take a truncation index `prec` on the (1/24)Z grid and
return a series truncated at exactly that index.  Results are cached;
series are immutable, so sharing cached objects is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .report import CheckReport
from .series import GridError, JacobiSeries, QSeries, first_difference, grid_index

#: theta-quotient selectors
THETA2 = "theta2"
THETA3 = "theta3"
THETA4 = "theta4"
THETA1SQ = "theta1sq"


def sigma1(n: int) -> int:
    """Divisor sum of n."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            if d * d != n:
                total += n // d
        d += 1
    return total


def power_product(exponents: dict[int, int], prec: int) -> QSeries:
    """prod_a (1 - q^(a/24))^e over a finite {a: e}, truncated at grid index prec.

    Every a must be positive; every e is an integer of either sign.  The
    product is expanded in x = q^(g/24), g the gcd of the a below prec,
    by its logarithmic derivative: with c_N = sum_{b | N} b e_{bg},
    N f_N = -sum_{i=1..N} c_i f_{N-i}.  Each step is one builtin dot
    product of c_1, c_2, ... with the reversed prefix f_{N-1}, ..., f_0.
    All f_N are integers, so a division that leaves a remainder raises
    ValueError; the f_N become the series' integer row directly.
    """
    if any(a <= 0 for a in exponents):
        raise ValueError("power_product needs positive factor exponents")
    live = {a: e for a, e in exponents.items() if e and a < prec}
    if not live:
        return QSeries.one(prec)
    step = gcd(*live)
    top = (prec - 1) // step  # the last N with N * step < prec
    c = [0] * (top + 1)
    for a, e in live.items():
        b = a // step
        for n in range(b, top + 1, b):
            c[n] += b * e
    c = c[1:]
    f = [1]
    for n in range(1, top + 1):
        # c_1 f_{N-1} + ... + c_N f_0: map stops at the end of the reversed prefix
        fn, rem = divmod(-sum(map(mul, c, reversed(f))), n)
        if rem:
            raise ValueError(
                f"inexact recurrence step at q^{Fraction(n * step, 24)} in power_product")
        f.append(fn)
    return QSeries.from_parts({1: {0: {n * step: v for n, v in enumerate(f)}}}, 1, prec)


def _add_modes(exponents: dict[int, int], first: int, step: int, prec: int,
               sign: int, power: int) -> dict[int, int]:
    """Add prod_{n>=0} (1 + sign*q^((first + n*step)/24))^power to an {a: e} map.

    Only factors below grid index prec are added; the others are 1 there.
    A plus sign enters through 1 + x = (1 - x^2) / (1 - x).
    """
    for a in range(first, prec, step):
        if sign < 0:
            exponents[a] = exponents.get(a, 0) + power
        else:
            exponents[a] = exponents.get(a, 0) - power
            exponents[2 * a] = exponents.get(2 * a, 0) + power
    return exponents


@lru_cache(maxsize=None)
def _euler_product(prec: int, step: int, sign: int = -1, power: int = 1) -> QSeries:
    """prod_{n>0} (1 + sign*q^(step*n/24))^power, truncated at grid index prec."""
    return power_product(_add_modes({}, step, step, prec, sign, power), prec)


@lru_cache(maxsize=None)
def _half_odd_product(prec: int, step: int, sign: int = -1, power: int = 1) -> QSeries:
    """prod_{n>0} (1 + sign*q^(step*(2n-1)/48))^power, truncated at prec.

    step is measured in whole-q units times 24, so the factor exponents
    are step*(2n-1)/2 grid indices; they must land on the integer grid.
    """
    if step % 2 != 0:
        raise GridError("grid violation: half-odd product steps off the (1/24)Z grid")
    return power_product(_add_modes({}, step // 2, step, prec, sign, power), prec)


@lru_cache(maxsize=None)
def eta(prec: int) -> QSeries:
    """Dedekind eta: q^(1/24) * prod_{n>0} (1 - q^n)."""
    if prec < 1:
        raise ValueError("prec must be at least 1")
    return _euler_product(max(prec - 1, 0), 24).shift(1)


@lru_cache(maxsize=None)
def eta_scaled(m: int, prec: int) -> QSeries:
    """eta(m*tau) truncated at grid index prec."""
    return _euler_product(max(prec - m, 0), 24 * m).shift(m)


@lru_cache(maxsize=None)
def delta(prec: int) -> QSeries:
    """Ramanujan Delta = eta^24 = q prod_{n>0} (1 - q^n)^24."""
    return _euler_product(max(prec - 24, 0), 24, -1, 24).shift(24).truncate(prec)


@lru_cache(maxsize=None)
def eisenstein_e2(prec: int) -> QSeries:
    """E_2 = 1 - 24 sum sigma_1(n) q^n (quasi-modular, weight 2)."""
    if prec < 1:
        raise ValueError("prec must be at least 1")
    coeffs = {0: 1}
    n = 1
    while 24 * n < prec:
        coeffs[24 * n] = -24 * sigma1(n)
        n += 1
    return QSeries(coeffs, prec)


@lru_cache(maxsize=None)
def lambda_n(n: int, prec: int) -> QSeries:
    """Lambda_N = (N/24) (N E_2(N tau) - E_2(tau)), weight 2 with level N."""
    if n < 2:
        raise ValueError("lambda_n requires N >= 2")
    e2_scaled = eisenstein_e2((prec + n - 1) // n).scale_argument(n)
    combo = (eisenstein_e2(prec) * (-1) + e2_scaled * n) * Fraction(n, 24)
    return combo.truncate(prec)


@lru_cache(maxsize=None)
def lambda2_half(variant: str, prec: int) -> QSeries:
    """Lambda_2 at half argument: tau/2 ("plain") or tau/2 + 1/2 ("shifted").

    Both live on the (1/2)Z exponent grid; the shifted variant is the
    half-period sign twist of the plain one.
    """
    if variant not in ("plain", "shifted"):
        raise ValueError(f"unknown lambda2_half variant {variant!r}")
    e2_half = eisenstein_e2(2 * prec).scale_argument(Fraction(1, 2))
    plain = ((eisenstein_e2(prec) * 2 - e2_half) * Fraction(1, 12)).truncate(prec)
    if variant == "plain":
        return plain
    return plain.half_period_shift()


@lru_cache(maxsize=None)
def eta_product(fs, prec: int) -> QSeries:
    """prod_m eta(m*tau)^{k_m} for a Frame shape; leading term is q."""
    lead = fs.degree
    work = max(prec - lead, 0)
    exponents: dict[int, int] = {}
    for m, k in fs.factors:
        _add_modes(exponents, 24 * m, 24 * m, work, -1, k)
    return power_product(exponents, work).shift(lead).truncate(prec)


@lru_cache(maxsize=None)
def eta_ratio_half(fs, prec: int) -> QSeries:
    """The half-argument ratio of an eta product.

    Computed through the characteristic polynomial P(x) = prod (1-x^m)^{k_m}:
    the ratio equals q^(-1/2) prod_{n>0} P(q^(n-1/2)), with integer
    coefficients and exponents on the (1/2)Z grid.
    """
    work = prec + 12
    exponents: dict[int, int] = {}
    for m, k in fs.factors:
        _add_modes(exponents, 12 * m, 24 * m, work, -1, k)
    return power_product(exponents, work).shift(-12)


# -- Jacobi theta functions ---------------------------------------------


@lru_cache(maxsize=None)
def theta_sum(i: int, prec: int) -> JacobiSeries:
    """Theta function from its defining sum.

    i in {2, 3, 4} gives theta_i; i = 1 gives the real-coefficient
    variant i*theta_1 = sum (-1)^n y^(n+1/2) q^((n+1/2)^2/2).
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1, 2, 3 or 4")
    coeffs = {}
    if i in (1, 2):
        n = 0
        while 3 * (2 * n + 1) ** 2 < prec:
            for m in (n, -n - 1):          # m and -(m+1) share (m+1/2)^2
                key = (3 * (2 * m + 1) ** 2, 2 * m + 1)
                coeffs[key] = (1 if m % 2 == 0 else -1) if i == 1 else 1
            n += 1
    else:
        coeffs[(0, 0)] = 1
        n = 1
        while 12 * n * n < prec:
            sign = (-1) ** n if i == 4 else 1
            coeffs[(12 * n * n, 2 * n)] = sign
            coeffs[(12 * n * n, -2 * n)] = sign
            n += 1
    return JacobiSeries(coeffs, prec)


#: kind -> (theta index i, constant c, q-shift h, normalizer factors).  The
#: quotient is c * theta_sum(i)^2 * N, where N = q^(-h/24) times the product
#: of prod_{n>=0} (1 + sign*q^((first + n*step)/24))^power over the
#: (first, step, sign, power) factors: c N is theta_i(tau,0)^-2 for i = 2, 3, 4
#: and -eta^-6 for THETA1SQ.
_QUOTIENTS = {
    THETA2: (2, Fraction(1, 4), 6, ((24, 24, -1, 2), (48, 48, -1, -4))),
    THETA3: (3, 1, 0, ((24, 24, -1, -2), (12, 24, +1, -4))),
    THETA4: (4, 1, 0, ((24, 24, -1, -2), (12, 24, -1, -4))),
    THETA1SQ: (1, -1, 6, ((24, 24, -1, -6),)),
}


@lru_cache(maxsize=None)
def theta_quotient(kind: str, prec: int) -> JacobiSeries:
    """Normalized theta quotients entering every genus formula.

    THETA2/3/4 give theta_i(tau,z)^2 / theta_i(tau,0)^2; THETA1SQ gives
    theta_1(tau,z)^2 / eta(tau)^6, which is -phi_{-2,1}.  The numerator
    is the lattice sum `theta_sum(i)` squared, so the y-dependence never
    passes through a product formula; (i theta_1)^2 = -theta_1^2 gives
    THETA1SQ its sign.  The normalizer is one `power_product`, by the
    Jacobi triple product at z = 0:
    theta_2(tau,0) = 2 eta(2tau)^2 / eta(tau),
    theta_3(tau,0) = prod (1 - q^n)(1 + q^(n-1/2))^2 and
    theta_4(tau,0) = prod (1 - q^n)(1 - q^(n-1/2))^2.
    Both factors are multiplied with `times`, in integers.
    """
    if kind not in _QUOTIENTS:
        raise ValueError(f"unknown theta quotient kind {kind!r}")
    i, c, lead, factors = _QUOTIENTS[kind]
    exponents: dict[int, int] = {}
    for first, step, sign, power in factors:
        _add_modes(exponents, first, step, prec + lead, sign, power)
    normalizer = power_product(exponents, prec + lead).shift(-lead)
    s = theta_sum(i, prec + lead // 2)
    return (s.times(s).times(normalizer) * c).truncate(prec)


def theta_quotient_from_sums(i: int, prec: int) -> JacobiSeries:
    """The i in {2,3,4} quotient assembled from the theta sum formulas."""
    if i not in (2, 3, 4):
        raise ValueError("sum-formula quotient needs index 2, 3 or 4")
    work = prec + 24
    s = theta_sum(i, work)
    normalizer = s.specialize_z0()
    return (s * s * (normalizer * normalizer).inverse()).truncate(prec)


@lru_cache(maxsize=None)
def phi01(prec: int) -> JacobiSeries:
    """Weak Jacobi form of weight 0 and index 1 with phi(tau,0) = 12."""
    total = theta_quotient(THETA2, prec) + theta_quotient(THETA3, prec) \
        + theta_quotient(THETA4, prec)
    return total * 4


@lru_cache(maxsize=None)
def phi_minus21(prec: int) -> JacobiSeries:
    """Weak Jacobi form of weight -2 and index 1: -theta_1^2/eta^6."""
    return -theta_quotient(THETA1SQ, prec)


def hecke_t2(f: QSeries) -> QSeries:
    """Order-2 Hecke action on integer-exponent series.

    Coefficientwise: the new coefficient at q^n is the old coefficient
    at q^(2n); odd exponents are annihilated.
    """
    out = {}
    for k, v in f.coeffs.items():
        if k % 24 != 0:
            raise GridError(
                f"grid violation: q^{Fraction(k, 24)} is off the integer grid")
        if k % 48 == 0:
            out[k // 2] = v
    return QSeries(out, -((-f.trunc) // 2))


def verify_theta_identities(orders: int) -> list[CheckReport]:
    """Check the three quotient decompositions against phi_{0,1}, phi_{-2,1}
    below q^orders (integer q-orders, as every verify_* takes).

    Each is an exact coefficient identity on the (1/2)Z grid; any
    nonzero deviation is reported with the offending exponent.
    """
    prec = grid_index(orders)
    p01 = phi01(prec)
    pm21 = phi_minus21(prec)
    twelfth = p01 * Fraction(1, 12)
    cases = [
        ("theta2-quotient = phi01/12 + 2*Lambda2*phi-21",
         twelfth + pm21 * lambda_n(2, prec) * 2, theta_quotient(THETA2, prec)),
        ("theta3-quotient = phi01/12 - Lambda2(tau/2+1/2)*phi-21",
         twelfth - pm21 * lambda2_half("shifted", prec), theta_quotient(THETA3, prec)),
        ("theta4-quotient = phi01/12 - Lambda2(tau/2)*phi-21",
         twelfth - pm21 * lambda2_half("plain", prec), theta_quotient(THETA4, prec)),
    ]
    return [CheckReport.from_deviation(name, first_difference(lhs, rhs, prec))
            for name, lhs, rhs in cases]
