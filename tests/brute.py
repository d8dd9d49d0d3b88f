"""Independent brute-force expansions and reference paths used as test oracles.

The expansions work on plain dicts {grid index: Fraction} with grid
index = 24 * exponent, multiplied out term by term with no help from
the package's series classes; `triple_product_quotient` multiplies out
the Jacobi triple product of a normalized theta quotient the same way,
on {(q grid index, y half-index): value} dicts, the reference for the
package's lattice-sum construction; `dual_lattice_box` counts the sigma
model's dual-lattice vectors one by one, and `in_coset` tests one vector
for coset membership.  `field_mul` is the textbook product of two
package series, one RadicalScalar product per pair of terms, kept as
the reference for the package's integer-row kernel, and `field_inverse`
the term-by-term inverse recursion over the field, the reference for the
package's Newton inverse; the `model_*`
functions are the other series operations, term by term over the field,
kept as the reference for the package's integer-row storage.  The reference
genus and weight-2j forms are evaluated with it, term by term over the
coefficient field; the full-row assembly multiplies out every y-row of
the genus-side forms, the reference for the package's theta-row
assembly.  `subset_histogram` walks every k-subset of
the oracle's mode labels, the reference for its knapsack histogram;
`knapsack_histogram` and `counter_buckets` count the oracle's states in
plain ints, one entry per exponent, the reference for its packed counts;
`nu_product` and `embed_term_by_term` take its ground products and
radical embeddings as chains of `CycloNumber` products and sums;
`euler_phi` is Euler's totient by trial division, `moebius_trace` the
trace of a Frame shape as its Moebius-weighted cyclotomic
multiplicities, and `to_radical` reads an oracle value back into
Q(sqrt 2, sqrt 3, sqrt 5) by Gaussian elimination.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt


def pmul(a: dict, b: dict, limit: int) -> dict:
    out: dict[int, Fraction] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            if k < limit:
                out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def binomial_factor(step: int, power: int, limit: int) -> dict:
    """(1 - q^(step/24))^power expanded by the binomial theorem: a polynomial
    for power >= 0, and for power = -e < 0 the series of (1 - x)^-e,
    sum_k C(e + k - 1, k) x^k, cut at limit."""
    out = {}
    k = 0
    while step * k < limit and (power < 0 or k <= power):
        if power >= 0:
            out[step * k] = Fraction(comb(power, k) * (-1) ** k)
        else:
            out[step * k] = Fraction(comb(-power + k - 1, k))
        k += 1
    return out


def product_one_minus(steps: list[tuple[int, int]], limit: int) -> dict:
    """prod over (step, power) of (1 - q^(step/24))^power, powers of either sign."""
    out = {0: Fraction(1)}
    for step, power in steps:
        out = pmul(out, binomial_factor(step, power, limit), limit)
    return out


def pentagonal_eta(limit: int) -> dict:
    """eta = sum_k (-1)^k q^((6k - 1)^2 / 24) over all integers k (Euler)."""
    out = {}
    k = 0
    while (6 * k - 1) ** 2 < limit:
        for j in {k, -k}:
            if (6 * j - 1) ** 2 < limit:
                out[(6 * j - 1) ** 2] = Fraction((-1) ** k)
        k += 1
    return out


def brute_delta(limit: int) -> dict:
    """q prod (1-q^n)^24 by direct multiplication."""
    steps = [(24 * n, 24) for n in range(1, limit // 24 + 1)]
    out = product_one_minus(steps, limit)
    return {k + 24: v for k, v in out.items() if k + 24 < limit}


def brute_ratio_identity_class(limit: int) -> dict:
    """q^(-1/2) prod (1-q^(n-1/2))^24 by direct multiplication."""
    steps = []
    n = 1
    while 12 * (2 * n - 1) < limit + 12:
        steps.append((12 * (2 * n - 1), 24))
        n += 1
    out = product_one_minus(steps, limit + 12)
    return {k - 12: v for k, v in out.items() if k - 12 < limit}


def brute_delta2_over_delta(limit: int) -> dict:
    """q prod (1+q^n)^24: the eta-product ratio for the negated identity."""
    out = {0: Fraction(1)}
    n = 1
    while 24 * n < limit:
        factor = {}
        k = 0
        while 24 * n * k < limit and k <= 24:
            factor[24 * n * k] = Fraction(comb(24, k))
            k += 1
        out = pmul(out, factor, limit)
        n += 1
    return {k + 24: v for k, v in out.items() if k + 24 < limit}


#: theta-quotient kind -> (ground row {y half-index: coefficient}, sign s,
#: q grid index of the first factor: 24 for e = n, 12 for e = n - 1/2)
_TRIPLE_PRODUCTS = {
    "theta2": ({2: Fraction(1, 4), 0: Fraction(1, 2), -2: Fraction(1, 4)}, 1, 24),
    "theta3": ({0: 1}, 1, 12),
    "theta4": ({0: 1}, -1, 12),
    "theta1sq": ({2: -1, 0: 2, -2: -1}, -1, 24),
}


def jmul(a: dict, b: dict, limit: int) -> dict:
    """The product of two {(q grid index, y half-index): value} dicts below limit."""
    out: dict = {}
    for (qa, ya), va in a.items():
        for (qb, yb), vb in b.items():
            k = qa + qb
            if k < limit:
                out[(k, ya + yb)] = out.get((k, ya + yb), 0) + va * vb
    return {k: v for k, v in out.items() if v}


def triple_product_quotient(kind: str, limit: int) -> dict:
    """A normalized theta quotient from the Jacobi triple product, factor by factor.

    theta_i(tau,z)^2 / theta_i(tau,0)^2, or theta_1(tau,z)^2 / eta(tau)^6
    for "theta1sq", is the ground row times
    prod_{e} [(1 + s y q^e)(1 + s y^-1 q^e)]^2 (1 + s q^e)^-4 over
    e = n or e = n - 1/2, n > 0; (1 + s x)^-4 is expanded as
    sum_k C(k+3, 3) (-s x)^k.
    """
    ground, s, first = _TRIPLE_PRODUCTS[kind]
    out = {(0, 0): 1}
    for key in range(first, limit, 24):
        for ry in (2, 2, -2, -2):
            out = jmul(out, {(0, 0): 1, (key, ry): s}, limit)
        out = jmul(out, {(k * key, 0): comb(k + 3, 3) * (-s) ** k
                         for k in range(-(-limit // key))}, limit)
    return jmul({(0, ry): v for ry, v in ground.items()}, out, limit)


def dual_lattice_box(limit: int) -> dict:
    """Theta series of the sigma model's dual lattice by box enumeration.

    Doubled coordinates m, all even or all odd, |m_i| <= sqrt(limit/3);
    the vector m/2 contributes q^(|m|^2/8), grid index 3 sum m_i^2.
    """
    radius = isqrt(limit // 3)
    out: dict[int, int] = {}
    for parity in (0, 1):
        coords = [m for m in range(-radius, radius + 1) if m % 2 == parity]
        for m in itertools.product(coords, repeat=4):
            key = 3 * sum(x * x for x in m)
            if key < limit:
                out[key] = out.get(key, 0) + 1
    return out


def in_coset(m: tuple[int, int, int, int], label: str) -> bool:
    """Dual-lattice coset membership of the vector m/2, m integral."""
    parities = {x % 2 for x in m}
    if len(parities) != 1:
        return False
    odd = parities == {1}
    total = sum(m) % 4
    if label == "0":
        return not odd and total == 0
    if label == "1":
        return not odd and total == 2
    if label == "omega":
        return odd and total == 0
    if label == "omegabar":
        return odd and total == 2
    raise ValueError(f"unknown coset {label!r}")


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def moebius_trace(shape) -> int:
    """The trace of a Frame shape as the sum of its eigenvalues: the
    primitive d-th roots of unity sum to mu(d)."""
    return sum(a * moebius(d) for d, a in shape.cyclo().items())


# -- series products over the coefficient field -------------------------------


def _terms(f) -> dict:
    """{(q grid index, y half-index): RadicalScalar}; a QSeries is row 0."""
    from conway_genera.series import QSeries

    if isinstance(f, QSeries):
        return {(k, 0): v for k, v in f.coeffs.items()}
    return dict(f.coeffs)


def field_mul(a, b):
    """a * b for two QSeries/JacobiSeries, one field product per term pair.

    The product is known below min(a.trunc + b.min, b.trunc + a.min), with
    a series that has no terms counting as O(q^trunc).  Two QSeries give a
    QSeries, anything else a JacobiSeries.
    """
    from conway_genera.series import JacobiSeries, QSeries

    out, trunc = model_mul(model(a), model(b))
    if isinstance(a, QSeries) and isinstance(b, QSeries):
        return QSeries({kq: v for (kq, _), v in out.items()}, trunc)
    return JacobiSeries(out, trunc)


def field_pow(f, n: int):
    """f ** n for n >= 0 as n field products, starting from the series one."""
    result = f.one(f.trunc)
    for _ in range(n):
        result = field_mul(result, f)
    return result


def field_inverse(f):
    """The inverse of a nonzero QSeries, one coefficient at a time over the field.

    f = q^(m/24) u; with v = 1/u, v_0 = 1/u_0 and v_k = -v_0 sum_{0<j<=k}
    u_j v_(k-j).  The inverse is known below f.trunc - 2m.
    """
    from conway_genera.series import QSeries

    m = f.min_key()
    unit = {k - m: v for k, v in f.coeffs.items()}
    lead_inv = unit[0].inverse()
    inv = {0: lead_inv}
    for k in range(1, f.trunc - m):
        acc = None
        for j, uj in unit.items():
            if 0 < j <= k:
                vk = inv.get(k - j)
                if vk is not None:
                    term = uj * vk
                    acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero:
            inv[k] = -(lead_inv * acc)
    return QSeries({k - m: v for k, v in inv.items()}, f.trunc - 2 * m)


# -- the series operations on plain dicts over the coefficient field ---------
#
# A model of a series is (terms, trunc): terms maps (q grid index, y
# half-index) to a nonzero RadicalScalar, read from the package's
# RadicalScalar view (a QSeries is row 0), and every key has q grid index
# below trunc.  Each operation is the textbook one, term by term in the
# field; the package runs the same operations on integer rows.


def model(f) -> tuple[dict, int]:
    return _terms(f), f.trunc


def _nonzero(terms: dict) -> dict:
    return {key: v for key, v in terms.items() if not v.is_zero}


def model_add(a, b, sign: int = 1):
    """a + sign * b, known below the lower truncation."""
    from conway_genera.scalars import RadicalScalar

    (ta, trunc_a), (tb, trunc_b) = a, b
    trunc = min(trunc_a, trunc_b)
    out = {key: v for key, v in ta.items() if key[0] < trunc}
    for key, v in tb.items():
        if key[0] < trunc:
            out[key] = out.get(key, RadicalScalar()) + v * sign
    return _nonzero(out), trunc


def model_scale(a, c):
    terms, trunc = a
    return _nonzero({key: v * c for key, v in terms.items()}), trunc


def model_mul(a, b):
    """a * b, known below min(a.trunc + b.min, b.trunc + a.min)."""
    from conway_genera.scalars import RadicalScalar

    (ta, trunc_a), (tb, trunc_b) = a, b
    low_a = min((kq for kq, _ in ta), default=trunc_a)
    low_b = min((kq for kq, _ in tb), default=trunc_b)
    trunc = min(trunc_a + low_b, trunc_b + low_a)
    out = {}
    b_items = sorted(tb.items())
    for (qa, ya), va in sorted(ta.items()):
        for (qb, yb), vb in b_items:
            kq = qa + qb
            if kq >= trunc:
                break
            key = (kq, ya + yb)
            out[key] = out.get(key, RadicalScalar()) + va * vb
    return _nonzero(out), trunc


def model_row0(a):
    terms, trunc = a
    return {key: v for key, v in terms.items() if key[1] == 0}, trunc


def model_specialize_z0(a):
    from conway_genera.scalars import RadicalScalar

    terms, trunc = a
    out = {}
    for (kq, _), v in terms.items():
        out[(kq, 0)] = out.get((kq, 0), RadicalScalar()) + v
    return _nonzero(out), trunc


def model_shift(a, key: int):
    terms, trunc = a
    return {(kq + key, ry): v for (kq, ry), v in terms.items()}, trunc + key


def model_truncate(a, trunc: int):
    terms, _ = a
    return {key: v for key, v in terms.items() if key[0] < trunc}, trunc


def model_first_difference(a, b, through=None):
    """The report dict of the first key below the lower truncation (and
    below `through`) where a and b differ, or None."""
    from conway_genera.scalars import RadicalScalar, format_radical

    (ta, trunc_a), (tb, trunc_b) = a, b
    limit = min(trunc_a, trunc_b, through if through is not None else trunc_a)
    zero = RadicalScalar()
    for key in sorted(set(ta) | set(tb)):
        if key[0] < limit and ta.get(key, zero) != tb.get(key, zero):
            return {"q_exp": str(Fraction(key[0], 24)), "y_exp": str(Fraction(key[1], 2)),
                    "lhs": format_radical(ta.get(key, zero)),
                    "rhs": format_radical(tb.get(key, zero))}
    return None


def model_dump(a) -> str:
    from conway_genera.scalars import format_radical

    terms, _ = a
    return "\n".join(f"{Fraction(kq, 24)} {Fraction(ry, 2)} {format_radical(v)}"
                     for (kq, ry), v in sorted(terms.items()))


# -- reference genus over the coefficient field ------------------------------
#
# The product formula evaluated term by term over the field with
# field_mul: every theta-quotient power is rebuilt for each class and
# sign.  The package builds the same genus from shared integer rows
# (genera.phi_g_ell); the two must agree coefficient for coefficient.
#
# The references keep a fixed head-room of their own, so their agreement
# with the package shows that genera._MARGIN is enough.

#: grid head-room of the reference products: two q-orders
MARGIN = 48


def radical_phi_g_ell(req):
    """The genus of a GenusRequest, computed over Q(sqrt 2, sqrt 3, sqrt 5)."""
    from conway_genera import modforms
    from conway_genera.modforms import THETA1SQ, THETA2, THETA3, THETA4

    rec, ell = req.rec, req.ell
    prec = 24 * req.orders
    work = prec + MARGIN
    power = ell - 1
    q2 = field_pow(modforms.theta_quotient(THETA2, work), power)
    q3 = field_pow(modforms.theta_quotient(THETA3, work), power)
    q4 = field_pow(modforms.theta_quotient(THETA4, work), power)
    q1 = field_pow(modforms.theta_quotient(THETA1SQ, work), power)
    d_val = rec.d_signed(ell, req.d_sign)
    sign_ell = -1 if ell % 2 else 1
    total = (field_mul(q4, modforms.eta_ratio_half(rec.fs_g, work))
             - field_mul(q3, modforms.eta_ratio_half(rec.fs_neg_g, work))) * Fraction(-1, 2)
    total = total + field_mul(q1, modforms.eta_product(rec.fs_g, work)) \
        * (d_val * Fraction(sign_ell, 2))
    total = total - field_mul(q2, modforms.eta_product(rec.fs_neg_g, work)) \
        * (rec.c_neg_g * Fraction(1, 2))
    return total.truncate(prec)


# -- reference weight-2j forms over the coefficient field ---------------------
#
# F and F_{2j} evaluated term by term over the field with field_mul, the
# powers of the weight-2 forms rebuilt for each class.  The package
# takes the same sums as one integer combination over shared powers
# (genera.f_g, genera.f_2j_g).


def radical_f_g(rec, d_sign=1, orders=5):
    """The weight-2 multiplier F of a class, computed over the field."""
    from conway_genera import modforms

    prec = 24 * orders
    work = prec + MARGIN
    d_val = rec.d_signed(2, d_sign)
    total = (field_mul(modforms.lambda2_half("plain", work),
                       modforms.eta_ratio_half(rec.fs_g, work))
             - field_mul(modforms.lambda2_half("shifted", work),
                         modforms.eta_ratio_half(rec.fs_neg_g, work))) * Fraction(1, 2)
    total = total - modforms.eta_product(rec.fs_g, work) * (d_val * Fraction(1, 2))
    total = total - field_mul(modforms.lambda_n(2, work),
                              modforms.eta_product(rec.fs_neg_g, work)) * rec.c_neg_g
    return total.truncate(prec)


def radical_f_2j_g(rec, j, orders=5):
    """The weight-2j form F_{2j} of a class, computed over the field."""
    from conway_genera import modforms

    prec = 24 * orders
    work = prec + MARGIN
    total = -field_mul(field_pow(modforms.lambda2_half("plain", work), j),
                       modforms.eta_ratio_half(rec.fs_g, work))
    total = total + field_mul(field_pow(modforms.lambda2_half("shifted", work), j),
                              modforms.eta_ratio_half(rec.fs_neg_g, work))
    total = total - field_mul(field_pow(modforms.lambda_n(2, work) * (-2), j),
                              modforms.eta_product(rec.fs_neg_g, work)) * rec.c_neg_g
    return total.truncate(prec)


# -- full-row genus assembly ----------------------------------------------------
#
# The genus-side forms with every y-row of every shared power multiplied
# out by `times` and summed by `combine`: the assembly genera used before
# it kept the shared powers as theta rows.  No row is cut, expanded or
# checked against the elliptic law, so agreement with genera._class_form
# shows that the theta-row products and the final expansion lose nothing.


def _full_base(kind, work):
    from conway_genera import genera, modforms

    if kind == genera._PHI01:
        return modforms.phi01(work)
    if kind == genera._L2_PLAIN:
        return modforms.lambda2_half("plain", work)
    if kind == genera._L2_SHIFTED:
        return modforms.lambda2_half("shifted", work)
    if kind == genera._L2_NEG2:
        return modforms.lambda_n(2, work) * -2
    return modforms.theta_quotient(kind, work)


#: (BINOMIAL, L) is (phi_{0,1}/12 + L theta_1^2/eta^6)^power as the sum of
#: its binomial terms, the reference for genera's (_DECOMPOSED, L) powers
BINOMIAL = "binomial"


@lru_cache(maxsize=None)
def full_shared_power(kind, power, work):
    """genera._shared_power with all of its y-rows; a (BINOMIAL, L) power
    is summed from full_monomial terms."""
    from conway_genera.series import JacobiSeries, combine

    if power == 0:
        return JacobiSeries.one(work)
    if isinstance(kind, tuple):
        return combine([
            (Fraction(comb(power, j), 12 ** (power - j)), full_monomial(power - j, j, work),
             full_shared_power(kind[1], j, work)) for j in range(power + 1)])
    if power == 1:
        return _full_base(kind, work)
    return full_shared_power(kind, power - 1, work).times(full_shared_power(kind, 1, work))


@lru_cache(maxsize=None)
def full_monomial(a, b, work):
    """phi_{0,1}^a (theta_1^2/eta^6)^b, that is (-1)^b phi_{0,1}^a phi_{-2,1}^b,
    with all of its y-rows."""
    from conway_genera import genera
    from conway_genera.modforms import THETA1SQ

    return full_shared_power(genera._PHI01, a, work).times(full_shared_power(THETA1SQ, b, work))


def full_class_form(rec, orders, terms):
    """genera._class_form's terms summed over the full-row shared powers."""
    from conway_genera import genera, modforms
    from conway_genera.series import combine

    prec = 24 * orders
    work = prec + genera._MARGIN
    series = (modforms.eta_ratio_half(rec.fs_g, work),
              modforms.eta_ratio_half(rec.fs_neg_g, work),
              modforms.eta_product(rec.fs_g, work), modforms.eta_product(rec.fs_neg_g, work))
    return combine([(kappa, full_shared_power(kind, power, work), series[slot])
                    for kappa, (kind, power), slot in terms], prec)


def full_genus(rec, orders, power, d_val):
    """The index-`power` genus products of a class, with d_val in place of
    (-1)^ell D, by the full-row assembly."""
    from conway_genera.modforms import THETA1SQ, THETA2, THETA3, THETA4

    return full_class_form(rec, orders, [
        (Fraction(-1, 2), (THETA4, power), 0),
        (Fraction(1, 2), (THETA3, power), 1),
        (d_val * Fraction(1, 2), (THETA1SQ, power), 2),
        (rec.c_neg_g * Fraction(-1, 2), (THETA2, power), 3),
    ])


def full_phi_g_ell(req):
    """The genus of a GenusRequest by the full-row assembly."""
    sign_ell = -1 if req.ell % 2 else 1
    return full_genus(req.rec, req.orders, req.ell - 1,
                      req.rec.d_signed(req.ell, req.d_sign) * sign_ell)


def full_decomposition_rhs(req):
    """The right-hand side of the binomial decomposition of a genus,
    (-1)^ell D Q1^(ell-1) eta_g / 2 + sum_j c_j phi01^(ell-1-j) Q1^j F_{2j}
    with c_j = binom(ell-1, j) / (2 * 12^(ell-1-j)), by the full-row assembly:
    F_{2j} = -L_plain^j r_g + L_shifted^j r_{-g} - C(-g) L_neg2^j eta_{-g},
    each sum over j one binomial power (phi01/12 + L Q1)^(ell-1)."""
    from conway_genera import genera
    from conway_genera.modforms import THETA1SQ

    rec, ell, power = req.rec, req.ell, req.ell - 1
    sign_ell = -1 if ell % 2 else 1
    return full_class_form(rec, req.orders, [
        (Fraction(-1, 2), ((BINOMIAL, genera._L2_PLAIN), power), 0),
        (Fraction(1, 2), ((BINOMIAL, genera._L2_SHIFTED), power), 1),
        (rec.d_signed(ell, req.d_sign) * Fraction(sign_ell, 2), (THETA1SQ, power), 2),
        (rec.c_neg_g * Fraction(-1, 2), ((BINOMIAL, genera._L2_NEG2), power), 3),
    ])


# -- oracle subset histogram by literal subsets -------------------------------


def subset_histogram(labels: list[tuple[int, int]], order: int,
                     max_k: int) -> list[Counter]:
    """Entry k: {(exponent mod order, charge): number of k-subsets}.

    Every k-subset of the labels, k <= max_k, is enumerated; subsets with
    equal exponent and charge sums are merged into one entry.  Exponents
    lie in [0, order).
    """
    # (e, c) packs into e + c * base; base exceeds every exponent sum, so
    # divmod recovers the charge and exponent sums of a subset from one sum
    base = order * len(labels) + 1
    packed = [e + c * base for e, c in labels]
    table = []
    for k in range(max_k + 1):
        rows: Counter = Counter()
        for total, count in Counter(map(sum, itertools.combinations(packed, k))).items():
            charge, exp = divmod(total, base)
            rows[(exp % order, charge)] += count
        table.append(rows)
    return table


# -- oracle counts and ground products as the package had them before packing --


def knapsack_histogram(labels: list[tuple[int, int]], order: int,
                       max_k: int) -> list[Counter]:
    """Entry k: {(exponent mod order, charge): number of k-subsets}, k <= max_k.

    The labels are folded in one at a time, 0/1-knapsack style: a label
    (e, c) turns every counted (k-1)-subset into a k-subset, shifting its
    exponent sum by e and its charge sum by c.  Sizes are visited from
    the top down, so no label is taken twice.  Exponents lie in [0, order).
    """
    table = [Counter({(0, 0): 1})] + [Counter() for _ in range(max_k)]
    for done, (e, c) in enumerate(labels):
        for k in range(min(max_k, done + 1), 0, -1):
            row = table[k]
            for (x, q), count in table[k - 1].items():
                row[((x + e) % order, q + c)] += count
    return table


def counter_buckets(system, sector: str, bound: Fraction) -> dict:
    """counts[(degree, charge, parity)][exponent], degree in the sector's units.

    The walk's states are (exponent, charge, parity) triples counted in
    plain ints.  The untwisted walk starts from the vacuum alone; the
    twisted walk starts from the zero-mode subset histogram, shifted by the
    ground data and signed by the ground sigma.
    """
    from conway_genera.oracle import _SECTORS, _cap, _walk_levels

    cap = _cap(sector, bound)
    if cap < 0:
        return {}
    _, ground, weight_of = _SECTORS[sector]
    order = system.order
    starts = Counter({(0, 0, 0): 1})
    if sector == "twisted":
        sigma, nu_exp, ground_charge = system.ground_data()
        starts = Counter()
        for k, row in enumerate(knapsack_histogram(system.zero_mode_labels(), order, 12)):
            for (e, c), m in row.items():
                starts[((nu_exp + e) % order, ground_charge + c, k % 2)] += sigma * m
    table = knapsack_histogram(system.mode_labels(), order, cap)

    def extend(state, mult, n, k):
        exp, charge, parity = state
        return [(((exp + e) % order, charge + c, (parity + k) % 2), mult * m)
                for (e, c), m in table[k].items()]

    buckets: dict[tuple[int, int, int], dict[int, int]] = {}
    for (weight, (exp, charge, parity)), count in _walk_levels(
            cap, weight_of, starts, extend).items():
        slot = buckets.setdefault((ground + weight, charge, parity), {})
        slot[exp] = slot.get(exp, 0) + count
    return buckets


def cyclo_root(order: int, k: int):
    """zeta_order^k as a CycloNumber."""
    from conway_genera.oracle import CycloNumber

    return CycloNumber(order, [0] * (k % order) + [1])


def nu_product(system, with_z: bool, skip_distinguished: bool = False):
    """prod sigma_i (nu_i -+ nu_i^{-1}) as twelve CycloNumber products, over
    every pair or only the non-distinguished ones."""
    from conway_genera.oracle import CycloNumber

    out = CycloNumber.from_rational(system.order, 1)
    for p in system.pairs:
        if skip_distinguished and p.distinguished:
            continue
        nu = cyclo_root(system.order, p.nu_exp) * p.sigma
        inv = cyclo_root(system.order, -p.nu_exp) * p.sigma
        out = out * ((nu - inv) if with_z else (nu + inv))
    return out


def embed_term_by_term(x, order: int):
    """A radical scalar in Q(zeta_order) as a chain of CycloNumber sums."""
    from conway_genera.oracle import CycloNumber, _radical_columns

    available = dict(_radical_columns(order))
    out = CycloNumber.zero(order)
    for d, a in x.parts.items():
        out = out + available[d] * a
    return out


# -- cyclotomic values back in the radical field --------------------------------


def to_radical(c):
    """A CycloNumber in Q(sqrt2, sqrt3, sqrt5), by Gaussian elimination on the
    embedded radical basis; OracleError when it is not expressible there."""
    from conway_genera.oracle import OracleError, _radical_columns, embed_radical
    from conway_genera.scalars import RadicalScalar

    cols = _radical_columns(c.order)
    width = len(cols)
    rows = len(c.vec)
    # Fraction entries: the pivot division below must stay exact
    matrix = [[Fraction(col.vec[i]) for _, col in cols] + [Fraction(c.vec[i])]
              for i in range(rows)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        lead = matrix[row][col]
        matrix[row] = [x / lead for x in matrix[row]]
        for r in range(rows):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [x - factor * y for x, y in zip(matrix[r], matrix[row])]
        pivots.append((row, col))
        row += 1
    solution = [Fraction(0)] * width
    for r, col in pivots:
        solution[col] = matrix[r][-1]
    result = RadicalScalar({cols[j][0]: solution[j] for j in range(width)})
    if embed_radical(result, c.order) != c:
        raise OracleError(
            "cyclotomic value is not expressible over sqrt(2), sqrt(3), sqrt(5)")
    return result
