"""Brute-force graded traces on the fermionic module and its twist.

This is a test fixture, deliberately independent of the closed product
formulas: states are enumerated from explicit subsets of mode labels,
the lifted class representative acts through explicit eigenvalue data in
a cyclotomic field, and traces are accumulated exactly.  Agreement with
the series produced by the genera module at low degree validates both
sides.

Enumeration.  Counts are packed ints: base-2^bits digit e counts the
states of eigenvalue exponent e mod N, so a mode label of exponent e
rotates a count by e digits, and one integer product folded at x^N = 1
(x = 2^bits, Kronecker substitution) convolves two counts.  The
k-subsets of the mode labels are counted per charge, one label at a
time (a 0/1 knapsack over subset sizes), once per assembled trace for
both sectors, and one walk combines the levels of the mode tower by
such products; in the twisted sector it starts from the 2^12 zero-mode
monomials, counted per charge and parity.  The digits of each (degree, charge, parity) are read once and
reduced into the cyclotomic field once per coefficient; the field
coordinates stay Python ints wherever they are integral.
`enumerate_basis` runs the same walk over literal monomials, which the
counts are tested against.  Each sector is enumerated once per assembled
trace; its plain and involution-inserted traces differ only in the
parity weights of the same counts.

Conventions.  A class with eigenvalue pairs (lambda_i, lambda_i^{-1}),
i = 1..12, acts on each mode label by its eigenvalue; the central
involution acts by the parity of the mode count.  Square roots nu_i of
the lambda_i fix the lift on the twisted ground space, whose 2^12
monomials in the twelve zero modes carry the trace
nu * prod (1 +- lambda_i^{-1}).  The nu_i sign and pairing choices are
normalized against the bundled table constants, since the global lift
convention is not re-derived at this scale.

Comparison.  `first_mismatch` reads a closed-form series into Q(zeta_N)
and finds the first key where it and a trace differ; the oracle suite
and the tests compare through it.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd, lcm

from .conway import ConwayClassRecord, FrameShape
from .scalars import RADICAL_BASIS, RadicalScalar
from .series import JacobiSeries, QSeries

MAX_DEGREE_BOUND = 3  # combinatorial blow-up guard


class OracleError(Exception):
    """The brute-force oracle met an inconsistency."""


# -- dense polynomial helpers ----------------------------------------------


def _poly_div_exact(a: list, b: list) -> list:
    """Quotient of a by b (integer coefficients, exact division)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c == 0:
            continue
        if c % b[-1] != 0:
            raise OracleError("inexact cyclotomic polynomial division")
        q = c // b[-1]
        out[i] = q
        for j, bj in enumerate(b):
            a[i + j] -= q * bj
    if any(a):
        raise OracleError("inexact cyclotomic polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


class CycloNumber:
    """An element of Q(zeta_N), reduced mod the N-th cyclotomic polynomial.

    vec holds the coordinates on 1, zeta_N, ..., zeta_N^(deg - 1): an int
    wherever the coordinate is integral, a Fraction only where it is not,
    so traces of mode counts stay in integer arithmetic.
    """

    __slots__ = ("order", "vec")

    def __init__(self, order: int, vec):
        deg = len(cyclotomic_poly(order)) - 1
        v = list(vec)
        if len(v) > deg:
            v = self._reduce(order, v)  # before conversion: ints reduce faster
        self.order = order
        self.vec = tuple(x if type(x) is int or x.denominator != 1 else x.numerator
                         for x in v) + (0,) * (deg - len(v))

    @staticmethod
    def _reduce(order: int, v: list) -> list:
        phi = cyclotomic_poly(order)
        deg = len(phi) - 1
        v = list(v)
        for i in range(len(v) - 1, deg - 1, -1):
            c = v[i]
            if c:
                for j in range(deg + 1):
                    v[i - deg + j] -= c * phi[j]
        return v[:deg]

    @classmethod
    def zero(cls, order: int) -> "CycloNumber":
        return cls(order, [])

    @classmethod
    def from_rational(cls, order: int, value) -> "CycloNumber":
        return cls(order, [value])

    def _check(self, other: "CycloNumber") -> None:
        if self.order != other.order:
            raise OracleError("mixed cyclotomic orders")

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vec)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(self.order, other)
        self._check(other)
        return CycloNumber(self.order, [a + b for a, b in zip(self.vec, other.vec)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, [-a for a in self.vec])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber(self.order, [a * other for a in self.vec])
        self._check(other)
        out = [0] * (2 * len(self.vec))
        for i, a in enumerate(self.vec):
            if a == 0:
                continue
            for j, b in enumerate(other.vec):
                if b:
                    out[i + j] += a * b
        return CycloNumber(self.order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(self.order, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.order == other.order and self.vec == other.vec

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash(self.vec[0] if not any(self.vec[1:]) else (self.order, self.vec))

    def __repr__(self):
        return f"CycloNumber(order={self.order}, vec={[str(x) for x in self.vec]})"


#: p -> (m, {k: coefficient of zeta_m^k}) summing to sqrt(p)
_SQRT_SUMS = {2: (8, {1: 1, -1: 1}), 3: (12, {1: 1, -1: 1}),
              5: (5, {1: 1, 2: -1, 3: -1, 4: 1})}


def _sqrt_embedding(order: int, p: int) -> CycloNumber | None:
    """sqrt(p) inside Q(zeta_order), when present, for p in {2, 3, 5}."""
    m, terms = _SQRT_SUMS[p]
    if order % m:
        return None
    vec = [0] * order
    for k, a in terms.items():
        vec[k * (order // m)] += a
    return CycloNumber(order, vec)


@lru_cache(maxsize=None)
def _radical_columns(order: int) -> tuple[tuple[int, CycloNumber], ...]:
    cols = [(1, CycloNumber.from_rational(order, 1))]
    for d in RADICAL_BASIS[1:]:
        emb = CycloNumber.from_rational(order, 1)
        ok = True
        for p in (2, 3, 5):
            if d % p == 0:
                root = _sqrt_embedding(order, p)
                if root is None:
                    ok = False
                    break
                emb = emb * root
        if ok:
            cols.append((d, emb))
    return tuple(cols)


def embed_radical(x: RadicalScalar, order: int) -> CycloNumber:
    """Image of a radical scalar in Q(zeta_order)."""
    available = dict(_radical_columns(order))
    vec = [0] * len(available[1].vec)
    for d, a in x.parts.items():
        if d not in available:
            raise OracleError(f"sqrt({d}) is not available in Q(zeta_{order})")
        for i, c in enumerate(available[d].vec):
            if c:
                vec[i] += c * a
    return CycloNumber(order, vec)


# -- eigenvalue systems ------------------------------------------------------


class _Pair:
    """One eigenvalue pair, changed in place by EigenSystem's normalization:
    lambda = zeta_N^lam_exp and nu = sigma * zeta_N^nu_exp."""

    __slots__ = ("lam_exp", "nu_exp", "sigma", "distinguished")

    def __init__(self, lam_exp: int, nu_exp: int, sigma: int):
        self.lam_exp = lam_exp
        self.nu_exp = nu_exp
        self.sigma = sigma
        self.distinguished = False


class EigenSystem:
    """Explicit eigenvalue pairs and square roots for one class."""

    def __init__(self, fs: FrameShape):
        mult = fs.cyclo()
        order = 2
        for d in mult:
            order = lcm(order, 2 * d)
        # keep the needed square roots available for conversions
        for p, (m, _) in _SQRT_SUMS.items():
            if any(d % p == 0 for d in mult):
                order = lcm(order, m)
        self.order = order
        pairs: list[_Pair] = []
        for d in sorted(mult):
            a = mult[d]
            if d == 1:
                if a % 2:
                    raise OracleError("odd fixed-space dimension cannot be paired")
                pairs.extend(_Pair(0, 0, 1) for _ in range(a // 2))
            elif d == 2:
                if a % 2:
                    raise OracleError("odd (-1)-eigenspace cannot be paired")
                pairs.extend(_Pair(order // 2, order // 4, 1) for _ in range(a // 2))
            else:
                for k in range(1, d):
                    if gcd(k, d) == 1 and 2 * k < d:
                        step = order // d
                        half = order // (2 * d)
                        pairs.extend(_Pair((k * step) % order, (k * half) % order, 1)
                                     for _ in range(a))
        if len(pairs) != 12:
            raise OracleError(f"expected 12 eigenvalue pairs, got {len(pairs)}")
        self.pairs = pairs

    def mark_distinguished(self, count: int) -> None:
        fixed = [p for p in self.pairs if p.lam_exp == 0]
        if len(fixed) < count:
            raise OracleError("not enough fixed pairs to mark as distinguished")
        for p in self.pairs:
            p.distinguished = False
        for p in fixed[:count]:
            p.distinguished = True

    def _nu_product(self, pairs: list[_Pair], sign: int) -> CycloNumber:
        """prod sigma_i (x^a_i + sign x^-a_i) at x = zeta_N, a_i the nu exponents:
        a dense integer list mod x^N - 1, reduced mod Phi_N once."""
        n = self.order
        vec = [1] + [0] * (n - 1)
        for p in pairs:
            a = p.nu_exp
            vec = [p.sigma * (vec[i - a] + sign * vec[(i + a) % n]) for i in range(n)]
        return CycloNumber(n, vec)

    def cm_trace(self, with_z: bool) -> CycloNumber:
        """prod over the twelve pairs of (nu_i - nu_i^{-1}) or (nu_i + nu_i^{-1})."""
        return self._nu_product(self.pairs, -1 if with_z else 1)

    def d_product(self) -> CycloNumber:
        """prod (nu_i - nu_i^{-1}) over the non-distinguished pairs."""
        return self._nu_product([p for p in self.pairs if not p.distinguished], -1)

    def normalize(self, c_target: RadicalScalar,
                  d_target: RadicalScalar | None = None) -> None:
        """Pin the nu sign and pairing choices to the table constants.

        A sign flip on a fixed pair negates the ground trace, where that
        pair contributes 2 sigma, and leaves the index multiplier alone; a
        pairing swap on a moving pair negates the multiplier and leaves
        its nu + nu^{-1} in the ground trace unchanged.  So each product
        is taken once and compared with the target up to sign.
        """
        want_c = embed_radical(c_target, self.order)
        ground = self.cm_trace(with_z=False)
        if ground != want_c:
            fixed = next((p for p in self.pairs if p.lam_exp == 0), None)
            if fixed is None:
                raise OracleError("no fixed pair available for sign normalization")
            if ground != -want_c:
                raise OracleError(
                    "cannot match the tabulated twisted ground trace by a sign flip")
            fixed.sigma = -fixed.sigma
        if d_target is None:
            return
        want_d = embed_radical(d_target, self.order)
        multiplier = self.d_product()
        if multiplier != want_d:
            swap = next((p for p in self.pairs
                         if not p.distinguished and p.lam_exp != 0), None)
            if swap is None:
                raise OracleError("no pair available for a pairing swap")
            if multiplier != -want_d:
                raise OracleError(
                    "cannot match the tabulated index multiplier by a pairing swap")
            swap.lam_exp = (-swap.lam_exp) % self.order
            swap.nu_exp = (-swap.nu_exp) % self.order

    def mode_labels(self) -> list[tuple[int, int]]:
        """(eigenvalue exponent, charge) for the 24 labels a_i^(+-)."""
        labels = []
        for p in self.pairs:
            charge = 1 if p.distinguished else 0
            labels.append((p.lam_exp, charge))
            labels.append(((-p.lam_exp) % self.order, -charge))
        return labels

    def zero_mode_labels(self) -> list[tuple[int, int]]:
        """(eigenvalue exponent, charge) for the twelve minus zero modes."""
        return [((-p.lam_exp) % self.order, -1 if p.distinguished else 0)
                for p in self.pairs]

    def ground_data(self) -> tuple[int, int, int]:
        """(sigma product, nu exponent sum, charge) of the twisted ground state.

        Each distinguished pair carries charge 1/2 on the ground state;
        the total is integral because the pairs come in even number.
        """
        sigma = 1
        exp = 0
        marked = 0
        for p in self.pairs:
            sigma *= p.sigma
            exp += p.nu_exp
            if p.distinguished:
                marked += 1
        if marked % 2:
            raise OracleError("distinguished pairs must come in even number")
        return sigma, exp % self.order, marked // 2


# -- mode enumeration ----------------------------------------------------------


def _check_bound(degree_bound) -> Fraction:
    bound = Fraction(degree_bound)
    if bound > MAX_DEGREE_BOUND:
        raise ValueError(
            f"degree bound {degree_bound} exceeds the desk-scale limit "
            f"{MAX_DEGREE_BOUND}")
    return bound


def _walk_levels(cap: int, weight_of, starts: dict, extend) -> dict:
    """{(weight, state): multiplicity} over all mode monomials of weight <= cap.

    The walk begins from starts, {state: multiplicity} at weight 0: the
    ground state, or in the twisted sector the zero-mode monomials on it.
    Modes at level n = 1, 2, ... weigh weight_of(n), which increases with
    n.  A state of multiplicity mult with room for k more modes at level n
    grows into every (state', multiplicity') that extend(state, mult, n, k)
    returns; taking no mode of a level leaves it unchanged.  Equal states
    are merged, adding their multiplicities.
    """
    states = {(0, state): mult for state, mult in starts.items()}
    n = 1
    while (w := weight_of(n)) <= cap:
        grown = dict(states)
        for (weight, state), mult in states.items():
            for k in range(1, (cap - weight) // w + 1):
                for new, m in extend(state, mult, n, k):
                    key = (weight + k * w, new)
                    grown[key] = grown.get(key, 0) + m
        states = grown
        n += 1
    return states


#: sector -> (degree units per unit of grading, ground degree, degree of
#: one mode at level n).  Untwisted: ground at -1/2, modes at n - 1/2.
#: Twisted: ground at +1, modes at n, zero modes in the start states.
_SECTORS = {"untwisted": (2, -1, lambda n: 2 * n - 1), "twisted": (1, 1, lambda n: n)}


def _cap(sector: str, bound: Fraction) -> int:
    """Degree room above the sector's ground state up to the grading bound."""
    if sector not in _SECTORS:
        raise ValueError("sector must be 'untwisted' or 'twisted'")
    unit, ground, _ = _SECTORS[sector]
    return floor(unit * bound) - ground


def enumerate_basis(sector: str, degree_bound) -> list[tuple]:
    """All monomials with grading eigenvalue at most degree_bound.

    Untwisted monomials are tuples of (pair, side, n) naming the mode
    with index n - 1/2; twisted monomials use integer indices, with
    n = 0 entries restricted to the twelve minus polarization labels.
    The twisted walk starts from the 2^12 zero-mode monomials.
    """
    cap = _cap(sector, _check_bound(degree_bound))
    if cap < 0:
        return []
    labels = [(i, s) for i in range(12) for s in (1, -1)]
    starts = {(): 1}
    if sector == "twisted":
        starts = {tuple((i, -1, 0) for i in zs): 1
                  for k in range(13) for zs in itertools.combinations(range(12), k)}

    def extend(monomial, mult, n, k):
        return [(monomial + tuple((i, s, n) for i, s in combo), mult)
                for combo in itertools.combinations(labels, k)]

    return [m for _, m in _walk_levels(cap, _SECTORS[sector][2], starts, extend)]


# -- trace accumulation --------------------------------------------------------


def _subset_histogram(labels: list[tuple[int, int]], order: int, max_k: int,
                      bits: int) -> list[dict[int, int]]:
    """Entry k: {charge sum: packed count of the k-subsets}, k <= max_k.

    The labels are folded in one at a time, 0/1-knapsack style: a label
    (e, c) turns every counted (k-1)-subset into a k-subset, rotating its
    count by e of its order digits (base 2^bits) and shifting its charge
    by c.  Sizes are visited from the top down, so no label is taken twice.
    """
    width = bits * order
    mask = (1 << width) - 1
    table = [{0: 1}] + [{} for _ in range(max_k)]
    for done, (e, c) in enumerate(labels):
        for k in range(min(max_k, done + 1), 0, -1):
            row = table[k]
            for q, packed in table[k - 1].items():
                rotated = packed << (e * bits)
                row[q + c] = row.get(q + c, 0) + (rotated & mask) + (rotated >> width)
    return table


def _buckets(system: EigenSystem, sectors, bound: Fraction) -> dict:
    """{sector: counts[(degree, charge, parity)][exponent]}, degree in the sector's units.

    The walk's states are (charge, parity) pairs with packed counts.  A
    digit is 1, 2, 4 or 8 bytes, above the number of monomials any of the
    sectors reaches, so no digit carries (8 bytes suffice up to degree 28).
    The mode-label subset table is built once, at that digit size and the
    largest cap of the sectors, and read by every walk.  The twisted walk
    starts from the zero-mode monomials counted per charge and parity,
    rotated by the ground nu exponent; the ground sigma signs every count
    at the end.
    """
    caps = {sector: _cap(sector, bound) for sector in sectors}
    caps = {sector: cap for sector, cap in caps.items() if cap >= 0}

    def count(state, mult, n, k):  # one state: the k-subsets of the 24 labels of level n
        return [(state, mult * comb(24, k))]

    # the twisted walk starts from the 2^12 zero-mode monomials
    monomials = max((sum(_walk_levels(cap, _SECTORS[sector][2],
                                      {None: 4096 if sector == "twisted" else 1}, count).values())
                     for sector, cap in caps.items()), default=1)
    size = 1 << ((monomials.bit_length() + 7) // 8 - 1).bit_length()
    order = system.order
    bits, width = 8 * size, 8 * size * order
    mask = (1 << width) - 1
    table = _subset_histogram(system.mode_labels(), order, max(caps.values(), default=0), bits)

    def extend(state, mult, n, k):
        charge, parity = state
        return [((charge + c, (parity + k) % 2), ((m := mult * packed) & mask) + (m >> width))
                for c, packed in table[k].items()]

    out = {sector: {} for sector in sectors}
    for sector, cap in caps.items():
        _, ground, weight_of = _SECTORS[sector]
        sigma, starts = 1, {(0, 0): 1}
        if sector == "twisted":
            sigma, nu_exp, ground_charge = system.ground_data()
            starts = {(ground_charge, 0): 1 << (nu_exp * bits)}
            for e, c in system.zero_mode_labels():
                for (charge, parity), packed in list(starts.items()):
                    rotated = packed << (e * bits)
                    key = (charge + c, 1 - parity)
                    starts[key] = starts.get(key, 0) + (rotated & mask) + (rotated >> width)
        buckets = out[sector]
        for (weight, (charge, parity)), packed in _walk_levels(
                cap, weight_of, starts, extend).items():
            raw = packed.to_bytes(width // 8, sys.byteorder)
            raw = memoryview(raw).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[size])
            buckets[(ground + weight, charge, parity)] = {
                e: sigma * count for e, count in enumerate(raw) if count}
    return out


def _trace(system: EigenSystem, bound: Fraction, weights: dict,
           j_weight: bool) -> dict:
    """Weighted sum of sector traces as {grid key: CycloNumber}.

    weights maps a sector to the (even, odd) weights of its bucket counts
    by mode-count parity.  The counts of each key are added into one
    integer vector over the exponents, which is reduced once into
    Q(zeta_N).  Every bucket key appears, with value zero where its
    weight vanishes.  With j_weight the result is {grid: {charge: value}}.
    """
    order = system.order
    vectors: dict = {}
    for sector, buckets in _buckets(system, weights, bound).items():
        even, odd = weights[sector]
        step = 24 // _SECTORS[sector][0]
        for (deg, charge, parity), exps in buckets.items():
            vec = vectors.setdefault((deg * step, charge) if j_weight else deg * step,
                                     [0] * order)
            w = odd if parity else even
            for e, count in exps.items():
                vec[e] += w * count
    if not j_weight:
        return {grid: CycloNumber(order, vec) for grid, vec in vectors.items()}
    nested: dict[int, dict[int, CycloNumber]] = {}
    for (grid, charge), vec in vectors.items():
        nested.setdefault(grid, {})[charge] = CycloNumber(order, vec)
    return nested


def build_system(rec: ConwayClassRecord, j_weight: bool = False,
                 d_sign: int = 1, ell: int = 2) -> EigenSystem:
    """An eigenvalue system normalized to the record's table constants."""
    system = EigenSystem(rec.fs_g)
    if j_weight:
        if not rec.in_table(ell):
            raise OracleError(f"class {rec.co0_name} has no index data at ell={ell}")
        system.mark_distinguished(2 * (ell - 1))
        system.normalize(rec.c_neg_g, rec.d_signed(ell, d_sign))
    else:
        system.normalize(rec.c_neg_g)
    return system


def brute_trace(rec: ConwayClassRecord, sector: str, z_insertion: bool = True,
                j_weight: bool = False, degree_bound=2, d_sign: int = 1,
                ell: int = 2) -> dict:
    """Graded trace over one sector by monomial enumeration.

    Returns {grid key: CycloNumber}, or {grid key: {charge: CycloNumber}}
    when j_weight is set; grid keys are exponent * 24 as elsewhere.
    """
    bound = _check_bound(degree_bound)
    system = build_system(rec, j_weight=j_weight, d_sign=d_sign, ell=ell)
    return _trace(system, bound, {sector: (1, -1) if z_insertion else (1, 1)},
                  j_weight)


def cm_ground_trace(fs: FrameShape, with_z: bool = True,
                    sign_choice: int = 1) -> CycloNumber:
    """The twelve-fold ground-space product prod (nu_i -+ nu_i^{-1})."""
    system = EigenSystem(fs)
    if sign_choice == -1:
        system.pairs[0].sigma = -system.pairs[0].sigma
    elif sign_choice != 1:
        raise ValueError("sign_choice must be +1 or -1")
    return system.cm_trace(with_z)


# -- assembled module traces ---------------------------------------------------

# Each half of the module is the average of a sector's plain and
# involution-inserted traces, which keeps the states of one mode-count
# parity.  So every assembled trace weighs the bucket counts of each
# sector by parity: (even, odd).

#: ts_g: even untwisted minus odd twisted; its twist: even twisted minus
#: odd untwisted
_TS_WEIGHTS = {"g": {"untwisted": (1, 0), "twisted": (0, -1)},
               "g_tw": {"untwisted": (0, -1), "twisted": (1, 0)}}

#: the genus is minus the trace over odd untwisted plus even twisted
#: states, with the involution inserted
_PHI_WEIGHTS = {"untwisted": (0, 1), "twisted": (-1, 0)}


def brute_ts(rec: ConwayClassRecord, which: str = "g", degree_bound=2) -> dict:
    """Brute counterpart of ts_g, keyed by grid index.

    The module splits into the parity-even untwisted and parity-odd
    twisted halves (or the complementary pair for the twisted trace).
    """
    bound = _check_bound(degree_bound)
    if which not in _TS_WEIGHTS:
        raise ValueError("which must be 'g' or 'g_tw'")
    return _trace(build_system(rec), bound, _TS_WEIGHTS[which], False)


def brute_phi(rec: ConwayClassRecord, d_sign: int = 1, ell: int = 2,
              degree_bound=2) -> dict:
    """Brute counterpart of the genus: minus the charge-weighted trace."""
    bound = _check_bound(degree_bound)
    system = build_system(rec, j_weight=True, d_sign=d_sign, ell=ell)
    return _trace(system, bound, _PHI_WEIGHTS, True)


def first_mismatch(brute: dict, series: QSeries | JacobiSeries) -> tuple[int, int] | None:
    """The first (grid, y half-index) where a brute-force trace and a closed
    form differ inside Q(zeta_N), or None where they agree.

    Both sides are compared on (grid, y half-index) keys up to the highest
    brute grid; a q-series and a trace without charges sit at y half-index
    0, and a half-odd y power never matches.  An empty trace is compared in
    Q(zeta_2) up to grid 0.
    """
    flat = {}
    for grid, value in brute.items():
        charges = value if isinstance(value, dict) else {0: value}
        flat.update(((grid, 2 * c), v) for c, v in charges.items())
    if isinstance(series, QSeries):
        series = JacobiSeries.from_parts(series.parts, series.den, series.trunc)
    order = next(iter(flat.values())).order if flat else 2
    limit = max(brute) if brute else 0
    zero = CycloNumber.zero(order)
    for grid, ry in sorted(set(flat) | {k for k in series.coeffs if k[0] <= limit}):
        if ry % 2 or embed_radical(series.coeff(grid, ry), order) != flat.get((grid, ry), zero):
            return grid, ry
    return None
