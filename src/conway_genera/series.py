"""Truncated formal Laurent series.

QSeries is a one-variable series in q with exponents on the (1/24)Z
grid: the coefficient of q^(n/24) is stored under the integer grid index
n, and all indices >= trunc are unknown.  JacobiSeries adds a second
variable y with exponents on the (1/2)Z grid (stored as half-indices)
and finite y-support at each q order.

Both store one thing: integer rows per radical over one denominator,
`parts` = {d: {y half-index: {q grid index: int}}} and `den`, so the
series is (1/den) sum_d sqrt(d) sum parts[d][ry][kq] q^(kq/24) y^(ry/2).
A QSeries is the single row 0.  The form is canonical (no zero entries,
no empty rows, den > 0 and coprime to the numerators), so equality,
hashing, comparison (`first_difference`) and the text dump run on ints;
`text_rows` makes the dump in one pass over the entries, sorted once.
Sums, negation, shifts and scalar multiples work on the rows; a
RadicalScalar constant mixes the radical parts, sqrt(d) sqrt(e) =
g sqrt(de/g^2) by `_mix`.  `_convolve` multiplies two sets of rows, every
row of one with every row of the other.  It has two paths: a dict update
per pair of terms for small products, and Kronecker substitution
(`_kronecker`: each row packed into one int, one big-int product per
pair of rows) from KRONECKER_MIN_PAIRS term pairs on.  The packed path
costs a pack and an unpack per slot and wins only when that is small
against the pairs; the crossover was measured on captured products.
`combine` sums field constants times products of rational series, one
convolution per term, and returns its integer accumulators as a
JacobiSeries; a product of two series is one `combine` term.  `times`
is the product of two rational series with no field constant at all.
QSeries.inverse is Newton's iteration on `*`.  Products and inverses
raise ValueError on a factor with an irrational coefficient.

A weak Jacobi form of index m that is even in z is fixed by its theta
rows, the y-rows r = 0..m: by the elliptic law every other row is a
shifted copy of one of them (Eichler and Zagier, The Theory of Jacobi
Forms, section 5), and `_copies` is the one statement of which rows copy
a theta row and by how much they are shifted.  A `ThetaRows` is such a
form's theta rows with its index m.  `cut_theta_rows` cuts a form to its
ThetaRows and is the one check of the law: it returns them with the
form's first deviation from their expansion, compared in integers; the
genera report it, on their bases and on a genus, and never raise on it.
`ThetaRows.expand` rebuilds the full rows by the law and checks nothing,
so it must only see checked rows or products and sums of them.  Each
canonical theta row stays unshifted in its own row, so the expansion is
canonical over the same den and is not reduced again.  The product of
two ThetaRows, of index m_a + m_b, never builds a full row: it
multiplies each pair of theta rows once with `_kronecker`, which adds the
product into every output row it lands on, shifted as the law says.

RadicalScalar values appear only at the API edge: `coeffs`, `coeff()`
and `items()` are read-only views built on first use and kept per
instance.  In the arithmetic the field enters only through constants:
a series times a scalar, and one product per `combine` term.

Truncation is propagated pessimistically: a product is only known below
min(a.trunc + b.min_exp, b.trunc + a.min_exp), and no operation ever
fabricates coefficients past its truncation index.  All values are
immutable; operations are pure.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .scalars import ZERO, RadicalScalar, format_terms, ratio_text

QGRID = 24   # q exponent = grid index / QGRID
YGRID = 2    # y exponent = half-index / YGRID


def grid_index(orders: int) -> int:
    """The grid index of q^orders, the truncation of a check below q^orders;
    ValueError below one q-order."""
    if orders < 1:
        raise ValueError("precision must be at least one q-order")
    return QGRID * orders


class GridError(ValueError):
    """An exponent left the admissible grid."""


def _pieces(x):
    """(d, rational) pairs of a field value."""
    if isinstance(x, RadicalScalar):
        return x.parts.items()
    if isinstance(x, (int, Fraction)):
        return ((1, x),)
    raise TypeError(f"expected a field value, got {type(x).__name__}")


def _mix(d: int, e: int) -> tuple[int, int]:
    """(g, h) with sqrt(d) sqrt(e) = g sqrt(h): g = gcd(d, e), h = de/g^2."""
    g = gcd(d, e)
    return g, d * e // (g * g)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _beyond(kq: int) -> ValueError:
    return ValueError(f"coefficient of q^{Fraction(kq, QGRID)} is beyond the truncation order")


def _check_rational(what: str, *factors) -> None:
    if any(d != 1 for f in factors for d in f.parts):
        raise ValueError(f"{what} needs series with rational coefficients")


def _add_rows(target: dict[int, dict[int, int]], rows: dict[int, dict[int, int]], m: int):
    """target[ry][kq] += m * rows[ry][kq] over every entry of rows."""
    for ry, row in rows.items():
        acc = target.get(ry)
        if acc is None:
            target[ry] = {kq: m * n for kq, n in row.items()}
            continue
        for kq, n in row.items():
            acc[kq] = acc.get(kq, 0) + m * n


class _Series:
    """The storage and the operations QSeries and JacobiSeries share."""

    __slots__ = ("parts", "den", "trunc", "_view")

    def __init__(self, coeffs, trunc: int):
        """The series with the given {key: field value} coefficients below trunc."""
        trunc = int(trunc)
        entries = []
        for key, v in coeffs.items():
            kq, ry = self._key(key)
            if kq < trunc:
                entries.extend((d, ry, kq, a) for d, a in _pieces(v) if a)
        den = lcm(*(a.denominator for *_, a in entries))
        parts: dict[int, dict[int, dict[int, int]]] = {}
        for d, ry, kq, a in entries:
            parts.setdefault(d, {}).setdefault(ry, {})[kq] = a.numerator * (den // a.denominator)
        self._store(parts, den, trunc)

    @classmethod
    def from_parts(cls, parts: dict[int, dict[int, dict[int, int]]], den: int, trunc: int):
        """The series (1/den) sum_d sqrt(d) parts[d], known below trunc.

        Zero entries and entries at or past trunc are dropped and the
        fraction is reduced; `parts` itself is not changed.
        """
        self = object.__new__(cls)
        self._store(parts, den, trunc)
        return self

    @classmethod
    def _canonical(cls, parts, den: int, trunc: int):
        """from_parts for parts already in canonical form, taken as they are."""
        self = object.__new__(cls)
        self.parts, self.den, self.trunc, self._view = parts, den, trunc, None
        return self

    @classmethod
    def zero(cls, trunc: int):
        return cls.from_parts({}, 1, trunc)

    @classmethod
    def one(cls, trunc: int):
        """1, stored as the q^0 entry of row 0."""
        return cls.from_parts({1: {0: {0: 1}}}, 1, trunc)

    def _store(self, parts, den: int, trunc: int) -> None:
        clean: dict[int, dict[int, dict[int, int]]] = {}
        g = den
        for d, rows in parts.items():
            kept_rows = {}
            for ry, row in rows.items():
                kept = {kq: n for kq, n in row.items() if n and kq < trunc}
                if kept:
                    kept_rows[ry] = kept
                    if g != 1:
                        g = gcd(g, *kept.values())
            if kept_rows:
                clean[d] = kept_rows
        if not clean:
            den = 1
        elif g != 1:
            den //= g
            clean = {d: {ry: {kq: n // g for kq, n in row.items()} for ry, row in rows.items()}
                     for d, rows in clean.items()}
        self.parts = clean
        self.den = den
        self.trunc = trunc
        self._view = None

    # -- inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def int_items(self) -> list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]:
        """((q grid index, y half-index), ((d, n), ...)) in key order, d ascending.

        The coefficient at a key is sum n/den sqrt(d).
        """
        grouped: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for d in sorted(self.parts):
            for ry, row in self.parts[d].items():
                for kq, n in row.items():
                    grouped.setdefault((kq, ry), []).append((d, n))
        return [(key, tuple(grouped[key])) for key in sorted(grouped)]

    @property
    def coeffs(self):
        """{key: RadicalScalar} in key order, read-only, built on first use."""
        if self._view is None:
            den = self.den
            self._view = MappingProxyType({
                self._view_key(key): RadicalScalar({d: Fraction(n, den) for d, n in terms})
                for key, terms in self.int_items()})
        return self._view

    def items(self):
        return list(self.coeffs.items())

    def min_key(self) -> int | None:
        """The least q grid index with a nonzero coefficient; None for zero."""
        keys = [min(row) for rows in self.parts.values() for row in rows.values()]
        return min(keys) if keys else None

    def _map_entries(self, fn, trunc: int | None = None):
        """The same type with each (kq, n) entry of every row replaced by fn(kq, n),
        known below trunc (by default self.trunc)."""
        return type(self).from_parts(
            {d: {ry: dict(fn(kq, n) for kq, n in row.items()) for ry, row in rows.items()}
             for d, rows in self.parts.items()},
            self.den, self.trunc if trunc is None else trunc)

    def truncate(self, trunc: int):
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return type(self).from_parts(self.parts, self.den, trunc)

    # -- arithmetic --------------------------------------------------------

    def product_trunc(self, other) -> int:
        """The truncation index of self * other by the min rule; a zero
        series counts as O(q^trunc)."""
        low_a, low_b = self.min_key(), other.min_key()
        return min(self.trunc + (other.trunc if low_b is None else low_b),
                   other.trunc + (self.trunc if low_a is None else low_a))

    def times(self, other) -> "JacobiSeries":
        """self * other for two rational series, taken in integers.

        Known below the min rule's index.  No RadicalScalar is built; a
        factor with an irrational coefficient raises ValueError.
        """
        _check_rational("times", self, other)
        trunc = self.product_trunc(other)
        rows = _convolve(self.parts.get(1, {}), other.parts.get(1, {}), trunc)
        return JacobiSeries.from_parts({1: rows}, self.den * other.den, trunc)

    def _plus(self, other, cls):
        trunc = min(self.trunc, other.trunc)
        den = lcm(self.den, other.den)
        out: dict[int, dict[int, dict[int, int]]] = {}
        for f in (self, other):
            m = den // f.den
            for d, rows in f.parts.items():
                _add_rows(out.setdefault(d, {}), rows, m)
        return cls.from_parts(out, den, trunc)

    def _scaled(self, c):
        """self * c for a field constant c."""
        pieces = [(e, a) for e, a in _pieces(c) if a]
        cden = lcm(*(a.denominator for _, a in pieces))
        out: dict[int, dict[int, dict[int, int]]] = {}
        for e, a in pieces:
            m_e = a.numerator * (cden // a.denominator)
            for d, rows in self.parts.items():
                g, h = _mix(d, e)
                _add_rows(out.setdefault(h, {}), rows, m_e * g)
        return type(self).from_parts(out, self.den * cden, self.trunc)

    def __neg__(self):
        return self._map_entries(lambda kq, n: (kq, -n))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    # -- comparison / output ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.trunc == other.trunc and self.den == other.den
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.trunc, self.den, tuple(self.int_items())))

    def text_rows(self):
        """(q exponent, y exponent, coefficient) texts in key order; str(n) for
        an integer over den 1, and int_items only on several radicals."""
        den, parts = self.den, self.parts
        if len(parts) == 1:
            ((d, rows),) = parts.items()
            entries = sorted((kq, ry, n) for ry, row in rows.items() for kq, n in row.items())
            text = str if d == 1 and den == 1 else lambda n: format_terms(((d, n, den),))
        else:
            entries = [(kq, ry, terms) for (kq, ry), terms in self.int_items()]
            text = lambda terms: format_terms((d, n, den) for d, n in terms)
        y_text = {ry: ratio_text(ry, YGRID) for rows in parts.values() for ry in rows}
        last_kq = q_text = None
        for kq, ry, c in entries:   # in key order, so each q text is made once
            if kq != last_kq:
                last_kq, q_text = kq, ratio_text(kq, QGRID)
            yield q_text, y_text[ry], text(c)

    def dump(self) -> str:
        return "\n".join(map(" ".join, self.text_rows()))

    def text_at(self, kq: int, ry: int = 0) -> str:
        """The coefficient at (kq, ry) in format_radical's text."""
        return format_terms((d, rows[ry][kq], self.den) for d, rows in sorted(self.parts.items())
                            if kq in rows.get(ry, ()))


class QSeries(_Series):
    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        return int(key), 0

    @staticmethod
    def _view_key(key: tuple[int, int]) -> int:
        return key[0]

    # -- inspection ------------------------------------------------------

    def coeff(self, key: int) -> RadicalScalar:
        if key >= self.trunc:
            raise _beyond(key)
        return self.coeffs.get(key, ZERO)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            other = QSeries({0: other}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._plus(other, QSeries)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            return self._scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return combine([(1, self, other)]).row0()

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return (self ** (-n)).inverse()
        return _power(self, n, QSeries.one(self.trunc))

    def inverse(self) -> "QSeries":
        """Series b with self*b = 1 up to truncation.

        self = q^(m/24) u with u a unit known below n = trunc - m.  Newton's
        iteration v <- v + v (1 - u v) on `*` doubles the grid range on
        which v = 1/u is exact at each step (Brent and Kung, J. ACM 25
        (1978) 581).  b = q^(-m/24) v is known below trunc - 2m.  A series
        with an irrational coefficient raises ValueError.
        """
        _check_rational("inverse", self)
        m = self.min_key()
        if m is None:
            raise ZeroDivisionError("non-invertible series")
        unit = self.shift(-m)
        n = unit.trunc
        row = unit.parts[1][0]
        v = QSeries({0: Fraction(unit.den, row[0])}, n)
        # 1/u = 1/u_0 + O(q^(s/24)) for the least positive index s of u
        exact = min((kq for kq in row if kq), default=n)
        while exact < n:
            exact = min(2 * exact, n)
            v = QSeries.from_parts(v.parts, v.den, exact)  # v is a polynomial
            v = v + v * (1 - unit.truncate(exact) * v)
        return v.shift(-m)

    def shift(self, key: int) -> "QSeries":
        """Multiply by q^(key/24)."""
        return self._map_entries(lambda kq, n: (kq + key, n), self.trunc + key)

    def scale_argument(self, factor) -> "QSeries":
        """Substitute tau -> factor*tau, i.e. map exponents e -> factor*e."""
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("argument scale factor must be positive")
        num, fden = factor.numerator, factor.denominator

        def scaled(kq, n):
            nk, rem = divmod(kq * num, fden)
            if rem:
                raise GridError(
                    f"grid violation: q^{Fraction(kq, QGRID)} scaled by {factor} "
                    f"leaves the (1/{QGRID})Z grid")
            return nk, n

        return self._map_entries(scaled, _ceil_frac(factor * self.trunc))

    def half_period_shift(self) -> "QSeries":
        """tau -> tau+1 on the q^(1/2) variable: negate half-odd exponents.

        Requires support on the (1/2)Z grid; integer exponents are fixed.
        """
        def twisted(kq, n):
            half, rem = divmod(kq, QGRID // 2)
            if rem:
                raise GridError(
                    f"grid violation: q^{Fraction(kq, QGRID)} is off the (1/2)Z grid")
            return kq, -n if half % 2 else n

        return self._map_entries(twisted)

    # -- comparison / output ---------------------------------------------

    def __repr__(self):
        keys = [kq for (kq, _), _ in self.int_items()]
        head = ", ".join(f"q^{Fraction(k, QGRID)}: {self.text_at(k)}" for k in keys[:6])
        return f"QSeries({{{head}{', ...' if len(keys) > 6 else ''}}}, trunc={self.trunc})"


class JacobiSeries(_Series):
    """Two-variable truncated series: keys are (q grid index, y half-index)."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        kq, ry = key
        return int(kq), int(ry)

    @staticmethod
    def _view_key(key: tuple[int, int]) -> tuple[int, int]:
        return key

    def coeff(self, kq: int, ry: int) -> RadicalScalar:
        if kq >= self.trunc:
            raise _beyond(kq)
        return self.coeffs.get((kq, ry), ZERO)

    def __add__(self, other):
        if not isinstance(other, (QSeries, JacobiSeries)):
            return NotImplemented
        return self._plus(other, JacobiSeries)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            return self._scaled(other)
        if not isinstance(other, (QSeries, JacobiSeries)):
            return NotImplemented
        return combine([(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JacobiSeries":
        if n < 0:
            raise ValueError("negative powers of a two-variable series are not supported")
        return _power(self, n, JacobiSeries.one(self.trunc))

    def row0(self) -> QSeries:
        """The y^0 coefficients as a q-series."""
        return QSeries.from_parts({d: {0: rows[0]} for d, rows in self.parts.items() if 0 in rows},
                                  self.den, self.trunc)

    def specialize_z0(self) -> QSeries:
        """Set z = 0, i.e. sum the y-coefficients at each q order."""
        out: dict[int, dict[int, dict[int, int]]] = {}
        for d, rows in self.parts.items():
            acc = out.setdefault(d, {0: {}})[0]
            for row in rows.values():
                for kq, n in row.items():
                    acc[kq] = acc.get(kq, 0) + n
        return QSeries.from_parts(out, self.den, self.trunc)

    def __repr__(self):
        n = sum(len(row) for rows in self.parts.values() for row in rows.values())
        return f"JacobiSeries(<{n} integer entries>, trunc={self.trunc})"


#: `_convolve` multiplies by Kronecker substitution when the number of
#: term pairs it multiplies, len(row_a) * len(row_b) summed over every pair
#: of rows, is at least this; below it the dict loop is faster (the
#: crossover measurements are in CHANGES.md).
KRONECKER_MIN_PAIRS = 2000


def _convolve(rows_a, rows_b, trunc: int) -> dict[int, dict[int, int]]:
    """The integer rows of rows_a * rows_b below q grid index trunc.

    Rows map a y half-index to {q grid index: int}.  This is the series
    convolution of `combine` and `times`: one q-series product per pair of
    rows, by `_convolve_dict` for small products and by
    `_convolve_kronecker` from KRONECKER_MIN_PAIRS term pairs on.  Zero
    entries may be kept; from_parts drops them.
    """
    pairs = sum(map(len, rows_a.values())) * sum(map(len, rows_b.values()))
    if pairs < KRONECKER_MIN_PAIRS:
        return _convolve_dict(rows_a, rows_b, trunc)
    return _convolve_kronecker(rows_a, rows_b, trunc)


def _convolve_dict(rows_a, rows_b, trunc: int) -> dict[int, dict[int, int]]:
    """_convolve by one dict update per pair of terms."""
    out: dict[int, dict[int, int]] = {}
    for yb, row_b in rows_b.items():
        items_b = sorted(row_b.items())
        for ya, row_a in rows_a.items():
            acc = out.setdefault(ya + yb, {})
            for ka, va in row_a.items():
                bound = trunc - ka
                for kb, vb in items_b:
                    if kb >= bound:
                        break
                    k = ka + kb
                    acc[k] = acc.get(k, 0) + va * vb
    return out


def _convolve_kronecker(rows_a, rows_b, trunc: int) -> dict[int, dict[int, int]]:
    """_convolve by Kronecker substitution: every pair of rows lands
    unshifted on the sum of its half-indices."""
    return _kronecker(rows_a, rows_b, trunc,
                      {(ya, yb): ((ya + yb, 0),) for ya in rows_a for yb in rows_b})


def _kronecker(rows_a, rows_b, trunc: int, placed) -> dict[int, dict[int, int]]:
    """The integer rows below q grid index trunc of a sum of shifted row products.

    `placed` maps a pair (ya, yb) of row half-indices to its copies
    ((y, shift), ...): row ya of rows_a times row yb of rows_b, shifted up
    by `shift` >= 0 grid units, is added into output row y.  Each pair of
    rows is multiplied once, as one big-int product, however many copies
    it has (D. Harvey, J. Symb. Comp. 44 (2009) 1502).

    Every key of a factor lies on low + step*Z for the factor's least key
    `low` and the common step of both factors and every shift.  Each row
    becomes the integer sum_i v_i 2^(bits*i) over its slots i from its
    first key on, below the truncation; the product of two such integers
    holds the row product in its digits, and the copies are summed per
    output y, shifted to a common first slot.  `bits` bounds every output
    coefficient with a sign bit to spare, so adding half of 2^bits to each
    of the low L digits (`bias`) makes them all non-negative, and the
    digits are read from the bytes of (x + bias) mod 2^(bits*L), where row
    y reads L = ceil((trunc - base)/step) slots from its least start `base`.
    Every digit below L is an exact coefficient within `bits`, and the
    digits at or past L add multiples of 2^(bits*L), which vanish.
    """
    if not rows_a or not rows_b:
        return {}
    low_a = min(map(min, rows_a.values()))
    low_b = min(map(min, rows_b.values()))
    step = 0
    for rows, low in ((rows_a, low_a), (rows_b, low_b)):
        for row in rows.values():
            for k in row:
                step = gcd(step, k - low)
    for copies in placed.values():
        for _, shift in copies:
            step = gcd(step, shift)
    step = step or 1

    def cut(rows, below):
        """{y: (sorted keys below `below`, row)} of the rows with such keys."""
        out = {}
        for y, row in rows.items():
            keys = sorted(k for k in row if k < below)
            if keys:
                out[y] = (keys, row)
        return out

    cut_a, cut_b = cut(rows_a, trunc - low_b), cut(rows_b, trunc - low_a)
    by_y: dict[int, list] = {}
    for (ya, yb), copies in placed.items():
        if ya in cut_a and yb in cut_b:
            first = cut_a[ya][0][0] + cut_b[yb][0][0]
            for y, shift in copies:
                if first + shift < trunc:
                    by_y.setdefault(y, []).append((first + shift, ya, yb))
    if not by_y:
        return {}
    top = 1
    for rows in (cut_a, cut_b):
        top *= max(max(map(abs, row.values())) for _, row in rows.values())
    length = min(max((keys[-1] - keys[0]) // step + 1 for keys, _ in rows.values())
                 for rows in (cut_a, cut_b))
    bound = top * length * max(map(len, by_y.values()))
    width = (bound.bit_length() + 8) // 8   # bytes per digit, one sign bit to spare
    bits = 8 * width

    def pack(rows):
        """{y: sum_i v_i 2^(bits*i)} by Horner's rule."""
        out = {}
        for y, (keys, row) in rows.items():
            first = keys[0]
            acc, slot = 0, (keys[-1] - first) // step
            for k in reversed(keys):
                i = (k - first) // step
                acc = (acc << (bits * (slot - i))) + row[k]
                slot = i
            out[y] = acc
        return out

    packed_a, packed_b = pack(cut_a), pack(cut_b)
    products: dict[tuple[int, int], int] = {}
    half = 1 << (bits - 1)
    half_digit = half.to_bytes(width, "little")
    out: dict[int, dict[int, int]] = {}
    for y, copies in by_y.items():
        base = min(c[0] for c in copies)
        x = 0
        for start, ya, yb in copies:
            product = products.get((ya, yb))
            if product is None:
                product = products[ya, yb] = packed_a[ya] * packed_b[yb]
            x += product << (bits * ((start - base) // step))
        slots = -((base - trunc) // step)
        size = width * slots
        biased = (x + int.from_bytes(half_digit * slots, "little")) & ((1 << (8 * size)) - 1)
        data = biased.to_bytes(size, "little")
        row = {}
        for i in range(slots):
            digit = data[i * width:(i + 1) * width]
            if digit != half_digit:
                row[base + step * i] = int.from_bytes(digit, "little") - half
        if row:
            out[y] = row
    return out


def combine(terms, trunc: int | None = None) -> JacobiSeries:
    """sum_i kappa_i * A_i * B_i for field constants kappa_i and rational series A_i, B_i.

    Each product is one integer convolution of the factors' rows; a
    factor with an irrational coefficient raises ValueError.  The field
    enters once per term: kappa_i / (den A_i * den B_i) becomes one
    integer multiplier per radical sqrt(f) over one common denominator,
    and the product's rows are added into radical f with it.  The result
    is known below the least of `trunc` (when given) and every product's
    min-rule index, and no product is computed past that bound.
    """
    scaled = []
    for kappa, a, b in terms:
        _check_rational("combine", a, b)
        bound = a.product_trunc(b)
        trunc = bound if trunc is None else min(bound, trunc)
        scale = RadicalScalar.from_rational(Fraction(1, a.den * b.den)) * kappa
        if scale:
            scaled.append((scale.parts, a, b))
    common = lcm(*(c.denominator for scale, _, _ in scaled for c in scale.values()))
    acc: dict[int, dict[int, dict[int, int]]] = {}
    for scale, a, b in scaled:
        rows = _convolve(a.parts.get(1, {}), b.parts.get(1, {}), trunc)
        for f, c in scale.items():
            _add_rows(acc.setdefault(f, {}), rows, c.numerator * (common // c.denominator))
    return JacobiSeries.from_parts(acc, common, trunc)


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply, starting from `one`."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _copies(r0: int, m: int, room: int) -> list[tuple[int, int]]:
    """The full rows of an even index-m form that copy its theta row r0.

    A weak Jacobi form of index m is even in z and obeys the elliptic
    law, so its coefficient depends only on 4mn - r^2 and r mod 2m, and
    its rows r = 0..m fix it (Eichler and Zagier, The Theory of Jacobi
    Forms, section 5): c(n, r) = c(n - (r^2 - r0^2)/4m, r0) with r0 = |r
    reduced mod 2m into [-m, m)|.  So theta row r0 is copied to every row
    r = +-r0 mod 2m, shifted up by the integer (r^2 - r0^2)/4m q-orders.
    Returns the (r, shift in grid units) with shift < room; at index 0,
    the row itself, unshifted.
    """
    if room <= 0:
        return []
    if m == 0:
        return [(r0, 0)]
    top = isqrt(r0 * r0 + m * room // 6) + 1
    return [(r, shift) for r in range(-top, top + 1)
            if (shift := 6 * (r * r - r0 * r0) // m) < room
            and ((r - r0) % (2 * m) == 0 or (r + r0) % (2 * m) == 0)]


class ThetaRows(namedtuple("ThetaRows", "rows index")):
    """An even weak Jacobi form of index m >= 0 kept as its theta rows:
    `rows` holds its y-rows 0..m (a QSeries or a JacobiSeries at index 0)."""

    __slots__ = ()

    def expand(self):
        """The full y-rows: each theta row is copied to its full rows by
        `_copies`, as far as it stays below rows.trunc, so the result is
        known wherever the rows are.  Index 0 (a y-free form) returns rows."""
        f, m = self
        if m == 0:
            return f
        trunc = f.trunc
        out: dict[int, dict[int, dict[int, int]]] = {}
        for d, rows in f.parts.items():
            full = out[d] = {}
            for ry, row in rows.items():
                for r, shift in _copies(ry // 2, m, trunc - min(row)):
                    full[2 * r] = row if not shift else {
                        kq + shift: n for kq, n in row.items() if kq + shift < trunc}
        return JacobiSeries._canonical(out, f.den, trunc)

    def __mul__(self, other: "ThetaRows") -> "ThetaRows":
        """The ThetaRows of a * b, of index m_a + m_b, for rational rows a, b.

        Full row r of a is theta row r0 shifted by s (`_copies`), so row R of
        the product is the sum over r1 + r2 = R of the theta-row products
        A[r0(r1)] B[r0(r2)] shifted by s(r1) + s(r2).  `_kronecker`
        multiplies each distinct pair of theta rows once and sums its shifted
        copies; no full row is built.  Known below the min rule's index, as
        the product of the expanded factors is, since a copy never starts
        below its row.
        """
        (a, m_a), (b, m_b) = self, other
        _check_rational("a theta-row product", a, b)
        trunc = a.product_trunc(b)
        rows_a, rows_b = a.parts.get(1, {}), b.parts.get(1, {})
        low_a = min(map(min, rows_a.values()), default=0)
        low_b = min(map(min, rows_b.values()), default=0)
        full_b = {r: (yb, shift) for yb, row in rows_b.items()
                  for r, shift in _copies(yb // 2, m_b, trunc - low_a - min(row))}
        placed: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for ya, row in rows_a.items():
            for r1, shift_a in _copies(ya // 2, m_a, trunc - low_b - min(row)):
                for r in range(m_a + m_b + 1):
                    hit = full_b.get(r - r1)
                    if hit is not None:
                        placed.setdefault((ya, hit[0]), []).append((2 * r, shift_a + hit[1]))
        return ThetaRows(JacobiSeries.from_parts(
            {1: _kronecker(rows_a, rows_b, trunc, placed)}, a.den * b.den, trunc), m_a + m_b)


def cut_theta_rows(f, m: int) -> tuple[ThetaRows, dict | None]:
    """(ThetaRows of f's rows 0..m at index m, first_difference(f, their expansion)).

    The deviation is None exactly when f obeys the index-m elliptic law
    and is even in z below f.trunc; at index 0, when f is y-free.
    """
    if m < 0:
        raise ValueError(f"index {m} is negative")
    if isinstance(f, QSeries):
        f = JacobiSeries._canonical(f.parts, f.den, f.trunc)
    kept = ThetaRows(JacobiSeries.from_parts(
        {d: {ry: row for ry, row in rows.items() if 0 <= ry <= 2 * m and ry % 2 == 0}
         for d, rows in f.parts.items()}, f.den, f.trunc), m)
    return kept, first_difference(f, kept.expand())


def first_difference(a, b, through: int | None = None):
    """First coefficient where two series disagree, or None.

    Comparison runs over all q grid indices below min(a.trunc, b.trunc)
    and, when given, below `through`.  Returns a dict describing the
    deviation, suitable for a report.
    """
    limit = min(a.trunc, b.trunc)
    if through is not None:
        limit = min(limit, through)
    if isinstance(a, QSeries) != isinstance(b, QSeries):
        raise TypeError("cannot compare one- and two-variable series")
    same_den = a.den == b.den
    first = None
    for d in a.parts.keys() | b.parts.keys():
        rows_a, rows_b = a.parts.get(d, {}), b.parts.get(d, {})
        for ry in rows_a.keys() | rows_b.keys():
            row_a, row_b = rows_a.get(ry, {}), rows_b.get(ry, {})
            if same_den and row_a == row_b:
                continue
            for kq in row_a.keys() | row_b.keys():
                if (kq < limit and row_a.get(kq, 0) * b.den != row_b.get(kq, 0) * a.den
                        and (first is None or (kq, ry) < first)):
                    first = (kq, ry)
    if first is None:
        return None
    return {
        "q_exp": str(Fraction(first[0], QGRID)),
        "y_exp": str(Fraction(first[1], YGRID)),
        "lhs": a.text_at(*first),
        "rhs": b.text_at(*first),
    }
