"""Truncated formal Laurent series.

QSeries is a one-variable series in q with exponents on the (1/24)Z
grid: the coefficient of q^(n/24) is stored under the integer grid index
n, and all indices >= trunc are unknown.  JacobiSeries adds a second
variable y with exponents on the (1/2)Z grid (stored as half-indices)
and finite y-support at each q order.  IntRows holds a rational
two-variable series as rows of Python ints over one denominator; its
product is the only series convolution.  `combine` applies field
constants to such products, one multiplier per output coefficient; it
takes integer rows only and never splits a series.  A QSeries or
JacobiSeries product (`_product`) is the one place where series are
split into sqrt(d) parts: both factors are split and every pair of parts
becomes one `combine` term.  Only QSeries.inverse still recurses over
the field.

Truncation is propagated pessimistically: a product is only known below
min(a.trunc + b.min_exp, b.trunc + a.min_exp), and no operation ever
fabricates coefficients past its truncation index.  All values are
immutable; operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import RadicalScalar, format_radical

QGRID = 24   # q exponent = grid index / QGRID
YGRID = 2    # y exponent = half-index / YGRID


class GridError(ValueError):
    """An exponent left the admissible grid."""


def _coeff(x) -> RadicalScalar:
    if isinstance(x, RadicalScalar):
        return x
    return RadicalScalar({1: x})


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _keyed(f):
    """(q grid index, y half-index), coefficient pairs of a series; a QSeries is row 0."""
    if isinstance(f, QSeries):
        return (((k, 0), v) for k, v in f.coeffs.items())
    return f.coeffs.items()


class QSeries:
    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        trunc = int(trunc)
        data: dict[int, RadicalScalar] = {}
        for k, v in coeffs.items():
            k = int(k)
            if k >= trunc:
                continue
            v = _coeff(v)
            if not v.is_zero:
                data[k] = v
        self.coeffs = data
        self.trunc = trunc

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls({0: 1}, trunc)

    # -- inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_key(self):
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, key: int) -> RadicalScalar:
        if key >= self.trunc:
            raise ValueError(
                f"coefficient of q^{Fraction(key, QGRID)} is beyond the truncation order")
        return self.coeffs.get(key, RadicalScalar())

    def items(self):
        return sorted(self.coeffs.items())

    def truncate(self, trunc: int) -> "QSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs, trunc)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            other = QSeries({0: other}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, RadicalScalar()) + v
        return QSeries(out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({k: -v for k, v in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            c = _coeff(other)
            if c.is_zero:
                return QSeries.zero(self.trunc)
            return QSeries({k: v * c for k, v in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return _product(self, other).row0()

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return (self ** (-n)).inverse()
        return _power(self, n, QSeries.one(self.trunc))

    def inverse(self) -> "QSeries":
        """Series b with self*b = 1 up to truncation."""
        m = self.min_key()
        if m is None:
            raise ZeroDivisionError("non-invertible series")
        # self = q^(m/24) * u with u a unit known to order trunc - m
        n_terms = self.trunc - m
        unit = {k - m: v for k, v in self.coeffs.items()}
        lead_inv = unit[0].inverse()
        inv: dict[int, RadicalScalar] = {0: lead_inv}
        for k in range(1, n_terms):
            acc = None
            for j, uj in unit.items():
                if 0 < j <= k:
                    vk = inv.get(k - j)
                    if vk is not None:
                        term = uj * vk
                        acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero:
                inv[k] = -(lead_inv * acc)
        return QSeries({k - m: v for k, v in inv.items()}, self.trunc - 2 * m)

    def shift(self, key: int) -> "QSeries":
        """Multiply by q^(key/24)."""
        return QSeries({k + key: v for k, v in self.coeffs.items()}, self.trunc + key)

    def scale_argument(self, factor) -> "QSeries":
        """Substitute tau -> factor*tau, i.e. map exponents e -> factor*e."""
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("argument scale factor must be positive")
        out = {}
        for k, v in self.coeffs.items():
            nk = factor * k
            if nk.denominator != 1:
                raise GridError(
                    f"grid violation: q^{Fraction(k, QGRID)} scaled by {factor} "
                    f"leaves the (1/{QGRID})Z grid")
            out[int(nk)] = v
        return QSeries(out, _ceil_frac(factor * self.trunc))

    def half_period_shift(self) -> "QSeries":
        """tau -> tau+1 on the q^(1/2) variable: negate half-odd exponents.

        Requires support on the (1/2)Z grid; integer exponents are fixed.
        """
        out = {}
        for k, v in self.coeffs.items():
            if k % (QGRID // 2) != 0:
                raise GridError(
                    f"grid violation: q^{Fraction(k, QGRID)} is off the (1/2)Z grid")
            out[k] = -v if (k // (QGRID // 2)) % 2 else v
        return QSeries(out, self.trunc)

    # -- comparison / output ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.trunc, tuple(sorted(self.coeffs.items()))))

    def agrees_with(self, other: "QSeries", through: int | None = None) -> bool:
        return first_difference(self, other, through) is None

    def dump(self) -> str:
        lines = []
        for k, v in self.items():
            lines.append(f"{Fraction(k, QGRID)} 0 {format_radical(v)}")
        return "\n".join(lines)

    def __repr__(self):
        head = ", ".join(
            f"q^{Fraction(k, QGRID)}: {format_radical(v)}" for k, v in self.items()[:6])
        return f"QSeries({{{head}{', ...' if len(self.coeffs) > 6 else ''}}}, trunc={self.trunc})"


class JacobiSeries:
    """Two-variable truncated series: keys are (q grid index, y half-index)."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        trunc = int(trunc)
        data: dict[tuple[int, int], RadicalScalar] = {}
        for (kq, ry), v in coeffs.items():
            kq = int(kq)
            if kq >= trunc:
                continue
            v = _coeff(v)
            if not v.is_zero:
                data[(kq, int(ry))] = v
        self.coeffs = data
        self.trunc = trunc

    @classmethod
    def zero(cls, trunc: int) -> "JacobiSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "JacobiSeries":
        return cls({(0, 0): 1}, trunc)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, kq: int, ry: int) -> RadicalScalar:
        if kq >= self.trunc:
            raise ValueError(
                f"coefficient of q^{Fraction(kq, QGRID)} is beyond the truncation order")
        return self.coeffs.get((kq, ry), RadicalScalar())

    def q_row(self, kq: int) -> dict[int, RadicalScalar]:
        """All y half-index coefficients at one q grid index."""
        if kq >= self.trunc:
            raise ValueError(
                f"coefficient of q^{Fraction(kq, QGRID)} is beyond the truncation order")
        return {ry: v for (k, ry), v in self.coeffs.items() if k == kq}

    def items(self):
        return sorted(self.coeffs.items())

    def truncate(self, trunc: int) -> "JacobiSeries":
        if trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return JacobiSeries(self.coeffs, trunc)

    def __add__(self, other):
        if isinstance(other, QSeries):
            other = JacobiSeries({(k, 0): v for k, v in other.coeffs.items()}, other.trunc)
        if not isinstance(other, JacobiSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, RadicalScalar()) + v
        return JacobiSeries(out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return JacobiSeries({k: -v for k, v in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RadicalScalar)):
            c = _coeff(other)
            if c.is_zero:
                return JacobiSeries.zero(self.trunc)
            return JacobiSeries({k: v * c for k, v in self.coeffs.items()}, self.trunc)
        if not isinstance(other, (QSeries, JacobiSeries)):
            return NotImplemented
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "JacobiSeries":
        if n < 0:
            raise ValueError("negative powers of a two-variable series are not supported")
        return _power(self, n, JacobiSeries.one(self.trunc))

    def row0(self) -> QSeries:
        """The y^0 coefficients as a q-series."""
        return QSeries({kq: v for (kq, ry), v in self.coeffs.items() if ry == 0}, self.trunc)

    def specialize_z0(self) -> QSeries:
        """Set z = 0, i.e. sum the y-coefficients at each q order."""
        out: dict[int, RadicalScalar] = {}
        for (kq, _ry), v in self.coeffs.items():
            out[kq] = out.get(kq, RadicalScalar()) + v
        return QSeries(out, self.trunc)

    def __eq__(self, other):
        if not isinstance(other, JacobiSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.trunc, tuple(sorted(self.coeffs.items()))))

    def dump(self) -> str:
        lines = []
        for (kq, ry), v in self.items():
            lines.append(f"{Fraction(kq, QGRID)} {Fraction(ry, YGRID)} {format_radical(v)}")
        return "\n".join(lines)

    def __repr__(self):
        n = len(self.coeffs)
        return f"JacobiSeries(<{n} terms>, trunc={self.trunc})"


class IntRows:
    """A rational two-variable series held as integer rows over one denominator.

    `rows` maps a y half-index to {q grid index: nonzero int}; the series
    is (1/den) * sum rows[ry][kq] q^(kq/24) y^(ry/2), known below trunc.
    A one-variable series is the single row 0.  Multiplication is the
    only series convolution in the package: it runs one q-series product
    per pair of rows and truncates by the min rule.
    """

    __slots__ = ("rows", "den", "trunc")

    def __init__(self, rows: dict[int, dict[int, int]], den: int, trunc: int):
        self.rows = rows
        self.den = den
        self.trunc = trunc

    @classmethod
    def one(cls, trunc: int) -> "IntRows":
        return cls({0: {0: 1}}, 1, trunc)

    @classmethod
    def split(cls, f) -> dict[int, "IntRows"]:
        """{d: part} with f = sum_d sqrt(d) * part and every part rational.

        f is a JacobiSeries or a QSeries, read as the single row 0.  A zero
        series gives the single empty part {1: 0}, which keeps the
        truncation a product with f would have.
        """
        by_radical: dict[int, dict[tuple[int, int], Fraction]] = {}
        for key, v in _keyed(f):
            for d, a in v.parts.items():
                by_radical.setdefault(d, {})[key] = a
        return ({d: cls._from_fractions(values, f.trunc) for d, values in by_radical.items()}
                or {1: cls({}, 1, f.trunc)})

    @classmethod
    def from_series(cls, f) -> "IntRows":
        """The rows of a series with rational coefficients."""
        return cls._from_fractions({key: v.rational_value() for key, v in _keyed(f)}, f.trunc)

    @classmethod
    def _from_fractions(cls, values: dict[tuple[int, int], Fraction], trunc: int) -> "IntRows":
        """The rows of {(q grid index, y half-index): rational coefficient}."""
        den = lcm(*(a.denominator for a in values.values()))
        rows: dict[int, dict[int, int]] = {}
        for (kq, ry), a in values.items():
            rows.setdefault(ry, {})[kq] = a.numerator * (den // a.denominator)
        return cls(rows, den, trunc)

    def _min_bound(self) -> int:
        keys = [min(row) for row in self.rows.values() if row]
        return min(keys) if keys else self.trunc

    def product_trunc(self, other: "IntRows") -> int:
        """The truncation index of self * other, by the min rule."""
        return min(self.trunc + other._min_bound(), other.trunc + self._min_bound())

    def __mul__(self, other: "IntRows") -> "IntRows":
        return self.times(other)

    def times(self, other: "IntRows", trunc: int | None = None) -> "IntRows":
        """self * other, known below the min rule's index and below `trunc` if given."""
        bound = self.product_trunc(other)
        trunc = bound if trunc is None else min(bound, trunc)
        rows: dict[int, dict[int, int]] = {}
        for yb, row_b in other.rows.items():
            items_b = sorted(row_b.items())
            for ya, row_a in self.rows.items():
                out = rows.setdefault(ya + yb, {})
                for ka, va in row_a.items():
                    bound = trunc - ka
                    for kb, vb in items_b:
                        if kb >= bound:
                            break
                        k = ka + kb
                        out[k] = out.get(k, 0) + va * vb
        cleaned = {}
        for ry, row in rows.items():
            row = {k: v for k, v in row.items() if v}
            if row:
                cleaned[ry] = row
        return IntRows(cleaned, self.den * other.den, trunc)

    def to_jacobi(self) -> JacobiSeries:
        return JacobiSeries({(kq, ry): Fraction(v, self.den)
                             for ry, row in self.rows.items() for kq, v in row.items()},
                            self.trunc)


def combine(terms, trunc: int | None = None) -> JacobiSeries:
    """sum_i kappa_i * A_i * B_i for field constants kappa_i and integer rows A_i, B_i.

    Each product is taken in integers.  The field enters only here:
    kappa_i / (den A_i * den B_i) becomes integer multipliers over one
    common denominator, applied once per output coefficient.  The result
    is known below the least of `trunc` (when given) and every product's
    min-rule index, and no product is computed past that bound.
    """
    parts = []
    for kappa, a, b in terms:
        bound = a.product_trunc(b)
        trunc = bound if trunc is None else min(bound, trunc)
        scale = _coeff(kappa) * Fraction(1, a.den * b.den)
        if scale:
            parts.append((scale, a, b))
    products = [(scale, a.times(b, trunc)) for scale, a, b in parts]
    common = lcm(*(a.denominator for scale, _ in products for a in scale.parts.values()))
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for scale, prod in products:
        mults = [(d, a.numerator * (common // a.denominator)) for d, a in scale.parts.items()]
        for ry, row in prod.rows.items():
            for kq, n in row.items():
                slot = acc.setdefault((kq, ry), {})
                for d, m in mults:
                    slot[d] = slot.get(d, 0) + m * n
    return JacobiSeries({key: RadicalScalar({d: Fraction(v, common) for d, v in slot.items()})
                         for key, slot in acc.items()}, trunc)


def _product(a, b) -> JacobiSeries:
    """a * b for two series: one integer product per pair of their sqrt(d) parts."""
    parts_b = IntRows.split(b).items()
    terms = []
    for d, part_a in IntRows.split(a).items():
        for e, part_b in parts_b:
            g = gcd(d, e)  # sqrt(d) sqrt(e) = g sqrt(de/g^2)
            terms.append((RadicalScalar({d * e // (g * g): g}), part_a, part_b))
    return combine(terms)


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


def first_difference(a, b, through: int | None = None):
    """First coefficient where two series disagree, or None.

    Comparison runs over all q grid indices below min(a.trunc, b.trunc)
    and, when given, below `through`.  Returns a dict describing the
    deviation, suitable for a report.
    """
    limit = min(a.trunc, b.trunc)
    if through is not None:
        limit = min(limit, through)
    qa = isinstance(a, QSeries)
    qb = isinstance(b, QSeries)
    if qa != qb:
        raise TypeError("cannot compare one- and two-variable series")
    keys = set()
    if qa:
        keys.update((k, 0) for k in a.coeffs if k < limit)
        keys.update((k, 0) for k in b.coeffs if k < limit)
        geta = lambda k: a.coeffs.get(k[0], RadicalScalar())
        getb = lambda k: b.coeffs.get(k[0], RadicalScalar())
    else:
        keys.update(k for k in a.coeffs if k[0] < limit)
        keys.update(k for k in b.coeffs if k[0] < limit)
        geta = lambda k: a.coeffs.get(k, RadicalScalar())
        getb = lambda k: b.coeffs.get(k, RadicalScalar())
    for key in sorted(keys):
        va, vb = geta(key), getb(key)
        if va != vb:
            return {
                "q_exp": str(Fraction(key[0], QGRID)),
                "y_exp": str(Fraction(key[1], YGRID)),
                "lhs": format_radical(va),
                "rhs": format_radical(vb),
            }
    return None
