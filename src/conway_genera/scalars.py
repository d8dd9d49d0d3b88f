"""Exact arithmetic in the real field Q(sqrt(2), sqrt(3), sqrt(5)).

Every constant in the bundled Conway class data (fixed-point counts,
Clifford-module traces and their magnitudes) lies in this field, and so
do all series coefficients produced by the rest of the package.
Elements are stored as rational combinations of sqrt(d) for squarefree
d dividing 30.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

#: squarefree indices d with sqrt(d) in the field
RADICAL_BASIS = (1, 2, 3, 5, 6, 10, 15, 30)

_SIGNED_TERM_RE = re.compile(r"[+-]?[^+-]+")
_TERM_RE = re.compile(r"^(?P<coeff>\d+(?:/\d+)?)?(?:(?<=\d)\*(?=sqrt))?(?:sqrt\((?P<rad>\d+)\))?$")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


class RadicalScalar:
    """A sum a_1 + a_2*sqrt(2) + ... + a_30*sqrt(30) with rational a_d.

    Values are immutable; all operations return new objects.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts=None):
        cleaned: dict[int, Fraction] = {}
        if parts:
            for d, a in parts.items():
                if d not in RADICAL_BASIS:
                    raise ValueError(f"sqrt({d}) lies outside the coefficient field")
                a = _as_fraction(a)
                if a:
                    cleaned[int(d)] = a
        self._parts = cleaned

    @classmethod
    def from_rational(cls, value) -> "RadicalScalar":
        return cls({1: _as_fraction(value)})

    @property
    def parts(self) -> dict[int, Fraction]:
        return dict(self._parts)

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def as_rational(self) -> tuple[bool, Fraction | None]:
        """(True, value) when no irrational component is present."""
        if not self._parts:
            return True, Fraction(0)
        if set(self._parts) == {1}:
            return True, self._parts[1]
        return False, None

    def rational_value(self) -> Fraction:
        ok, value = self.as_rational()
        if not ok:
            raise ValueError(f"{self} is irrational")
        return value

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RadicalScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalScalar({1: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._parts)
        for d, a in other._parts.items():
            out[d] = out.get(d, Fraction(0)) + a
        return RadicalScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return RadicalScalar({d: -a for d, a in self._parts.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, a1 in self._parts.items():
            for d2, a2 in other._parts.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = a1 * a2 * g
                if d in out:
                    out[d] += c
                else:
                    out[d] = c
        return RadicalScalar(out)

    __rmul__ = __mul__

    def _conjugate(self, p: int) -> "RadicalScalar":
        """Galois conjugate flipping the sign of sqrt(p)."""
        return RadicalScalar({d: (-a if d % p == 0 else a) for d, a in self._parts.items()})

    def inverse(self) -> "RadicalScalar":
        """Multiplicative inverse, via the product of Galois conjugates."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        conj_product = None
        for mask in range(1, 8):
            c = self
            if mask & 1:
                c = c._conjugate(2)
            if mask & 2:
                c = c._conjugate(3)
            if mask & 4:
                c = c._conjugate(5)
            conj_product = c if conj_product is None else conj_product * c
        norm = (self * conj_product).rational_value()
        return conj_product * (1 / norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- comparison / hashing ----------------------------------------------

    def _key(self):
        return tuple(sorted(self._parts.items()))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash(self._parts.get(1, 0) if self._parts.keys() <= {1} else self._key())

    def __bool__(self):
        return bool(self._parts)

    def __repr__(self):
        return f"RadicalScalar({format_radical(self)!r})"

    def __str__(self):
        return format_radical(self)


ZERO = RadicalScalar()


def format_radical(x: RadicalScalar) -> str:
    """Canonical text form: rational terms as a/b, radicals as a/b*sqrt(d)."""
    return format_terms((d, a.numerator, a.denominator)
                        for d, a in sorted(x._parts.items()))


def ratio_text(n: int, q: int) -> str:
    """str(Fraction(n, q)) for q > 0, without building the Fraction."""
    g = gcd(n, q)
    return f"{n // g}" if q == g else f"{n // g}/{q // g}"


def format_terms(terms) -> str:
    """format_radical of sum_d (n/q) sqrt(d), from (d, n, q) triples with
    d ascending, n nonzero and q positive; n/q need not be reduced."""
    out = ""
    for d, n, q in terms:
        mag = ratio_text(abs(n), q)
        if d == 1:
            body = mag
        elif mag == "1":
            body = f"sqrt({d})"
        else:
            body = f"{mag}*sqrt({d})"
        if not out:
            out = "-" + body if n < 0 else body
        else:
            out += (" - " if n < 0 else " + ") + body
    return out or "0"


def parse_radical(text: str) -> RadicalScalar:
    """Parse the format produced by format_radical; bare integers allowed.
    A blank may stand only next to the + or - that joins or signs terms."""
    s = re.sub(r" *([+-]) *", r"\1", text) if " " in text else text
    if not s:
        raise ValueError("empty radical-scalar string")
    if s == "0":
        return RadicalScalar()
    # split into signed terms, which must cover the text
    terms = _SIGNED_TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse radical-scalar string {text!r}: "
                         "expected signed terms joined by + or -")
    parts: dict[int, Fraction] = {}
    for term in terms:
        sign = Fraction(1)
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = Fraction(-1)
            term = term[1:]
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("rad") is None):
            raise ValueError(f"cannot parse radical-scalar term {term!r} in {text!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in radical-scalar term {term!r} "
                             f"in {text!r}") from None
        d = int(m.group("rad")) if m.group("rad") else 1
        if d not in RADICAL_BASIS:
            raise ValueError(f"sqrt({d}) lies outside the coefficient field")
        parts[d] = parts.get(d, Fraction(0)) + sign * coeff
    return RadicalScalar(parts)
