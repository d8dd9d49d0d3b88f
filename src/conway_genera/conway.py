"""Frame-shape algebra and the bundled Conway class data.

A Frame shape prod_m m^{k_m} encodes the characteristic polynomial
prod_m (1 - x^m)^{k_m} of a group element acting on the 24-dimensional
space.  From it everything class-level follows exactly: the eigenvalue
multiset as cyclotomic multiplicities, the trace, the Frame shape of the
negated element, and the squares of the Clifford-module trace constants.
The loader checks each bundled table row against those closed forms, so
a transcription error in the data file cannot survive loading.

FrameShape, ConwayClassRecord, CoincidenceRelation and ClassData are
namedtuple subclasses: immutable, compared as tuples, and defined with
no code generation at import.  A FrameShape hashes as the tuple
(factors,), so it keys the modforms caches.  The bundled tables are
read with open() from the data directory beside this file, so loading
them imports no resource-reader machinery at start-up.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .scalars import RadicalScalar, parse_radical

LAMBENCIES = (2, 3, 4, 5, 7)

#: ambient dimension of the permutation space
SPACE_DIM = 24


class DataError(Exception):
    """A class-data file failed to parse or to pass its invariants."""


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


class FrameShape(namedtuple("FrameShape", "factors")):
    """Signed multiset m -> k_m with sum_m m*k_m = 24.

    factors is the tuple of (m, k_m) pairs with k_m != 0, sorted by m.
    """

    __slots__ = ()

    @classmethod
    def from_pairs(cls, pairs) -> "FrameShape":
        merged: dict[int, int] = {}
        for m, k in pairs:
            if m < 1:
                raise ValueError("frame shape parts must be positive")
            merged[m] = merged.get(m, 0) + k
        factors = tuple(sorted((m, k) for m, k in merged.items() if k != 0))
        return cls(factors)

    @property
    def degree(self) -> int:
        return sum(m * k for m, k in self.factors)

    @property
    def rank(self) -> int:
        """Dimension of the fixed space: the signed sum of exponents."""
        return sum(k for _, k in self.factors)

    def validate(self) -> None:
        if self.degree != SPACE_DIM:
            raise ValueError(
                f"inconsistent frame shape: degree {self.degree} != {SPACE_DIM}")
        self.cyclo()  # raises when not an eigenvalue multiset

    def cyclo(self) -> dict[int, int]:
        """Cyclotomic multiplicities a_d (primitive d-th roots of unity).

        Uses (1 - x^m) = prod_{d | m} Phi_d(x), so a_d = sum_{d | m} k_m.
        """
        mult: dict[int, int] = {}
        for m, k in self.factors:
            for d in _divisors(m):
                mult[d] = mult.get(d, 0) + k
        mult = {d: a for d, a in mult.items() if a != 0}
        for d, a in mult.items():
            if a < 0:
                raise ValueError(
                    f"not an eigenvalue multiset: multiplicity {a} at order {d}")
        return mult

    def chi(self) -> int:
        """Trace on the 24-dimensional space: the exponent of 1, once the
        shape is an eigenvalue multiset (the primitive d-th roots of unity
        sum to mu(d), and sum_{d | m} mu(d) = [m = 1])."""
        self.cyclo()
        return dict(self.factors).get(1, 0)

    def negate(self) -> "FrameShape":
        """Frame shape of the negated element.

        Odd parts m contribute (1 + x^m) = (1 - x^{2m})/(1 - x^m); even
        parts are untouched.
        """
        out: dict[int, int] = {}
        for m, k in self.factors:
            if m % 2 == 1:
                out[2 * m] = out.get(2 * m, 0) + k
                out[m] = out.get(m, 0) - k
            else:
                out[m] = out.get(m, 0) + k
        shape = FrameShape.from_pairs(out.items())
        try:
            shape.validate()
        except ValueError as exc:
            raise ValueError(f"inconsistent frame shape after negation: {exc}") from exc
        return shape

    def __str__(self) -> str:
        num = [f"{m}^{k}" for m, k in self.factors if k > 0]
        den = [f"{m}^{-k}" for m, k in self.factors if k < 0]
        text = " ".join(num) if num else "1^0"
        if den:
            text += " / " + " ".join(den)
        return text


def c_squared_oracle(fs_g: FrameShape) -> Fraction:
    """Square of the twisted ground-state trace attached to -g.

    Equals the characteristic polynomial of -g evaluated at 1, which is
    prod m^{k'_m} over the negated shape when -g is fixed-point free and
    0 otherwise.
    """
    neg = fs_g.negate()
    if neg.cyclo().get(1, 0) > 0:
        return Fraction(0)
    value = Fraction(1)
    for m, k in neg.factors:
        value *= Fraction(m) ** k
    return value


def d_squared_oracle(fs_g: FrameShape, ell: int) -> Fraction:
    """Square of the index-(ell-1) trace multiplier for g.

    With d = 2(ell-1): zero when the fixed space is larger than 2d, and
    otherwise the limit of prod (1-x^m)^{k_m} / (1-x)^{2d} at x = 1,
    evaluated through (1-x^m)/(1-x) -> m.
    """
    if ell not in LAMBENCIES:
        raise ValueError(f"unsupported lambency {ell}")
    d = 2 * (ell - 1)
    a1 = fs_g.cyclo().get(1, 0)
    if a1 < 2 * d:
        raise ValueError(
            f"class fixes too small a space for lambency {ell} (rank {a1} < {2 * d})")
    if a1 > 2 * d:
        return Fraction(0)
    value = Fraction(1)
    for m, k in fs_g.factors:
        value *= Fraction(m) ** k
    if (12 - d) % 2 == 1:
        value = -value
    return value


class ConwayClassRecord(namedtuple("ConwayClassRecord", (
        "co0_name", "co1_name", "fs_g", "fs_neg_g", "c_neg_g", "d_magnitude",
        "gamma_g", "gamma_neg_g", "level"))):
    """One row of the bundled class tables.

    The class names in Co0 and Co1, the Frame shapes of g and -g, C(-g),
    the D magnitude by lambency (a dict, so a record is not hashable), the
    gamma_g and gamma_neg_g labels, and the level (an int or None).
    """

    __slots__ = ()

    @property
    def chi(self) -> int:
        return self.fs_g.chi()

    @property
    def rank(self) -> int:
        return self.fs_g.rank

    def in_table(self, ell: int) -> bool:
        return ell in self.d_magnitude

    def d_signs(self, ell: int) -> tuple[int, ...]:
        """The D signs that give distinct genera: one sign where D vanishes."""
        return (1,) if self.d_magnitude[ell].is_zero else (1, -1)

    def d_signed(self, ell: int, sign: int) -> RadicalScalar:
        """D for a table sign as the product formula takes it: the bundled D
        column pairs with the formula by the identity, pinned by the
        sign-carrying coincidence rows (12I at index 1, 4B at index 2).  The
        genera and the oracle's `build_system` both read D here."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self.d_magnitude[ell] * sign


class CoincidenceRelation(namedtuple("CoincidenceRelation", (
        "lambency", "lhs_class", "lhs_sign", "kind", "rhs", "source", "level"))):
    """One row of the coincidence tables.

    The genus of lhs_class with D sign lhs_sign at the lambency equals the
    sum over rhs of (Fraction coefficient, class name, D sign) terms.
    kind is "internal" (right side expressible in bundled genera),
    "anchor" (the row defining the translation dictionary) or
    "external" (right side refers to data outside the package); source
    (str) cites the row, and level is an int or None.
    """

    __slots__ = ()


class ClassData(namedtuple("ClassData", "classes relations")):
    """The loaded tables: records by Co0 name, and the coincidence rows."""

    __slots__ = ()

    def record(self, name: str) -> ConwayClassRecord:
        try:
            return self.classes[name]
        except KeyError:
            raise KeyError(f"unknown class {name!r}") from None

    def for_lambency(self, ell: int) -> list[ConwayClassRecord]:
        return [rec for rec in self.classes.values() if rec.in_table(ell)]


def default_data_dir() -> str | None:
    """Directory override from MOONSHINE_DATA_DIR, if set."""
    return os.environ.get("MOONSHINE_DATA_DIR") or None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ValueError, where
    json.load would keep the last value silently."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _read_rows(directory: str | None, filename: str, what: str, key: str) -> list:
    """The `key` list of a data file in directory, or of the bundled one.

    A file that cannot be read, decoded or parsed, that gives a key twice
    in one object, or that lacks the list, is a DataError naming `what` data.
    """
    try:
        if directory is None:
            directory = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(directory, filename), "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {what} data: {exc}") from exc
    try:
        rows = raw[key]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{what} data has no '{key}' list: {exc!r}") from exc
    if type(rows) is not list:
        raise DataError(f"{what} data has no '{key}' list: got {type(rows).__name__}")
    return rows


def _typed(value, kind: type, field: str):
    """value itself if its type is `kind` (no bool for int), else a TypeError."""
    if type(value) is not kind:
        raise TypeError(f"field {field} has type {type(value).__name__}, not {kind.__name__}")
    return value


def _frame_shape(entry: dict, field: str) -> FrameShape:
    """The Frame shape of a table field: a list of integer [m, k] pairs."""
    return FrameShape.from_pairs((_typed(m, int, field), _typed(k, int, field))
                                 for m, k in entry[field])


def _level(entry: dict) -> int | None:
    """The optional `level` field of a table row: an int, null or absent."""
    level = entry.get("level")
    return None if level is None else _typed(level, int, "level")


def _validate_record(rec: ConwayClassRecord) -> None:
    row = rec.co0_name
    try:
        rec.fs_g.validate()
        negated = rec.fs_g.negate()
    except ValueError as exc:
        raise DataError(f"row {row}, field pi_g: {exc}") from exc
    if negated != rec.fs_neg_g:
        raise DataError(
            f"row {row}, field pi_neg_g: table value {rec.fs_neg_g} does not match "
            f"the negation {negated}")
    if rec.rank < 4:
        raise DataError(f"row {row}, field pi_g: {rec.fs_g} fixes a {rec.rank}-space, "
                        "less than the 4-space every genus formula needs")
    c_sq = rec.c_neg_g * rec.c_neg_g
    if c_sq != RadicalScalar.from_rational(c_squared_oracle(rec.fs_g)):
        raise DataError(
            f"row {row}, field c_neg_g: {rec.c_neg_g} squared does not match the "
            f"characteristic-polynomial value {c_squared_oracle(rec.fs_g)}")
    for ell, mag in rec.d_magnitude.items():
        try:
            want = d_squared_oracle(rec.fs_g, ell)
        except ValueError as exc:
            raise DataError(f"row {row}, field d_mag[{ell}]: {exc}") from exc
        if mag * mag != RadicalScalar.from_rational(want):
            raise DataError(
                f"row {row}, field d_mag[{ell}]: {mag} squared does not match the "
                f"characteristic-polynomial value {want}")


def _lambency_key(key: str) -> int:
    """The lambency a d_mag key spells as plain decimal text: "5", not "05"
    or " +5", so that no two keys name one lambency.  _validate_record
    checks that it is one of LAMBENCIES."""
    ell = int(key)
    if str(ell) != key:
        raise ValueError(f"field d_mag key {key!r} is not the decimal text of a lambency")
    return ell


def load_class_data(directory: str | None = None) -> ClassData:
    """Load and validate the class and coincidence tables.

    directory defaults to the MOONSHINE_DATA_DIR override and then the
    bundled data.  Every field must have its JSON type (no float or bool
    for an integer), and every record must pass the negation, fixed-space
    and squared-constant invariants, or loading fails naming the row.  Every
    coincidence row must name known classes, each in the table of the
    row's lambency, with signs -1, 0 or +1.
    """
    if directory is None:
        directory = default_data_dir()
    classes: dict[str, ConwayClassRecord] = {}
    for entry in _read_rows(directory, "classes.json", "class", "classes"):
        try:
            rec = ConwayClassRecord(
                co0_name=_typed(entry["co0"], str, "co0"),
                co1_name=_typed(entry["co1"], str, "co1"),
                fs_g=_frame_shape(entry, "pi_g"),
                fs_neg_g=_frame_shape(entry, "pi_neg_g"),
                c_neg_g=parse_radical(_typed(entry["c_neg_g"], str, "c_neg_g")),
                d_magnitude={
                    _lambency_key(ell): parse_radical(_typed(text, str, f"d_mag[{ell}]"))
                    for ell, text in _typed(entry["d_mag"], dict, "d_mag").items()},
                gamma_g=_typed(entry["gamma_g"], str, "gamma_g"),
                gamma_neg_g=_typed(entry["gamma_neg_g"], str, "gamma_neg_g"),
                level=_level(entry),
            )
        except (KeyError, TypeError, ValueError) as exc:
            name = entry.get("co0", "?") if isinstance(entry, dict) else "?"
            raise DataError(f"row {name}: {exc}") from exc
        _validate_record(rec)
        if rec.co0_name in classes:
            raise DataError(f"row {rec.co0_name}: duplicate class name")
        classes[rec.co0_name] = rec

    relations = []
    for entry in _read_rows(directory, "coincidences.json", "coincidence", "relations"):
        try:
            kind = _typed(entry["kind"], str, "kind")
            rhs = tuple(
                (Fraction(_typed(item["coeff"], str, "rhs coeff")),
                 _typed(item["class"], str, "rhs class"), _typed(item["sign"], int, "rhs sign"))
                for item in entry.get("rhs", ()))
            rel = CoincidenceRelation(
                lambency=_typed(entry["lambency"], int, "lambency"),
                lhs_class=_typed(entry["lhs"]["class"], str, "lhs.class"),
                lhs_sign=_typed(entry["lhs"]["sign"], int, "lhs.sign"),
                kind=kind,
                rhs=rhs,
                source=_typed(entry.get("source", ""), str, "source"),
                level=_level(entry),
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DataError(f"coincidence row {entry}: missing or malformed field {exc!r}") \
                from exc
        if kind not in ("internal", "anchor", "external"):
            raise DataError(f"coincidence row {entry}: unknown kind {kind!r}")
        if rel.lambency not in LAMBENCIES:
            raise DataError(f"coincidence row {entry}: lambency {rel.lambency} is not "
                            f"one of {LAMBENCIES}")
        for name, sign in ((rel.lhs_class, rel.lhs_sign), *((n, s) for _, n, s in rel.rhs)):
            if name not in classes:
                raise DataError(f"coincidence row references unknown class {name}")
            if sign not in (-1, 0, 1):
                raise DataError(f"coincidence row {entry}: sign {sign} of class {name} "
                                "is not -1, 0 or +1")
            if not classes[name].in_table(rel.lambency):
                raise DataError(f"row {name}: class {name} is not in the "
                                f"lambency-{rel.lambency} table, which a coincidence "
                                "row uses")
        relations.append(rel)
    return ClassData(classes=classes, relations=relations)


@lru_cache(maxsize=None)
def _cached_load(directory: str | None) -> ClassData:
    return load_class_data(directory)


def bundled_data() -> ClassData:
    """The validated tables, loaded once per directory and cached."""
    return _cached_load(default_data_dir())
