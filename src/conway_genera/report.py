"""Uniform result objects for the identity-verification suites.

CheckReport is an immutable namedtuple subclass; the suites build each
report once, through its constructor or `from_deviation`.
"""

from __future__ import annotations

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "name status first_deviation note",
                             defaults=(None, ""))):
    """Outcome of one verified identity or relation.

    status is "pass", "fail" or "skipped"; first_deviation (a dict, or
    None) carries the offending exponents and both coefficient values
    when status is "fail"; note (str, default empty) is printed after it.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    @classmethod
    def from_deviation(cls, name: str, deviation: dict | None, note: str = "") -> "CheckReport":
        if deviation is None:
            return cls(name, "pass", None, note)
        return cls(name, "fail", deviation, note)

    def to_json(self) -> dict:
        out = {"identity": self.name, "status": self.status,
               "first_deviation": self.first_deviation}
        if self.note:
            out["note"] = self.note
        return out

    def line(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        extra = ""
        if self.first_deviation:
            d = self.first_deviation
            extra = (f"  first deviation at q^{d['q_exp']} y^{d['y_exp']}:"
                     f" {d['lhs']} != {d['rhs']}")
        if self.note:
            extra += f"  ({self.note})"
        return f"[{tag}] {self.name}{extra}"
