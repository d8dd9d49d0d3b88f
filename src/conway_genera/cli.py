"""Batch front-end: compute genera, run verification suites, export tables.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 data error.
The environment variable MOONSHINE_DATA_DIR overrides the bundled data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import genera, modforms, oracle, sigma
from .conway import LAMBENCIES, DataError, bundled_data, load_class_data
from .report import CheckReport
from .scalars import format_radical
from .series import QSeries, first_difference

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conway-genera",
        description="Exact computation and verification of Conway-class twining genera")
    parser.add_argument("--data-dir", default=None,
                        help="directory with classes.json/coincidences.json "
                             "(default: MOONSHINE_DATA_DIR or bundled)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one series")
    p_compute.set_defaults(run=cmd_compute)
    p_compute.add_argument("--class", dest="class_name", required=True)
    p_compute.add_argument("--ell", type=int, default=2, choices=LAMBENCIES)
    p_compute.add_argument("--sign", choices=("+", "-"), default="+")
    p_compute.add_argument("--prec", type=int, default=5,
                           help="integer q-orders")
    p_compute.add_argument("--what", choices=("phi", "ts", "ts-tw", "f"),
                           default="phi")
    p_compute.add_argument("--format", choices=("text", "json", "csv"),
                           default="text")

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--suite", default="all", choices=("all", *_SUITES))
    p_verify.add_argument("--prec", type=int, default=None,
                          help="integer q-orders (suite-specific defaults)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_list = sub.add_parser("list-classes", help="show the class table")
    p_list.set_defaults(run=cmd_list_classes)
    p_list.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")

    p_export = sub.add_parser("export", help="export bundled tables")
    p_export.set_defaults(run=cmd_export)
    p_export.add_argument("--table", choices=("classes", "coincidences"),
                          default="classes")
    p_export.add_argument("--format", choices=("json", "csv", "text"),
                          default="json")
    return parser


def _write(rows, fmt: str, columns, text_line) -> None:
    """Write rows to stdout, the only place that does, in one write: as JSON,
    as CSV under the header `columns`, or as one text_line(row) each.  A
    mapping goes into a CSV cell as key:value pairs joined by ';'.  A reader
    that closes the pipe early ends the output, not the command."""
    out = io.StringIO()
    if fmt == "json":
        print(json.dumps(rows, sort_keys=True, indent=2), file=out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([";".join(f"{k}:{v}" for k, v in row[c].items())
                             if isinstance(row[c], dict) else row[c] for c in columns])
    else:
        for row in rows:
            print(text_line(row), file=out)
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at devnull so that cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_compute(args, data) -> int:
    # F is taken at lambency 2; the traces take neither a lambency nor a D sign
    ignored = (f"--ell {args.ell}" if args.ell != 2 and args.what != "phi" else
               "--sign -" if args.sign == "-" and args.what in ("ts", "ts-tw") else None)
    if ignored:
        print(f"error: --what {args.what} takes no {ignored}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rec = data.record(args.class_name)
    except KeyError:
        print(f"error: class {args.class_name!r} not in table", file=sys.stderr)
        return EXIT_USAGE
    sign = 1 if args.sign == "+" else -1
    try:
        if args.what == "phi":
            req = genera.GenusRequest(rec, sign, args.ell, args.prec)
            series = genera.phi_g_ell(req)
        elif args.what == "ts":
            series = genera.ts_g(rec, "g", "chi", args.prec)
        elif args.what == "ts-tw":
            series = genera.ts_g(rec, "g_tw", "chi", args.prec)
        else:
            series = genera.f_g(rec, sign, args.prec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "text":
        _write([series.dump()], "text", None, str)
        return EXIT_OK
    columns = ("q_exp", "y_exp", "coeff")
    rows = [dict(zip(columns, row)) for row in series.text_rows()]
    _write({"coefficients": rows} if args.format == "json" else rows, args.format, columns, None)
    return EXIT_OK


def _record(data, suite: str, name: str, ell: int | None = None):
    """The record of a class the suite names, in the lambency-ell table when
    the suite takes its genus there; a table without it is a data error."""
    try:
        rec = data.record(name)
    except KeyError:
        raise DataError(f"suite {suite} needs class {name}, which the class table "
                        "lacks") from None
    if ell is not None and not rec.in_table(ell):
        raise DataError(f"suite {suite} needs class {name} at lambency {ell}, which "
                        f"the lambency-{ell} table lacks")
    return rec


def _suite_eta(data, orders):
    return [genera.verify_eta_identity(rec, orders)
            for rec in data.classes.values()]


def _suite_theta(data, orders):
    return modforms.verify_theta_identities(orders)


def _genus_requests(data, lambencies, orders):
    """Every tabulated (class, D sign) at each lambency; one sign where D vanishes."""
    for ell in lambencies:
        for rec in data.for_lambency(ell):
            for sign in rec.d_signs(ell):
                yield genera.GenusRequest(rec, sign, ell, orders)


def _sign_flips(data, lambencies, orders):
    """One linearity-in-D check per class with nonzero D at each lambency."""
    return [genera.verify_sign_flip(rec, ell, orders)
            for ell in lambencies for rec in data.for_lambency(ell)
            if len(rec.d_signs(ell)) > 1]


def _suite_decomposition(data, orders):
    return ([genera.verify_decomposition(req.rec, req.d_sign, orders)
             for req in _genus_requests(data, (2,), orders)]
            + _sign_flips(data, (2,), orders))


def _suite_k3(data, orders):
    k3 = genera.k3_elliptic_genus(orders)
    identity = _record(data, "k3", "1A", 2)
    phi_e = genera.phi_g(identity, 1, orders)
    z0 = k3.specialize_z0()
    f_e = genera.f_g(identity, 1, orders)
    return [CheckReport.from_deviation(name, first_difference(lhs, rhs)) for name, lhs, rhs in (
        ("k3-genus[equals identity-class genus]", k3, phi_e),
        ("k3-genus[z=0 value 24]", z0, QSeries({0: 24}, z0.trunc)),
        ("k3-genus[weight-2 multiplier vanishes]", f_e, QSeries.zero(f_e.trunc)))]


def _suite_higher(data, orders):
    return ([genera.verify_decomposition_ell(req)
             for req in _genus_requests(data, LAMBENCIES[1:], orders)]
            + _sign_flips(data, LAMBENCIES[1:], orders))


def _suite_jacobi(data, orders):
    out = genera.verify_elliptic_law(orders)
    for req in _genus_requests(data, LAMBENCIES, orders):
        name = (f"jacobi-invariance[{req.rec.co0_name}, ell {req.ell}, "
                f"D sign {req.d_sign:+d}]")
        out.append(genera.verify_jacobi_invariance(genera.phi_g_ell(req), req.ell - 1, name))
    return out


def _suite_fourier(data, orders):
    ts_e = genera.ts_g(_record(data, "fourier", "1A"), "g", "chi", orders)
    return [CheckReport.from_deviation("fourier[identity-class leading shape]",
                                       first_difference(ts_e, QSeries({-12: 1}, 1)))]


def _suite_oracle(data, orders):
    out = []
    for name in ("1A", "2B", "2D", "3D", "4D"):
        rec = _record(data, "oracle", name, 2)
        signs = rec.d_signs(2)
        for sign in signs:
            pairs = [(oracle.brute_ts(rec, which, 2), genera.ts_g(rec, which, "chi", 3))
                     for which in ("g", "g_tw")]
            pairs.append((oracle.brute_phi(rec, sign, 2, 2), genera.phi_g(rec, sign, 3)))
            ok = all(oracle.first_mismatch(brute, closed) is None for brute, closed in pairs)
            label = f"oracle[{name}, D sign {sign:+d}]" if len(signs) > 1 else f"oracle[{name}]"
            out.append(CheckReport(label, "pass" if ok else "fail"))
    return out


def _suite_sigma(data, orders):
    return sigma.verify_sigma_isomorphism(orders)


#: name -> (suite, default q-orders); oracle runs at a fixed precision and
#: ignores --prec.  Each report family is shown to fail under some perturbed
#: input in tests/test_report_families.py.
_SUITES = {
    "eta-identity": (_suite_eta, 8),
    "theta": (_suite_theta, 4),
    "decomposition": (_suite_decomposition, 5),
    "k3": (_suite_k3, 10),
    "higher-lambency": (_suite_higher, 4),
    "jacobi": (_suite_jacobi, 6),
    "coincidences": (genera.verify_coincidences, 5),
    "fourier": (_suite_fourier, 8),
    "oracle": (_suite_oracle, None),
    "sigma": (_suite_sigma, 6),
}

#: the greatest --prec that compute and verify accept, in q-orders, set
#: where `verify --suite all` still takes seconds and tens of MB (the
#: figures are in CHANGES.md).  Series grow with the precision, so an
#: unbounded one runs until memory runs out.
MAX_ORDERS = 96


def cmd_verify(args, data) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = []
    for name in names:
        run, default = _SUITES[name]
        suites.append((name, run(data, default if args.prec is None else args.prec)))
    if args.format == "json":
        rows = [{"suite": name, "ok": all(r.ok for r in reports),
                 "checks": [r.to_json() for r in reports]} for name, reports in suites]
    else:
        rows = [line for name, reports in suites
                for line in (f"== suite {name} ==", *(r.line() for r in reports))]
    _write(rows, args.format, None, str)
    ok = all(r.ok for _, reports in suites for r in reports)
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_list_classes(args, data) -> int:
    rows = [{
        "co0": rec.co0_name,
        "co1": rec.co1_name,
        "pi_g": str(rec.fs_g),
        "pi_neg_g": str(rec.fs_neg_g),
        "chi": rec.chi,
        "rank": rec.rank,
        "c_neg_g": format_radical(rec.c_neg_g),
        "d_mag": {str(ell): format_radical(mag)
                  for ell, mag in sorted(rec.d_magnitude.items())},
        "gamma_g": rec.gamma_g,
        "gamma_neg_g": rec.gamma_neg_g,
        "level": rec.level,
    } for rec in data.classes.values()]
    _write(rows, args.format, ("co0", "co1", "pi_g", "pi_neg_g", "chi", "rank", "c_neg_g",
                               "d_mag", "gamma_g", "gamma_neg_g", "level"),
           lambda row: (f"{row['co0']:>4} ({row['co1']:>4})  pi: {row['pi_g']:<28} "
                        f"chi {row['chi']:>3}  C- {row['c_neg_g']:>5}  ["
                        + ", ".join(f"ell {k}: {v}" for k, v in row["d_mag"].items()) + "]"))
    return EXIT_OK


def cmd_export(args, data) -> int:
    if args.table == "classes":
        return cmd_list_classes(args, data)
    rows = [{
        "lambency": rel.lambency,
        "class": rel.lhs_class,
        "sign": rel.lhs_sign,
        "kind": rel.kind,
        "source": rel.source,
        "rhs": [{"coeff": str(c), "class": n, "sign": s} for c, n, s in rel.rhs],
        "level": rel.level,
    } for rel in data.relations]
    _write(rows, args.format, ("lambency", "class", "sign", "kind", "source", "level"),
           lambda row: (f"ell {row['lambency']:>2} {row['class']:>4} "
                        f"sign {row['sign']:+d}  {row['kind']:<8} {row['source']}"))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = load_class_data(args.data_dir) if args.data_dir else bundled_data()
        prec = getattr(args, "prec", None)
        if prec is not None and not 1 <= prec <= MAX_ORDERS:
            print(f"error: --prec must be 1 to {MAX_ORDERS} q-orders, got {prec}",
                  file=sys.stderr)
            return EXIT_USAGE
        return args.run(args, data)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
