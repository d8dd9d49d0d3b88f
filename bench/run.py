"""The conway-genera benchmark: seeded workloads, timed in fresh interpreters.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client: runs execute back to back, one
child interpreter at a time (bench/child.py), so every module-level
lru_cache starts cold as it does for a CLI user.  Every run of an
invocation gets the same items, `workloads.draw(workload, data, seed)`;
runs continue while another one is expected to finish within --seconds
(at least one run).

--trace 0 reports the end-to-end metrics: setup_s (median over the
set-up-only children and the runs), wall_s and peak_rss_mb (medians
over the runs).  setup_s and wall_s are scaled to a nominal host speed
(see bench/child.py); the record keeps the times as measured too.
--trace 1 pairs each untraced run with a traced run of the same items
and reports the per-layer metrics (medians over the traced runs) and
trace.overhead_ratio.  The first run's outputs are checked against
bench/reference.json, and every later run's outputs must equal the
first's.  A digest that differs, an identity that fails where the
reference passed, or a run whose outputs differ from the first makes
the result incorrect.  `attempted` and `failed` count the checks of the
drawn items once, however many runs repeat them; every failing
identity counts in `failed`, including known ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The inputs, per-run figures and cache accounting go to
bench/out/<workload>-seed<seed>-trace<trace>.json, spans of traced runs
to bench/out/spans-<workload>-seed<seed>-run<index>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

#: set-up-only children per untraced invocation, after one unmeasured warm-up
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    """A child interpreter failed or printed no result."""


def run_child(mode: str, items=None, spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, input=json.dumps(items or []), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child '{mode}' ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"child '{mode}' exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Verdicts:
    """Checks counted against the reference outputs."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.regressions: dict[str, int] = {}   # problem -> times seen
        self.known: dict[str, int] = {}         # failures the reference records

    def add(self, results: list[dict]) -> None:
        for r in results:
            ref = self.reference.get(r["key"])
            self.attempted += 1                 # the digest comparison
            if ref is None or r["digest"] != ref["digest"]:
                self.failed += 1
                why = "no reference output" if ref is None else "output differs from the reference"
                self._note(self.regressions, f"{r['key']}: {why}")
            ref_status = dict(ref["checks"]) if ref else {}
            for name, status in r["checks"]:
                if status == "skipped":
                    continue
                self.attempted += 1
                if status == "fail":
                    self.failed += 1
                    known = ref_status.get(name) == "fail"
                    what = "" if name == r["key"] else f": {name}"
                    self._note(self.known if known else self.regressions,
                               f"{r['key']}: identity failed{what}")

    @staticmethod
    def _note(table: dict, problem: str) -> None:
        table[problem] = table.get(problem, 0) + 1


def _strip(child: dict) -> dict:
    return {k: v for k, v in child.items() if k != "results"}


def measure(workload: str, seed: int, seconds: float, trace: bool, limit: int) -> dict:
    """Run one workload; returns the record written to bench/out."""
    from conway_genera import bundled_data

    import workloads
    data = bundled_data()
    verdicts = Verdicts(json.loads(REFERENCE.read_text())["items"])
    items = workloads.draw(workload, data, seed)
    if limit:
        items = items[:limit]
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    setups: list[float] = []
    if not trace:
        run_child("setup")                      # compiles bytecode, warms the file cache
        setups = [run_child("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs, traced, durations = [], [], []
    mismatched_runs = 0                         # runs whose outputs differ from the first's
    while True:
        began = perf_counter()
        run = run_child("run", items)
        if not runs:
            verdicts.add(run["results"])
        elif run["results"] != runs[0]["results"]:
            mismatched_runs += 1
        runs.append(run)
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-run{len(traced)}.jsonl"
            traced.append(run_child("trace", items, spans))
            if traced[-1]["results"] != runs[0]["results"]:
                mismatched_runs += 1
        durations.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(durations) > seconds:
            break

    if trace:
        layers = {name: statistics.median(t["layers"][name] for t in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (
            statistics.median(t["wall_s"] for t in traced)
            / statistics.median(r["wall_s"] for r in runs) - 1)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    correct = not verdicts.regressions and not mismatched_runs
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "limit": limit, "inputs": [workloads.item_key(item) for item in items],
        "setup_samples_s": setups,
        "runs": [_strip(r) for r in runs], "traced_runs": [_strip(t) for t in traced],
        "correct": correct, "attempted": verdicts.attempted, "failed": verdicts.failed,
        "regressions": verdicts.regressions, "known_failures": verdicts.known,
        "mismatched_runs": mismatched_runs,
        "metrics": metrics,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable summary of one workload."""
    runs = len(record["runs"])
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{runs} run(s), one fresh interpreter each, closed loop, one client")
    keys = record["inputs"]
    shown = ", ".join(keys[:4]) + (f", ... ({len(keys)} items)" if len(keys) > 4 else "")
    print(f"   inputs of every run: {shown}")
    samples = {"setup_s": len(record["setup_samples_s"]) + runs}
    for name, m in record["metrics"].items():
        count = samples.get(name, len(record["traced_runs"]) or runs)
        print(f"   {name:<36} {m['value']:>14.6g} {m['unit']:<6} (median of {count})")
    if not record["trace"]:
        for name in ("raw_setup_s", "raw_wall_s"):
            values = [r[name] for r in record["runs"]]
            print(f"   {name:<36} {statistics.median(values):>14.6g} {'s':<6} "
                  f"(median of {len(values)}, as measured)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"   {'check_fail_ratio':<36} {failed / attempted:>14.6g} {'ratio':<6} "
          f"({failed} of {attempted} checks)")
    for problem, times in {**record["known_failures"], **record["regressions"]}.items():
        tag = "KNOWN" if problem in record["known_failures"] else "REGRESSION"
        print(f"   [{tag}] {problem} (x{times})")
    if record["mismatched_runs"]:
        print(f"   [REGRESSION] {record['mismatched_runs']} run(s) gave outputs "
              f"that differ from the first run's")


def main(argv=None) -> int:
    if not (SRC / "conway_genera" / "__init__.py").is_file():
        print(f"error: no conway_genera package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget; runs start while one more is expected to fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="keep only the first N items of each run (0: all)")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(name, args.seed, args.seconds, bool(args.trace), args.limit)
                   for name in names]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
