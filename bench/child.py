"""One benchmark run, in a fresh interpreter so that every cache starts cold.

    python3 bench/child.py setup             time the set-up only
    python3 bench/child.py run   < items.json
    python3 bench/child.py trace SPANS_FILE < items.json

Set-up is `import conway_genera.cli` (which imports every module) plus
`bundled_data()`.  The run then computes each item in order and prints
one JSON object: set-up and wall time, peak RSS of this process, and
every item's digest and verdicts.

The host of the machine the baseline was measured on changes the speed
it gives a process by up to 2x, over phases from milliseconds to
minutes.  So the child times `spin`, a fixed loop of its own, after
set-up and between items, and reports each time twice: as measured
(`raw_setup_s`, `raw_wall_s`) and scaled to the host speed at which one
`spin` takes NOMINAL_SPIN_S (`setup_s`, `wall_s`).  The scaled times
are the benchmark's end-to-end figures.  `trace` also installs the layer
shims before `bundled_data()`, reports the per-layer metrics and cache
accounting, and writes its spans, one JSON list per line, to SPANS_FILE.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

#: seconds one `spin` takes at the host speed the scaled times refer to
#: (the median on the 2-core VM of the baseline in bench/README.md)
NOMINAL_SPIN_S = 0.0022
#: spins per speed sample; the sample is their median
SPINS_PER_SAMPLE = 3


def spin() -> int:
    """A fixed pure-Python loop: big-integer products and remainders,
    Euclid's gcd and dict updates, the operations exact rational
    arithmetic is made of.  It needs no import and allocates no tracked
    container in its loop, so it never starts the cyclic collector."""
    table = dict.fromkeys(range(64), 0)
    a, total = 0x9E3779B97F4A7C15, 0
    for i in range(2000):
        a = (a * 6364136223846793005 + i) % 0x1FFFFFFFFFFFFFFFFFFFFFFF
        table[i & 63] += a >> 60
        x, y = a % 1000003 + i, i + 7
        while y:
            x, y = y, x % y
        total += x
    return total + sum(table.values())


def speed_sample() -> float:
    """Median time of SPINS_PER_SAMPLE spins, in seconds."""
    times = []
    for _ in range(SPINS_PER_SAMPLE):
        began = perf_counter()
        spin()
        times.append(perf_counter() - began)
    return sorted(times)[SPINS_PER_SAMPLE // 2]


def main(argv: list[str]) -> int:
    mode = argv[0]
    items = json.load(sys.stdin) if mode != "setup" else []
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import conway_genera.cli  # noqa: F401  (imports every module)
    from conway_genera import conway
    if not Path(conway.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"conway_genera was imported from {conway.__file__}, not {SRC}")
    tracer = None
    if mode == "trace":
        import tracing
        caches = tracing.find_caches()
        tracer = tracing.Tracer()
        tracing.install(tracer)
    data = conway.bundled_data()
    raw_setup_s = perf_counter() - start
    spin()                                  # warm-up
    samples = [speed_sample()]
    out = {"setup_s": raw_setup_s * NOMINAL_SPIN_S / samples[0], "raw_setup_s": raw_setup_s}
    if mode != "setup":
        import workloads
        run_item = workloads.run_item
        if tracer is not None:
            run_item = tracer.span("bench.item", run_item, new_request=True)
        first_span = len(tracer.spans) if tracer is not None else 0
        results, took = [], []
        for item in items:
            began = perf_counter()
            results.append(run_item(data, item))
            took.append(perf_counter() - began)
            samples.append(speed_sample())
        raw_wall_s = sum(took)
        # spin time during an item: the mean of the samples on either side;
        # over the run: the mean of those, weighted by item duration
        mean_spin_s = sum(t * (samples[i] + samples[i + 1]) / 2
                          for i, t in enumerate(took)) / raw_wall_s
        out["results"] = results
        out["raw_wall_s"] = raw_wall_s
        out["wall_s"] = raw_wall_s * NOMINAL_SPIN_S / mean_spin_s
        out["mean_spin_s"] = mean_spin_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, caches)
        out["caches"] = tracing.cache_accounting(caches)
        # self time of the spans inside the timed loop: at most raw_wall_s
        out["self_total_s"] = sum(
            v["self_s"] for v in tracer.summarize(first_span).values())
        with open(argv[1], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
