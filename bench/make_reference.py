"""Record bench/reference.json: the output digest and check verdicts of
every item any seed of any workload can draw.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right; the
benchmark then counts every later difference as a failed check.  It
takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from conway_genera import bundled_data  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    data = bundled_data()
    items = {}
    for workload in workloads.WORKLOADS:
        for item in workloads.universe(workload, data):
            result = workloads.run_item(data, item)
            items[result["key"]] = {"digest": result["digest"], "checks": result["checks"]}
            print(result["key"], result["digest"],
                  " ".join(status for _, status in result["checks"]), flush=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=BENCH,
                            capture_output=True, text=True).stdout.strip()
    reference = {
        "recorded_from": f"git commit {commit}" if commit else "unknown commit",
        "known_failures": sorted(key if name == key else f"{key}: {name}"
                                 for key, entry in items.items()
                                 for name, status in entry["checks"] if status == "fail"),
        "items": dict(sorted(items.items())),
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
