"""Import-footprint benchmark: what loading the simulator and optimizer costs a process.

Every pool, service and fleet worker is a fresh interpreter that imports
``repro.spice`` and ``repro.core`` before it can simulate anything, so the
memory and time those imports take are paid once per process.  Each rep
starts a fresh interpreter and records, after ``import numpy`` and again
after ``import repro, repro.circuits, repro.core, repro.spice``:

* peak RSS (``ru_maxrss``) in MB and the seconds the import took;
* the top-level third-party modules that import added to ``sys.modules``
  (standard-library modules, private ``_``-prefixed names and ``repro``
  itself are left out; anything the interpreter loaded before the first
  import is left out too).

    PYTHONPATH=src python benchmarks/bench_footprint.py            # full
    PYTHONPATH=src python benchmarks/bench_footprint.py --quick    # CI smoke

Results are written to ``BENCH_footprint.json`` (override with ``--out``).
``--check BASELINE.json`` turns the run into a regression gate: it fails
when the repro imports load any third-party module other than numpy, or
when ``rss_ratio`` (the RSS the repro imports add, per MB that numpy's
import adds) exceeds the committed baseline's by more than 50%.  Both
imports run in the same interpreter on one host, so the ratio is more
portable than absolute megabytes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: how far (as a multiple) the measured ratio may exceed the baseline's.
REGRESSION_CEILING = 1.5

#: third-party top-level modules the repro imports may load.
ALLOWED_MODULES = {"numpy"}

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json, resource, sys
from time import perf_counter

SCALE = 1.0 / (1024.0 * 1024.0) if sys.platform == "darwin" else 1.0 / 1024.0

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * SCALE

def third_party(names):
    tops = {name.partition(".")[0] for name in names}
    return sorted(top for top in tops - set(sys.stdlib_module_names)
                  if not top.startswith("_") and top != "repro")

out = {"start_mb": rss_mb()}
before = set(sys.modules)
t0 = perf_counter()
import numpy
out["numpy_s"] = perf_counter() - t0
out["numpy_mb"] = rss_mb()
after_numpy = set(sys.modules)
t0 = perf_counter()
import repro, repro.circuits, repro.core, repro.spice
out["repro_s"] = perf_counter() - t0
out["repro_mb"] = rss_mb()
out["numpy_modules"] = third_party(after_numpy - before)
out["repro_modules"] = third_party(set(sys.modules) - after_numpy)
print(json.dumps(out))
"""


def measure_once() -> dict:
    """One fresh interpreter's import footprint."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(quick: bool) -> dict:
    reps = 3 if quick else 9
    print(f"import footprint, {reps} fresh interpreters...", flush=True)
    samples = [measure_once() for _ in range(reps)]

    def median(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    start, numpy_mb, repro_mb = median("start_mb"), median("numpy_mb"), median("repro_mb")
    modules = sorted({m for s in samples for m in s["numpy_modules"] + s["repro_modules"]})
    return {
        "benchmark": "bench_footprint",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metric_note": ("'rss_ratio' (MB the repro imports add per MB numpy's "
                        "import adds, one interpreter) and 'third_party_modules' "
                        "are the guarded metrics; absolute MB and seconds are "
                        "host-dependent.  Values are medians over reps."),
        "reps": reps,
        "start_rss_mb": start,
        "numpy": {"rss_mb": numpy_mb, "import_s": median("numpy_s")},
        "repro": {"rss_mb": repro_mb, "import_s": median("repro_s")},
        "third_party_modules": modules,
        "rss_ratio": (repro_mb - numpy_mb) / (numpy_mb - start),
    }


def report(results: dict) -> None:
    print(f"  interpreter start : {results['start_rss_mb']:6.1f} MB")
    for phase in ("numpy", "repro"):
        entry = results[phase]
        print(f"  after {phase:<12}: {entry['rss_mb']:6.1f} MB  "
              f"(import {entry['import_s'] * 1e3:.0f} ms)")
    print(f"  rss_ratio: {results['rss_ratio']:.2f}   "
          f"third-party modules: {results['third_party_modules']}")


def check_against(results: dict, baseline_path: Path) -> int:
    extra = sorted(set(results["third_party_modules"]) - ALLOWED_MODULES)
    print(f"check modules: {results['third_party_modules']} "
          f"(allowed {sorted(ALLOWED_MODULES)}) -> {'REGRESSION' if extra else 'ok'}")
    base = json.loads(baseline_path.read_text())["rss_ratio"]
    ceiling = REGRESSION_CEILING * base
    measured = results["rss_ratio"]
    verdict = "ok" if measured <= ceiling else "REGRESSION"
    print(f"check rss_ratio: {measured:.2f} vs baseline {base:.2f} "
          f"(ceiling {ceiling:.2f}) -> {verdict}")
    return int(bool(extra) or measured > ceiling)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer reps for the CI smoke")
    parser.add_argument("--out", default="BENCH_footprint.json",
                        help="where to write the results JSON")
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail on a new third-party import or an RSS ratio "
                             ">50%% above this committed baseline JSON")
    args = parser.parse_args(argv)

    results = run(args.quick)
    report(results)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    if args.check and check_against(results, Path(args.check)):
        print(f"import-footprint regression vs {args.check}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
