"""Run the benchmark over several seeds and summarise it.

From the repository root:

    python3 bench/report.py
    python3 bench/report.py --traced --out bench/BENCH_baseline.json

Runs ``run.py`` once per seed 1..``RUNS`` and workload of ``BENCHMARK.json``
(seed-major, so slow phases of a shared host fall on every workload alike)
and prints, for every end-to-end metric of every workload, its median,
quartiles and spread (the distance between the quartiles as a share of the
median) next to the bound in ``BENCHMARK.json``, plus ``failed_frac``.  ``--traced`` adds two traced runs
on ``SEED`` and one on ``CHECK_SEED`` per workload, fails if the two runs on
``SEED`` disagree on any count, and prints the per-layer metrics.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
SEED, CHECK_SEED = 1, 2
LIMITS = [
    "wall time on a shared host, where CPU speed can drift by tens of percent "
    "within seconds: times are means scaled by a reference kernel timed in the "
    "same run, counts are exact, memory is the peak resident set above the "
    "bare interpreter's",
    "no hardware counters, no cache dropping, no machine-setting changes",
    "one process, one thread, closed loop",
]


def run(workload, seed, trace):
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]),
                                 "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def is_count(name):
    return name.endswith((".calls", ".pairs", ".terms", ".terms_in", ".terms_out"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}

    results = {name: [] for name in names}
    for seed in range(1, RUNS + 1):
        for name in names:
            results[name].append(run(name, seed, 0))
            print(f"seed {seed} {name} done", file=sys.stderr)

    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "seed": SEED,
        "check_seed": CHECK_SEED,
        "limits": LIMITS,
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = {"why": why[name], "end_to_end": {}}
        attempted = sum(r["attempted"] for r in results[name])
        failed = sum(r["failed"] for r in results[name])
        ok &= failed == 0 and all(r["correct"] for r in results[name])
        print(f"\n{name}: {why[name]}")
        print(f"  {'metric':<18}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results[name]]
            stats = spread(values)
            entry["end_to_end"][metric] = {"unit": spec["unit"], "bound": spec["bound"],
                                           **stats, "values": values}
            print(f"  {metric:<18}{spec['unit']:<8}{stats['median']:>12.5g}"
                  f"{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
                  f"{stats['spread']:>9.3f}{spec['bound']:>7}")
        entry["failed_frac"] = failed / attempted
        print(f"  {'failed_frac':<18}{'fraction':<8}{failed / attempted:>12.5g}"
              f"   ({failed} of {attempted} instances)")
        summary["workloads"][name] = entry

    if args.traced:
        for name in names:
            first, second, check = (run(name, seed, 1) for seed in (SEED, SEED, CHECK_SEED))
            counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
            again = {k: v["value"] for k, v in second["metrics"].items() if is_count(k)}
            if counts != again:
                ok = False
                print(f"\n{name}: two traced runs on seed {SEED} disagree on counts")
            entry = summary["workloads"][name]
            entry["per_layer"] = {k: v["value"] for k, v in first["metrics"].items()}
            entry["per_layer_check_seed"] = {k: v["value"] for k, v in check["metrics"].items()}
            ok &= first["correct"] and second["correct"] and check["correct"]
            print(f"\n{name} per layer (seed {SEED}; counts repeat exactly: {counts == again})")
            for key, value in first["metrics"].items():
                if value["value"]:
                    print(f"  {key:<40}{value['value']:>14.6g} {value['unit']}")

    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
