"""Stability evidence: run every workload on ten seeds, twice over.

For each workload and end-to-end metric it records the ten values of each
set, their median and quartile spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them), and how far the second
set's median moved from the first's.  A metric passes when each spread is
within its bound from ``BENCHMARK.json`` and the second median is no worse
than the first by more than the bound.

Usage (from the repository root)::

    python3 perfbench/stability.py --out perfbench/stability.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from run import load_spec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETS = 2
SEEDS = list(range(1, 11))


def machine() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def one_run(workload: str, seed: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output checks")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["attempted"] = result["attempted"]
    values["elapsed_s"] = time.monotonic() - started
    return values


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(spec: dict, sets: list) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        rows = [spread([run[name] for run in runs]) for runs in sets]
        entry = {"bound": bound, "sets": rows}
        entry["spread_ok"] = all(r["spread"] <= bound for r in rows)
        if len(rows) == SETS:
            first, second = rows[0]["median"], rows[1]["median"]
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            entry["second_vs_first_worse_by"] = worse
            entry["median_ok"] = worse <= bound
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = load_spec()
    report = {"machine": machine(), "seeds": SEEDS, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    values = {w: [] for w in WORKLOADS}
    for _ in range(SETS):
        for workload in WORKLOADS:
            started = time.monotonic()
            runs = [one_run(workload, seed) for seed in SEEDS]
            values[workload].append(runs)
            report["workloads"][workload] = {
                "metrics": summarize(spec, values[workload]),
                "values": values[workload],
            }
            print(f"{workload}: set {len(values[workload])} in "
                  f"{time.monotonic() - started:.0f}s", file=sys.stderr)
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    ok = True
    for workload, data in report["workloads"].items():
        for name, entry in data["metrics"].items():
            spreads = " ".join(f"{r['spread']:.4f}" for r in entry["sets"])
            flags = [k for k in ("spread_ok", "median_ok") if entry.get(k) is False]
            ok = ok and not flags
            print(f"{workload:14s} {name:16s} bound {entry['bound']:.2f} spreads {spreads} "
                  f"{'FAIL ' + ','.join(flags) if flags else 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
