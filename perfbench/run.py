"""Reference benchmark: the default crawl and study, end to end and per layer.

Every measured batch runs in a fresh interpreter (``child.py``), so each one
starts as cold as the CLI it mirrors.  Untraced batches give the end-to-end
metrics; a traced batch (``--trace 1``) wraps the program's layer entry
points from outside (``tracing.py``) and gives the per-layer split, next to
an untraced batch of the same seed for the tracing overhead.

Usage (from the repository root)::

    python3 perfbench/run.py                      # every workload, end-to-end table
    python3 perfbench/run.py --trace 1            # every workload, per-layer table
    python3 perfbench/run.py --workload crawl-serial --seed 7 --seconds 10 --trace 0

With ``--workload`` the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` holds
the ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) metrics
named in ``BENCHMARK.json``.  The exit code is non-zero when any output
check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 20250504

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: A batch that runs longer than this is killed (with its shard workers).
CHILD_TIMEOUT_S = 150
#: Nominal length of one untraced batch on the 2-vCPU reference machine.  A
#: run measures ``round(seconds / NOMINAL_BATCH_S)`` batches, at least one:
#: a count set by ``--seconds`` alone, so that every run of a workload
#: measures the same work however fast the machine is at the time.
NOMINAL_BATCH_S = 20

#: End-to-end metric -> the per-layer metrics that should account for a
#: change in it.
E2E_TRACKS = {
    "setup_s": "none: world generation is outside the measured layers",
    "wall_s": "stage.<name>_s; crawl-serial: js.*, canvas.* and browser.load self times",
    "pages_per_s": "js.lex_s, js.parse.self_s, js.lower_s, js.exec.self_s, "
    "canvas.raster.self_s, canvas.readout.self_s, cache.*.hit_rate",
    "page_p50_ms": "net.fetch.self_s, browser.load.self_s, dom.parse_html_s",
    "page_p99_ms": "js.exec.self_s, canvas.raster.self_s, cache.render.hit_rate",
    "peak_rss_mb": "cache sizes behind cache.*.hit_rate; core.stage_cache.bytes",
    "page_fail_share": "crawler.attempts_per_site",
}

#: Per-layer metric -> the end-to-end metric (and workload) it should move.
LAYER_MOVES = {
    "js.lex_s": "pages_per_s on crawl-serial; wall_s on study-serial",
    "js.parse.self_s": "pages_per_s on crawl-serial; wall_s on study-serial",
    "js.lower_s": "pages_per_s on crawl-serial; wall_s on study-serial",
    "js.lower.calls": "pages_per_s on crawl-serial; wall_s on study-serial",
    "js.exec.self_s": "pages_per_s on crawl-serial; wall_s on study-serial",
    "js.parse.per_script": "wall_s on study-serial (crawl-serial: no move)",
    "js.static.verdict_s": "wall_s on study-serial (~0 on crawl-serial)",
    "js.static.analyze_s": "wall_s on study-serial (~0 on crawl-serial)",
    "stage.static_s": "wall_s on study-serial (0 on crawl-serial)",
    "canvas.raster.self_s": "pages_per_s on crawl-serial",
    "canvas.readout.self_s": "pages_per_s on crawl-serial",
    "cache.*.hit_rate": "pages_per_s on crawl-serial; serial-vs-sharded gap in wall_s",
    "net.fetch.calls": "page_p50_ms on crawl-serial",
    "net.fetch.self_s": "page_p50_ms on crawl-serial",
    "browser.load.self_s": "page_p50_ms on crawl-serial",
    "dom.parse_html_s": "page_p50_ms on crawl-serial",
    "blocklists.match.calls": "wall_s on study-serial",
    "blocklists.match_s": "wall_s on study-serial",
    "crawler.checkpoint.write_s": "wall_s and page_fail_share on crawl-serial",
    "crawler.save_s": "wall_s and page_fail_share on crawl-serial",
    "crawler.attempts_per_site": "wall_s and page_fail_share on crawl-serial",
    "stage.*": "wall_s on study-sharded",
    "crawler.shards.merge_s": "wall_s on study-sharded",
    "core.reduce.ingest_s": "wall_s on study-sharded",
    "core.stage_cache.put_s": "wall_s on study-sharded",
    "core.stage_cache.bytes": "wall_s on study-sharded",
    "perf.*": "the worker-side share of wall_s on study-sharded",
    "trace.*": "none: tracing cost of this benchmark",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, so a setting
    left in the shell cannot change the workload."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: int, tag: str) -> dict:
    """Run one batch in a fresh interpreter and return its result."""
    name = f"{workload}-{seed}-{tag}-{os.getpid()}"
    workdir = WORK / name
    out = WORK / f"{name}.json"
    shutil.rmtree(workdir, ignore_errors=True)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    # A new session, so that a timeout or an interrupt can kill the batch
    # together with its shard workers.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} batch exceeded {CHILD_TIMEOUT_S}s") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"{workload} batch exited with code {code}")
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)


def nearest_rank(sorted_values: List[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """A run's untraced batches, pooled: page latencies over every visit of
    every batch, medians of the per-batch figures."""
    failed = any(r["problems"] for r in runs)
    visits = sum(r["visits"] for r in runs)
    latencies = sorted(s for r in runs for s in r["latencies_s"])
    return {
        "setup_s": statistics.median(s for r in runs for s in r["setup_samples"]),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "pages_per_s": visits / sum(r["wall_s"] for r in runs),
        "page_p50_ms": nearest_rank(latencies, 0.50) * 1000,
        "page_p99_ms": nearest_rank(latencies, 0.99) * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "page_fail_share": 1.0 if failed else sum(r["failed_visits"] for r in runs) / visits,
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: batches, checks and the metrics of the mode."""
    WORK.mkdir(exist_ok=True)
    if trace:
        base = run_child(workload, seed, 0, "base")
        traced = run_child(workload, seed, 1, "traced")
        runs = [base, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_share"] = traced["wall_s"] / base["wall_s"] - 1.0
    else:
        batches = max(1, round(seconds / NOMINAL_BATCH_S))
        runs = [run_child(workload, seed, 0, f"b{i}") for i in range(batches)]
        metrics = end_to_end(runs)
    return {
        "runs": runs,
        "metrics": metrics,
        "problems": [p for r in runs for p in r["problems"]],
        "attempted": sum(r["visits"] for r in runs),
        "failed": sum(r["visits"] for r in runs if r["problems"]),
    }


def select(spec: dict, trace: int, metrics: Dict[str, float]) -> Dict[str, dict]:
    """The metrics ``BENCHMARK.json`` names for this mode, with units."""
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [e["name"] for e in entries if e["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    return {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in entries}


def moves(name: str) -> str:
    if name in LAYER_MOVES:
        return LAYER_MOVES[name]
    prefix = name.split(".")[0] + ".*"
    return LAYER_MOVES.get(prefix, "")


def print_table(workload: str, trace: int, selected: Dict[str, dict], result: dict) -> None:
    sizes = WORKLOADS[workload]
    runs = result["runs"]
    print(
        f"== {workload}: {runs[0]['visits'] // sizes.crawls} sites x {sizes.crawls} "
        f"crawl(s), jobs={sizes.jobs}, seed {runs[0]['seed']}, "
        f"{'an untraced and a traced batch' if trace else f'{len(runs)} batch(es)'} =="
    )
    for name, entry in selected.items():
        note = moves(name) if trace else E2E_TRACKS.get(name, "")
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']:6s}  {note}")
    if trace:
        for target in ("repro.js.parser:parse", "repro.js.lexer:tokenize"):
            print(f"  {target} rebound in: {', '.join(runs[-1]['rebound'][target])}")
        print(f"  spans written to {runs[-1]['spans_file']}")
        if sizes.jobs > 1:
            print(
                "  note: spans see the parent process only; shard-worker layer time "
                "is in the perf.* counters the workers ship home"
            )
    else:
        samples = sum(len(r["latencies_s"]) for r in runs)
        print(f"  page latency: n={samples} site visits over {len(runs)} batch(es)")
    unlisted = sorted({s for r in runs for s in r["unlisted_stages"]})
    if unlisted:
        print(f"  note: stages without a per-layer metric: {', '.join(unlisted)}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (prints the JSON result line); default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="world seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced batch")
    args = parser.parse_args(argv)

    # Turn a termination request into an exception, so that ``run_child``
    # stops the running batch before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        result = measure(name, args.seed, seconds, args.trace)
        selected = select(spec, args.trace, result["metrics"])
        print_table(name, args.trace, selected, result)
        ok = ok and not result["problems"]
        if args.workload:
            print(json.dumps({
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": selected,
            }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
