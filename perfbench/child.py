"""One measured batch in a fresh interpreter (started by ``run.py``).

Builds the world from the seed several times (set-up time is the median),
runs the workload's batch once, untraced or traced, then checks the output
after timing stops and writes one JSON result file.

Usage::

    python3 perfbench/child.py --workload crawl-serial --seed 1 --trace 0 \\
        --workdir .perfbench-work/x --out .perfbench-work/x.json
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import STUDY_STAGES, WORKLOADS, SiteLatencies, check, run_batch  # noqa: E402

#: World builds per batch; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``perf.PERF`` layer -> the per-layer hit-rate metric it feeds.
HIT_RATES = {
    "js.cache": "cache.js.hit_rate",
    "js.ic": "cache.js_ic.hit_rate",
    "render_cache": "cache.render.hit_rate",
    "glyph_atlas": "cache.glyph.hit_rate",
    "text_run": "cache.text_run.hit_rate",
    "path_mask": "cache.path_mask.hit_rate",
    "encode": "cache.encode.hit_rate",
    "js.static": "cache.static.hit_rate",
}

#: ``perf.PERF`` layer -> seconds metric.  These timers run in every
#: process, shard workers included, so they cover what parent-side spans
#: cannot see in a sharded run.
COUNTER_SECONDS = {
    "js.compile": "perf.js.compile_s",
    "js.exec": "perf.js.exec_s",
    "canvas_api": "perf.canvas.api_s",
    "canvas_readout": "perf.canvas.readout_s",
}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(recorder, counters: dict, outcome, stage_seconds: dict) -> dict:
    """Per-layer metrics of a traced batch (span times, counters, health)."""
    layers = recorder.layer_totals()

    def row(layer):
        return layers.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    parses = row("js.parse")["calls"]
    health = outcome.control.health()
    out = {
        "js.lex_s": row("js.lex")["total_s"],
        "js.parse.self_s": row("js.parse")["self_s"],
        "js.lower_s": row("js.lower")["total_s"],
        "js.lower.calls": row("js.lower")["calls"],
        "js.exec.self_s": row("js.exec")["self_s"],
        "js.parse.per_script": parses / len(recorder.parsed_sources) if parses else 0.0,
        "js.static.verdict_s": row("js.static.verdict")["total_s"],
        "js.static.analyze_s": row("js.static.analyze")["total_s"],
        "canvas.raster.self_s": row("canvas.raster")["self_s"],
        "canvas.readout.self_s": row("canvas.readout")["self_s"],
        "net.fetch.calls": row("net.fetch")["calls"],
        "net.fetch.self_s": row("net.fetch")["self_s"],
        "browser.load.self_s": row("browser.load")["self_s"],
        "dom.parse_html_s": row("dom.parse_html")["total_s"],
        "blocklists.match.calls": row("blocklists.match")["calls"],
        "blocklists.match_s": row("blocklists.match")["total_s"],
        "crawler.checkpoint.write_s": row("crawler.checkpoint.write")["total_s"],
        "crawler.save_s": row("crawler.save")["total_s"],
        "crawler.attempts_per_site": health.total_attempts / max(1, health.total),
        "crawler.shards.merge_s": row("crawler.shards.merge")["total_s"],
        "core.reduce.ingest_s": row("core.reduce.ingest")["total_s"],
        "core.stage_cache.put_s": row("core.stage_cache.put")["total_s"],
        "core.stage_cache.bytes": recorder.stage_cache_bytes,
    }
    for layer, name in HIT_RATES.items():
        out[name] = counters.get(layer, {}).get("hit_rate", 0.0)
    for layer, name in COUNTER_SECONDS.items():
        out[name] = counters.get(layer, {}).get("miss_seconds", 0.0)
    for stage in STUDY_STAGES:
        out[f"stage.{stage}_s"] = stage_seconds.get(stage, 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro import perf
    from repro.config import StudyScale
    from repro.webgen import build_world

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    world = None
    for _ in range(SETUP_REPEATS):
        world = None
        gc.collect()
        started = time.perf_counter()
        world = build_world(StudyScale(fraction=workload.scale, seed=args.seed))
        setup_times.append(time.perf_counter() - started)

    recorder = None
    site_timer = None
    if args.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder().install()
    else:
        site_timer = SiteLatencies(workdir)
        site_timer.install()

    perf_before = perf.PERF.snapshot()
    started = time.perf_counter()
    outcome = run_batch(workload, world, workdir)
    wall = time.perf_counter() - started
    rss = peak_rss_mb()
    if recorder is not None:
        recorder.stop()
    latencies = site_timer.collect() if site_timer is not None else []

    problems = check(workload, world, outcome)
    if outcome.study is not None:
        counters = outcome.study.perf_counters
        stage_seconds = {t.name: t.seconds for t in outcome.study.stage_timings}
    else:
        counters = perf.diff_snapshots(perf_before, perf.PERF.snapshot())
        stage_seconds = {}
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": statistics.median(setup_times),
        "setup_samples": setup_times,
        "wall_s": wall,
        "visits": outcome.visits,
        "failed_visits": outcome.failed_visits,
        "latencies_s": latencies,
        "peak_rss_mb": rss,
        "problems": problems,
        "unlisted_stages": sorted(set(stage_seconds) - set(STUDY_STAGES)),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, counters, outcome, stage_seconds)
        result["rebound"] = recorder.rebound
        result["spans_file"] = str(workdir.parent / f"spans-{workload.name}-{args.seed}.jsonl.gz")
        recorder.dump(result["spans_file"])
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
