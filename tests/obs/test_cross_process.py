"""Cross-process propagation: spans and metrics from shard workers must
appear exactly once in the merged run log under ``jobs=4`` with fault
injection — the ISSUE's satellite test.

Also pins the pooled-worker delta semantics: a worker process that runs
several shard tasks back to back must not re-ship earlier tasks' perf or
metric activity (cumulative snapshots would double-count on merge).
"""

from dataclasses import asdict

import pytest

from repro import obs
from repro.config import StudyScale
from repro.crawler.resilience import RetryPolicy
from repro.crawler.shards import ShardJob, _crawl_shard_worker, run_sharded_crawl
from repro.net.faults import FaultConfig, FaultyNetwork
from repro.obs.config import ObsConfig
from repro.obs.inspect import crawl_totals, load_run
from repro.obs.recorder import RunRecorder
from repro.webgen import build_world

RETRIES = RetryPolicy(max_attempts=3)


@pytest.fixture(scope="module")
def world():
    return build_world(StudyScale(fraction=0.01))


def faulty(world, seed=7):
    return FaultyNetwork(world.network, FaultConfig(fault_rate=0.15), seed=seed)


class TestShardedRunLog:
    @pytest.fixture(scope="class")
    def sharded(self, world, tmp_path_factory):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True))
        obs.reset()
        run_dir = tmp_path_factory.mktemp("sharded") / "obs"
        try:
            recorder = RunRecorder(run_dir, label="crawl", seed=7).start()
            # More shards than jobs: pooled workers run several tasks each,
            # which is exactly the double-count trap the deltas must avoid.
            dataset = run_sharded_crawl(
                faulty(world),
                world.all_targets,
                label="control",
                jobs=4,
                shards=8,
                retry_policy=RETRIES,
            )
            recorder.finish(health=asdict(dataset.health()))
        finally:
            obs.configure(previous)
        return dataset, run_dir

    def test_metrics_totals_exactly_once(self, sharded):
        dataset, run_dir = sharded
        health = dataset.health()
        totals = crawl_totals(load_run(run_dir), "control")
        assert totals["total"] == health.total
        assert totals["successes"] == health.successes
        assert totals["recovered"] == health.recovered
        assert totals["attempts_histogram"] == health.attempts_histogram
        assert totals["failure_rows"] == tuple(health.failure_rows)
        assert totals["total_attempts"] == health.total_attempts

    def test_page_spans_exactly_once(self, sharded):
        dataset, run_dir = sharded
        log = load_run(run_dir)
        domains = [r["attrs"]["domain"] for r in log.spans("crawl.page")]
        assert len(domains) == len(set(domains)), "a worker span was merged twice"
        assert sorted(domains) == sorted(o.domain for o in dataset.observations)

    def test_worker_lanes_are_labelled(self, sharded):
        _, run_dir = sharded
        log = load_run(run_dir)
        shard_spans = log.spans("crawl.shard")
        assert len(shard_spans) == 8
        tids = {r["tid"] for r in shard_spans}
        assert tids == {f"shard-{i}" for i in range(8)}
        # Page spans carry their worker's lane, not the parent's.
        page_tids = {r["tid"] for r in log.spans("crawl.page")}
        assert page_tids <= tids

    def test_serial_counters_match_serial_health(self, world):
        """The counter path agrees with health() regardless of jobs.

        (Serial and sharded crawls see slightly different fault schedules —
        the injector's per-URL attempt clocks are per-process — so the two
        runs are compared against their own health, not each other.)
        """
        previous = obs.config()
        obs.configure(ObsConfig(trace=False))
        obs.reset()
        try:
            serial = run_sharded_crawl(
                faulty(world),
                world.all_targets,
                label="control",
                jobs=1,
                retry_policy=RETRIES,
            )
            counters = obs.METRICS.snapshot()["counters"]
        finally:
            obs.configure(previous)
        health = serial.health()
        assert counters["crawler.pages[control]"] == health.total
        assert counters["crawler.pages_ok[control]"] == health.successes
        assert counters.get("crawler.recovered[control]", 0) == health.recovered
        histogram = {
            int(name[: -len("]")].rsplit("|", 1)[1]): value
            for name, value in counters.items()
            if name.startswith("crawler.attempts[control|")
        }
        assert histogram == health.attempts_histogram


class TestPooledWorkerDeltas:
    def test_worker_ships_per_task_deltas(self, world, untraced):
        """Calling the worker entry point twice in one process must not
        re-ship the first task's perf counters or metrics."""
        shard = list(world.all_targets[:4])
        job = ShardJob(
            network=faulty(world), label="control", targets=tuple(shard),
            retry_policy=RETRIES, resume=False, obs_config=ObsConfig(trace=True),
        )
        first, second = _crawl_shard_worker(job), _crawl_shard_worker(job)
        perf_delta_1, obs_payload_1 = first.perf_delta, first.obs_payload
        perf_delta_2, obs_payload_2 = second.perf_delta, second.obs_payload
        pages_1 = obs_payload_1["metrics"]["counters"]["crawler.pages[control]"]
        pages_2 = obs_payload_2["metrics"]["counters"]["crawler.pages[control]"]
        assert pages_1 == len(shard)
        assert pages_2 == len(shard), "second task re-shipped the first task's metrics"
        # Span buffers drain per task, too.
        spans_1 = [r for r in obs_payload_1["spans"] if r["name"] == "crawl.page"]
        spans_2 = [r for r in obs_payload_2["spans"] if r["name"] == "crawl.page"]
        assert len(spans_1) == len(shard)
        assert len(spans_2) == len(shard)
        # Perf deltas are windows, not cumulative snapshots: merging both
        # must equal the sum of the windows (no double-count).
        for layer in perf_delta_2:
            if layer in perf_delta_1:
                assert perf_delta_2[layer]["misses"] <= (
                    perf_delta_1[layer]["misses"] + perf_delta_2[layer]["misses"]
                )

    def test_ingest_worker_is_exactly_once_per_payload(self, untraced):
        obs.configure(ObsConfig(trace=True))
        before = obs.METRICS.snapshot()
        obs.inc("crawler.pages[control]", 5)
        with obs.span("crawl.shard"):
            pass
        payload = obs.worker_payload(before)
        obs.reset()
        obs.ingest_worker(payload)
        assert obs.METRICS.counter("crawler.pages[control]") == 5
        assert len(obs.TRACE.records()) == 1
        obs.ingest_worker(None)  # a skipped worker ships nothing
        assert obs.METRICS.counter("crawler.pages[control]") == 5
