"""Streaming analysis through the full study pipeline.

Pins the engine's two execution modes against each other:

* **live partials** — crawl workers fold observations as pages land and
  ship bundle partials home with their records, with or without a stage
  cache;
* **plain fold** — when the control crawl is served from the stage cache,
  the reduce stage ingests the cached dataset in one pass.

Both must produce the same report as the batch entry points (thin drivers
over the same reducers), and each must report its mode in the
``analysis.*`` counters.
"""

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.pipeline import run_study
from repro.crawler.supervisor import SupervisorConfig
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01, seed=606)


@pytest.fixture(scope="module")
def world():
    return build_world(SCALE)


def counter_delta(before, after):
    b = before["counters"]
    return {
        name: value - b.get(name, 0)
        for name, value in after["counters"].items()
        if value != b.get(name, 0)
    }


def run_with_counters(world, **kwargs):
    before = obs.METRICS.snapshot()
    result = run_study(
        world.network,
        world.all_targets,
        world.vendor_knowledge(),
        easylist_text=world.easylist_text,
        easyprivacy_text=world.easyprivacy_text,
        disconnect=world.disconnect,
        ubo_extra_text=world.ubo_extra_text,
        dns=world.network.dns,
        **kwargs,
    )
    return result, counter_delta(before, obs.METRICS.snapshot())


class TestStreamingEqualsBatch:
    def test_cache_on_and_off_both_fold_live(self, tmp_path):
        uncached_world, cached_world = build_world(SCALE), build_world(SCALE)
        uncached, uncached_counters = run_with_counters(
            uncached_world, include_adblock_crawls=False, jobs=2
        )
        cached, cached_counters = run_with_counters(
            cached_world,
            include_adblock_crawls=False,
            jobs=2,
            cache_dir=tmp_path / "cache",
        )
        assert uncached == cached
        # Either way the crawl workers folded partials and the reduce stage
        # popped the live bundle instead of re-ingesting the dataset.
        for counters in (uncached_counters, cached_counters):
            assert counters.get("analysis.fold.live", 0) == 1
            assert counters.get("analysis.merge.partials", 0) >= 1

    def test_cached_crawl_falls_back_to_a_plain_fold(self, world, tmp_path):
        cache_dir = tmp_path / "cache"
        first, _ = run_with_counters(
            world, include_adblock_crawls=False, cache_dir=cache_dir
        )
        (reduce_entry,) = cache_dir.glob("reduce.*.pkl")
        reduce_entry.unlink()

        again, counters = run_with_counters(
            world, include_adblock_crawls=False, cache_dir=cache_dir
        )
        assert again == first
        timings = {t.name: t for t in again.stage_timings}
        assert timings["crawl.control"].cached
        assert not timings["reduce"].cached
        # The crawl never ran, so there was no live bundle: the reduce stage
        # ingested every site of the cached dataset exactly once.
        assert "analysis.fold.live" not in counters
        assert counters.get("analysis.ingest.sites", 0) == len(world.all_targets)

    def test_supervised_streaming_study_equals_unsupervised(self, world):
        unsupervised = build_world(SCALE).run_full_study(include_adblock_crawls=False)
        before = obs.METRICS.snapshot()
        supervised = build_world(SCALE).run_full_study(
            include_adblock_crawls=False,
            jobs=2,
            supervisor=SupervisorConfig(liveness_deadline_s=30.0),
        )
        counters = counter_delta(before, obs.METRICS.snapshot())
        assert supervised == unsupervised
        # Supervised workers shipped analysis partials with their results.
        assert counters.get("analysis.merge.partials", 0) >= 1
        assert counters.get("analysis.fold.live", 0) >= 1
