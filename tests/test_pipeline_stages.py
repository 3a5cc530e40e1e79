"""End-to-end stage pipeline: serial/parallel/cached equivalence."""

import pytest

from repro import obs
from repro.config import StudyScale
from repro.core.records import SiteObservation
from repro.core.stages import StudyContext, build_study_graph
from repro.core.stages.study import StaticStage
from repro.crawler.crawl import CrawlDataset
from repro.obs.config import ObsConfig
from repro.webgen import build_world

SCALE = StudyScale(fraction=0.01, seed=909)


def fresh_world():
    return build_world(SCALE)


@pytest.fixture(scope="module")
def serial_result():
    return fresh_world().run_full_study()


class TestSerialParallelCachedEquivalence:
    def test_parallel_cached_run_equals_serial_uncached(self, serial_result, tmp_path):
        """jobs=4 + cold cache: same StudyResult as the serial monolith path."""
        parallel = fresh_world().run_full_study(jobs=4, cache_dir=tmp_path / "cache")
        assert parallel == serial_result
        assert all(not t.cached for t in parallel.stage_timings)

    def test_warm_cache_runs_zero_page_loads(self, serial_result, tmp_path):
        cache_dir = tmp_path / "cache"
        fresh_world().run_full_study(jobs=2, cache_dir=cache_dir)

        world = fresh_world()
        served_before = world.network.requests_served
        warm = world.run_full_study(jobs=2, cache_dir=cache_dir)
        assert world.network.requests_served == served_before
        assert all(t.cached for t in warm.stage_timings)
        assert warm == serial_result

    def test_stage_timings_are_recorded_but_not_compared(self, serial_result):
        timings = serial_result.stage_timings
        assert timings, "a graph run must record per-stage timings"
        names = [t.name for t in timings]
        for expected in ("crawl.control", "detect", "cluster", "prevalence",
                         "reach", "signatures", "attribution", "serving_context"):
            assert expected in names
        assert all(t.seconds >= 0 for t in timings)

    def test_optional_stages_follow_monolith_conditionals(self):
        result = fresh_world().run_full_study(include_adblock_crawls=False)
        names = {t.name for t in result.stage_timings}
        assert "crawl.abp" not in names and "adblock_rows" not in names
        assert result.adblock_rows == ()
        assert result.blocklist_context is not None  # world ships all lists


class TestStageSelection:
    def test_stage_subset_runs_only_dependency_closure(self):
        result = fresh_world().run_full_study(stages=["prevalence"])
        names = {t.name for t in result.stage_timings}
        assert names == {"crawl.control", "reduce", "prevalence"}
        assert result.prevalence is not None
        assert result.reach is None
        assert result.signatures == []


class TestCacheInvalidation:
    def _ctx(self, world, **overrides):
        kwargs = dict(
            network=world.network,
            targets=world.all_targets,
            vendor_knowledge=world.vendor_knowledge(),
            easylist_text=world.easylist_text,
            easyprivacy_text=world.easyprivacy_text,
            disconnect=world.disconnect,
            ubo_extra_text=world.ubo_extra_text,
            dns=world.network.dns,
        )
        kwargs.update(overrides)
        return StudyContext(**kwargs)

    def _keys(self, ctx):
        graph = build_study_graph(ctx)
        keys = {}
        for stage in graph.order:
            keys[stage.name] = stage.cache_key(ctx, keys)
        return keys

    def test_jobs_do_not_change_any_cache_key(self):
        world = build_world(SCALE)
        k1 = self._keys(self._ctx(world, jobs=1))
        k4 = self._keys(self._ctx(world, jobs=4))
        assert k1 == k4

    def test_blocklist_change_invalidates_only_dependent_stages(self):
        world = build_world(SCALE)
        base = self._keys(self._ctx(world))
        changed = self._keys(
            self._ctx(world, easylist_text=world.easylist_text + "\n||extra-rule.example^")
        )
        # The control crawl never sees the blocklists...
        assert base["crawl.control"] == changed["crawl.control"]
        assert base["detect"] == changed["detect"]
        assert base["cluster"] == changed["cluster"]
        # ...but the ad-blocker crawls and their comparison do.
        assert base["crawl.abp"] != changed["crawl.abp"]
        assert base["crawl.ubo"] != changed["crawl.ubo"]
        assert base["adblock_rows"] != changed["adblock_rows"]

    def test_network_content_change_invalidates_crawls(self):
        world = build_world(SCALE)
        base = self._keys(self._ctx(world))
        any_host = next(iter(world.network.servers()))
        world.network.server_for(any_host).add_resource("/new", "<html>changed</html>")
        changed = self._keys(self._ctx(world))
        assert base["crawl.control"] != changed["crawl.control"]
        assert base["detect"] != changed["detect"]  # chained invalidation


class TestSurrogatePreviews:
    def test_emoji_surrogate_pairs_normalized_at_recording(self):
        """UTF-16 surrogate pairs in JS strings must survive JSON round-trips,
        or cached/checkpointed datasets would differ from in-memory ones."""
        import json

        from repro.crawler.crawl import CrawlTarget, run_crawl
        from repro.core.records import SiteObservation
        from repro.net.server import Network

        network = Network()
        network.server_for("emoji.example").add_resource(
            "/",
            "<html><script>"
            "var c = document.createElement('canvas');"
            "c.width = 200; c.height = 40;"
            "var g = c.getContext('2d');"
            "g.fillText('\\ud83d\\ude03 probe', 2, 20);"
            "window.__x = c.toDataURL();"
            "</script></html>",
        )
        dataset = run_crawl(network, [CrawlTarget("emoji.example", 1, "top")])
        obs = dataset.observations[0]
        roundtripped = SiteObservation.from_json(json.loads(json.dumps(obs.to_json())))
        assert roundtripped == obs
        texts = [
            a
            for call in obs.calls
            if call.method == "fillText"
            for a in call.args
            if isinstance(a, str)
        ]
        assert any("\N{SMILING FACE WITH OPEN MOUTH}" in t for t in texts)


class _UnreachableNetwork:
    """A network whose every fetch raises (a probe's worst case)."""

    def fetch(self, request):
        raise ConnectionResetError(str(request.url))


class TestStaticProbeFailures:
    @pytest.fixture
    def traced(self):
        previous = obs.config()
        obs.configure(ObsConfig(trace=True))
        obs.reset()
        yield
        obs.reset()
        obs.configure(previous)

    def test_failing_probe_is_counted_and_traced_not_raised(self, traced):
        control = CrawlDataset(label="control")
        control.observations.append(
            SiteObservation(
                domain="poison.example",
                rank=1,
                population="top",
                success=False,
                failure_reason="quarantined:exit:-9",
            )
        )
        ctx = StudyContext(
            network=_UnreachableNetwork(), targets=(), vendor_knowledge=()
        )
        report = StaticStage().run(ctx, {"crawl.control": control, "detect": {}})

        assert report is not None
        assert obs.METRICS.counter("static.probe_failures") == 1
        assert obs.METRICS.counter("static.recoveries") == 0
        events = [
            record["attrs"]
            for record in obs.TRACE.records()
            if record["t"] == "event" and record["name"] == "static.probe_failure"
        ]
        assert events == [{"domain": "poison.example", "error": "ConnectionResetError"}]

