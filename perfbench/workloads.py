"""The three reference workloads: what each runs, and how its output is checked.

Each workload is a batch job, one client in a closed loop over a fixed
input: a world generated from the seed, then one crawl or one study over
it, mirroring the default CLI invocations:

* ``crawl-serial``  = ``python -m repro.crawler --scale 0.1``
* ``study-serial``  = the study ``python -m repro.experiments --scale 0.05``
  runs, without its cross-machine check (one more control crawl on a
  second device)
* ``study-sharded`` = the same study with ``--jobs 2`` and a cold ``--cache-dir``

The program only ever sees the generated world; the ground truth the checks
compare against (planted fingerprinters, planted dead sites) never reaches
the measurement pipeline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Set

#: Every stage a full study (control + two ad-blocker crawls, no
#: cross-machine validation) reports in ``StudyResult.stage_timings``.
STUDY_STAGES = (
    "crawl.control",
    "crawl.abp",
    "crawl.ubo",
    "reduce",
    "detect",
    "cluster",
    "prevalence",
    "reach",
    "signatures",
    "attribution",
    "blocklist_context",
    "serving_context",
    "adblock_rows",
    "static",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``StudyScale.fraction``: 0.1 is 2000 top + 2000 tail sites.
    scale: float
    #: Crawls of the full target list per batch.
    crawls: int
    #: Crawl worker processes.
    jobs: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The crawl hot path (js, canvas, browser) and checkpoint I/O; the
        # bypass case for js.static, blocklists, shards and the stage cache.
        Workload("crawl-serial", scale=0.1, crawls=1, jobs=1),
        # Ad-block matching and the static stage in one process, where traced
        # spans see both; the ad-block crawls reuse warm JS and render caches.
        Workload("study-serial", scale=0.05, crawls=3, jobs=1),
        # Shard executor, worker-shipped counters, per-shard checkpoints and
        # stage-cache writes; the same caches start cold in every worker.
        Workload("study-sharded", scale=0.05, crawls=3, jobs=2),
    )
}


@dataclass
class Outcome:
    """What a batch produced, in the form the checks and metrics read."""

    #: The control crawl (the only crawl of ``crawl-serial``).
    control: Any
    #: Site visits attempted over every crawl of the batch, and failed ones.
    visits: int
    failed_visits: int
    study: Any = None
    saved_paths: tuple = ()

    def fp_sites(self) -> Dict[str, Set[str]]:
        """population -> sites the pipeline counts as fingerprinting."""
        if self.study is not None:
            return self.study.fp_sites
        # A bare crawl leaves detection to `python -m repro.analysis`; the
        # check runs the same detector after timing stops.
        from repro.core.detection import FingerprintDetector

        outcomes = FingerprintDetector().detect_all(self.control.successful())
        populations = self.control.populations()
        out: Dict[str, Set[str]] = {"top": set(), "tail": set()}
        for domain, outcome in outcomes.items():
            if outcome.is_fingerprinting_site:
                out[populations[domain]].add(domain)
        return out


class SiteLatencies:
    """Wall time of every site visit (``collect_with_retries`` call).

    The per-site timer wraps the crawl loop's one call per site, which every
    crawl makes: ``resume_crawl``, the study's serial crawls and the shard
    workers alike.  Shard workers are forked from this process and inherit
    the timer; they append their samples to one file per worker under
    ``spill_dir``, one line per visit, flushed per line because a pool
    worker leaves through ``os._exit``.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.samples: List[float] = []
        self.spill_dir = spill_dir
        self._pid = os.getpid()
        self._spill = None
        self._spill_pid = None

    def install(self) -> None:
        from repro.crawler import crawl

        original = crawl.collect_with_retries
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self._record(clock() - started)

        crawl.collect_with_retries = timed

    def _record(self, seconds: float) -> None:
        pid = os.getpid()
        if pid == self._pid:
            self.samples.append(seconds)
            return
        if self._spill_pid != pid:
            self._spill = open(self.spill_dir / f"latency-{pid}.txt", "a", buffering=1)
            self._spill_pid = pid
        self._spill.write(f"{seconds!r}\n")

    def collect(self) -> List[float]:
        out = list(self.samples)
        for path in sorted(self.spill_dir.glob("latency-*.txt")):
            out.extend(float(line) for line in path.read_text().split())
        return out


def run_crawl_serial(world, workdir: Path) -> Outcome:
    """``python -m repro.crawler --scale 0.1``: checkpointed control crawl,
    then ``save_dataset``."""
    from repro.browser.profile import BrowserProfile
    from repro.canvas.device import INTEL_UBUNTU
    from repro.crawler.crawl import resume_crawl
    from repro.crawler.resilience import PageBudget, RetryPolicy
    from repro.crawler.storage import save_dataset

    checkpointed = workdir / "crawl.jsonl.gz"
    saved = workdir / "saved.jsonl.gz"
    dataset = resume_crawl(
        world.network,
        world.all_targets,
        checkpointed,
        profile=BrowserProfile(device=INTEL_UBUNTU),
        label=INTEL_UBUNTU.name,
        retry_policy=RetryPolicy(max_attempts=3),
        page_budget=PageBudget(max_page_ms=90_000.0),
        resume=False,
    )
    save_dataset(dataset, saved)
    health = dataset.health()
    return Outcome(
        control=dataset,
        visits=health.total,
        failed_visits=health.total - health.successes,
        saved_paths=(checkpointed, saved),
    )


def run_study(world, workdir: Path, jobs: int) -> Outcome:
    """The full study: control + Adblock Plus + uBlock Origin crawls and every
    analysis stage; sharded runs get a fresh stage cache."""
    cache_dir = workdir / "stage-cache" if jobs > 1 else None
    result = world.run_full_study(
        include_adblock_crawls=True,
        include_cross_machine=False,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    counters = result.metrics.get("counters", {})
    visits = sum(v for k, v in counters.items() if k.startswith("crawler.pages["))
    ok = sum(v for k, v in counters.items() if k.startswith("crawler.pages_ok["))
    return Outcome(
        control=result.control,
        visits=int(visits),
        failed_visits=int(visits - ok),
        study=result,
    )


def run_batch(workload: Workload, world, workdir: Path) -> Outcome:
    if workload.name == "crawl-serial":
        return run_crawl_serial(world, workdir)
    return run_study(world, workdir, workload.jobs)


def check(workload: Workload, world, outcome: Outcome) -> List[str]:
    """Compare a batch's output with the generator's ground truth; returns
    one message per failed check (empty when the output is correct)."""
    from repro.crawler.storage import load_dataset

    problems: List[str] = []
    targets = world.all_targets
    if len(outcome.control.observations) != len(targets):
        problems.append(
            f"control crawl has {len(outcome.control.observations)} sites, "
            f"expected {len(targets)}"
        )
    expected_visits = len(targets) * workload.crawls
    if outcome.visits != expected_visits:
        problems.append(f"{outcome.visits} site visits, expected {expected_visits}")
    fp_sites = outcome.fp_sites()
    for population in ("top", "tail"):
        truth = set(world.ground_truth_fp_sites(population))
        found = set(fp_sites.get(population, ()))
        if found != truth:
            problems.append(
                f"{population}: {len(found - truth)} false and "
                f"{len(truth - found)} missed fingerprinting sites"
            )
    planted = {d for d, plan in world.plans.items() if plan.failure is not None}
    failed = {o.domain for o in outcome.control.observations if not o.success}
    if failed != planted:
        problems.append(
            f"control crawl failed {len(failed)} sites; the generator planted "
            f"{len(planted)} dead sites ({len(failed ^ planted)} differ)"
        )
    for path in outcome.saved_paths:
        if load_dataset(path) != outcome.control:
            problems.append(f"{path.name} does not reload equal to the crawled dataset")
    return problems

