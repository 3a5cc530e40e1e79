"""Shard planner and parallel crawl executor.

The paper's crawl covers 40k homepages; a strictly serial visit loop leaves
every core but one idle.  This module splits a target list into N
deterministic shards and crawls them with ``multiprocessing`` workers, each
with its own checkpoint file (reusing the resume machinery of
:mod:`repro.crawler.crawl` / :mod:`repro.crawler.storage`), then merges the
shard datasets back into one :class:`CrawlDataset` in the original target
order — so a parallel crawl is observation-for-observation identical to a
serial one.

Why this is safe: every page load runs in a fresh JS realm against a
stateless synthetic network, and fault injection
(:class:`~repro.net.faults.FaultInjector`) is keyed by ``(seed, url)``
rather than draw order.  Shard membership therefore cannot change what any
site observes, only *when* it is visited.

* :func:`plan_shards` — deterministic round-robin split (shard ``i`` takes
  ``targets[i::n]``), so top/tail populations stay balanced across shards;
* :func:`run_sharded_crawl` — the executor: serial in-process when
  ``jobs <= 1`` (progress callbacks supported), worker processes otherwise;
  with a ``supervisor`` config, the bare pool is replaced by the supervised
  executor of :mod:`repro.crawler.supervisor` (heartbeats, crash
  re-dispatch, poison-site quarantine, degraded-mode completion);
* :func:`merge_shard_datasets` — reassemble one dataset in target order;
  merged :class:`~repro.crawler.crawl.CrawlHealth` comes from the merged
  dataset's own ``health()``.

Both parallel executors speak one worker contract: the parent builds a
:class:`ShardJob` per shard (a frozen, picklable description of the crawl),
:func:`_crawl_shard_worker` turns it into a :class:`WorkerReport` (the
shard's observations as JSON records, its perf and obs deltas, and its
analysis partial), and :meth:`WorkerReport.absorb` folds the report back
into the parent exactly once.  The pool maps the worker body directly; the
supervisor wraps it with heartbeats and an atomically written result file.
A killed parallel crawl leaves per-shard ``.partial`` checkpoints behind,
and re-running with the same ``checkpoint_dir`` resumes every shard without
re-visiting persisted domains.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs, perf
from repro.browser.profile import BrowserProfile
from repro.js import compiler as js_compiler
from repro.core.records import SiteObservation
from repro.crawler.crawl import CrawlDataset, CrawlTarget, resume_crawl, run_crawl
from repro.crawler.resilience import PageBudget, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (supervisor imports us)
    from repro.core.reducers import AnalysisBundle, AnalysisFold, BundleSpec
    from repro.crawler.supervisor import SupervisorConfig

__all__ = [
    "ShardJob",
    "WorkerReport",
    "plan_shards",
    "shard_checkpoint_path",
    "merge_shard_datasets",
    "run_sharded_crawl",
]


@dataclass(frozen=True)
class ShardJob:
    """Everything a shard worker needs, shipped to it whole.

    :func:`run_sharded_crawl` builds one per crawl (``targets`` empty) and
    derives each shard's job with :meth:`for_shard`, so pooled and
    supervised workers receive identical jobs.  ``perf_config`` and
    ``obs_config`` default to the parent's active knobs, which every worker
    installs before crawling.
    """

    network: Any
    label: str
    targets: Tuple[CrawlTarget, ...] = ()
    profile: Optional[BrowserProfile] = None
    retry_policy: Optional[RetryPolicy] = None
    page_budget: Optional[PageBudget] = None
    inner_paths: tuple = ()
    checkpoint: Optional[Path] = None
    resume: bool = True
    shard_tid: str = "shard-0"
    #: Recipe for the shard's streaming-analysis partial (None: no fold).
    fold_spec: Optional["BundleSpec"] = None
    #: Script sources compiled into the worker's JS cache before its first
    #: page load (:func:`repro.js.compiler.prewarm`).
    js_prewarm: Optional[Tuple[str, ...]] = None
    perf_config: perf.RenderCacheConfig = field(default_factory=perf.current_config)
    obs_config: obs.ObsConfig = field(default_factory=obs.config)

    def for_shard(
        self, shard_tid: str, targets: Sequence[CrawlTarget], checkpoint: Optional[Path]
    ) -> "ShardJob":
        """This job narrowed to one shard's targets and checkpoint."""
        return replace(
            self, shard_tid=shard_tid, targets=tuple(targets), checkpoint=checkpoint
        )


@dataclass
class WorkerReport:
    """What one shard worker ships home.

    Observations cross the process boundary as their JSON records — the
    same schema the checkpoint files use — so the parent never depends on
    pickle compatibility of in-flight collector objects.  Perf counters and
    obs metrics are *deltas from the task start*: a pooled worker runs
    several shard tasks back to back, and cumulative snapshots would
    re-count every earlier task (exactly-once is what ``tests/obs`` asserts
    under ``jobs=4``).
    """

    records: List[Dict[str, Any]]
    perf_delta: Dict[str, Dict[str, float]]
    obs_payload: Dict[str, Any]
    partial: Optional["AnalysisBundle"] = None

    def absorb(self, label: str, fold: Optional["AnalysisFold"]) -> CrawlDataset:
        """Fold this report into the parent process (telemetry, analysis
        partial) and return the shard's dataset."""
        perf.PERF.merge(self.perf_delta)
        obs.ingest_worker(self.obs_payload)
        if fold is not None:
            fold.add_partial(self.partial)
        dataset = CrawlDataset(label=label)
        dataset.observations.extend(
            SiteObservation.from_json(record) for record in self.records
        )
        return dataset


def plan_shards(targets: Sequence[CrawlTarget], shards: int) -> List[List[CrawlTarget]]:
    """Split ``targets`` into at most ``shards`` deterministic round-robin shards.

    Shard ``i`` takes ``targets[i::shards]``: the split depends only on the
    target order and the shard count, never on timing, and interleaves the
    (rank-ordered) list so every shard sees a comparable top/tail mix.
    Empty shards are dropped, so fewer targets than shards is fine.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    planned = [list(targets[i::shards]) for i in range(shards)]
    return [shard for shard in planned if shard]


def shard_checkpoint_path(
    checkpoint_dir: Union[str, Path], label: str, index: int, total: int
) -> Path:
    """The checkpoint file for one shard of a sharded crawl."""
    return Path(checkpoint_dir) / f"{label}.shard-{index:04d}-of-{total:04d}.jsonl"


def merge_shard_datasets(
    label: str,
    targets: Sequence[CrawlTarget],
    shard_datasets: Sequence[CrawlDataset],
) -> CrawlDataset:
    """Merge shard outputs into one dataset ordered like ``targets``.

    The merged dataset is indistinguishable from a serial crawl of the same
    list: observations appear in target order, and crawl health (success
    counts, attempts histogram, failure table) is recomputed from the merged
    observations via :meth:`CrawlDataset.health`.

    Degenerate shards are first-class: an empty shard dataset contributes
    nothing but cannot perturb the global ordering, and an all-failed
    shard's failure rows are carried into the merge like any observation —
    they are the crawl-health accounting.  When the same domain appears in
    several shard datasets (a supervised re-dispatch overlapping a salvaged
    checkpoint), the successful observation wins regardless of shard order;
    among observations of equal success the later shard wins — so a
    salvaged failure row can never shadow a completed re-crawl.
    """
    by_domain = {}
    for shard in shard_datasets:
        for observation in shard.observations:
            current = by_domain.get(observation.domain)
            if current is None or observation.success or not current.success:
                by_domain[observation.domain] = observation
    merged = CrawlDataset(label=label)
    for target in targets:
        observation = by_domain.get(target.domain)
        if observation is not None:
            merged.observations.append(observation)
    return merged


def _crawl_shard_worker(
    job: ShardJob, progress: Optional[Callable[[int, SiteObservation], None]] = None
) -> WorkerReport:
    """Worker body: crawl one shard and report it (the one place a
    :class:`WorkerReport` is built).

    The pool dispatches this directly; the supervisor's entry point calls it
    with a heartbeat ``progress`` callback.  Must stay a module-level
    function (pickled by name by multiprocessing).
    """
    perf.configure(job.perf_config)
    obs.configure(job.obs_config)
    obs.set_worker_label(job.shard_tid)
    # Sampling profiler: (re)start to match the parent's knobs.  This is
    # fork-aware — a freshly forked worker inherits the parent's sample
    # table, which maybe_start clears so parent samples are never shipped
    # home twice (the parent drains its own table itself).
    obs.profiler.maybe_start(job.obs_config)
    perf_before = perf.PERF.snapshot()
    metrics_before = obs.METRICS.snapshot()
    # Warm the compiled-script cache before the first page load, so known
    # vendor scripts never pay a compile inside a page.  The compile misses
    # land after the baseline snapshot and therefore ship with this task's
    # delta; a pooled worker re-running the prewarm on its next task finds
    # the cache warm and records nothing.
    if job.js_prewarm:
        js_compiler.prewarm(job.js_prewarm)
    with obs.span("crawl.shard", shard=job.shard_tid, label=job.label, size=len(job.targets)):
        dataset = _crawl_one_shard(job, progress)
    records = [observation.to_json() for observation in dataset.observations]
    # Fold the shard's analysis partial *before* draining the obs delta, so
    # the parent receives the worker's ``analysis.*`` counters exactly once.
    partial = None
    if job.fold_spec is not None:
        partial = job.fold_spec.build()
        partial.ingest_many(dataset.observations)
    return WorkerReport(
        records=records,
        perf_delta=perf.diff_snapshots(perf_before, perf.PERF.snapshot()),
        obs_payload=obs.worker_payload(metrics_before),
        partial=partial,
    )


def _crawl_one_shard(
    job: ShardJob, progress: Optional[Callable[[int, SiteObservation], None]]
) -> CrawlDataset:
    options = dict(
        profile=job.profile,
        label=job.label,
        progress=progress,
        inner_paths=job.inner_paths,
        retry_policy=job.retry_policy,
        page_budget=job.page_budget,
    )
    if job.checkpoint is not None:
        return resume_crawl(
            job.network, job.targets, job.checkpoint, resume=job.resume, **options
        )
    return run_crawl(job.network, job.targets, **options)


def run_sharded_crawl(
    network,
    targets: Sequence[CrawlTarget],
    profile: Optional[BrowserProfile] = None,
    label: str = "control",
    jobs: int = 1,
    shards: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    page_budget: Optional[PageBudget] = None,
    inner_paths: tuple = (),
    resume: bool = True,
    progress: Optional[Callable[[int, SiteObservation], None]] = None,
    supervisor: Optional["SupervisorConfig"] = None,
    fold: Optional["AnalysisFold"] = None,
    js_prewarm: Optional[Sequence[str]] = None,
) -> CrawlDataset:
    """Crawl ``targets`` over ``jobs`` workers and merge the shard datasets.

    * ``jobs <= 1`` with no ``checkpoint_dir`` and a single shard falls back
      to a plain :func:`run_crawl` — byte-for-byte the serial path;
    * ``shards`` defaults to ``jobs`` (more shards than jobs is allowed:
      workers drain the shard queue);
    * with a ``checkpoint_dir``, every shard checkpoints to its own file and
      a killed run — serial or parallel — resumes from the per-shard
      partials, re-visiting nothing that was persisted;
    * ``progress`` is supported on the serial path only (callbacks cannot
      cross the process boundary);
    * with a ``supervisor`` config, the shards run under the supervisor of
      :mod:`repro.crawler.supervisor`: heartbeat-monitored workers, crash
      re-dispatch from the per-shard checkpoints, and bisecting poison-site
      quarantine.  A no-fault supervised run produces a dataset identical
      to this unsupervised path.
    * with a ``fold`` (an :class:`~repro.core.reducers.AnalysisFold`), each
      shard's observations are also folded into a streaming analysis partial
      as the crawl proceeds — in the worker process for parallel shards, so
      partials ride home with the shard records and the parent never
      re-ingests the dataset.  Call ``fold.merge(dataset)`` afterwards for
      the combined bundle.
    * ``js_prewarm`` is a list of script sources each worker compiles into
      the process-wide compiled-script cache before its first page load
      (:func:`repro.js.compiler.prewarm`); a no-op when ``REPRO_JS_COMPILE``
      disables compiled execution.  Sources arrive as plain data, so the
      crawler stays independent of whatever generator produced them.

    The merged dataset equals a serial crawl of the same targets: identical
    observations in identical order (see ``tests/crawler/test_shards.py``).
    """
    jobs = max(1, jobs)
    planned = plan_shards(targets, max(1, shards if shards is not None else jobs))
    job = ShardJob(
        network=network,
        label=label,
        profile=profile,
        retry_policy=retry_policy,
        page_budget=page_budget,
        inner_paths=inner_paths,
        resume=resume,
        fold_spec=fold.spec if fold is not None else None,
        js_prewarm=tuple(js_prewarm) if js_prewarm else None,
    )
    if supervisor is not None:
        # Local import: supervisor builds on this module's planner/merger.
        from repro.crawler.supervisor import supervise_shards

        return supervise_shards(job, targets, planned, jobs, checkpoint_dir, supervisor, fold)

    if len(planned) == 1 and jobs == 1 and checkpoint_dir is None:
        if job.js_prewarm:
            js_compiler.prewarm(job.js_prewarm)
        dataset = _crawl_one_shard(job.for_shard("shard-0", targets, None), progress)
        if fold is not None:
            fold.fold_dataset(dataset)
        return dataset

    checkpoints: List[Optional[Path]] = [None] * len(planned)
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        checkpoints = [
            shard_checkpoint_path(directory, label, index, len(planned))
            for index in range(len(planned))
        ]
    shard_jobs = [
        job.for_shard(f"shard-{index}", shard, checkpoints[index])
        for index, shard in enumerate(planned)
    ]

    shard_datasets: List[CrawlDataset] = []
    if jobs == 1:
        if job.js_prewarm:
            js_compiler.prewarm(job.js_prewarm)
        for shard_job in shard_jobs:
            with obs.span(
                "crawl.shard", shard=shard_job.shard_tid, label=label,
                size=len(shard_job.targets),
            ):
                shard_dataset = _crawl_one_shard(shard_job, progress)
                if fold is not None:
                    fold.fold_dataset(shard_dataset)
                shard_datasets.append(shard_dataset)
    else:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(planned)))
        try:
            reports = list(pool.map(_crawl_shard_worker, shard_jobs))
        except BaseException:
            # Ctrl-C (or any abort) must not leak live workers: cancel the
            # queued shards, skip the blocking result wait, and re-raise.
            # Per-shard .partial checkpoints survive for a later resume.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown()
        shard_datasets = [report.absorb(label, fold) for report in reports]

    return merge_shard_datasets(label, targets, shard_datasets)
