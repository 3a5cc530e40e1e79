"""Shard supervisor: heartbeats, crash re-dispatch, poison-site quarantine.

PR 1 made single *pages* fault-tolerant (retry/backoff, watchdog,
checkpoint/resume) and the sharded executor made crawls parallel — but a
bare :class:`~concurrent.futures.ProcessPoolExecutor` still dies wholesale
when one shard *worker* is OOM-killed, segfaults, or wedges: the pool
raises ``BrokenProcessPool`` and every other shard aborts with it.  At the
paper's 40k-site scale one poison page can therefore sink the whole study.

This module replaces the pool with **supervised worker processes**:

* every worker writes a *heartbeat file* (task start + after every page);
* the supervisor polls worker liveness and classifies each worker through a
  small state machine::

      healthy ──(no beat for deadline/2)──> suspect
      suspect ──(beat arrives)───────────> healthy
      healthy/suspect ──(process exit ≠ 0)─────────────┐
      healthy/suspect ──(no beat for deadline)──kill──>│ dead
      healthy/suspect ──(shard wall budget spent)─kill>│
                                                       ▼
                                        respawn (remainder, same checkpoint)
                                        or — after ``max_shard_crashes`` —
                                        bisect / quarantine

* a dead worker's shard is **re-dispatched**: the remainder is computed from
  the shard's checkpoint (everything flushed before the crash survives), so
  each site is crawled exactly once across any number of respawns;
* a shard that kills its worker ``max_shard_crashes`` times is **bisected**:
  its unfinished remainder is split in two sub-shards, recursively, until
  the poison *site* is isolated in a single-site shard — which is then
  **quarantined**: recorded in ``quarantine.jsonl`` (reason, crash count,
  last signal) and represented in the merged dataset as a failed
  observation with reason ``quarantined:<signal>``;
* the study then completes in **degraded mode**: every planned site is
  accounted for as crawled, failed, or quarantined — prevalence and reach
  are computed over an explicitly-accounted site set, never a silently
  truncated one.

A no-fault supervised crawl is byte-identical to the unsupervised sharded
path (``tests/crawler/test_supervisor.py`` pins this): supervision changes
*when and by whom* sites are visited, never what any site observes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro import obs
from repro.browser.profile import BrowserProfile
from repro.core.records import SiteObservation
from repro.crawler.crawl import (
    QUARANTINE_PREFIX,
    CrawlDataset,
    CrawlTarget,
)
from repro.crawler.resilience import PageBudget, RetryPolicy
from repro.crawler.shards import (
    ShardJob,
    WorkerReport,
    _crawl_shard_worker,
    merge_shard_datasets,
    run_sharded_crawl,
    shard_checkpoint_path,
)
from repro.crawler.storage import load_checkpoint

__all__ = [
    "SupervisorConfig",
    "SupervisorError",
    "QuarantineRecord",
    "QuarantineLedger",
    "quarantine_ledger_path",
    "run_supervised_crawl",
    "supervise_shards",
]


class SupervisorError(RuntimeError):
    """The supervisor's global respawn budget was exhausted (runaway crashes)."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the shard supervisor.

    Defaults are sized for real crawls (pages take seconds, shards take
    minutes); tests shrink the deadlines to keep chaos runs fast.
    """

    #: Max silence (no heartbeat, s) before a live worker is presumed hung
    #: and killed.  Workers beat at task start and after every page, so this
    #: bounds the time one page may take — align it with the page watchdog.
    liveness_deadline_s: float = 60.0
    #: Optional wall-clock ceiling for one shard attempt; ``None`` disables.
    #: A worker that outlives it is killed and handled like a crash.
    shard_wall_budget_s: Optional[float] = None
    #: Supervisor poll cadence (s).
    poll_interval_s: float = 0.05
    #: Worker deaths one shard tolerates before its remainder is bisected.
    #: Sub-shards inherit ``max_shard_crashes - 1`` crashes: once a shard is
    #: marked poisonous, one more death per level is enough to keep
    #: splitting, so isolation costs ~``max_shard_crashes + log2(n)`` deaths.
    max_shard_crashes: int = 2
    #: Global circuit breaker: total respawns across the whole crawl before
    #: the supervisor gives up with :class:`SupervisorError` (a run where
    #: *every* site is poison should fail loudly, not quarantine the web).
    max_total_respawns: int = 128
    #: Grace (s) between SIGTERM and SIGKILL when putting down a worker.
    term_grace_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_shard_crashes < 1:
            raise ValueError(
                f"max_shard_crashes must be >= 1, got {self.max_shard_crashes}"
            )
        if self.liveness_deadline_s <= 0:
            raise ValueError(
                f"liveness_deadline_s must be > 0, got {self.liveness_deadline_s}"
            )


@dataclass(frozen=True)
class QuarantineRecord:
    """One quarantined site, as persisted to the ledger."""

    domain: str
    rank: int
    population: str
    label: str
    #: Why the site was quarantined (currently always ``worker-killed``).
    reason: str
    #: Worker deaths attributed to the site's shard lineage.
    attempts: int
    #: The last death signal observed (``exit:<code>``, ``heartbeat-timeout``,
    #: ``wall-budget``).
    last_signal: str
    #: Lineage id of the single-site shard that isolated it (``0003.a.b``).
    shard: str
    ts: float = 0.0

    @property
    def failure_reason(self) -> str:
        """The dataset-side failure reason carrying this quarantine."""
        return f"{QUARANTINE_PREFIX}{self.last_signal}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "rank": self.rank,
            "population": self.population,
            "label": self.label,
            "reason": self.reason,
            "attempts": self.attempts,
            "last_signal": self.last_signal,
            "shard": self.shard,
            "ts": self.ts,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "QuarantineRecord":
        return cls(
            domain=data["domain"],
            rank=data["rank"],
            population=data["population"],
            label=data.get("label", ""),
            reason=data["reason"],
            attempts=data["attempts"],
            last_signal=data["last_signal"],
            shard=data.get("shard", ""),
            ts=data.get("ts", 0.0),
        )


def quarantine_ledger_path(checkpoint_dir: Union[str, Path]) -> Path:
    """The quarantine ledger for a (supervised) crawl's checkpoint dir."""
    return Path(checkpoint_dir) / "quarantine.jsonl"


class QuarantineLedger:
    """Append-only JSONL ledger of quarantined sites.

    Flushed per record, like the crawl checkpoints: a supervisor killed
    mid-run leaves a loadable ledger behind.  Records also always travel in
    the merged dataset itself (as ``quarantined:*`` failure rows), so the
    ledger is the *audit trail* — the dataset remains self-accounting.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.records: List[QuarantineRecord] = []

    def append(self, record: QuarantineRecord) -> None:
        self.records.append(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record.to_json(), separators=(",", ":")) + "\n")
            fh.flush()

    @classmethod
    def load(cls, path: Union[str, Path]) -> "QuarantineLedger":
        ledger = cls(path)
        if ledger.path.exists():
            with open(ledger.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        ledger.records.append(QuarantineRecord.from_json(json.loads(line)))
        return ledger


# -- worker side --------------------------------------------------------------------


def _write_heartbeat(path: Path, domain: str, index: int) -> None:
    """Atomically refresh the worker's heartbeat file.

    The parent only needs the mtime for liveness; the payload (current
    domain + index) is for post-mortem debugging of a killed worker.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps({"ts": time.time(), "domain": domain, "index": index}),
        encoding="utf-8",
    )
    os.replace(tmp, path)


def _supervised_shard_worker(job: ShardJob, heartbeat_path: Path, result_path: Path) -> None:
    """Supervised entry point (module-level: pickled by name across the spawn).

    Runs the shared shard body of :mod:`repro.crawler.shards`, beating a
    heartbeat at task start and after every page, and ships the
    :class:`WorkerReport` through an atomically promoted pickle file instead
    of the pool's return channel, so a crash mid-result can never hand the
    parent a torn report.
    """
    _write_heartbeat(heartbeat_path, domain="", index=-1)

    def beat(index: int, observation: SiteObservation) -> None:
        _write_heartbeat(heartbeat_path, domain=observation.domain, index=index)

    report = _crawl_shard_worker(job, progress=beat)
    tmp = result_path.with_name(result_path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(report, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, result_path)


# -- supervisor side ----------------------------------------------------------------


@dataclass
class _ShardTask:
    """One dispatchable unit of crawl work (a shard or a bisected sub-shard)."""

    shard_id: str
    targets: List[CrawlTarget]
    checkpoint: Path
    crashes: int = 0
    #: Domains whose page metrics the supervisor already credited
    #: parent-side after a worker death (see ``_credit_orphan_metrics``) —
    #: a task's checkpoint survives respawns, so a second death must not
    #: re-count the rows credited at the first.
    credited: Set[str] = field(default_factory=set)


class _WorkerHandle:
    """A live worker process plus its liveness bookkeeping."""

    def __init__(self, task: _ShardTask, process, heartbeat_path: Path,
                 result_path: Path) -> None:
        self.task = task
        self.process = process
        self.heartbeat_path = heartbeat_path
        self.result_path = result_path
        self.spawned_at = time.time()
        self.state = "healthy"  # healthy | suspect

    def last_sign_of_life(self) -> float:
        try:
            beat = os.stat(self.heartbeat_path).st_mtime
        except OSError:
            beat = 0.0
        return max(self.spawned_at, beat)


def _mp_context():
    """Fork where available (cheap, inherits loaded modules); default otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _credit_observation_metrics(observation: SiteObservation, label: str) -> None:
    """Parent-side crawler counters for one observation whose worker never
    shipped its metrics delta (persisted before a crash, or synthesized by
    quarantine).

    Mirrors :func:`repro.crawler.resilience._record_page_metrics` counter
    for counter — ``repro.obs.inspect.crawl_totals`` must keep agreeing
    with ``CrawlDataset.health()`` exactly — but records no latency
    histogram and no events: the page was never timed in this process.
    """
    attempts = observation.attempts
    obs.inc(obs._labeled("crawler.pages", label))
    obs.inc(obs._labeled("crawler.attempts_total", label), attempts)
    obs.inc(f"crawler.attempts[{label}|{attempts}]")
    if attempts > 1:
        obs.inc(obs._labeled("crawler.retries", label), attempts - 1)
    if observation.success:
        obs.inc(obs._labeled("crawler.pages_ok", label))
        if observation.recovered:
            obs.inc(obs._labeled("crawler.recovered", label))
    elif observation.failure_reason:
        obs.inc(f"crawler.failures[{label}|{observation.failure_reason}]")
        if observation.failure_reason.startswith("timeout"):
            obs.inc(obs._labeled("crawler.watchdog", label))
    if observation.inner_page_failures:
        obs.inc(
            obs._labeled("crawler.inner_page_failures", label),
            observation.inner_page_failures,
        )


class _Supervisor:
    """State for one supervised crawl: task queue, live workers, salvage pool."""

    def __init__(self, job: ShardJob, config: SupervisorConfig, scratch: Path,
                 ledger: QuarantineLedger, jobs: int, fold=None) -> None:
        #: The crawl's job template; each spawn derives its shard's job.
        self.job = job
        self.label = job.label
        self.config = config
        self.scratch = scratch
        self.ledger = ledger
        self.jobs = max(1, jobs)
        self.mp = _mp_context()
        self.pending: deque = deque()
        self.active: Dict[str, _WorkerHandle] = {}
        self.datasets: List[CrawlDataset] = []
        #: Observations salvaged from the checkpoints of abandoned (bisected
        #: or exhausted) tasks, plus the quarantine failure rows.
        self.salvaged: List[SiteObservation] = []
        self.quarantined: List[QuarantineRecord] = []
        #: Optional streaming AnalysisFold: workers fold shard partials and
        #: ship them home; salvaged observations are folded parent-side.
        self.fold = fold
        self.respawns = 0
        self.spawned = 0

    # -- lifecycle ------------------------------------------------------------

    def run(self, tasks: Sequence[_ShardTask]) -> None:
        self.pending.extend(tasks)
        try:
            while self.pending or self.active:
                while self.pending and len(self.active) < self.jobs:
                    self._spawn(self.pending.popleft())
                if not self._poll_once():
                    time.sleep(self.config.poll_interval_s)
        except BaseException:
            # Respawn-budget blowout or a KeyboardInterrupt: put every live
            # worker down before propagating — never leak crawling processes.
            for handle in self.active.values():
                self._kill(handle.process)
            self.active.clear()
            raise

    def _spawn(self, task: _ShardTask) -> None:
        attempt = f"{task.shard_id}-try{task.crashes}"
        heartbeat = self.scratch / f"heartbeat-{attempt}.json"
        result = self.scratch / f"result-{attempt}.pkl"
        job = self.job.for_shard(f"shard-{task.shard_id}", task.targets, task.checkpoint)
        process = self.mp.Process(
            target=_supervised_shard_worker,
            args=(job, heartbeat, result),
            daemon=True,
        )
        process.start()
        self.spawned += 1
        obs.inc("supervisor.workers_spawned")
        self.active[task.shard_id] = _WorkerHandle(task, process, heartbeat, result)

    def _poll_once(self) -> bool:
        """One supervision sweep; True when any worker settled (skip sleep)."""
        progressed = False
        for shard_id in list(self.active):
            handle = self.active[shard_id]
            process = handle.process
            if not process.is_alive():
                process.join()
                del self.active[shard_id]
                progressed = True
                if process.exitcode == 0 and handle.result_path.exists():
                    self._collect(handle)
                else:
                    self._on_worker_death(handle.task, f"exit:{process.exitcode}")
                continue
            now = time.time()
            silent_for = now - handle.last_sign_of_life()
            budget = self.config.shard_wall_budget_s
            if silent_for > self.config.liveness_deadline_s:
                self._kill(process)
                del self.active[shard_id]
                obs.inc("supervisor.heartbeat_timeouts")
                self._on_worker_death(handle.task, "heartbeat-timeout")
                progressed = True
            elif budget is not None and now - handle.spawned_at > budget:
                self._kill(process)
                del self.active[shard_id]
                obs.inc("supervisor.wall_budget_kills")
                self._on_worker_death(handle.task, "wall-budget")
                progressed = True
            elif silent_for > self.config.liveness_deadline_s / 2:
                if handle.state == "healthy":
                    handle.state = "suspect"
                    obs.inc("supervisor.suspects")
                    obs.event(
                        "crawl.worker.suspect",
                        sample_key=shard_id,
                        shard=shard_id,
                        silent_for_s=round(silent_for, 3),
                    )
            elif handle.state == "suspect":
                handle.state = "healthy"  # a beat arrived after all
        return progressed

    def _kill(self, process) -> None:
        """SIGTERM, short grace, then SIGKILL — never wait on a wedged worker."""
        process.terminate()
        process.join(self.config.term_grace_s)
        if process.is_alive():
            process.kill()
            process.join()

    def _collect(self, handle: _WorkerHandle) -> None:
        with open(handle.result_path, "rb") as fh:
            report: WorkerReport = pickle.load(fh)
        handle.result_path.unlink(missing_ok=True)
        self.datasets.append(report.absorb(self.label, self.fold))

    # -- failure handling -----------------------------------------------------

    def _on_worker_death(self, task: _ShardTask, signal: str) -> None:
        self.respawns += 1
        if self.respawns > self.config.max_total_respawns:
            raise SupervisorError(
                f"supervisor exhausted its respawn budget "
                f"({self.config.max_total_respawns}) — last death: shard "
                f"{task.shard_id} ({signal}); the crawl environment is "
                f"failing faster than quarantine can converge"
            )
        task.crashes += 1
        obs.inc("supervisor.respawns")
        obs.inc(f"supervisor.deaths[{signal}]")
        obs.event(
            "crawl.worker.respawn",
            sample_key=task.shard_id,
            shard=task.shard_id,
            signal=signal,
            crashes=task.crashes,
            remaining=len(task.targets),
        )
        persisted = load_checkpoint(task.checkpoint)
        self._credit_orphan_metrics(task, persisted)
        done = {o.domain for o in persisted.observations} if persisted else set()
        remainder = [t for t in task.targets if t.domain not in done]
        if not remainder:
            # Died after the last page but before the result was promoted:
            # the checkpoint has every observation — salvage it directly.
            self.salvaged.extend(persisted.observations)
            return
        if task.crashes < self.config.max_shard_crashes:
            # Plain respawn: same checkpoint, same target list — the resume
            # machinery skips persisted domains, so the remainder is crawled
            # exactly once and the completed dataset carries everything.
            self.pending.append(task)
            return
        # Poisonous shard: salvage what it persisted, then bisect or
        # quarantine the remainder.
        if persisted is not None:
            self.salvaged.extend(persisted.observations)
        if len(remainder) == 1:
            self._quarantine(task, remainder[0], signal)
            return
        obs.inc("supervisor.splits")
        mid = (len(remainder) + 1) // 2
        for suffix, part in (("a", remainder[:mid]), ("b", remainder[mid:])):
            sub_id = f"{task.shard_id}.{suffix}"
            self.pending.append(
                _ShardTask(
                    shard_id=sub_id,
                    targets=part,
                    checkpoint=self.scratch / f"{self.label}.shard-{sub_id}.jsonl",
                    # Sub-shards are already suspects: one more death splits
                    # (or quarantines) them, keeping isolation logarithmic.
                    crashes=self.config.max_shard_crashes - 1,
                )
            )

    def _credit_orphan_metrics(self, task: _ShardTask, persisted) -> None:
        """Count checkpoint rows whose worker died before shipping metrics.

        A dead worker's perf/metrics payload dies with it, but the
        observations it persisted survive (they are salvaged, or skipped by
        the respawn's resume) — so without this, ``repro.obs summary``
        would under-count exactly the pages that survived a crash.  The
        per-task ``credited`` set keeps the crediting exactly-once across
        repeat deaths of the same task, mirroring the delta semantics of
        the worker payload channel.
        """
        if persisted is None:
            return
        for observation in persisted.observations:
            if observation.domain in task.credited:
                continue
            task.credited.add(observation.domain)
            _credit_observation_metrics(observation, self.label)

    def _quarantine(self, task: _ShardTask, site: CrawlTarget, signal: str) -> None:
        record = QuarantineRecord(
            domain=site.domain,
            rank=site.rank,
            population=site.population,
            label=self.label,
            reason="worker-killed",
            attempts=task.crashes,
            last_signal=signal,
            shard=task.shard_id,
            ts=time.time(),
        )
        self.ledger.append(record)
        self.quarantined.append(record)
        obs.inc("supervisor.quarantined")
        obs.event(
            "crawl.quarantine",
            sample_key=site.domain,
            domain=site.domain,
            shard=task.shard_id,
            signal=signal,
            attempts=task.crashes,
        )
        observation = SiteObservation(
            domain=site.domain,
            rank=site.rank,
            population=site.population,
            success=False,
            failure_reason=record.failure_reason,
            attempts=task.crashes,
        )
        self.salvaged.append(observation)
        # Account the synthesized observation in the crawler metrics too:
        # quarantined sites never pass through ``collect_with_retries`` (the
        # killed workers' deltas died with them), so without this the run
        # log's failure rows would omit exactly the sites the supervisor
        # gave up on.
        _credit_observation_metrics(observation, self.label)


def run_supervised_crawl(
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
    config: Optional[SupervisorConfig] = None,
    fold=None,
    js_prewarm: Optional[Sequence[str]] = None,
) -> CrawlDataset:
    """Crawl ``targets`` under supervised worker processes.

    Shorthand for :func:`~repro.crawler.shards.run_sharded_crawl` with a
    ``supervisor`` config, returning the same merged :class:`CrawlDataset`
    — except that a run whose workers died completes anyway, with each
    isolated poison site carried as a failed observation with reason
    ``quarantined:<signal>`` and appended to the ``quarantine.jsonl``
    ledger next to the shard checkpoints.

    Supervision *requires* per-shard checkpoints (re-dispatch resumes from
    them).  Without a ``checkpoint_dir`` they live in a private temporary
    directory that is deleted on return — pass a real directory to keep the
    checkpoints and the quarantine ledger.
    """
    return run_sharded_crawl(
        network,
        targets,
        profile=profile,
        label=label,
        jobs=jobs,
        shards=shards,
        checkpoint_dir=checkpoint_dir,
        retry_policy=retry_policy,
        page_budget=page_budget,
        inner_paths=inner_paths,
        resume=resume,
        supervisor=config or SupervisorConfig(),
        fold=fold,
        js_prewarm=js_prewarm,
    )


def supervise_shards(
    job: ShardJob,
    targets: Sequence[CrawlTarget],
    planned: Sequence[Sequence[CrawlTarget]],
    jobs: int,
    checkpoint_dir: Optional[Union[str, Path]],
    config: SupervisorConfig,
    fold=None,
) -> CrawlDataset:
    """Run ``planned`` shards of ``job`` under the supervisor and merge them
    in ``targets`` order (the supervised branch of ``run_sharded_crawl``)."""
    label = job.label
    scratch_tmp: Optional[tempfile.TemporaryDirectory] = None
    if checkpoint_dir is not None:
        directory = Path(checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
    else:
        scratch_tmp = tempfile.TemporaryDirectory(prefix="repro-supervisor-")
        directory = Path(scratch_tmp.name)

    try:
        ledger = QuarantineLedger(quarantine_ledger_path(directory))
        supervisor = _Supervisor(job, config, directory, ledger, jobs, fold=fold)
        tasks = [
            _ShardTask(
                shard_id=f"{index:04d}",
                targets=list(shard),
                checkpoint=shard_checkpoint_path(directory, label, index, len(planned)),
            )
            for index, shard in enumerate(planned)
        ]
        with obs.span(
            "crawl.supervised", label=label, shards=len(tasks), jobs=jobs
        ) as span:
            supervisor.run(tasks)
            span.set_attr("respawns", supervisor.respawns)
            span.set_attr("quarantined", len(supervisor.quarantined))
        shard_datasets = list(supervisor.datasets)
        if supervisor.salvaged:
            salvage = CrawlDataset(label=label)
            salvage.observations.extend(supervisor.salvaged)
            shard_datasets.append(salvage)
            # Salvaged rows never crossed a worker boundary, so their partial
            # is folded here.  If a salvaged domain was also re-crawled (the
            # partials overlap), the fold's merge-time partition check fails
            # and the bundle is re-folded from the merged dataset instead.
            if fold is not None:
                fold.fold_dataset(salvage)
        return merge_shard_datasets(label, targets, shard_datasets)
    finally:
        if scratch_tmp is not None:
            scratch_tmp.cleanup()
