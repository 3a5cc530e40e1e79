#!/usr/bin/env python
"""Repo-specific AST lint: guard the exactly-once worker-metrics channel.

Every crawl worker ships its telemetry to the parent process exactly once,
as an explicit payload delta: ``perf.diff_snapshots`` for the render/JS
cache counters and ``obs.worker_payload`` for the unified metrics,
histograms and profiler samples.  The parent folds them back with
``perf.PERF.merge`` / ``obs.ingest_worker``.  That channel only stays
exactly-once if all counters live in the process-wide singletons — a second
registry instantiated at module scope would accumulate counts that no
payload ever carries, silently losing telemetry for every sharded run.

Three rules, all enforced purely on the AST (nothing is imported):

``detached-registry``
    Module-level instantiation of ``PerfCounters`` / ``MetricsRegistry`` /
    ``SampleTable`` anywhere but the blessed singleton homes
    (``perf.PERF``, ``obs.METRICS``, ``obs.profiler.TABLE``).  Local
    instantiations inside functions are fine — tests and snapshot helpers
    build throwaway registries — but a module-level one is shared state
    that dodges the payload channel.

``dynamic-cache-layer``
    ``ByteBudgetLRU(...)`` whose layer name is not a string literal.  The
    layer name is the merge key in every worker payload and perf report;
    a computed name cannot be merged deterministically across workers or
    compared across runs.

``worker-missing-payload``
    A shard worker entry point (private module-level function named
    ``_*_worker`` — the shape multiprocessing dispatch targets take here)
    that never calls both ``diff_snapshots`` and ``worker_payload``, nor
    the shared shard body (``shards._crawl_shard_worker``, itself linted
    as a worker) that calls them.  Such a worker does its work, then exits
    with its counters stranded in the child process.

Usage::

    python tools/lint_repro.py            # lints src/repro
    python tools/lint_repro.py PATH ...   # lints the given files/trees

Exit status 1 when any finding is reported, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: Registry classes that must only be instantiated at module level in their
#: blessed singleton homes (file suffix -> class names allowed there).
REGISTRY_CLASSES = ("PerfCounters", "MetricsRegistry", "SampleTable")
SINGLETON_HOMES = {
    "repro/perf.py": {"PerfCounters"},
    "repro/obs/__init__.py": {"MetricsRegistry"},
    "repro/obs/profiler.py": {"SampleTable"},
}

#: Both must appear in a worker entry point for the channel to round-trip.
PAYLOAD_CALLS = ("diff_snapshots", "worker_payload")
#: Worker bodies that ship the payload themselves; a wrapper that calls one
#: (the supervised entry point) ships through it.
SHIPPING_BODIES = ("_crawl_shard_worker",)

Finding = Tuple[Path, int, str, str]


def _call_name(node: ast.Call) -> str:
    """Rightmost name of the called expression (``perf.ByteBudgetLRU`` ->
    ``ByteBudgetLRU``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _module_level_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Every Call that executes at import time (module scope, including
    inside module-level conditionals, but not inside def/class bodies)."""
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node


def _is_worker_def(node: ast.stmt) -> bool:
    return (
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_worker")
        and node.name.startswith("_")
        and not node.name.startswith("_on_")
    )


def lint_file(path: Path, root: Path) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [(path, error.lineno or 0, "syntax-error", str(error))]

    rel = path.as_posix()
    findings: List[Finding] = []

    allowed_here = set()
    for suffix, names in SINGLETON_HOMES.items():
        if rel.endswith(suffix):
            allowed_here = names
            break

    for call in _module_level_calls(tree):
        name = _call_name(call)
        if name in REGISTRY_CLASSES and name not in allowed_here:
            findings.append(
                (
                    path,
                    call.lineno,
                    "detached-registry",
                    f"module-level {name}() outside its singleton home: its "
                    "counters never ship in a worker payload (use "
                    "perf.PERF / obs.METRICS / obs.profiler.TABLE)",
                )
            )

    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "ByteBudgetLRU"):
            continue
        layer = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "layer":
                layer = keyword.value
        if not (isinstance(layer, ast.Constant) and isinstance(layer.value, str)):
            findings.append(
                (
                    path,
                    node.lineno,
                    "dynamic-cache-layer",
                    "ByteBudgetLRU layer name must be a string literal: it "
                    "is the merge key for worker perf payloads",
                )
            )

    for stmt in tree.body:
        if not _is_worker_def(stmt):
            continue
        called = {
            _call_name(node)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
        }
        delegates = any(
            body in called for body in SHIPPING_BODIES if body != stmt.name
        )
        missing = [name for name in PAYLOAD_CALLS if name not in called]
        if missing and not delegates:
            findings.append(
                (
                    path,
                    stmt.lineno,
                    "worker-missing-payload",
                    f"worker entry point {stmt.name}() never calls "
                    f"{' / '.join(missing)}: its telemetry dies with the "
                    "child process",
                )
            )

    return findings


def iter_python_files(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(__file__).resolve().parent.parent
    targets = [Path(arg) for arg in argv] or [root / "src" / "repro"]

    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(targets):
        checked += 1
        findings.extend(lint_file(path, root))

    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: {rule}: {message}")
    print(
        f"lint_repro: {checked} file(s) checked, {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
