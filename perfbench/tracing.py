"""Span tracing around the program's layer boundaries, from outside it.

The traced run wraps each layer's public functions and methods and records
one span per call: ``(layer, parent span, start, end)``.  Module-level
functions are rebound in every ``repro`` module that imported them by name
(``from repro.js.parser import parse`` leaves a second reference in the
importer), so a call reaches the wrapper whichever module makes it.
Methods are replaced on their class.

Spans live in memory until :meth:`SpanRecorder.dump` writes them out.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Only the process that installed the wrappers records: shard workers
forked from it inherit the wrappers but skip recording, and their layer
costs come from the counters the program ships home instead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:attr" or "module:Class.method") pairs wrapped in a traced
#: run.  Each layer name is the prefix of its per-layer metrics.
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("js.lex", "repro.js.lexer:tokenize"),
    ("js.parse", "repro.js.parser:parse"),
    ("js.lower", "repro.js.compiler:compile_program"),
    ("js.exec", "repro.js.compiler:run_compiled"),
    ("js.exec", "repro.js.interpreter:Interpreter.run_program"),
    ("js.static.verdict", "repro.js.static.verdict:verdict_for_source"),
    ("js.static.analyze", "repro.js.static.analyzer:analyze_program"),
    ("canvas.readout", "repro.canvas.element:HTMLCanvasElement.toDataURL"),
    ("net.fetch", "repro.net.server:Network.fetch"),
    ("browser.load", "repro.browser.browser:Browser.load"),
    ("dom.parse_html", "repro.dom.html:parse_html"),
    ("blocklists.match", "repro.browser.extensions:AdBlockerExtension.on_request"),
    ("crawler.checkpoint.write", "repro.crawler.storage:CheckpointWriter.write"),
    ("crawler.checkpoint.write", "repro.crawler.storage:CheckpointWriter.finalize"),
    ("crawler.save", "repro.crawler.storage:save_dataset"),
    ("crawler.shards.merge", "repro.crawler.shards:merge_shard_datasets"),
    ("core.reduce.ingest", "repro.core.reducers:AnalysisBundle.ingest"),
    ("core.stage_cache.put", "repro.core.stages.cache:StageCache.put"),
)

#: The 2D context's drawing surface: every public method (path building,
#: painting, text, pixel writes and the deferred-raster ``flush``) counts as
#: raster work.  Property accessors are state setters and stay unwrapped.
RASTER_CLASS = "repro.canvas.context2d:CanvasRenderingContext2D"


def import_all_repro_modules() -> List[str]:
    """Import every ``repro`` submodule (CLI ``__main__`` modules excepted),
    so that by-name imports exist before wrappers are rebound."""
    import repro

    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)
        names.append(info.name)
    return names


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Span ``i`` is ``(layers[i], parents[i], starts[i], ends[i])``, the
        #: parent being a span index or -1.  Flat lists of strings, ints and
        #: floats: nothing for the garbage collector to traverse.
        self.layers: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = [-1]
        self._pid = os.getpid()
        self.active = False
        #: Distinct script sources seen by ``parse`` (by content).
        self.parsed_sources: set = set()
        #: Bytes the stage cache wrote (sizes of the files ``put`` returned).
        self.stage_cache_bytes = 0
        #: ``module.attr`` names rebound to a wrapper, for the report.
        self.rebound: Dict[str, List[str]] = defaultdict(list)
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        layers, parents, starts, ends = self.layers, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = len(layers)
            layers.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_parse(self, args, kwargs, result) -> None:
        self.parsed_sources.add(args[0] if args else kwargs["source"])

    def _after_cache_put(self, args, kwargs, path) -> None:
        self.stage_cache_bytes += os.path.getsize(path)

    # -- installation ------------------------------------------------------

    def install(self) -> "SpanRecorder":
        """Wrap every layer target and start recording."""
        import_all_repro_modules()
        after = {
            "repro.js.parser:parse": self._after_parse,
            "repro.core.stages.cache:StageCache.put": self._after_cache_put,
        }
        for layer, target in LAYER_TARGETS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, after.get(target))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                self.rebound[target].append(f"{owner.__module__}.{owner.__qualname__}")
            else:
                self._rebind_everywhere(target, original, wrapper)
        module, name = _resolve(RASTER_CLASS)
        owner = getattr(module, name)
        for attr, value in list(owner.__dict__.items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            self._set(owner, attr, self._wrap("canvas.raster", value))
            self.rebound[RASTER_CLASS].append(attr)
        os.register_at_fork(after_in_child=self._forked)
        self.active = True
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, target: str, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    self.rebound[target].append(f"{name}.{attr}")

    def _forked(self) -> None:
        if os.getpid() != self._pid:
            self.active = False

    def stop(self) -> None:
        """Stop recording and restore every wrapped function and method."""
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_s`` (outermost spans only, so a
        recursive layer is not counted twice) and ``self_s``."""
        layers, parents = self.layers, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(layers)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child_time[parent] += duration
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (layer, parent, duration) in enumerate(zip(layers, parents, durations)):
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += duration - child_time[index]
            ancestor = parent
            while ancestor >= 0 and layers[ancestor] != layer:
                ancestor = parents[ancestor]
            if ancestor < 0:
                row["total_s"] += duration
        return dict(out)

    def dump(self, path: str) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "layer", "parent", "start", "end"]}) + "\n")
            spans = zip(self.layers, self.parents, self.starts, self.ends)
            for index, (layer, parent, start, end) in enumerate(spans):
                fh.write(f'[{index},"{layer}",{parent},{start:.9f},{end:.9f}]\n')
        return len(self.layers)
