"""Static analysis over parsed scripts: CFGs, canvas reachability, taint.

Public surface:

* :func:`verdict_for_source` — the cached :class:`StaticVerdict` for one
  script body (parse → CFG → abstract interpretation → classify).
* :func:`analyze_program` / :func:`build_cfg` — the underlying passes, for
  tests and tooling.

See ``docs/static-analysis.md`` for the lattice, the skippability
proof, and the verdict schema.
"""

from repro.js.static.analyzer import Analysis, CanvasAlloc, ReadoutSite, analyze_program
from repro.js.static.cfg import BasicBlock, FunctionCFG, build_cfg
from repro.js.static.verdict import (
    ANALYZER_VERSION,
    CLASS_BENIGN,
    CLASS_FP_LIKELY,
    CLASS_INERT,
    CLASS_PARSE_ERROR,
    CLASS_UNKNOWN,
    StaticVerdict,
    classify,
    verdict_for_source,
)

__all__ = [
    "Analysis",
    "CanvasAlloc",
    "ReadoutSite",
    "analyze_program",
    "BasicBlock",
    "FunctionCFG",
    "build_cfg",
    "ANALYZER_VERSION",
    "CLASS_BENIGN",
    "CLASS_FP_LIKELY",
    "CLASS_INERT",
    "CLASS_PARSE_ERROR",
    "CLASS_UNKNOWN",
    "StaticVerdict",
    "classify",
    "verdict_for_source",
]
