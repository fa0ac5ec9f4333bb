"""lintor — the repo-aware static analyzer for the LIGHTOR platform.

The serving stack's correctness rests on conventions no generic linter
knows: strict JSON on every wire surface (``allow_nan=False``), the typed
error hierarchy (``CodecError ⊂ ValidationError ⊂ ValueError``),
lock-guarded mutation in the shard tier, closed resources, and
decode-time rejection of unknown frame versions.  This
package checks those contracts statically — the violations the dynamic
suites (hypothesis, oracles, chaos runs) can only hit probabilistically.

* :mod:`rules <repro.analysis.rules>` — the catalogue, R002–R006
* :mod:`pragmas <repro.analysis.pragmas>` — ``# guarded-by:`` and
  ``# lintor: disable=`` comment syntax
* :mod:`engine <repro.analysis.engine>` — file walking, suppression
* :mod:`baseline <repro.analysis.baseline>` — the shrink-only ledger

Entry points: ``repro lint`` on the command line, ``tools/run_lintor.py``
standalone, and :func:`analyze_paths` from code.  ``docs/static_analysis.md``
documents the rule catalogue and annotation syntax.
"""

from repro.analysis.baseline import (
    BaselineDelta,
    compare_to_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import analyze_paths, analyze_source, iter_python_files
from repro.analysis.findings import Finding
from repro.analysis.rules import RULE_DOCS, RULES

__all__ = [
    "BaselineDelta",
    "Finding",
    "RULES",
    "RULE_DOCS",
    "analyze_paths",
    "analyze_source",
    "compare_to_baseline",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
]
