"""Concurrency analysis tooling (A-CONC).

Two complementary tools over the same locking discipline:

* :mod:`repro.analysis.static` — the static concurrency lint
  (``repro lint --concurrency``), an AST pass proving every mutation of
  registered shared engine state lexically holds its declared lock.
* :mod:`repro.analysis.lockset` — the runtime eraser-style lockset race
  detector (``Platform.set_race_detector(True)``), catching whatever the
  static model cannot see.
* :mod:`repro.analysis.interleave` — deterministic seeded interleaving so
  detector tests produce byte-identical reports run over run.
"""

from .interleave import VTID_BASE, SeededInterleaver
from .lockset import AccessSite, LocksetDetector, RaceReport
from .static import (
    REGISTRY,
    analyze_source,
    counter_fields,
    run_concurrency_lint,
)

__all__ = [
    "AccessSite",
    "LocksetDetector",
    "RaceReport",
    "REGISTRY",
    "SeededInterleaver",
    "VTID_BASE",
    "analyze_source",
    "counter_fields",
    "run_concurrency_lint",
]
