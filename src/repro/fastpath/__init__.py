"""Columnar batch fast path for the SSI join operators.

The per-event SSI probes pay Python interpreter overhead per *tuple* that
the paper's cost model charges per *group*: every arrival re-walks the
group dictionary, re-derives each stabbing point, and allocates a fresh
``Interval`` per affected query.  This package amortizes that overhead over
a micro-batch:

* :mod:`repro.fastpath.kernels` — the one numpy handle: the probes run
  ``searchsorted`` over the columnar endpoint arrays when numpy is
  importable and pure-Python ``bisect`` loops otherwise (selected once at
  import time);
* :mod:`repro.fastpath.band` — the sort-merge batch probe for band joins:
  arrivals are sorted once by join key, then merged against every SSI
  group in a single pass over the dense group table;
* :mod:`repro.fastpath.select` — the columnar batch probe for
  equality-joins-with-selections: one lookup of the table's keyed columns
  per join key, then the stabbing groups and the ungrouped queries, both kept as
  endpoint columns (``SelectColumns``), results by slice.

Every batch probe is **delta-identical** to running the per-event probe
once per tuple: the same queries are affected, the same result rows are
enumerated, and the same floating-point expressions produce the bounds
(the batched ``pipeline/...`` fuzz cells check this differentially).
"""

from repro.fastpath.kernels import KERNEL, MIN_VECTOR, get_numpy
from repro.fastpath.band import batch_probe_band_r, batch_probe_band_s
from repro.fastpath.select import batch_probe_select_r, batch_probe_select_s

# numpy is deliberately not imported here (or anywhere else in this
# package): all access goes through repro.fastpath.kernels — the one
# module on lint rule RA002's allowlist — via get_numpy()/MIN_VECTOR.

__all__ = [
    "KERNEL",
    "MIN_VECTOR",
    "get_numpy",
    "batch_probe_band_r",
    "batch_probe_band_s",
    "batch_probe_select_r",
    "batch_probe_select_s",
]
