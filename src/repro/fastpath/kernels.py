"""Kernel selection for the batch probes: numpy when importable, else
pure Python.

The batch probes reduce each group's STEP-1 scan to "how many leading
entries of a sorted endpoint column are <= bound", evaluated for a whole
micro-batch of bounds at once.  With numpy available the probes
(:mod:`repro.fastpath.band`) run that as vectorized ``searchsorted`` calls
over ``array('d')`` columns (zero copy via the buffer protocol); without
it, ``bisect`` loops over the same columns give the same counts.

The backend is selected once at import time.  ``REPRO_FASTPATH_KERNEL``
forces a choice: ``numpy`` (fall back silently if numpy is missing, since
the container may not ship it), ``python``, or ``auto`` (the default).
``KERNEL`` names the backend actually in use so benchmarks can record it.

This module is the **only** fastpath module allowed to import numpy (lint
rule RA002): consumers obtain the handle via :func:`get_numpy` and the
vectorization thresholds via :data:`MIN_VECTOR` (bounds per call) and
:data:`MIN_CANDIDATES` (pairs per run), so swapping or disabling the
backend stays a one-module decision.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = ["KERNEL", "MIN_CANDIDATES", "MIN_VECTOR", "get_numpy"]

_np: Optional[Any] = None
_choice = os.environ.get("REPRO_FASTPATH_KERNEL", "auto").strip().lower()
if _choice not in ("python",):
    try:  # pragma: no cover - exercised indirectly via KERNEL
        import numpy as _np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - numpy is usually present
        _np = None

KERNEL = "numpy" if _np is not None else "python"

#: Below this many bounds the numpy call overhead (array conversion, ufunc
#: dispatch) exceeds the bisect loop it replaces.
MIN_VECTOR = 8

#: The pair/candidate floor both kernels share: below this many (row,
#: group) pairs in a band run, or candidate members in a select run, the
#: probe's first phase loops in Python, because numpy's fixed cost per call
#: (array builds and about twenty ufunc dispatches) exceeds the loop it
#: replaces.  Measured per call inside the pipeline on a shared 2-vCPU
#: host, not in a hot loop (which flatters numpy): ``query_churn``'s band
#: calls of 16-31 pairs took ~100 us through numpy and ~60 us through
#: ``bisect``, and the loop's cost, ~1.2 us a pair, met numpy's near 64.
#: ``band_probe``'s calls of 1,440 pairs and more took 1.3 ms through
#: numpy, 3.5 ms through the loop.
MIN_CANDIDATES = 256


def get_numpy() -> Optional[Any]:
    """The sanctioned numpy handle, or None when the pure-python backend is
    active (numpy missing or ``REPRO_FASTPATH_KERNEL=python``).

    Read at call time, not import time, so tests can force the scalar
    fallback by patching this module's ``_np`` alone.
    """
    return _np
