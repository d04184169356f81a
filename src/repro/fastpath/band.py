"""Sort-merge batch probe for band joins (batched BJ-SSI, Section 3.1).

The per-event probe pays per-group dispatch once per arriving tuple: a
B-tree descent per (group, tuple), an ``Interval`` allocation and a cursor
clone per affected query, and a leaf walk per enumeration.  The batch probe
amortizes all of it over a micro-batch using flat columns:

* the probed table is read through its sorted column ``col_b``
  (:attr:`~repro.engine.table._Table.col_b`): a sorted ``array('d')`` of B
  and the rows in the same order, which the table keeps in place on every
  write, so a probe pays nothing in the size of the table.  The numpy
  kernel wraps the key column zero-copy (``np.frombuffer``); that view must
  not outlive the call --- an ``array`` cannot resize while exported --- so
  it lives in locals only, never on the table, a group structure or a
  closure;
* the ``surrounding`` probes of the whole batch against *every* group
  collapse into one vectorized ``searchsorted`` of the (groups x rows)
  matrix of shifted join keys against the key column (succ = first index
  with key >= probe, pred = the one before --- exactly the cursor pair the
  per-event probe derives);
* a (group, row) pair has an affected query iff the *first* entry of one
  of the group's endpoint columns clears the bound its pred/succ key sets;
  that test is vectorized too (the first endpoints are read from the live
  structures per call, so nothing is cached), and Python only loops over
  the surviving pairs;
* STEP 1 (find affected queries) for a surviving pair is one
  ``bisect_right`` per columnar ``array('d')`` endpoint order --- the
  per-event linear scan with an early ``break`` counts exactly that
  prefix;
* STEP 2 (enumerate results) becomes a contiguous slice of the row
  list: the per-event outward leaf walk collects precisely the
  entries with ``window.lo <= key <= window.hi`` (the probe key
  ``p_j + b`` lies inside the instantiated window because the stabbing
  point lies inside the band), i.e.
  ``values[bisect_left(keys, lo) : bisect_right(keys, hi)]`` in the same
  ascending-key order, located by one ``searchsorted`` pair per group.
  The windows are gathered and enumerated group by group, not batch-wide:
  at 20k queries and 256 rows a batch-wide list holds ~46k live tuples,
  and the collector's passes over them halved throughput.

The pure-Python kernel runs the same phases with ``bisect`` on the same
``array('d')`` columns.  Every bound evaluates to the exact IEEE double the
per-event probe computes (``pred.key - r.b``, ``band.lo + r.b``;
``b - succ.key`` equals ``-(succ.key - b)`` bit for bit), so batched deltas
--- affected queries, result rows, and their order --- are identical to
running the per-event probe once per tuple against the same table state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Sequence, Tuple

from repro.fastpath.kernels import MIN_VECTOR, get_numpy


def batch_probe_band_r(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """Probe a batch of R-tuples against every band-join group.

    ``col_b`` is S's sorted column of B and its rows; ``rows`` the
    micro-batch (any order); ``points``/``structures`` the dense group
    table; ``results`` a parallel list of per-row dicts, updated in place.
    All rows are probed against the *same* S-table state, so this is only
    valid for a run of R-inserts with no interleaved S-change.
    """
    _batch_probe(col_b, rows, points, structures, results, r_side=True)


def batch_probe_band_s(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """Symmetric batch probe for S-tuples against R's ``col_b``: the probe
    key is ``s.b - p_j`` and the two endpoint orders swap roles, exactly as
    in the per-event ``probe_band_group_s``."""
    _batch_probe(col_b, rows, points, structures, results, r_side=False)


def _batch_probe(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
    *,
    r_side: bool,
) -> None:
    live = [(point, st) for point, st in zip(points, structures) if st.by_lo]
    if not rows or not live:
        return
    keys, values = col_b
    m = len(keys)
    if m == 0:
        return  # the probed table is empty: no results possible
    order = sorted(range(len(rows)), key=lambda i: rows[i].b)
    bs = [rows[i].b for i in order]
    # Phase 1: per group, the candidate (row, succ index) pairs; the succ
    # index is the first flat key >= the probe key.
    _np = get_numpy()
    use_np = _np is not None and len(live) * len(bs) >= MIN_VECTOR
    if use_np:
        # ``kb`` exports the key column's buffer: it and everything sliced
        # from it must die with this frame (fancy indexing copies).
        kb = _np.frombuffer(keys, dtype=_np.float64)
        bv = _np.array(bs)
        pts = _np.array([point for point, __ in live])[:, None]
        sv = _np.searchsorted(kb, pts + bv if r_side else bv - pts, side="left")
        # Quick reject: a prefix is non-empty iff the column's first
        # endpoint clears the bound (s1 - b, resp. -(s2 - b), for R).
        lo0 = _np.array([st.lo_keys[0] for __, st in live])[:, None]
        neg_hi0 = _np.array([st.neg_hi_keys[0] for __, st in live])[:, None]
        first0, second0 = (lo0, neg_hi0) if r_side else (neg_hi0, lo0)
        hit = (sv > 0) & (first0 <= kb[_np.maximum(sv - 1, 0)] - bv)
        hit |= (sv < m) & (second0 <= bv - kb[_np.minimum(sv, m - 1)])
        gv, jv = _np.nonzero(hit)  # group-major
        cuts = _np.searchsorted(gv, _np.arange(len(live) + 1)).tolist()
        jl = jv.tolist()
        sl = sv[gv, jv].tolist()
    for g, (point, structure) in enumerate(live):
        if use_np:
            if cuts[g] == cuts[g + 1]:
                continue
            pairs: Any = zip(jl[cuts[g] : cuts[g + 1]], sl[cuts[g] : cuts[g + 1]])
        else:
            pairs = (
                (j, bisect_left(keys, (point + b) if r_side else (b - point)))
                for j, b in enumerate(bs)
            )
        by_lo = structure.by_lo
        by_hi_desc = structure.by_hi_desc
        lo_keys = structure.lo_keys
        neg_hi_keys = structure.neg_hi_keys
        # The endpoint order the probe's *pred* cursor bounds, then the
        # order its *succ* cursor bounds (ascending ``array('d')`` columns).
        first_col, second_col = (lo_keys, neg_hi_keys) if r_side else (neg_hi_keys, lo_keys)
        hi_by_lo = structure.hi_by_lo
        lo_by_hi = structure.lo_by_hi
        # Phases 2+3: STEP-1 affected-prefix lengths per candidate, then the
        # (row, query) windows of the affected queries.  The pred-side
        # prefix comes first (per-event dedup order); a succ-side entry
        # duplicates a pred-side one exactly when its other endpoint also
        # clears the pred-side bound, so dedup is a columnar threshold test,
        # not a qid set.  The window lists are per group (module docstring).
        targets: List[Tuple[Dict[Any, List[Any]], Any]] = []
        w_lo: List[float] = []
        w_hi: List[float] = []
        t_append = targets.append
        lo_append = w_lo.append
        hi_append = w_hi.append
        for j, sidx in pairs:
            b = bs[j]
            if sidx:
                bound1 = keys[sidx - 1] - b
                n1 = bisect_right(first_col, bound1)
            else:
                bound1, n1 = 0.0, 0
            n2 = bisect_right(second_col, b - keys[sidx]) if sidx < m else 0
            if not (n1 or n2):
                continue
            res = results[order[j]]
            if r_side:
                for k in range(n1):
                    t_append((res, by_lo[k]))
                    lo_append(lo_keys[k] + b)
                    hi_append(hi_by_lo[k] + b)
                for k in range(n2):
                    lo = lo_by_hi[k]
                    if n1 and lo <= bound1:  # already in the by_lo prefix
                        continue
                    t_append((res, by_hi_desc[k]))
                    lo_append(lo + b)
                    hi_append(b - neg_hi_keys[k])  # band.hi + b
            else:
                for k in range(n1):
                    t_append((res, by_hi_desc[k]))
                    lo_append(b + neg_hi_keys[k])  # b - band.hi
                    hi_append(b - lo_by_hi[k])
                neg_bound1 = -bound1
                for k in range(n2):
                    hi = hi_by_lo[k]
                    if n1 and hi >= neg_bound1:  # already in the by_hi prefix
                        continue
                    t_append((res, by_lo[k]))
                    lo_append(b - hi)
                    hi_append(b - lo_keys[k])
        # STEP 2: enumerate each window as one contiguous slice of the rows.
        if use_np and len(targets) >= MIN_VECTOR:
            starts = _np.searchsorted(kb, _np.array(w_lo), side="left").tolist()
            ends = _np.searchsorted(kb, _np.array(w_hi), side="right").tolist()
        else:
            starts = [bisect_left(keys, x) for x in w_lo]
            ends = [bisect_right(keys, x) for x in w_hi]
        for (res, query), start, end in zip(targets, starts, ends):
            hits = values[start:end]
            assert hits, "affected band join produced no result"
            res[query] = hits
