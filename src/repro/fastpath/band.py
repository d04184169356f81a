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
* from ``MIN_CANDIDATES`` (row, group) pairs up, the ``surrounding``
  probes of the whole batch against *every* group collapse into one
  vectorized ``searchsorted`` of the (groups x rows) matrix of shifted
  join keys against the key column (succ = first index with key >= probe,
  pred = the one before --- exactly the cursor pair the per-event probe
  derives).  A run with fewer pairs finds the same succ index with one
  ``bisect_left`` per pair: numpy's fixed cost per call is larger than
  that loop, and the small subscription-heavy batches of ``query_churn``
  (10 to 96 pairs per call) would pay it on every call;
* a (group, row) pair has an affected query iff the *first* entry of one
  of the group's endpoint columns clears the bound its pred/succ key sets;
  above the floor that test is vectorized too (the first endpoints are
  read from the live structures per call, so nothing is cached), and
  Python only loops over the surviving pairs;
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
  ascending-key order.  Every group's targets are gathered first, into
  four parallel flat columns (row index, query, and the window ends as
  ``array('d')``) that hold no per-result tuple, so the run pays one
  ``searchsorted`` pair, not one per group, and the collector has no new
  containers to scan.  The step used to run group by group because a
  batch-wide list of ``(dict, query)`` tuples (~46k at 20k queries and
  256 rows) halved throughput under the collector's passes.  Measured
  with these columns on a shared 2-vCPU host: 16x ``band_probe`` (32k
  bands) +23% to +29% events/s over the group-by-group step with peak
  RSS +0.2% to +0.8% (4 pairs), and at 20k bands the batch-64 and
  batch-256 runs of ``benchmarks/test_batch_fastpath.py``'s set-up
  within noise of it (2,200 to 2,800 events/s either way);
* a run handed the other relation's touched join keys names, in the same
  pass, each (row, query) whose window holds one: the only hit lists the
  batch fix-up may have to strike a row from.

The pure-Python kernel runs the same phases with ``bisect`` on the same
``array('d')`` columns.  Every bound evaluates to the exact IEEE double the
per-event probe computes (``pred.key - r.b``, ``band.lo + r.b``;
``b - succ.key`` equals ``-(succ.key - b)`` bit for bit), so batched deltas
--- affected queries, result rows, and their order --- are identical to
running the per-event probe once per tuple against the same table state.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fastpath.kernels import MIN_CANDIDATES, MIN_VECTOR, get_numpy


def batch_probe_band_r(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
    touched: Optional[Sequence[float]] = None,
    suspects: Optional[Dict[int, List[Any]]] = None,
) -> None:
    """Probe a batch of R-tuples against every band-join group.

    ``col_b`` is S's sorted column of B and its rows; ``rows`` the
    micro-batch (any order); ``points``/``structures`` the dense group
    table; ``results`` a parallel list of per-row dicts, updated in place.
    All rows are probed against the *same* S-table state, so this is only
    valid for a run of R-inserts with no interleaved S-change.

    ``touched`` (sorted join keys of S rows that ``col_b`` holds) and
    ``suspects`` (a ``row index -> [query]`` dict) go together: every
    (row, query) result whose window holds a touched key is appended to
    ``suspects``, in result order.
    """
    _batch_probe(col_b, rows, points, structures, results, touched, suspects, r_side=True)


def batch_probe_band_s(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
    touched: Optional[Sequence[float]] = None,
    suspects: Optional[Dict[int, List[Any]]] = None,
) -> None:
    """Symmetric batch probe for S-tuples against R's ``col_b``: the probe
    key is ``s.b - p_j`` and the two endpoint orders swap roles, exactly as
    in the per-event ``probe_band_group_s``."""
    _batch_probe(col_b, rows, points, structures, results, touched, suspects, r_side=False)


def _batch_probe(
    col_b: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    structures: Sequence[Any],
    results: List[Dict[Any, List[Any]]],
    touched: Optional[Sequence[float]],
    suspects: Optional[Dict[int, List[Any]]],
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
    # index is the first flat key >= the probe key.  Below the pair floor
    # numpy's fixed cost per call exceeds the bisects it would save.
    _np = get_numpy()
    use_np = _np is not None and len(live) * len(bs) >= MIN_CANDIDATES
    if use_np:
        cuts, jl, sl = _vector_candidates(_np, keys, bs, live, r_side)
    # Phases 2+3, every group: STEP-1 affected-prefix lengths per
    # candidate, then the run's affected (row, query) targets and their
    # windows, group-major, in four parallel flat columns.  The pred-side
    # prefix comes first (per-event dedup order); a succ-side entry
    # duplicates a pred-side one exactly when its other endpoint also
    # clears the pred-side bound, so dedup is a columnar threshold test,
    # not a qid set.
    t_rows: List[int] = []
    t_queries: List[Any] = []
    w_lo: array[float] = array("d")
    w_hi: array[float] = array("d")
    row_append = t_rows.append
    query_append = t_queries.append
    lo_append = w_lo.append
    hi_append = w_hi.append
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
            i = order[j]
            if r_side:
                for k in range(n1):
                    row_append(i)
                    query_append(by_lo[k])
                    lo_append(lo_keys[k] + b)
                    hi_append(hi_by_lo[k] + b)
                for k in range(n2):
                    lo = lo_by_hi[k]
                    if n1 and lo <= bound1:  # already in the by_lo prefix
                        continue
                    row_append(i)
                    query_append(by_hi_desc[k])
                    lo_append(lo + b)
                    hi_append(b - neg_hi_keys[k])  # band.hi + b
            else:
                for k in range(n1):
                    row_append(i)
                    query_append(by_hi_desc[k])
                    lo_append(b + neg_hi_keys[k])  # b - band.hi
                    hi_append(b - lo_by_hi[k])
                neg_bound1 = -bound1
                for k in range(n2):
                    hi = hi_by_lo[k]
                    if n1 and hi >= neg_bound1:  # already in the by_hi prefix
                        continue
                    row_append(i)
                    query_append(by_lo[k])
                    lo_append(b - hi)
                    hi_append(b - lo_keys[k])
    if t_rows:
        _emit(keys, values, t_rows, t_queries, w_lo, w_hi, results, touched, suspects)


def _vector_candidates(
    _np: Any, keys: Any, bs: List[float], live: List[Tuple[float, Any]], r_side: bool
) -> Tuple[List[int], List[int], List[int]]:
    """Phase 1 in numpy: one ``searchsorted`` of the (groups x rows)
    matrix of shifted join keys and a vectorized quick reject.  Returns
    the surviving pairs group-major, as per-group cut offsets into the
    row indices (into ``bs``) and their succ indices."""
    m = len(keys)
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
    return cuts, jv.tolist(), sv[gv, jv].tolist()


def _emit(
    keys: Any,
    values: Sequence[Any],
    t_rows: List[int],
    t_queries: List[Any],
    w_lo: array[float],
    w_hi: array[float],
    results: List[Dict[Any, List[Any]]],
    touched: Optional[Sequence[float]],
    suspects: Optional[Dict[int, List[Any]]],
) -> None:
    """STEP 2 of a kernel call, once for the whole run: every target's
    window ``[w_lo, w_hi]`` becomes one contiguous slice of the rows,
    ``values[bisect_left(keys, lo) : bisect_right(keys, hi)]``, stored
    under its row's dict in target order.  With ``touched`` (the sorted
    join keys of the other relation's rows a strike may hide, each still
    in ``keys``), a target whose window holds one is appended to
    ``suspects[row]``: that closed interval holds a touched key exactly
    when the hit list does."""
    _np = get_numpy()
    vector = _np is not None and len(w_lo) >= MIN_VECTOR
    if vector:
        kb = _np.frombuffer(keys, dtype=_np.float64)
        lo_v = _np.frombuffer(w_lo, dtype=_np.float64)
        hi_v = _np.frombuffer(w_hi, dtype=_np.float64)
        starts = kb.searchsorted(lo_v, "left").tolist()
        ends = kb.searchsorted(hi_v, "right").tolist()
    else:
        starts = [bisect_left(keys, x) for x in w_lo]
        ends = [bisect_right(keys, x) for x in w_hi]
    for i, query, start, end in zip(t_rows, t_queries, starts, ends):
        hits = values[start:end]
        assert hits, "affected band join produced no result"
        results[i][query] = hits
    if not touched or suspects is None:
        return
    if vector:
        tv = _np.array(touched)
        flagged = (tv.searchsorted(lo_v, "left") < tv.searchsorted(hi_v, "right")).nonzero()[0]
        marks: Any = flagged.tolist()
    else:
        n_touched = len(touched)
        marks = (
            t for t, (lo, hi) in enumerate(zip(w_lo, w_hi))
            if (at := bisect_left(touched, lo)) < n_touched and touched[at] <= hi
        )
    for t in marks:
        suspects.setdefault(t_rows[t], []).append(t_queries[t])
