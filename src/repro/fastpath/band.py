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
  prefix.  Each non-empty prefix is then copied whole into the run's flat
  target columns, one C-level slice per column (its queries and its
  members' raw window offsets), and recorded as one segment (row, length,
  pred or succ side, the pred-side bound): Python pays per kept pair, not
  per affected query;
* STEP 2 (enumerate results) runs once per kernel call, the window step.
  One numpy pass turns every target's raw offsets into its window ends,
  ``b + raw`` or ``b - raw``, and drops each succ-side target that
  repeats a pred-side one of its pair (the per-event qid dedup is a
  threshold test on that member's other endpoint), so numpy pays per
  bound.  Every kept window is then a contiguous slice of the row list:
  the per-event outward leaf walk collects precisely the entries with
  ``window.lo <= key <= window.hi`` (the probe key ``p_j + b`` lies
  inside the instantiated window because the stabbing point lies inside
  the band), i.e. ``values[bisect_left(keys, lo) : bisect_right(keys,
  hi)]`` in the same ascending-key order, found by one ``searchsorted``
  pair for the run.  Each segment's results go into its row's dict by one
  ``dict.update`` whose slices and writes run in C, so Python pays per
  segment here too and never per result.  The target columns hold no
  per-result tuple, so the collector has no new containers to scan: the
  step used to run group by group because a batch-wide list of
  ``(dict, query)`` tuples (~46k at 20k queries and 256 rows) halved
  throughput under the collector's passes.  Below ``MIN_VECTOR`` targets
  the bound arithmetic is a Python loop over the same columns;
* a run handed the other relation's touched join keys names, in the same
  pass, each (row, query) whose window holds one: the only hit lists the
  batch fix-up may have to strike a row from.

The pure-Python kernel runs the same phases with ``bisect`` on the same
``array('d')`` columns and the same gather; only its bound arithmetic is a
Python loop.  Every bound evaluates to the exact IEEE double the per-event
probe computes (``pred.key - r.b``; a window end is ``b + x`` or ``b - x``
for an endpoint ``x`` or its exact negation, and ``b - x`` is ``b + (-x)``
bit for bit; ``b - succ.key`` equals ``-(succ.key - b)``), so batched
deltas --- affected queries, result rows, and their order --- are
identical to running the per-event probe once per tuple against the same
table state.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, islice
from math import nan
from operator import lt
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
    # Phase 2, every group: STEP 1's two affected-prefix lengths per
    # candidate, then each non-empty prefix copied whole into the run's
    # flat target columns, one segment per prefix (see ``_Targets``),
    # group-major.  Python pays per kept pair here; the window bounds and
    # the succ-side duplicate test are left to the window step.
    targets = _Targets()
    queries = targets.queries
    raw_lo = targets.raw_lo
    raw_hi = targets.raw_hi
    record_j = targets.seg_j.append
    record_len = targets.seg_len.append
    record_succ = targets.seg_succ.append
    record_cut = targets.seg_cut.append
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
        # The endpoint order the probe's *pred* cursor bounds, then the
        # order its *succ* cursor bounds (ascending ``array('d')`` key
        # columns), each with its members and their raw window offsets.
        if r_side:
            first_col, first_items = structure.lo_keys, structure.by_lo
            first_lo, first_hi = structure.lo_keys, structure.hi_by_lo
            second_col, second_items = structure.neg_hi_keys, structure.by_hi_desc
            second_lo, second_hi = structure.lo_by_hi, structure.neg_hi_keys
        else:
            first_col, first_items = structure.neg_hi_keys, structure.by_hi_desc
            first_lo, first_hi = structure.neg_hi_keys, structure.lo_by_hi
            second_col, second_items = structure.lo_keys, structure.by_lo
            second_lo, second_hi = structure.hi_by_lo, structure.lo_keys
        for j, sidx in pairs:
            b = bs[j]
            n1 = 0
            cut = nan  # no pred-side prefix: no succ-side entry repeats one
            if sidx:
                bound1 = keys[sidx - 1] - b
                n1 = bisect_right(first_col, bound1)
                if n1:
                    cut = bound1
                    queries += first_items[:n1]
                    raw_lo += first_lo[:n1]
                    raw_hi += first_hi[:n1]
                    record_j(j)
                    record_len(n1)
                    record_succ(0)
                    record_cut(nan)
            if sidx < m:
                n2 = bisect_right(second_col, b - keys[sidx])
                if n2:
                    queries += second_items[:n2]
                    raw_lo += second_lo[:n2]
                    raw_hi += second_hi[:n2]
                    record_j(j)
                    record_len(n2)
                    record_succ(1)
                    record_cut(cut)
    if queries:
        _emit(keys, values, targets, bs, order, results, touched, suspects, r_side=r_side)


class _Targets:
    """A run's affected (row, query) targets before the window step, as
    flat columns that hold no per-target tuple and no float object.

    One segment per non-empty STEP-1 prefix, group-major, a pair's
    pred-side prefix before its succ-side one: ``seg_j`` (the row's
    position in the run sorted by B, which names both its index and its
    ``b``), ``seg_len`` (the prefix length), ``seg_succ`` (1 for a
    succ-side prefix) and ``seg_cut`` (for a succ-side prefix, its pair's
    pred-side bound ``pred.key - b``; NaN for a pred-side prefix and for a
    pair without one).  Per target, in segment order: ``queries`` and the
    raw window offsets ``raw_lo`` / ``raw_hi``, each prefix copied from
    the group's columns by one slice.  The window ``[w_lo, w_hi]`` adds
    each offset to ``b`` or subtracts it:

    * R, pred side (``by_lo``): offsets ``lo``, ``hi``; window
      ``[b + lo, b + hi]``;
    * R, succ side (``by_hi_desc``): ``lo``, ``-hi``; ``[b + lo, b - (-hi)]``;
    * S, pred side (``by_hi_desc``): ``-hi``, ``lo``; ``[b + (-hi), b - lo]``;
    * S, succ side (``by_lo``): ``hi``, ``lo``; ``[b - hi, b - lo]``.

    Negation is exact and ``b - x`` is ``b + (-x)`` in IEEE doubles, so
    each end is the exact double the per-event probe computes.  A
    succ-side target repeats a pred-side one of its pair exactly when its
    signed low offset (``lo`` for R, ``-hi`` for S) is ``<= seg_cut``: the
    threshold test the per-event probe's qid dedup amounts to.  A NaN cut
    drops nothing.
    """

    __slots__ = ("seg_j", "seg_len", "seg_succ", "seg_cut", "queries", "raw_lo", "raw_hi")

    def __init__(self) -> None:
        self.seg_j: array[int] = array("q")
        self.seg_len: array[int] = array("q")
        self.seg_succ: array[int] = array("b")
        self.seg_cut: array[float] = array("d")
        self.queries: List[Any] = []
        self.raw_lo: array[float] = array("d")
        self.raw_hi: array[float] = array("d")

    def bounds(
        self, bs: List[float], r_side: bool
    ) -> Tuple[List[int], List[Any], List[float], List[float]]:
        """The pure-Python bound arithmetic: the targets each segment
        keeps, then every kept target's query and window ends."""
        kept: List[int] = []
        queries: List[Any] = []
        w_lo: List[float] = []
        w_hi: List[float] = []
        held, raw_lo, raw_hi = self.queries, self.raw_lo, self.raw_hi
        # (low, high) offset signs of a pred-side and a succ-side target.
        signs = ((1.0, 1.0), (1.0, -1.0)) if r_side else ((1.0, -1.0), (-1.0, -1.0))
        t = 0
        for j, n, succ, cut in zip(self.seg_j, self.seg_len, self.seg_succ, self.seg_cut):
            b = bs[j]
            lo_sign, hi_sign = signs[succ]
            before = len(queries)
            for k in range(t, t + n):
                lo_off = lo_sign * raw_lo[k]
                if lo_off <= cut:  # already in the pred-side prefix
                    continue
                queries.append(held[k])
                w_lo.append(b + lo_off)
                w_hi.append(b + hi_sign * raw_hi[k])
            kept.append(len(queries) - before)
            t += n
        return kept, queries, w_lo, w_hi


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
    values: Any,
    targets: _Targets,
    bs: List[float],
    order: List[int],
    results: List[Dict[Any, List[Any]]],
    touched: Optional[Sequence[float]],
    suspects: Optional[Dict[int, List[Any]]],
    *,
    r_side: bool,
) -> int:
    """STEP 2 of a kernel call, once for the whole run.  Every target's
    window ``[w_lo, w_hi]`` is shifted from its raw offsets and the
    succ-side duplicates dropped: one numpy pass from ``MIN_VECTOR``
    targets up, else a Python loop.  Each kept window then becomes one
    contiguous slice of the rows,
    ``values[bisect_left(keys, lo) : bisect_right(keys, hi)]``, stored
    under its row's dict in target order: one ``dict.update`` per segment,
    whose slices and writes run in C.  With ``touched`` (the sorted join
    keys of the other relation's rows a strike may hide, each still in
    ``keys``), a target whose window holds one is appended to
    ``suspects[row]``: that closed interval holds a touched key exactly
    when the hit list does.  Returns the results written."""
    _np = get_numpy()
    vector = _np is not None and len(targets.queries) >= MIN_VECTOR
    if vector:
        kept, t_queries, lo_v, hi_v = _vector_bounds(_np, targets, bs, r_side)
        kb = _np.frombuffer(keys, dtype=_np.float64)
        start_v = kb.searchsorted(lo_v, "left")
        end_v = kb.searchsorted(hi_v, "right")
        assert (start_v < end_v).all(), "affected band join produced no result"
        starts, ends = start_v.tolist(), end_v.tolist()
    else:
        kept, t_queries, w_lo, w_hi = targets.bounds(bs, r_side)
        starts = [bisect_left(keys, x) for x in w_lo]
        ends = [bisect_right(keys, x) for x in w_hi]
        assert all(map(lt, starts, ends)), "affected band join produced no result"
    seg_rows = [order[j] for j in targets.seg_j]
    written = zip(t_queries, map(values.__getitem__, map(slice, starts, ends)))
    for i, n in zip(seg_rows, kept):
        results[i].update(islice(written, n))
    if touched and suspects is not None:
        if vector:
            tv = _np.array(touched)
            flagged = (tv.searchsorted(lo_v, "left") < tv.searchsorted(hi_v, "right")).nonzero()[0]
            marks: List[int] = flagged.tolist()
        else:
            n_touched = len(touched)
            marks = [
                t for t, (lo, hi) in enumerate(zip(w_lo, w_hi))
                if (at := bisect_left(touched, lo)) < n_touched and touched[at] <= hi
            ]
        if marks:
            seg_ends = list(accumulate(kept))  # a target's segment: the first end past it
            for t in marks:
                row = seg_rows[bisect_right(seg_ends, t)]
                suspects.setdefault(row, []).append(t_queries[t])
    return len(starts)


def _vector_bounds(
    _np: Any, targets: _Targets, bs: List[float], r_side: bool
) -> Tuple[List[int], List[Any], Any, Any]:
    """``_Targets.bounds`` in numpy: the targets each segment keeps, the
    kept targets' queries, and their window ends as float64 vectors."""
    seg_len = _np.frombuffer(targets.seg_len, dtype=_np.int64)
    seg_j = _np.frombuffer(targets.seg_j, dtype=_np.int64)
    b = _np.repeat(_np.array(bs)[seg_j], seg_len)
    succ = _np.repeat(_np.frombuffer(targets.seg_succ, dtype=_np.bool_), seg_len)
    raw_lo = _np.frombuffer(targets.raw_lo, dtype=_np.float64)
    raw_hi = _np.frombuffer(targets.raw_hi, dtype=_np.float64)
    if r_side:
        lo_off, hi_off = raw_lo, _np.where(succ, -raw_hi, raw_hi)
    else:
        lo_off, hi_off = _np.where(succ, -raw_lo, raw_lo), -raw_hi
    dup = lo_off <= _np.repeat(_np.frombuffer(targets.seg_cut, dtype=_np.float64), seg_len)
    lo_v, hi_v = b + lo_off, b + hi_off
    queries = targets.queries
    if not dup.any():
        return targets.seg_len.tolist(), queries, lo_v, hi_v
    keep = ~dup
    seg_of = _np.repeat(_np.arange(len(seg_len)), seg_len)
    kept = seg_len - _np.bincount(seg_of[dup], minlength=len(seg_len))
    queries = list(compress(queries, keep.tolist()))
    return kept.tolist(), queries, lo_v[keep], hi_v[keep]
