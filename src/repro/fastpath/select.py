"""Columnar batch probe for equality joins with selections (Section 3.2).

One kernel serves every select-join batch entry point --- the SJ-SSI group
probe on both sides, and the hot groups and scattered remainder of the
hotspot processor on both sides --- with the roles of the columns swapped
(``sel``/``rng``), not separate code paths.  For a run of arriving rows it

* reads the joining rows of a join key from the probed table's keyed
  columns (``cols_bc`` / ``cols_ba``, see :mod:`repro.engine.table`): one
  dict lookup gives the sorted ``array('d')`` column of the second key
  and the rows in that order, with equal keys in insertion order;
* probes the **stabbing groups** (``points``/``groups``, the dense group
  table; a group is the :class:`SelectColumns` of its members) group by
  group: ``surrounding((b, p_j))`` is ``bisect_left`` of the point in each
  joining row's column, the group's extent rejects the rows neither of
  whose neighbours it covers, and :func:`stab_group` --- the member test
  the per-event ``probe_select_group`` runs too, on one row --- tests the
  rest in one pass, a single ``(rows x members)`` mask under numpy.  So a
  group costs one member test per run, not one per join key.  The outward
  leaf walks are one slice of the joined rows, bounded by the same
  pred/succ position the cursors start from;
* probes the **endpoint columns** of a query population that has no groups
  (also a :class:`SelectColumns`): the closed-interval selection test of all
  queries against the whole run is one ``(rows x queries)`` comparison,
  and each surviving pair becomes one ``searchsorted`` pair on the joined
  column and a slice of the joined rows --- the rows, in the order,
  ``cursor_ge((b, lo)).collect_forward_prefix_le(b, hi)`` yields per event;
* reads the hotspot processor's rangeC groups and scattered columns, kept
  for R arrivals, with the roles swapped for S arrivals (``swapped=True``):
  an S row *selects* on rangeC, the attribute those groups are stabbed on,
  so a group whose extent holds no joining row's ``c`` is rejected whole,
  and the rows inside it are selected and enumerated as the endpoint
  columns are.

numpy views of the columns (``np.frombuffer``) live in locals only: an
``array`` cannot resize while its buffer is exported, the query columns
are appended to and swap-removed from on every subscription change, and
the table's columns are written on every row write.  The pure-Python
kernel bisects the same columns; so does a population of fewer than
``MIN_VECTOR`` queries, where numpy dispatch costs more than the loop it
replaces.

Batched deltas are identical to the per-event probes' as dicts --- the same
queries, each with the same rows in the same order.  The insertion order of
the queries inside one event's delta is not part of the contract.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from math import inf, nan
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fastpath.kernels import MIN_VECTOR, get_numpy


class SelectColumns:
    """Endpoint columns of a select-join population: a stabbing group's
    members, or the queries that have no group.

    ``sel_*`` bound the attribute of the *arriving* row the query selects
    on, ``rng_*`` the second component of the composite index the results
    are enumerated from; ``queries`` is the parallel query list.  Appended
    to and swap-removed from in O(1), so the columns are always current ---
    there is nothing to rebuild and no dirty flag.  ``rng_min``/``rng_max``
    is the extent ``[min(rng_lo), max(rng_hi)]`` the probes reject a row
    against before :func:`stab_group` reads a column.
    """

    __slots__ = ("sel_lo", "sel_hi", "rng_lo", "rng_hi", "rng_min", "rng_max", "queries", "_slot")

    def __init__(self) -> None:
        self.sel_lo: array[float] = array("d")
        self.sel_hi: array[float] = array("d")
        self.rng_lo: array[float] = array("d")
        self.rng_hi: array[float] = array("d")
        self.rng_min = inf
        self.rng_max = -inf
        self.queries: List[Any] = []
        self._slot: Dict[int, int] = {}  # id(query) -> position

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: Any, sel: Any, rng: Any) -> None:
        """Append ``query`` with selection interval ``sel`` and enumeration
        interval ``rng``."""
        assert id(query) not in self._slot, "query is already in the columns"
        self._slot[id(query)] = len(self.queries)
        self.queries.append(query)
        self.sel_lo.append(sel.lo)
        self.sel_hi.append(sel.hi)
        self.rng_lo.append(rng.lo)
        self.rng_hi.append(rng.hi)
        if rng.lo < self.rng_min:
            self.rng_min = rng.lo
        if rng.hi > self.rng_max:
            self.rng_max = rng.hi

    def remove(self, query: Any) -> None:
        """Swap-remove ``query``: the last entry takes its slot.  The extent
        is recomputed only when the departing member held an extreme."""
        slot = self._slot.pop(id(query))
        lo, hi = self.rng_lo[slot], self.rng_hi[slot]
        last = self.queries.pop()
        moved = last is not query
        if moved:
            self.queries[slot] = last
            self._slot[id(last)] = slot
        for column in (self.sel_lo, self.sel_hi, self.rng_lo, self.rng_hi):
            value = column.pop()
            if moved:
                column[slot] = value
        if lo <= self.rng_min:
            self.rng_min = min(self.rng_lo, default=inf)
        if hi >= self.rng_max:
            self.rng_max = max(self.rng_hi, default=-inf)

    def check(self, expected: Any, sel_of: Any, rng_of: Any) -> None:
        """Assert the columns hold exactly the queries of ``expected``, each
        at the slot the position map names, with its current endpoints, and
        that the kept extent is the recomputed one."""
        queries = self.queries
        assert {id(q) for q in queries} == {id(q) for q in expected}, "column population drifted"
        assert len(queries) == len(self._slot) == len(self.sel_lo), "column lengths differ"
        assert len(queries) == len(self.sel_hi) == len(self.rng_lo) == len(self.rng_hi)
        for slot, query in enumerate(queries):
            assert self._slot[id(query)] == slot, "position map drifted"
            sel, rng = sel_of(query), rng_of(query)
            assert (self.sel_lo[slot], self.sel_hi[slot]) == (sel.lo, sel.hi)
            assert (self.rng_lo[slot], self.rng_hi[slot]) == (rng.lo, rng.hi)
        extent = (min(self.rng_lo, default=inf), max(self.rng_hi, default=-inf))
        assert (self.rng_min, self.rng_max) == extent, "kept extent drifted"


def batch_probe_select_r(
    cols_bc: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    groups: Sequence[SelectColumns],
    results: List[Dict[Any, List[Any]]],
    columns: Optional[SelectColumns] = None,
) -> None:
    """Probe a batch of R-tuples against S's keyed columns ``cols_bc``.

    ``points``/``groups`` is the dense table of the rangeC stabbing groups;
    they and ``columns``, an ungrouped population, select on ``rangeA``
    (``sel``) and enumerate by ``rangeC`` (``rng``).  ``results`` is a
    parallel list of per-row dicts, updated in place.  All rows are probed
    against the same S(B, C) state, so this is only valid for a run of
    R-inserts with no interleaved S-change.
    """
    _batch_probe(cols_bc, rows, [row.a for row in rows], points, groups, results, columns)


def batch_probe_select_s(
    cols_ba: Any,
    rows: Sequence[Any],
    points: Sequence[float],
    groups: Sequence[SelectColumns],
    results: List[Dict[Any, List[Any]]],
    columns: Optional[SelectColumns] = None,
    *,
    swapped: bool = False,
) -> None:
    """Symmetric batch probe for S-tuples against R's ``cols_ba``: groups
    are on rangeA; they and ``columns`` select on ``rangeC`` and enumerate
    by ``rangeA``.

    ``swapped=True`` reads populations laid out for R arrivals instead ---
    the hotspot processor's rangeC groups and its scattered columns, which
    select on ``rangeA`` (``sel``) and enumerate by ``rangeC`` (``rng``) ---
    with the roles swapped (:func:`_probe_swapped`); ``points`` is unused
    then.
    """
    xs = [row.c for row in rows]
    if swapped:
        _probe_swapped(cols_ba, rows, xs, groups, columns, results)
    else:
        _batch_probe(cols_ba, rows, xs, points, groups, results, columns)


def _batch_probe(
    cols: Dict[float, Tuple[Any, List[Any]]],
    rows: Sequence[Any],
    xs: List[float],
    points: Sequence[float],
    groups: Sequence[SelectColumns],
    results: List[Dict[Any, List[Any]]],
    columns: Optional[SelectColumns],
) -> None:
    """``xs`` is the selection attribute of the arriving rows; ``cols``
    maps a join key to (second-key column, joined rows)."""
    if not rows or not (points or columns):
        return
    if points:
        _probe_groups(cols, rows, xs, points, groups, results)
    if columns:
        joined = _joined(cols, rows, xs)
        _probe_columns(
            joined, columns.sel_lo, columns.sel_hi, columns.rng_lo, columns.rng_hi,
            columns.queries, results,
        )


#: A joining arrival: (its index in the run, its selection value, the
#: second-key column of its join key, the joined rows in that order).
Joined = Tuple[int, float, Any, List[Any]]


def _joined(
    cols: Dict[float, Tuple[Any, List[Any]]], rows: Sequence[Any], xs: List[float]
) -> List[Joined]:
    """The rows of the run whose join key the probed table holds, in run
    order: a row without one joins nothing, whatever it selects."""
    get = cols.get
    return [
        (i, x, run[0], run[1]) for i, (row, x) in enumerate(zip(rows, xs))
        if (run := get(row.b)) is not None
    ]


def _probe_swapped(
    cols: Dict[float, Tuple[Any, List[Any]]],
    rows: Sequence[Any],
    xs: List[float],
    groups: Sequence[SelectColumns],
    columns: Optional[SelectColumns],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """S arrivals against populations kept for R arrivals: every query
    selects on ``rng`` (rangeC) and enumerates by ``sel`` (rangeA).

    Group-major: a stabbing group's members all contain its point, so its
    ``[rng_min, rng_max]`` extent bounds every member's rangeC, and a
    group whose extent holds no joining row's ``c`` costs two bisects over
    the run's sorted ``c`` values.  The rows inside the extent are tested
    on the members' rangeC in one pass and enumerated on rangeA, as the
    scattered ``columns`` are with every joining row."""
    if not rows or not (groups or columns):
        return
    joined = _joined(cols, rows, xs)
    if not joined:
        return
    if groups:
        by_x = sorted(joined, key=itemgetter(1))
        sorted_xs = [entry[1] for entry in by_x]
        for group in groups:
            lo = bisect_left(sorted_xs, group.rng_min)
            hi = bisect_right(sorted_xs, group.rng_max, lo)
            if lo < hi:
                _probe_columns(
                    by_x[lo:hi], group.rng_lo, group.rng_hi, group.sel_lo, group.sel_hi,
                    group.queries, results,
                )
    if columns:
        _probe_columns(
            joined, columns.rng_lo, columns.rng_hi, columns.sel_lo, columns.sel_hi,
            columns.queries, results,
        )


def stab_group(
    group: SelectColumns, xs: Sequence[float], y1s: Sequence[float], y2s: Sequence[float]
) -> List[List[int]]:
    """The SJ-SSI member test, for the per-event and the batch probes alike.

    Row ``j`` arrives with selection attribute ``xs[j]``, and ``y1s[j] < p
    <= y2s[j]`` are the second components of its joined entries next to the
    group's stabbing point ``p``; a missing neighbour is NaN, which every
    comparison below is false for.  Every member's ``rng`` contains ``p``,
    so it contains ``y1`` iff ``rng_lo <= y1`` and ``y2`` iff ``y2 <=
    rng_hi``.  Returns, per row, the slots of the members with ``x`` in
    their ``sel`` and a neighbour in their ``rng``.  Callers pass only the
    rows the group's extent keeps.
    """
    sel_lo, sel_hi, rng_lo, rng_hi = group.sel_lo, group.sel_hi, group.rng_lo, group.rng_hi
    _np = get_numpy()
    if _np is None or len(group) < MIN_VECTOR:
        slots = range(len(group))
        return [
            [
                slot
                for slot in slots
                if (rng_lo[slot] <= y1 or y2 <= rng_hi[slot]) and sel_lo[slot] <= x <= sel_hi[slot]
            ]
            for x, y1, y2 in zip(xs, y1s, y2s)
        ]
    # One (rows x members) mask.  These views export the columns' buffers
    # and must die with this frame.
    x, y1, y2 = _np.array([*xs, *y1s, *y2s]).reshape(3, -1, 1)
    mask = (_np.frombuffer(rng_lo) <= y1) | (y2 <= _np.frombuffer(rng_hi))
    mask &= (_np.frombuffer(sel_lo) <= x) & (x <= _np.frombuffer(sel_hi))
    return [row.nonzero()[0].tolist() for row in mask]


def _probe_groups(
    cols: Dict[float, Tuple[Any, List[Any]]],
    rows: Sequence[Any],
    xs: List[float],
    points: Sequence[float],
    groups: Sequence[SelectColumns],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """SJ-SSI group probes of the run against the dense group table: the
    extent pre-reject per (joining row, group), then one member test per
    group over the rows it kept."""
    joined = [(i, cols[row.b]) for i, row in enumerate(rows) if row.b in cols]
    extents = [(group.rng_min, group.rng_max) for group in groups]
    # Per group, its kept (row, succ, y1, y2).  succ = the first joined entry
    # at or after the stabbing point, pred the one before: the cursor pair
    # of ``surrounding((b, p_j))``.
    kept: Dict[int, List[Tuple[int, int, float, float]]] = {}
    for j, (__, (seconds, ___)) in enumerate(joined):
        n = len(seconds)
        for g, (point, (rng_min, rng_max)) in enumerate(zip(points, extents)):
            succ = bisect_left(seconds, point)
            y1 = seconds[succ - 1] if succ else nan
            y2 = seconds[succ] if succ < n else nan
            # Neither neighbour inside the extent: no member contains one.
            if y1 >= rng_min or y2 <= rng_max:
                kept.setdefault(g, []).append((j, succ, y1, y2))
    for g in sorted(kept):
        group = groups[g]
        rng_lo, rng_hi, queries = group.rng_lo, group.rng_hi, group.queries
        js, succs, y1s, y2s = zip(*kept[g])
        xs_kept = [xs[joined[j][0]] for j in js]
        for j, succ, slots in zip(js, succs, stab_group(group, xs_kept, y1s, y2s)):
            i, (seconds, hits_of_key) = joined[j]
            res = results[i]
            for slot in slots:
                # The outward walks: back from pred while >= lo, on from
                # succ while <= hi.
                start = bisect_left(seconds, rng_lo[slot], 0, succ)
                hits = hits_of_key[start : bisect_right(seconds, rng_hi[slot], succ)]
                assert hits, "affected select-join produced no result"
                res[queries[slot]] = hits


def _probe_columns(
    joined: Sequence[Joined],
    sel_lo: Any,
    sel_hi: Any,
    rng_lo: Any,
    rng_hi: Any,
    queries: List[Any],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """SelectFirst over endpoint columns: select each joining row's ``x``
    on ``[sel_lo, sel_hi]``, then enumerate its key's rows on ``[rng_lo,
    rng_hi]`` by slice.  The four columns are a population's, in either
    role (:func:`_probe_swapped` passes them swapped)."""
    _np = get_numpy()
    if _np is None or len(queries) < MIN_VECTOR:
        for s_lo, s_hi, r_lo, r_hi, query in zip(sel_lo, sel_hi, rng_lo, rng_hi, queries):
            for i, x, seconds, hits_of_key in joined:
                if s_lo <= x <= s_hi:
                    start = bisect_left(seconds, r_lo)
                    end = bisect_right(seconds, r_hi, start)
                    if end > start:
                        results[i][query] = hits_of_key[start:end]
        return
    # These views export the columns' buffers: they and everything sliced
    # from them must die with this frame (fancy indexing copies).
    xv = _np.array([entry[1] for entry in joined])[:, None]
    selected = (_np.frombuffer(sel_lo) <= xv) & (xv <= _np.frombuffer(sel_hi))
    jv, qv = _np.nonzero(selected)  # (joined row, query) pairs, row-major
    if not len(jv):
        return
    lo_v = _np.frombuffer(rng_lo)[qv]
    hi_v = _np.frombuffer(rng_hi)[qv]
    cuts = _np.searchsorted(jv, _np.arange(len(joined) + 1), side="left").tolist()
    ql = qv.tolist()
    for (i, __, seconds, hits_of_key), c0, c1 in zip(joined, cuts, cuts[1:]):
        if c0 == c1:
            continue
        col = _np.frombuffer(seconds)
        starts = _np.searchsorted(col, lo_v[c0:c1], side="left").tolist()
        ends = _np.searchsorted(col, hi_v[c0:c1], side="right").tolist()
        res = results[i]
        for q, start, end in zip(ql[c0:c1], starts, ends):
            if end > start:
                res[queries[q]] = hits_of_key[start:end]
