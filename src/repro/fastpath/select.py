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
  table; a group is the :class:`SelectColumns` of its members, sorted by
  ``sel_lo``): ``surrounding((b, p_j))`` is ``bisect_left`` of the point
  in each joining row's column, the group's extent rejects the rows
  neither of whose neighbours it covers, and a ``bisect`` pair on
  ``sel_lo`` gives each kept row its candidate window, the members with
  ``sel_lo`` in ``[x - reach, x]``.  Only those are tested (``x <=
  sel_hi`` and a neighbour in ``rng``), so a row pays for about its
  results, not for its group's size.  A run's windows are tested in one
  pass, group by group: a Python loop below ``MIN_CANDIDATES``
  candidates, one vector test over every window above it.  The worst case
  is one long selection: it raises ``reach``, and so widens every window
  of its group toward the whole group, which is what a member mask costs.
  Each result is a slice of the joined rows, bounded by the same pred/succ
  position the cursors start from;
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
are written on every subscription change, and the table's columns on
every row write.  The pure-Python kernel bisects the same columns; so does
a population of fewer than ``MIN_VECTOR`` queries, or a group run of fewer
than ``MIN_CANDIDATES`` candidates, where numpy dispatch costs more than
the loop it replaces.

Batched deltas are identical to the per-event probes' as dicts --- the same
queries, each with the same rows in the same order.  The insertion order of
the queries inside one event's delta is not part of the contract.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from math import inf, nan
from operator import itemgetter, sub
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dstruct.endpoint_orders import find_slot
from repro.fastpath.kernels import MIN_CANDIDATES, MIN_VECTOR, get_numpy


class SelectColumns:
    """Endpoint columns of a select-join population: a stabbing group's
    members, or the queries that have no group.

    ``sel_*`` bound the attribute of the *arriving* row the query selects
    on, ``rng_*`` the second component of the composite index the results
    are enumerated from; ``queries`` is the parallel query list.  Members
    are kept sorted by ``sel_lo`` (equal keys in insertion order), and
    ``reach`` is the longest selection ``sel_hi - sel_lo`` among them, so
    every member whose selection contains ``x`` has ``sel_lo`` in ``[x -
    reach, x]``: one contiguous window of the columns.  ``rng_min`` /
    ``rng_max`` is the extent ``[min(rng_lo), max(rng_hi)]`` the probes
    reject a row against before they read a column.  The extent and
    ``reach`` are raised on :meth:`add` and recomputed only when the member
    that holds one leaves, so the columns are always current --- there is
    nothing to rebuild and no dirty flag.
    """

    __slots__ = ("sel_lo", "sel_hi", "rng_lo", "rng_hi", "rng_min", "rng_max", "reach", "queries")

    def __init__(self) -> None:
        self.sel_lo: array[float] = array("d")
        self.sel_hi: array[float] = array("d")
        self.rng_lo: array[float] = array("d")
        self.rng_hi: array[float] = array("d")
        self.rng_min = inf
        self.rng_max = -inf
        self.reach = 0.0
        self.queries: List[Any] = []

    @classmethod
    def of(cls, members: Iterable[Any], sel_of: Any, rng_of: Any) -> SelectColumns:
        """The columns of ``members`` (a promotion or a rebuild attaches a
        whole group): sorted once, so every insert lands at the end."""
        columns = cls()
        for query in sorted(members, key=lambda q: sel_of(q).lo):
            columns.add(query, sel_of(query), rng_of(query))
        return columns

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: Any, sel: Any, rng: Any) -> None:
        """Insert ``query`` with selection interval ``sel`` and enumeration
        interval ``rng`` at its ``sel.lo`` position."""
        lo, hi = sel.lo, sel.hi
        at = bisect_right(self.sel_lo, lo)
        self.queries.insert(at, query)
        self.sel_lo.insert(at, lo)
        self.sel_hi.insert(at, hi)
        self.rng_lo.insert(at, rng.lo)
        self.rng_hi.insert(at, rng.hi)
        if rng.lo < self.rng_min:
            self.rng_min = rng.lo
        if rng.hi > self.rng_max:
            self.rng_max = rng.hi
        if hi - lo > self.reach:
            self.reach = hi - lo

    def remove(self, query: Any, sel: Any) -> None:
        """Remove ``query``, held under selection interval ``sel``; raises
        ``ValueError``, changing nothing, if it is not.  The extent and
        ``reach`` are recomputed only when the departing member held one."""
        at = find_slot(self.sel_lo, self.queries, sel.lo, query)
        lo, hi = self.rng_lo[at], self.rng_hi[at]
        width = self.sel_hi[at] - self.sel_lo[at]
        del self.queries[at], self.sel_lo[at], self.sel_hi[at], self.rng_lo[at], self.rng_hi[at]
        if lo <= self.rng_min:
            self.rng_min = min(self.rng_lo, default=inf)
        if hi >= self.rng_max:
            self.rng_max = max(self.rng_hi, default=-inf)
        if width >= self.reach:
            self.reach = max(map(sub, self.sel_hi, self.sel_lo), default=0.0)

    def check(self, expected: Iterable[Any], sel_of: Any, rng_of: Any) -> None:
        """Assert the columns hold exactly the queries of ``expected``, each
        once and with its current endpoints, sorted by ``sel_lo``, and that
        the kept extent and ``reach`` are the recomputed ones."""
        queries = self.queries
        held = {id(q) for q in queries}
        assert held == {id(q) for q in expected} and len(held) == len(queries), (
            "column population drifted"
        )
        lengths = {len(column) for column in (self.sel_lo, self.sel_hi, self.rng_lo, self.rng_hi)}
        assert lengths == {len(queries)}, "column lengths differ"
        for slot, query in enumerate(queries):
            sel, rng = sel_of(query), rng_of(query)
            assert (self.sel_lo[slot], self.sel_hi[slot]) == (sel.lo, sel.hi)
            assert (self.rng_lo[slot], self.rng_hi[slot]) == (rng.lo, rng.hi)
        assert list(self.sel_lo) == sorted(self.sel_lo), "sel_lo is not sorted"
        assert self.reach == max(map(sub, self.sel_hi, self.sel_lo), default=0.0), (
            "kept reach drifted"
        )
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
    joined = _joined(cols, rows, xs)
    if points and joined:
        _probe_groups(joined, points, groups, results)
    if columns and joined:
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


def stab_group(group: SelectColumns, x: float, y1: float, y2: float) -> List[int]:
    """The SJ-SSI member test of the per-event probe: the slots of the
    members with ``x`` in their ``sel`` and a neighbour in their ``rng``.

    ``y1 < p <= y2`` are the second components of the arriving row's joined
    entries next to the group's stabbing point ``p``; a missing neighbour is
    NaN, which every comparison below is false for.  Every member's ``rng``
    contains ``p``, so it contains ``y1`` iff ``rng_lo <= y1`` and ``y2``
    iff ``y2 <= rng_hi``.  It tests every member, reading neither the
    ``sel_lo`` order nor ``reach``, so the batch kernel's windows are
    checked against an independent test.  Callers pass only a row the
    group's extent keeps.
    """
    sel_lo, sel_hi, rng_lo, rng_hi = group.sel_lo, group.sel_hi, group.rng_lo, group.rng_hi
    _np = get_numpy()
    if _np is None or len(group) < MIN_VECTOR:
        return [
            slot
            for slot in range(len(group))
            if (rng_lo[slot] <= y1 or y2 <= rng_hi[slot]) and sel_lo[slot] <= x <= sel_hi[slot]
        ]
    # One mask over the members.  These views export the columns' buffers
    # and must die with this frame.
    mask = (_np.frombuffer(rng_lo) <= y1) | (y2 <= _np.frombuffer(rng_hi))
    mask &= (_np.frombuffer(sel_lo) <= x) & (x <= _np.frombuffer(sel_hi))
    return mask.nonzero()[0].tolist()


#: A kept (row, group) pair's candidate window: (the row's index in
#: ``joined``, succ, y1, y2, first candidate slot, end slot).
Window = Tuple[int, int, float, float, int, int]

#: Relative slack on a window's low end: it covers the rounding of ``x -
#: reach`` and of the ``sel_hi - sel_lo`` widths, so no member whose
#: selection holds ``x`` falls below the window.
_SLACK = 2.0**-50


def _probe_groups(
    joined: List[Joined],
    points: Sequence[float],
    groups: Sequence[SelectColumns],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """SJ-SSI group probes of the run against the dense group table.

    Per (joining row, group): ``surrounding((b, p))`` is one bisect of the
    row's key column, the extent rejects a row neither of whose neighbours
    it covers, and a bisect pair on the group's ``sel_lo`` gives the
    candidate window, the members whose selection may hold ``x``.  Then
    :func:`_stab_windows` tests the candidates of every kept pair, group by
    group."""
    table = [
        (point, group.rng_min, group.rng_max, group.sel_lo, group.reach * (1.0 + _SLACK))
        for point, group in zip(points, groups)
    ]
    kept: Dict[int, List[Window]] = {}
    candidates = 0
    for j, (__, x, seconds, ___) in enumerate(joined):
        n = len(seconds)
        low = x - abs(x) * _SLACK
        for g, (point, rng_min, rng_max, sel_lo, reach) in enumerate(table):
            # succ = the first joined entry at or after the stabbing point,
            # pred the one before: the cursor pair of ``surrounding``.
            succ = bisect_left(seconds, point)
            y1 = seconds[succ - 1] if succ else nan
            y2 = seconds[succ] if succ < n else nan
            # Neither neighbour inside the extent: no member contains one.
            if y1 >= rng_min or y2 <= rng_max:
                start = bisect_left(sel_lo, low - reach)
                end = bisect_right(sel_lo, x, start)
                if start < end:
                    kept.setdefault(g, []).append((j, succ, y1, y2, start, end))
                    candidates += end - start
    if kept:
        _stab_windows(joined, [(groups[g], kept[g]) for g in sorted(kept)], candidates, results)


def _stab_windows(
    joined: List[Joined],
    kept: List[Tuple[SelectColumns, List[Window]]],
    candidates: int,
    results: List[Dict[Any, List[Any]]],
) -> None:
    """The member test of a run's kept windows, each group's read once:
    a candidate is affected iff ``x <= sel_hi`` (its window already has
    ``sel_lo <= x``) and a neighbour lies in its ``rng``; ``candidates``
    counts them.  A run of fewer than ``MIN_CANDIDATES`` loops over the
    windows and walks outward from pred/succ per affected member; above
    it, one numpy pass tests every candidate and one ``searchsorted`` pair
    per joined row enumerates the results (:func:`_emit`)."""
    _np = get_numpy()
    if _np is None or candidates < MIN_CANDIDATES:
        for group, windows in kept:
            sel_hi, rng_lo, rng_hi = group.sel_hi, group.rng_lo, group.rng_hi
            queries = group.queries
            for j, succ, y1, y2, start, end in windows:
                i, x, seconds, hits_of_key = joined[j]
                res = results[i]
                for slot in range(start, end):
                    if x <= sel_hi[slot] and (rng_lo[slot] <= y1 or y2 <= rng_hi[slot]):
                        # The outward walks: back from pred while >= lo, on
                        # from succ while <= hi.
                        first = bisect_left(seconds, rng_lo[slot], 0, succ)
                        hits = hits_of_key[first : bisect_right(seconds, rng_hi[slot], succ)]
                        assert hits, "affected select-join produced no result"
                        res[queries[slot]] = hits
        return
    flat = [window for __, windows in kept for window in windows]
    js, __, y1, y2, starts, ends = map(_np.array, zip(*flat))
    # Each group's span of window slots, copied into one set of columns.
    # The views export the columns' buffers and must die with this frame.
    counts = [len(windows) for __, windows in kept]
    firsts = _np.cumsum([0, *counts[:-1]])
    los = _np.minimum.reduceat(starts, firsts)
    spans = _np.maximum.reduceat(ends, firsts) - los
    pieces = list(zip((group for group, __ in kept), los.tolist(), (los + spans).tolist()))
    sel_hi, rng_lo, rng_hi = (
        _np.concatenate([_np.frombuffer(getattr(group, name))[lo:hi] for group, lo, hi in pieces])
        for name in ("sel_hi", "rng_lo", "rng_hi")
    )
    queries = [query for group, lo, hi in pieces for query in group.queries[lo:hi]]
    # The ragged expansion: candidate -> its window and its slot there.
    lengths = ends - starts
    starts += _np.repeat(_np.cumsum(spans) - spans - los, counts)
    window = _np.repeat(_np.arange(len(flat)), lengths)
    slot = _np.arange(candidates) + _np.repeat(starts - (_np.cumsum(lengths) - lengths), lengths)
    x = _np.array([entry[1] for entry in joined])[js]
    hit = (rng_lo[slot] <= y1[window]) | (y2[window] <= rng_hi[slot])
    hit &= x[window] <= sel_hi[slot]
    slot, jv = slot[hit], js[window[hit]]
    order = jv.argsort(kind="stable")
    slot, jv = slot[order], jv[order]
    _emit(joined, jv, slot, rng_lo[slot], rng_hi[slot], queries, results)


def _emit(
    joined: Sequence[Joined],
    jv: Any,
    qv: Any,
    lo_v: Any,
    hi_v: Any,
    queries: List[Any],
    results: List[Dict[Any, List[Any]]],
) -> None:
    """The window step of both numpy probes: (joined row ``jv``, query
    ``queries[qv]``) pairs, ``jv`` ascending, each with its enumeration
    bounds ``[lo_v, hi_v]``.  One ``searchsorted`` pair per joined row
    turns the bounds into a slice of the row's joined rows; only the pairs
    whose slice is not empty reach the Python loop."""
    _np = get_numpy()
    starts = _np.empty(len(jv), _np.intp)
    ends = _np.empty(len(jv), _np.intp)
    cuts = _np.searchsorted(jv, _np.arange(len(joined) + 1)).tolist()
    for (__, ___, seconds, ____), c0, c1 in zip(joined, cuts, cuts[1:]):
        if c0 < c1:
            col = _np.frombuffer(seconds)
            starts[c0:c1] = col.searchsorted(lo_v[c0:c1], "left")
            ends[c0:c1] = col.searchsorted(hi_v[c0:c1], "right")
    (keep,) = (ends > starts).nonzero()
    for j, q, start, end in zip(
        jv[keep].tolist(), qv[keep].tolist(), starts[keep].tolist(), ends[keep].tolist()
    ):
        entry = joined[j]
        results[entry[0]][queries[q]] = entry[3][start:end]


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
    if len(jv):
        _emit(
            joined, jv, qv, _np.frombuffer(rng_lo)[qv], _np.frombuffer(rng_hi)[qv], queries, results
        )
