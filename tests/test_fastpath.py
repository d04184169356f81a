"""Tests for the columnar batch fast path: every batched entry point must be
delta-identical to its per-event counterpart — same affected queries, same
result rows, same order — on both the numpy and pure-Python kernels."""

import itertools
import random

import pytest

from repro.core.intervals import Interval
from repro.durability import DurabilityManager
from repro.durability.wal import read_wal
from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.engine.queries import (
    BandJoinQuery,
    SelectJoinQuery,
    range_a_interval,
    range_c_interval,
)
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.fastpath import KERNEL
from repro.fastpath import kernels as kernel_mod
from repro.fastpath import select as select_probe
from repro.operators.band_join import BJSSI
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
)
from repro.operators.select_join import SJSSI
from repro.runtime import sharding
from repro.runtime.pipeline import EventPipeline
from repro.runtime.sharding import DOMAIN_HI, DOMAIN_LO, ShardGroup
from repro.wire import encode_event

BATCH_SIZES = (1, 2, 7, 8, 23, 120)


@pytest.fixture(params=["native", "python"])
def kernel(request, monkeypatch):
    """Run each test under the imported kernel and with numpy disabled.

    Every consumer reads the handle through ``kernels.get_numpy()`` at call
    time (RA002 kernel isolation), so patching the one module-global in
    ``kernels`` forces the scalar fallback everywhere.
    """
    if request.param == "python":
        monkeypatch.setattr(kernel_mod, "_np", None)
    return request.param


def make_tables(rng, n_s=300, n_r=300):
    table_s = TableS()
    table_r = TableR()
    for __ in range(n_s):
        table_s.add(rng.uniform(0, 100), rng.uniform(0, 100))
    for __ in range(n_r):
        table_r.add(rng.uniform(0, 100), rng.uniform(0, 100))
    return table_s, table_r


def band_queries(rng, count):
    queries = []
    for __ in range(count):
        lo = rng.uniform(-60, 60)
        queries.append(BandJoinQuery(Interval(lo, lo + rng.uniform(0, 8))))
    return queries


def select_queries(rng, count, c_scale=1.0):
    """Select-joins on ``[0, 110]`` in A and ``[0, 110 * c_scale]`` in C."""
    queries = []
    for __ in range(count):
        a_lo = rng.uniform(0, 90)
        c_lo = rng.uniform(0, 90) * c_scale
        queries.append(
            SelectJoinQuery(
                Interval(a_lo, a_lo + rng.uniform(0, 20)),
                Interval(c_lo, c_lo + rng.uniform(0, 20) * c_scale),
            )
        )
    return queries


def spread_band_queries(rng, count):
    """``band_queries`` with every third band stretched 8000 to the left and
    every third to the right: each still covers the small b-differences it
    did, and their midpoints fall in every band slice of the routing domain."""
    queries = band_queries(rng, count)
    for k in range(0, count, 3):
        band = queries[k].band
        queries[k] = BandJoinQuery(Interval(band.lo - 8_000.0, band.hi))
    for k in range(2, count, 3):
        band = queries[k].band
        queries[k] = BandJoinQuery(Interval(band.lo, band.hi + 8_000.0))
    return queries


def in_order(deltas):
    """Each row's delta as its ``(query, hits)`` pairs in order: dict ``==``
    ignores the query order, list ``==`` does not."""
    return [list(delta.items()) for delta in deltas]


def assert_batches_match(process_batch, process_one, rows, ordered=False):
    """Batched deltas equal the per-event ones at every batch size.

    A band delta (``ordered=True``) must also list its queries in the
    per-event order; query order inside a select delta is not part of the
    contract (``repro.fastpath.select``), so select call sites compare dicts.
    """
    view = in_order if ordered else list
    for size in BATCH_SIZES:
        chunk = rows[:size]
        assert view(process_batch(chunk)) == view([process_one(row) for row in chunk]), (
            f"batch size {size} diverged"
        )


class TestKernels:
    def test_kernel_selection(self):
        assert KERNEL in ("numpy", "python")


class TestBandBatch:
    def test_r_and_s_sides_match_per_event(self, kernel):
        rng = random.Random(1)
        table_s, table_r = make_tables(rng)
        strategy = BJSSI(table_s, table_r)
        for query in band_queries(rng, 400):
            strategy.add_query(query)
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(120)]
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(120)]
        assert_batches_match(strategy.process_r_batch, strategy.process_r, rs, ordered=True)
        assert_batches_match(strategy.process_s_batch, strategy.process_s, ss, ordered=True)

    def test_batch_against_empty_tables(self, kernel):
        strategy = BJSSI(TableS(), TableR())
        strategy.add_query(BandJoinQuery(Interval(-1, 1)))
        r = strategy.table_r.new_row(5.0, 5.0)
        assert strategy.process_r_batch([r]) == [{}]
        assert strategy.process_r_batch([]) == []

    def test_batch_after_mutations_and_query_churn(self, kernel):
        rng = random.Random(2)
        table_s, table_r = make_tables(rng, n_s=150, n_r=150)
        strategy = BJSSI(table_s, table_r)
        queries = band_queries(rng, 200)
        for query in queries:
            strategy.add_query(query)
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(60)]
        assert_batches_match(strategy.process_r_batch, strategy.process_r, rs, ordered=True)
        # Mutate the probed table and the query set; snapshots must refresh.
        for row in rs[:30]:
            table_r.insert(row)
        for __ in range(40):
            table_s.add(rng.uniform(0, 100), rng.uniform(0, 100))
        for query in queries[::3]:
            strategy.remove_query(query)
        assert_batches_match(strategy.process_r_batch, strategy.process_r, rs, ordered=True)
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(60)]
        assert_batches_match(strategy.process_s_batch, strategy.process_s, ss, ordered=True)

    @pytest.mark.skipif(KERNEL != "numpy", reason="only numpy exports array buffers")
    def test_probe_leaves_no_exported_buffer_behind(self):
        """The numpy kernel reads a table's key column through a zero-copy
        ``frombuffer`` view, and an ``array`` with a live export refuses to
        resize (``BufferError``).  Interleave probes with every kind of
        write to the key columns and to the groups' endpoint columns."""
        rng = random.Random(5)
        table_s, table_r = make_tables(rng, n_s=200, n_r=200)
        strategy = BJSSI(table_s, table_r)
        queries = band_queries(rng, 200)
        for query in queries:
            strategy.add_query(query)

        def probe():
            rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(23)]
            ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(23)]
            assert in_order(strategy.process_r_batch(rs)) == in_order(map(strategy.process_r, rs))
            assert in_order(strategy.process_s_batch(ss)) == in_order(map(strategy.process_s, ss))
            return rs, ss

        rs, ss = probe()
        for r, s in zip(rs, ss):  # insert into both probed key columns
            table_r.insert(r)
            table_s.insert(s)
        probe()
        for r, s in zip(rs[::2], ss[::2]):  # ... and delete from them
            table_r.delete(r)
            table_s.delete(s)
        probe()
        for query in queries[::2]:  # shrink, then grow, the endpoint columns
            strategy.remove_query(query)
        probe()
        for query in band_queries(rng, 50):
            strategy.add_query(query)
        probe()
        for table in (table_r, table_s):
            keys, rows = table.by_b.flat_snapshot()
            assert table.col_b == (keys, rows)

    def test_result_order_is_preserved(self, kernel):
        """Batched result lists must keep the per-event enumeration order
        (ascending join key), not just the same set of rows."""
        table_s = TableS()
        rows = [table_s.add(float(b), 0.0) for b in (5, 3, 9, 1, 7)]
        assert rows  # silence unused warning; insertion order is scrambled
        strategy = BJSSI(table_s, TableR())
        strategy.add_query(BandJoinQuery(Interval(-10, 10)))
        r = strategy.table_r.new_row(0.0, 0.0)
        [batched] = strategy.process_r_batch([r])
        per_event = strategy.process_r(r)
        (b_rows,) = batched.values()
        (e_rows,) = per_event.values()
        assert [s.b for s in b_rows] == [s.b for s in e_rows] == [1, 3, 5, 7, 9]


class TestSelectBatch:
    def test_r_and_s_sides_match_per_event(self, kernel):
        rng = random.Random(3)
        table_s, table_r = make_tables(rng)
        strategy = SJSSI(table_s, table_r)
        for query in select_queries(rng, 300):
            strategy.add_query(query)
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(120)]
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(120)]
        assert_batches_match(strategy.process_r_batch, strategy.process_r, rs)
        assert_batches_match(strategy.process_s_batch, strategy.process_s, ss)

    def test_asymmetric_sjssi_rejects_s_batches(self, kernel):
        strategy = SJSSI(TableS(), TableR(), symmetric=False)
        s = strategy.table_s.new_row(1.0, 1.0)
        with pytest.raises(RuntimeError):
            strategy.process_s_batch([s])


class TestHotspotBatch:
    def test_band_processor_matches_per_event(self, kernel):
        rng = random.Random(4)
        table_s, table_r = make_tables(rng)
        processor = HotspotBandJoinProcessor(table_s, table_r, alpha=0.05)
        for query in band_queries(rng, 300):
            processor.add_query(query)
        assert len(processor.tracker.hotspot_groups) > 0, "want both probe paths live"
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(80)]
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(80)]
        assert_batches_match(processor.process_r_batch, processor.process_r, rs, ordered=True)
        assert_batches_match(processor.process_s_batch, processor.process_s, ss, ordered=True)

    def test_select_processor_matches_per_event(self, kernel):
        rng = random.Random(5)
        table_s, table_r = make_tables(rng)
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.05)
        for query in select_queries(rng, 300):
            processor.add_query(query)
        assert len(processor.tracker.hotspot_groups) > 0
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(80)]
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(80)]
        assert_batches_match(processor.process_r_batch, processor.process_r, rs)
        assert_batches_match(processor.process_s_batch, processor.process_s, ss)


def band_population(table_s, table_r, *, hot, scattered, alpha=0.1):
    """A band processor with ``hot`` nested bands around difference 0 (one
    stabbing group) and ``scattered`` disjoint ones; every endpoint is an
    integer, so integer join keys land on closed endpoints exactly."""
    processor = HotspotBandJoinProcessor(table_s, table_r, alpha=alpha)
    for k in range(hot):
        processor.add_query(BandJoinQuery(Interval(-1.0 - k, 2.0 + k)))
    for k in range(scattered):
        processor.add_query(BandJoinQuery(Interval(20.0 + 4 * k, 23.0 + 4 * k)))
    return processor


def integer_tables(rng, n_s=150, n_r=150):
    table_s, table_r = TableS(), TableR()
    for __ in range(n_s):
        table_s.add(float(rng.randrange(0, 120)), rng.uniform(0, 100))
    for __ in range(n_r):
        table_r.add(rng.uniform(0, 100), float(rng.randrange(0, 120)))
    return table_s, table_r


def assert_band_runs_match(processor, rs, ss):
    """Both sides of the band plane: batched deltas == the per-event probes'
    (the same queries in the same order, equally ordered row lists) == the
    brute-force oracle's."""
    processor.validate()
    r_deltas, s_deltas = processor.process_r_batch(rs), processor.process_s_batch(ss)
    assert in_order(r_deltas) == in_order(map(processor.process_r, rs))
    assert in_order(s_deltas) == in_order(map(processor.process_s, ss))
    queries = list(processor._queries.values())
    for r, delta in zip(rs, r_deltas):
        want = {
            q: sorted(s.sid for s in processor.table_s if q.band.contains(s.b - r.b))
            for q in queries
        }
        got = {q: sorted(s.sid for s in hits) for q, hits in delta.items()}
        assert got == {q: sids for q, sids in want.items() if sids}
    for s, delta in zip(ss, s_deltas):
        want = {
            q: sorted(r.rid for r in processor.table_r if q.band.contains(s.b - r.b))
            for q in queries
        }
        got = {q: sorted(r.rid for r in hits) for q, hits in delta.items()}
        assert got == {q: rids for q, rids in want.items() if rids}


class TestBandSymmetricProbe:
    """The hotspot band plane probes per hot group on *both* sides: an S
    arrival takes the BJ-SSI group probe of R(B) on the hotspots and the
    window scan on the scattered remainder, like an R arrival of S(B)."""

    def arrivals(self, rng, table_s, table_r, n=40):
        rs = [table_r.new_row(rng.uniform(0, 100), float(rng.randrange(0, 120))) for __ in range(n)]
        ss = [table_s.new_row(float(rng.randrange(0, 120)), rng.uniform(0, 100)) for __ in range(n)]
        return rs, ss

    @pytest.mark.parametrize(
        "hot, scattered", [(12, 0), (0, 30), (12, 30)], ids=["hot-only", "scattered-only", "mixed"]
    )
    def test_populations_match_per_event_and_oracle(self, kernel, hot, scattered):
        rng = random.Random(31)
        table_s, table_r = integer_tables(rng)
        processor = band_population(table_s, table_r, hot=hot, scattered=scattered)
        assert bool(processor._hot.group_count()) == bool(hot)
        assert len(processor._hot.scattered) == scattered
        rs, ss = self.arrivals(rng, table_s, table_r)
        assert_band_runs_match(processor, rs, ss)
        for size in BATCH_SIZES:
            assert in_order(processor.process_s_batch(ss[:size])) == in_order(
                map(processor.process_s, ss[:size])
            )

    def test_across_a_promotion_and_a_demotion(self, kernel):
        rng = random.Random(32)
        table_s, table_r = integer_tables(rng)
        processor = band_population(table_s, table_r, hot=0, scattered=30, alpha=0.2)
        rs, ss = self.arrivals(rng, table_s, table_r)
        cluster = [BandJoinQuery(Interval(-2.0 - k, 1.0 + k)) for k in range(12)]
        assert not processor._hot.group_count()
        for query in cluster:
            processor.add_query(query)
        assert processor._hot.group_count(), "the nested bands should have been promoted"
        assert_band_runs_match(processor, rs, ss)
        for query in cluster[:10]:
            processor.remove_query(query)
        assert not processor._hot.group_count(), "the shrunken group should have been demoted"
        assert_band_runs_match(processor, rs, ss)

    def test_empty_tables(self, kernel):
        processor = band_population(TableS(), TableR(), hot=12, scattered=12)
        rs = [processor.table_r.new_row(1.0, float(b)) for b in range(5)]
        ss = [processor.table_s.new_row(float(b), 1.0) for b in range(5)]
        assert processor.process_s_batch(ss) == [{} for __ in ss]
        assert_band_runs_match(processor, rs, ss)

    def test_no_subscriptions(self, kernel):
        rng = random.Random(33)
        table_s, table_r = integer_tables(rng)
        rs, ss = self.arrivals(rng, table_s, table_r, n=3)
        for processor in (
            HotspotBandJoinProcessor(table_s, table_r, alpha=0.1),
            HotspotSelectJoinProcessor(table_s, table_r, alpha=0.1),
            BJSSI(table_s, table_r),
            SJSSI(table_s, table_r),
        ):
            r_deltas, s_deltas = processor.process_r_batch(rs), processor.process_s_batch(ss)
            assert r_deltas == [{}, {}, {}] and s_deltas == [{}, {}, {}]
            assert len({id(d) for d in r_deltas + s_deltas}) == 6  # a fresh dict per row

    @pytest.mark.parametrize("hot", [0, 12], ids=["scattered", "hot"])
    def test_closed_band_endpoints_hit_exactly(self, kernel, hot):
        # One band [-2, 3] among its group: s.b - r.b == 3 and == -2 match,
        # one key further out on either side does not.
        table_s, table_r = TableS(), TableR()
        inside_hi, inside_lo = table_r.add(0.0, 7.0), table_r.add(0.0, 12.0)
        table_r.add(0.0, 6.0)
        table_r.add(0.0, 13.0)
        processor = HotspotBandJoinProcessor(table_s, table_r, alpha=0.5)
        band = BandJoinQuery(Interval(-2.0, 3.0))
        processor.add_query(band)
        for k in range(hot):  # narrower bands around 0: the group goes hot, they match nothing
            processor.add_query(BandJoinQuery(Interval(-0.5 + k / 100, 0.5)))
        for k in range(0 if hot else 4):  # far-off company: every group stays under alpha * n
            processor.add_query(BandJoinQuery(Interval(100.0 + 10 * k, 101.0 + 10 * k)))
        assert bool(processor._hot.group_count()) == bool(hot)
        s = table_s.new_row(10.0, 0.0)
        assert processor.process_s(s) == {band: [inside_hi, inside_lo]}
        assert processor.process_s_batch([s, s]) == [{band: [inside_hi, inside_lo]}] * 2
        assert_band_runs_match(processor, [], [s])


def hot_and_scattered(table_s, table_r, *, alpha=0.1, hot=12, scattered=12):
    """A processor with one hotspot on rangeC = [40, 60] and a scattered
    remainder of disjoint rangeC, every rangeA = [20, 50] or wider."""
    processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=alpha)
    for k in range(hot):
        processor.add_query(SelectJoinQuery(Interval(20, 50 + k), Interval(40 - k, 60 + k)))
    for k in range(scattered):
        processor.add_query(SelectJoinQuery(Interval(20 - k, 50), Interval(100 + 10 * k, 105 + 10 * k)))
    assert processor.tracker.hotspot_groups and processor._hot.scattered, "want both probe paths live"
    return processor


def assert_runs_match(processor, rs, ss):
    """Batched deltas == the per-event probes' == the brute-force oracle's."""
    processor.validate()
    r_deltas, s_deltas = processor.process_r_batch(rs), processor.process_s_batch(ss)
    assert r_deltas == [processor.process_r(r) for r in rs]
    assert s_deltas == [processor.process_s(s) for s in ss]
    queries = list(processor._queries.values())
    for r, delta in zip(rs, r_deltas):
        want = {
            q: sorted(s.sid for s in processor.table_s if s.b == r.b and q.range_c.contains(s.c))
            for q in queries
            if q.range_a.contains(r.a)
        }
        got = {q: sorted(s.sid for s in hits) for q, hits in delta.items()}
        assert got == {q: sids for q, sids in want.items() if sids}
    for s, delta in zip(ss, s_deltas):
        want = {
            q: sorted(r.rid for r in processor.table_r if r.b == s.b and q.range_a.contains(r.a))
            for q in queries
            if q.range_c.contains(s.c)
        }
        got = {q: sorted(r.rid for r in hits) for q, hits in delta.items()}
        assert got == {q: rids for q, rids in want.items() if rids}


class TestSelectColumnProbe:
    """The columnar select probe on ``HotspotSelectJoinProcessor``: S
    arrivals (every query is a candidate) and R arrivals (hotspot groups +
    scattered columns) against per-event processing."""

    def test_several_rows_of_one_join_key(self, kernel):
        table_s, table_r = TableS(), TableR()
        for b in (1.0, 2.0, 3.0):
            for k in range(12):
                table_s.add(b, 35.0 + 7 * k)  # C spans the hotspot and the scattered ranges
                table_r.add(15.0 + 3 * k, b)
        processor = hot_and_scattered(table_s, table_r)
        rs = [table_r.new_row(a, b) for a, b in ((25, 1.0), (30, 2.0), (45, 1.0), (10, 1.0), (49, 2.0))]
        ss = [table_s.new_row(b, c) for b, c in ((1.0, 50), (2.0, 102), (1.0, 41), (1.0, 300), (2.0, 50))]
        assert_runs_match(processor, rs, ss)
        assert any(processor.process_r_batch(rs)) and any(processor.process_s_batch(ss))

    def test_closed_on_both_ends(self, kernel):
        table_s, table_r = TableS(), TableR()
        query = SelectJoinQuery(Interval(20, 50), Interval(100, 105))
        # Joined rows whose second key component sits exactly on, and just
        # outside, the enumeration range's endpoints.
        for c in (99.5, 100.0, 102.0, 105.0, 105.5):
            table_s.add(7.0, c)
        for a in (19.5, 20.0, 30.0, 50.0, 50.5):
            table_r.add(a, 7.0)
        # Scattered under the scalar branch, under the vector branch, and in
        # a hotspot group (the decoy keeps any group short of alpha = 1).
        for alpha, extra, hot in ((1.0, 0, False), (1.0, 10, False), (0.05, 10, True)):
            processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=alpha)
            processor.add_query(SelectJoinQuery(Interval(20, 50), Interval(500, 505)))
            processor.add_query(query)
            for k in range(extra):
                processor.add_query(SelectJoinQuery(Interval(20, 50), Interval(100, 105)))
            assert processor.tracker.is_hotspot_item(query) == hot
            # An S run reads the query from its hot group's columns, else
            # from the scattered ones: vector-sized iff the extra members.
            held = next(
                (c for c in processor._hot.group_table()[1] if any(q is query for q in c.queries)),
                processor._columns_r,
            )
            assert (len(held) >= kernel_mod.MIN_VECTOR) == bool(extra)
            rs = [table_r.new_row(a, 7.0) for a in (19.5, 20.0, 50.0, 50.5)]
            ss = [table_s.new_row(7.0, c) for c in (99.5, 100.0, 105.0, 105.5)]
            assert_runs_match(processor, rs, ss)
            r_deltas = processor.process_r_batch(rs)
            s_deltas = processor.process_s_batch(ss)
            assert [query in d for d in r_deltas] == [False, True, True, False]
            assert [query in d for d in s_deltas] == [False, True, True, False]
            assert [s.c for s in r_deltas[1][query]] == [100.0, 102.0, 105.0]
            assert [r.a for r in s_deltas[2][query]] == [20.0, 30.0, 50.0]

    def test_empty_tables_and_keys_without_joining_rows(self, kernel):
        table_s, table_r = TableS(), TableR()
        processor = hot_and_scattered(table_s, table_r)
        rs = [table_r.new_row(30, 1.0), table_r.new_row(30, 2.0)]
        ss = [table_s.new_row(1.0, 50), table_s.new_row(2.0, 102)]
        assert processor.process_r_batch(rs) == [{}, {}]
        assert processor.process_s_batch(ss) == [{}, {}]
        # Key 1.0 joins, key 2.0 falls between index entries, 9.0 past them.
        for b in (1.0, 3.0):
            table_s.add(b, 50.0)
            table_s.add(b, 102.0)
            table_r.add(30.0, b)
        rs = [table_r.new_row(30, b) for b in (2.0, 1.0, 9.0, 0.0)]
        ss = [table_s.new_row(b, c) for b in (2.0, 1.0, 9.0, 0.0) for c in (50, 102)]
        assert_runs_match(processor, rs, ss)
        assert [bool(d) for d in processor.process_r_batch(rs)] == [False, True, False, False]

    def test_duplicate_composite_keys_keep_leaf_order(self, kernel):
        table_s, table_r = TableS(), TableR()
        for __ in range(5):  # equal (b, c) / (b, a): leaf order is insertion order
            table_s.add(1.0, 50.0)
            table_s.add(1.0, 102.0)
            table_r.add(30.0, 1.0)
            table_s.add(1.0, 45.0)
            table_r.add(25.0, 1.0)
        processor = hot_and_scattered(table_s, table_r)
        rs = [table_r.new_row(30, 1.0), table_r.new_row(25, 1.0)]
        ss = [table_s.new_row(1.0, 50), table_s.new_row(1.0, 102)]
        assert_runs_match(processor, rs, ss)
        (delta,) = processor.process_s_batch(ss[:1])
        for rows in delta.values():
            by_a = [r.a for r in rows]
            assert by_a == sorted(by_a)
            for a in set(by_a):  # within one key, ascending surrogate id
                rids = [r.rid for r in rows if r.a == a]
                assert rids == sorted(rids)

    def test_population_crossing_min_vector(self, kernel):
        rng = random.Random(8)
        table_s, table_r = make_tables(rng, 200, 200)
        for row in list(table_s)[:50]:
            table_r.add(rng.uniform(0, 100), row.b)  # shared join keys
        for row in list(table_r)[:50]:
            table_s.add(row.b, rng.uniform(0, 100))
        keys = [row.b for row in table_r]
        rs = [table_r.new_row(rng.uniform(0, 100), rng.choice(keys)) for __ in range(30)]
        ss = [table_s.new_row(rng.choice(keys), rng.uniform(0, 100)) for __ in range(30)]
        # Four disjoint rangeC clusters and alpha = 1: no group ever holds
        # every query, so the whole population stays in the scattered columns.
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=1.0)
        limit = kernel_mod.MIN_VECTOR
        pool = [
            SelectJoinQuery(Interval(a, a + 60), Interval(25 * (k % 4), 25 * (k % 4) + 20))
            for k, a in enumerate(rng.uniform(0, 40) for __ in range(2 * limit))
        ]
        live = []
        sizes = []
        for target in (3, limit - 1, limit, 2 * limit, limit - 1, 2, limit + 1, 0):
            while len(live) < target:
                live.append(pool.pop())
                processor.add_query(live[-1])
            while len(live) > target:
                pool.append(live.pop(rng.randrange(len(live))))
                processor.remove_query(pool[-1])
            assert len(processor._columns_r) == target
            sizes.append(target)
            assert_runs_match(processor, rs, ss)
        assert min(sizes) < limit <= max(sizes)

    @pytest.mark.parametrize("hot", [kernel_mod.MIN_VECTOR - 3, kernel_mod.MIN_VECTOR + 4])
    def test_group_neighbours_and_selection_on_closed_endpoints(self, kernel, hot):
        """A group on rangeC = [40 - k, 60 + k] (stabbing point 60, extent
        [40 - edge, 60 + edge]) against join keys whose only neighbours of
        the point sit exactly on a member's, or the extent's, endpoint."""
        edge, mid = hot - 1, hot // 2
        neighbours = {
            1.0: (40 - mid,),  # y1 == rng_lo of member `mid`, no y2
            2.0: (60 + mid,),  # y2 == rng_hi of member `mid`, no y1
            3.0: (40 - mid, 60 + mid),
            4.0: (60.0,),  # y2 is the stabbing point itself
            5.0: (40 - edge,),  # y1 == the extent's low end: one member
            6.0: (60 + edge,),  # y2 == the extent's high end: one member
            7.0: (10.0, 60 + edge),  # y1 outside the extent, y2 on its end
            8.0: (40 - edge, 95.0),  # ... and the other way round
            9.0: (10.0, 95.0),  # both outside: the pre-reject
            10.0: (39.5 - edge, 60.5 + edge),  # both just outside
        }
        table_s, table_r = TableS(), TableR()
        for b, cs in neighbours.items():
            for c in cs:
                table_s.add(b, c)
            for a in (20.0, 35.0, 50.0 + edge):
                table_r.add(a, b)
        # rangeA = [20, 50 + k]: x on the shared low end, on the widest
        # member's high end, and just outside either.
        rs = [table_r.new_row(a, b) for b in neighbours for a in (19.5, 20.0, 50.0, 50.0 + edge, 50.5 + edge)]
        ss = [table_s.new_row(b, c) for b in neighbours for c in (40.0 - edge, 60.0, 60.0 + edge, 105.0)]
        pure_ssi = SJSSI(table_s, table_r)
        for k in range(hot):
            pure_ssi.add_query(SelectJoinQuery(Interval(20, 50 + k), Interval(40 - k, 60 + k)))
        for strategy in (hot_and_scattered(table_s, table_r, hot=hot), pure_ssi):
            assert_runs_match(strategy, rs, ss)
            hits = {r.b: len(delta) for r, delta in zip(rs, strategy.process_r_batch(rs)) if r.a == 20.0}
            assert hits == {
                1.0: hot - mid, 2.0: hot - mid, 3.0: hot - mid, 4.0: hot, 5.0: 1,
                6.0: 1, 7.0: 1, 8.0: 1, 9.0: 0, 10.0: 0,
            }  # fmt: skip

    def test_duplicate_neighbours_are_reported_once(self, kernel):
        """q1.c == q2.c cannot happen around a point, but runs of equal C
        next to it and on it can: every affected query gets each joining
        row once, in leaf order."""
        table_s, table_r = TableS(), TableR()
        for b, cs in ((1.0, (59, 59, 59, 60, 60)), (2.0, (60, 60)), (3.0, (59, 59)), (4.0, (60, 60, 59))):
            for c in cs:
                table_s.add(b, float(c))
            table_r.add(30.0, b)
        processor = hot_and_scattered(table_s, table_r)
        rs = [table_r.new_row(30, b) for b in (1.0, 2.0, 3.0, 4.0)]
        ss = [table_s.new_row(b, 60.0) for b in (1.0, 4.0)]
        assert_runs_match(processor, rs, ss)
        for delta, count in zip(processor.process_r_batch(rs), (5, 2, 2, 3)):
            assert len(delta) == 12  # every hotspot member, no scattered one
            for hits in delta.values():
                assert len(hits) == len({s.sid for s in hits}) == count
                assert [s.c for s in hits] == sorted(s.c for s in hits)

    def test_extent_follows_swap_removes_and_refills(self, kernel):
        """A hot group's columns stay sorted by rangeA's low end while
        members leave from the end, the front and the middle; the extent
        and ``reach`` are recomputed only when the member holding one
        leaves, and start over once the columns are emptied and refilled."""
        table_s, table_r = TableS(), TableR()
        for c in (20.0, 30.5, 69.5, 80.0):
            table_s.add(1.0, c)
            table_r.add(30.0, 1.0)
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.1)
        # Member k: rangeA [30 - k, 50 + k], rangeC [40 - k, 60 + k].
        members = [SelectJoinQuery(Interval(30 - k, 50 + k), Interval(40 - k, 60 + k)) for k in range(12)]
        for k in range(12):
            processor.add_query(members[k])
            processor.add_query(SelectJoinQuery(Interval(20 - k, 50), Interval(100 + 10 * k, 105 + 10 * k)))
        (group,) = processor.tracker.hotspot_groups
        columns = processor._hot.structure_of(group)
        rs = [table_r.new_row(30, 1.0), table_r.new_row(58.0, 1.0)]
        ss = [table_s.new_row(1.0, 50.0)]
        narrow, middle, wide, widest = members[0], members[5], members[10], members[11]
        assert columns.queries == members[::-1]  # ascending rangeA low end
        assert (columns.rng_min, columns.rng_max, columns.reach) == (29, 71, 42)
        assert set(processor.process_r_batch(rs)[0]) == {wide, widest}  # c = 30.5 and 69.5
        # A member that holds no extreme leaves the extent and reach alone.
        processor.remove_query(narrow)
        assert (columns.rng_min, columns.rng_max, columns.reach) == (29, 71, 42)
        assert columns.queries == members[11:0:-1]
        assert_runs_match(processor, rs, ss)
        # The member holding both extremes and the reach leaves the front.
        processor.remove_query(widest)
        assert (columns.rng_min, columns.rng_max, columns.reach) == (30, 70, 40)
        assert columns.queries[0] is wide
        assert_runs_match(processor, rs, ss)
        assert set(processor.process_r_batch(rs)[0]) == {wide}
        processor.remove_query(middle)
        assert columns.queries == [members[k] for k in (10, 9, 8, 7, 6, 4, 3, 2, 1)]
        assert list(columns.sel_lo) == sorted(columns.sel_lo) and columns.reach == 40
        processor.remove_query(wide)
        assert (columns.rng_min, columns.rng_max, columns.reach) == (31, 69, 38)
        assert_runs_match(processor, rs, ss)
        assert processor.process_r_batch(rs) == [{}, {}]
        # Empty the columns and refill them: the extent and reach start over.
        for query in list(columns.queries):
            columns.remove(query, query.range_a)
        assert (len(columns), columns.rng_min, columns.rng_max, columns.reach) == (
            0, float("inf"), float("-inf"), 0.0,
        )
        columns.add(narrow, narrow.range_a, narrow.range_c)
        assert (columns.rng_min, columns.rng_max, columns.reach) == (40, 60, 20)
        with pytest.raises(ValueError):
            columns.remove(wide, wide.range_a)

    def test_group_crossing_min_vector(self, kernel):
        rng = random.Random(10)
        table_s, table_r = make_tables(rng, 200, 200)
        keys = [row.b for row in list(table_s)[:40]]
        for b in keys:
            table_s.add(b, rng.uniform(30, 70))
        rs = [table_r.new_row(rng.uniform(15, 65), rng.choice(keys)) for __ in range(40)]
        ss = [table_s.new_row(row.b, rng.uniform(30, 70)) for row in list(table_r)[:10]]
        limit = kernel_mod.MIN_VECTOR
        processor = hot_and_scattered(table_s, table_r, hot=limit - 2, scattered=20)
        (group,) = processor.tracker.hotspot_groups
        columns = processor._hot.structure_of(group)
        extra = []
        for target in (limit - 1, limit, limit + 3, limit - 1, limit - 2, limit + 1):
            while len(columns) < target:
                c = rng.uniform(45, 50)
                a = rng.uniform(10, 40)
                extra.append(SelectJoinQuery(Interval(a, a + 20), Interval(c - 12, c + 12)))
                processor.add_query(extra[-1])
            while len(columns) > target:
                processor.remove_query(extra.pop(rng.randrange(len(extra))))
            assert processor.tracker.hotspot_groups == [group] and len(columns) == target
            assert_runs_match(processor, rs, ss)
            assert any(q in delta for delta in processor.process_r_batch(rs) for q in columns.queries)

    def test_group_major_runs_over_mixed_keys(self, kernel, monkeypatch):
        """Runs of MIN_VECTOR+ rows with repeated keys, a key the probed
        table lacks, and key columns wholly below or above a group's point,
        against three hot groups on each side: batched == per-event, with
        the numpy window pass and with the loop, and each run makes one
        candidate-window pass that reads each group it kept once."""
        limit = kernel_mod.MIN_VECTOR
        sizes = (limit - 3, limit + 4, limit + 1)
        queries = [
            SelectJoinQuery(
                Interval(centre + 5 - 2 - m, centre + 5 + 2 + m),
                Interval(centre - 2 - m / 2, centre + 2 + m / 2),
            )
            for centre, size in zip((20.0, 50.0, 80.0), sizes)
            for m in range(size)
        ]
        scattered = [
            SelectJoinQuery(Interval(0, 100), Interval(150, 160)),
            SelectJoinQuery(Interval(0, 100), Interval(200, 205)),
        ]
        # Per join key, the second keys of its joined rows: spanning every
        # group, wholly below or above the points, and between two groups.
        seconds = {
            1.0: (10, 19, 21, 35, 49, 51, 65, 79, 81, 95, 155),
            2.0: (5, 8),
            3.0: (47, 48),
            4.0: (83, 90, 202),
        }
        table_s, table_r = TableS(), TableR()
        for b, values in seconds.items():
            for value in values:
                table_s.add(b, float(value))
                table_r.add(float(value), b)
        keys = (1.0, 3.0, 2.0, 9.0, 4.0, 1.0, 3.0, 4.0, 1.0)
        xs = (24.0, 55.0, 85.0, 55.0, 87.0, 52.0, 20.0, 60.0, 83.0)
        rs = [table_r.new_row(x, b) for b, x in zip(keys, xs)]
        ss = [table_s.new_row(b, x - 5) for b, x in zip(keys, xs)]
        assert len(rs) >= limit and 9.0 not in seconds

        passes = []  # per candidate-window pass: its (group, windows) pairs and candidates
        stab_windows = select_probe._stab_windows

        def counting(joined, kept, candidates, results):
            passes.append((kept, candidates))
            return stab_windows(joined, kept, candidates, results)

        monkeypatch.setattr(select_probe, "_stab_windows", counting)
        pure_ssi = SJSSI(table_s, table_r)
        hotspot = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.1)
        for query in queries + scattered:
            pure_ssi.add_query(query)
            hotspot.add_query(query)
        assert len(hotspot.tracker.hotspot_groups) == 3
        assert sorted(map(len, hotspot._hot.group_table()[1])) == sorted(sizes)
        joining = [seconds[b] for b in keys if b in seconds]
        runs = [
            (hotspot.process_r_batch, hotspot.process_r, rs,
             [group.stabbing_point for group in hotspot.tracker.hotspot_groups]),
            (pure_ssi.process_r_batch, pure_ssi.process_r, rs, pure_ssi._ssi_c.group_table()[0]),
            (pure_ssi.process_s_batch, pure_ssi.process_s, ss, pure_ssi._ssi_a.group_table()[0]),
        ]  # fmt: skip
        for (process_batch, process_one, rows, points), floor in itertools.product(
            runs, (0, kernel_mod.MIN_CANDIDATES)
        ):
            # Some joining row has no succ of some point, and some no pred.
            assert any(max(column) < point for column in joining for point in points)
            assert any(min(column) >= point for column in joining for point in points)
            monkeypatch.setattr(select_probe, "MIN_CANDIDATES", floor)
            passes.clear()
            deltas = process_batch(rows)
            assert deltas == [process_one(row) for row in rows] and any(deltas)
            (kept, candidates), = passes  # one candidate-window pass per run
            groups = [id(group) for group, __ in kept]
            assert len(groups) == len(set(groups)) >= 3, "one window pass per group per run"
            # Below the default floor: the loop, or the numpy pass at 0.
            assert 0 < candidates < kernel_mod.MIN_CANDIDATES
            windows = [window for __, group_windows in kept for window in group_windows]
            assert candidates == sum(end - start for *__, start, end in windows)
            # The extent pre-reject drops some (row, group) pairs, not all,
            # and a window holds fewer members than its group.
            assert 0 < len(windows) < len(joining) * len(points)
            assert candidates < sum(len(group) * len(ws) for group, ws in kept)
        assert hotspot.process_s_batch(ss) == [hotspot.process_s(s) for s in ss]

    def test_check_convicts_an_unsorted_column_and_a_stale_reach(self):
        """``SelectColumns.check`` (and so ``validate()``) convicts columns
        whose members each keep their own endpoints but are out of
        ``sel_lo`` order, and a ``reach`` that is not the longest
        selection."""

        def fresh():
            queries = [
                SelectJoinQuery(Interval(a, a + w), Interval(40 - w, 60 + w))
                for a, w in ((30, 5), (10, 20), (20, 1), (20, 3))
            ]
            columns = select_probe.SelectColumns.of(queries, range_a_interval, range_c_interval)
            return queries, columns

        queries, columns = fresh()
        columns.check(queries, range_a_interval, range_c_interval)
        assert list(columns.sel_lo) == [10, 20, 20, 30] and columns.reach == 20
        assert columns.queries[1:3] == queries[2:4]  # equal keys keep their order
        queries, unsorted = fresh()
        for column in (unsorted.queries, unsorted.sel_lo, unsorted.sel_hi, unsorted.rng_lo, unsorted.rng_hi):
            column[0], column[3] = column[3], column[0]
        with pytest.raises(AssertionError, match="sel_lo is not sorted"):
            unsorted.check(queries, range_a_interval, range_c_interval)
        # The widest member leaves without a recompute; or reach undershoots.
        queries, stale = fresh()
        del stale.queries[0], stale.sel_lo[0], stale.sel_hi[0], stale.rng_lo[0], stale.rng_hi[0]
        stale.rng_min, stale.rng_max = min(stale.rng_lo), max(stale.rng_hi)
        with pytest.raises(AssertionError, match="kept reach drifted"):
            stale.check(queries[:1] + queries[2:], range_a_interval, range_c_interval)
        queries, short = fresh()
        short.reach = 5
        with pytest.raises(AssertionError, match="kept reach drifted"):
            short.check(queries, range_a_interval, range_c_interval)
        # validate() runs the check on every group of both SSIs.
        pure_ssi = SJSSI(TableS(), TableR())
        pure_ssi.add_query(*queries)
        pure_ssi.validate()
        for ssi in (pure_ssi._ssi_c, pure_ssi._ssi_a):
            group = ssi.group_table()[1][0]
            group.reach += 1
            with pytest.raises(AssertionError, match="kept reach drifted"):
                pure_ssi.validate()
            group.reach -= 1

    def test_a_domain_wide_member_widens_its_groups_window(self, kernel, monkeypatch):
        """One member whose rangeA spans the routing domain raises its
        group's ``reach`` to the domain width, so the window is every member
        with ``sel_lo <= x`` (the whole-group cost of a member mask).
        Deltas equal the per-event reference throughout, and ``reach``
        shrinks back when that member leaves."""
        rng = random.Random(31)
        table_s, table_r = TableS(), TableR()
        keys = [float(b) for b in range(8)]
        for __ in range(200):
            table_s.add(rng.choice(keys), rng.uniform(30, 70))
            table_r.add(rng.uniform(DOMAIN_LO, DOMAIN_HI), rng.choice(keys))
        narrow = [
            SelectJoinQuery(Interval(a, a + 50), Interval(45 - w, 55 + w))
            for a, w in ((rng.uniform(DOMAIN_LO, DOMAIN_HI - 50), rng.uniform(0, 10)) for __ in range(40))
        ]
        wide = SelectJoinQuery(Interval(DOMAIN_LO, DOMAIN_HI), Interval(45, 55))
        xs = [rng.uniform(DOMAIN_LO, DOMAIN_HI) for __ in range(30)] + [narrow[0].range_a.hi, DOMAIN_HI]
        rs = [table_r.new_row(x, rng.choice(keys)) for x in xs]
        ss = [table_s.new_row(rng.choice(keys), c) for c in (40.0, 50.0, 60.0)]
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.1)
        pure_ssi = SJSSI(table_s, table_r)
        processor.add_query(*narrow)
        pure_ssi.add_query(*narrow)
        (group,) = processor.tracker.hotspot_groups
        columns = processor._hot.structure_of(group)
        tested = []
        stab_windows = select_probe._stab_windows

        def counting(joined, kept, candidates, results):
            tested.append(candidates)
            return stab_windows(joined, kept, candidates, results)

        monkeypatch.setattr(select_probe, "_stab_windows", counting)

        def candidates_per_run():
            tested.clear()
            for strategy in (processor, pure_ssi):
                assert_batches_match(strategy.process_r_batch, strategy.process_r, rs)
                assert_batches_match(strategy.process_s_batch, strategy.process_s, ss)
            assert_runs_match(processor, rs, ss)
            pure_ssi.validate()
            tested.clear()
            processor.process_r_batch(rs)
            return sum(tested)

        assert columns.reach == 50
        few = candidates_per_run()
        processor.add_query(wide)
        pure_ssi.add_query(wide)
        assert columns.reach == DOMAIN_HI - DOMAIN_LO
        many = candidates_per_run()
        assert many > few + len(rs)
        processor.remove_query(wide)
        pure_ssi.remove_query(wide)
        assert columns.reach == 50
        assert candidates_per_run() == few

    def test_the_window_holds_a_member_across_rounding(self, kernel):
        """rangeA = [0.1, 1000.3] holds x = 1000.3, yet ``x - reach``
        rounds to just above 0.1: the window's low end keeps a slack, so
        the member that sets ``reach`` is still a candidate."""
        widest = Interval(0.1, 1000.3)
        assert widest.hi - (widest.hi - widest.lo) > widest.lo
        table_s, table_r = TableS(), TableR()
        table_s.add(1.0, 50.0)
        queries = [SelectJoinQuery(widest, Interval(40, 60))] + [
            SelectJoinQuery(Interval(500.0 + k, 1000.3), Interval(45 - k, 55 + k)) for k in range(10)
        ]
        rs = [table_r.new_row(1000.3, 1.0), table_r.new_row(0.1, 1.0)]
        pure_ssi = SJSSI(table_s, table_r)
        pure_ssi.add_query(*queries)
        (columns,) = pure_ssi._ssi_c.group_table()[1]
        assert columns.reach == widest.hi - widest.lo
        for rows in (rs, rs[:1]):
            assert pure_ssi.process_r_batch(rows) == [pure_ssi.process_r(r) for r in rows]
        assert set(pure_ssi.process_r_batch(rs)[0]) == set(queries)

    def test_runs_above_and_below_the_floor_match_per_event(self, kernel, monkeypatch):
        """A run whose windows hold ``MIN_CANDIDATES`` or more candidates
        takes the numpy pass (on the numpy kernel), a short run the loop:
        both equal ``process_r`` per tuple."""
        rng = random.Random(37)
        table_s, table_r = TableS(), TableR()
        keys = [float(b) for b in range(10)]
        for __ in range(300):
            table_s.add(rng.choice(keys), rng.uniform(0, 100))
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.2)
        for centre in (30.0, 70.0):
            for __ in range(60):
                a, w = rng.uniform(0, 80), rng.uniform(0, 15)
                processor.add_query(SelectJoinQuery(Interval(a, a + 20), Interval(centre - w, centre + w)))
        assert len(processor.tracker.hotspot_groups) == 2 and not processor._hot.scattered
        # x >= 50 keeps every window off each group's first members, so a
        # window's slots are shifted into the concatenated columns.
        long_run = [table_r.new_row(rng.uniform(50, 100), rng.choice(keys)) for __ in range(64)]
        short_run = long_run[:2]
        seen = []  # per run: (candidates, numpy window steps)
        stab_windows, emit = select_probe._stab_windows, select_probe._emit

        def counting(joined, kept, candidates, results):
            seen.append([candidates, 0])
            return stab_windows(joined, kept, candidates, results)

        def counting_emit(*args):
            seen[-1][1] += 1
            return emit(*args)

        monkeypatch.setattr(select_probe, "_stab_windows", counting)
        monkeypatch.setattr(select_probe, "_emit", counting_emit)
        for rows in (long_run, short_run):
            seen.clear()
            assert processor.process_r_batch(rows) == [processor.process_r(r) for r in rows]
            ((candidates, numpy_steps),) = seen
            above = candidates >= kernel_mod.MIN_CANDIDATES
            assert above == (rows is long_run)
            assert numpy_steps == (above and kernel == "native" and KERNEL == "numpy")
        assert_runs_match(processor, long_run, [])

    def test_promotion_demotion_promotion_of_the_same_queries(self, kernel):
        rng = random.Random(11)
        table_s, table_r = make_tables(rng, 150, 150)
        keys = [row.b for row in list(table_s)[:30]]
        for b in keys:
            table_s.add(b, rng.uniform(40, 60))
        rs = [table_r.new_row(rng.uniform(20, 50), rng.choice(keys)) for __ in range(30)]
        ss = [table_s.new_row(row.b, rng.uniform(40, 60)) for row in list(table_r)[:10]]
        processor = hot_and_scattered(table_s, table_r, alpha=0.2, hot=6, scattered=4)
        tracker = processor.tracker
        cluster = [q for q in processor._queries.values() if tracker.is_hotspot_item(q)]
        assert len(cluster) == 6 and tracker.moves_into_scattered == 0
        promoted = tracker.moves_out_of_scattered
        assert_runs_match(processor, rs, ss)
        hot_deltas = processor.process_r_batch(rs)
        # 60 more scattered queries: the cluster falls under (alpha / 2) n.
        crowd = [SelectJoinQuery(Interval(0, 90), Interval(300 + 10 * k, 305 + 10 * k)) for k in range(60)]
        for query in crowd:
            processor.add_query(query)
        assert not processor._hot.group_count() and tracker.moves_into_scattered == 6
        assert all(id(q) in processor._hot.scattered for q in cluster)
        assert_runs_match(processor, rs, ss)
        assert processor.process_r_batch(rs) == hot_deltas
        # ... and back over alpha n once the crowd has left.
        for query in crowd:
            processor.remove_query(query)
        assert tracker.moves_out_of_scattered == promoted + 6
        (group,) = tracker.hotspot_groups
        assert sorted(map(id, processor._hot.structure_of(group).queries)) == sorted(map(id, cluster))
        assert_runs_match(processor, rs, ss)
        assert processor.process_r_batch(rs) == hot_deltas

    def test_columns_follow_subscriptions_promotions_and_demotions(self, kernel):
        rng = random.Random(9)
        table_s, table_r = make_tables(rng, 120, 120)
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.15)
        rs = [table_r.new_row(rng.uniform(0, 100), row.b) for row in list(table_s)[:6]]
        ss = [table_s.new_row(row.b, rng.uniform(0, 100)) for row in list(table_r)[:6]]

        def check():
            ids = lambda queries: sorted(id(q) for q in queries)
            # Each query sits in one set of columns, its hot group's or the
            # scattered ones, which both relations' runs read.
            grouped = [q for c in processor._hot.group_table()[1] for q in c.queries]
            assert ids(grouped + processor._columns_r.queries) == ids(processor._queries.values())
            assert ids(processor._columns_r.queries) == ids(processor._hot.scattered.values())
            assert_runs_match(processor, rs, ss)

        live = []
        for step in range(160):
            # Clustered subscriptions arrive in waves and leave again, so
            # groups are promoted and later demoted around a scattered base.
            if step % 40 < 25 or not live:
                if rng.random() < 0.7:
                    c = 50 + rng.uniform(-2, 2)
                else:
                    c = rng.uniform(0, 90)
                a = rng.uniform(0, 60)
                live.append(SelectJoinQuery(Interval(a, a + 40), Interval(c - 3, c + 3)))
                processor.add_query(live[-1])
            else:
                clustered = [q for q in live if processor.tracker.is_hotspot_item(q)]
                victim = rng.choice(clustered or live)
                live.remove(victim)
                processor.remove_query(victim)
            check()
        tracker = processor.tracker
        assert tracker.moves_out_of_scattered and tracker.moves_into_scattered, (
            "the stream must promote and demote"
        )

    def test_s_runs_read_the_hot_groups_on_range_c(self, kernel, monkeypatch):
        """An S run reads the hotspot processor's rangeC groups with the
        roles swapped: a hot group whose rangeC extent holds some row's
        ``c`` has its members tested on rangeC, one whose extent the run
        misses is skipped whole, and the scattered columns are read too.
        Three hot groups (two of ``MIN_VECTOR``+ members and one below it,
        the scalar branch) and a scattered remainder: batched == per-event
        ``process_s`` == the oracle."""
        limit = kernel_mod.MIN_VECTOR
        rng = random.Random(23)
        table_s, table_r = TableS(), TableR()
        keys = [float(b) for b in range(6)]
        for __ in range(120):
            table_r.add(rng.uniform(0, 100), rng.choice(keys))
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.1)
        sizes = {100.0: limit + 4, 300.0: limit - 3, 500.0: limit + 4}
        for centre, size in sizes.items():
            for m in range(size):
                a = rng.uniform(0, 60)
                processor.add_query(
                    SelectJoinQuery(Interval(a, a + 40), Interval(centre - 5 - m, centre + 5 + m))
                )
        for k in range(10):  # pairwise disjoint, far from every group
            a = rng.uniform(0, 60)
            processor.add_query(SelectJoinQuery(Interval(a, a + 30), Interval(700 + 20 * k, 710 + 20 * k)))
        groups = {
            centre: columns
            for columns in processor._hot.group_table()[1]
            for centre in sizes
            if columns.rng_min <= centre <= columns.rng_max
        }
        assert sorted(groups) == sorted(sizes) and len(processor._columns_r) == 10
        assert [len(groups[centre]) for centre in sizes] == list(sizes.values())
        # The run reaches the groups at 100 and 300 and the scattered
        # queries, never the extent of the group at 500; one key is absent.
        cs = [100.0, 96.0, 112.0, 300.0, 294.0, 305.0, 705.0, 745.0, 800.0, 50.0]
        ss = [table_s.new_row(rng.choice(keys + [9.0]), c) for c in cs for __ in range(2)]
        assert not any(groups[500.0].rng_min <= s.c <= groups[500.0].rng_max for s in ss)
        read = []
        probe_columns = select_probe._probe_columns

        def spy(joined, sel_lo, sel_hi, rng_lo, rng_hi, queries, results):
            read.append(queries)
            return probe_columns(joined, sel_lo, sel_hi, rng_lo, rng_hi, queries, results)

        monkeypatch.setattr(select_probe, "_probe_columns", spy)
        assert_runs_match(processor, [], ss)
        deltas = processor.process_s_batch(ss)
        read_ids = [id(queries) for queries in read]
        for centre, reached in ((100.0, True), (300.0, True), (500.0, False)):
            assert (id(groups[centre].queries) in read_ids) == reached, centre
            assert any(q in delta for delta in deltas for q in groups[centre].queries) == reached
        assert id(processor._columns_r.queries) in read_ids
        assert any(q in delta for delta in deltas for q in processor._columns_r.queries)


def install_band_batch(rng, table_r, table_s, events):
    """A random interleaved batch of R and S inserts and deletes over
    integer join keys, installed as ``ShardGroup`` installs one: every
    insert goes into its table, every delete is deferred (its row stays).
    A delete may take a row of an earlier batch or one inserted in this
    one.  Returns the inserted rows and the touched join keys (sorted,
    distinct), by relation."""
    tables = {"R": table_r, "S": table_s}
    inserted = {"R": [], "S": []}
    touched = {"R": set(), "S": set()}
    deletable = {relation: list(table) for relation, table in tables.items()}
    for __ in range(events):
        relation = rng.choice("RS")
        if deletable[relation] and rng.random() < 0.3:
            row = deletable[relation].pop(rng.randrange(len(deletable[relation])))
        else:
            key, other = float(rng.randrange(0, 60)), rng.uniform(0, 100)
            table = tables[relation]
            row = table.new_row(other, key) if relation == "R" else table.new_row(key, other)
            table.insert(row)
            inserted[relation].append(row)
            deletable[relation].append(row)
        touched[relation].add(row.b)
    return inserted, {relation: sorted(keys) for relation, keys in touched.items()}


def hit_range_suspects(deltas, touched):
    """The strike's former test, on its own: a (row index, qid) whose hit
    list has a touched key between its first and its last hit."""
    return {
        (i, query.qid)
        for i, delta in enumerate(deltas)
        for query, hits in delta.items()
        if any(hits[0].b <= key <= hits[-1].b for key in touched)
    }


class TestBandDuplicateMasking:
    """Phase 2 of the band kernel copies each STEP-1 prefix whole; the
    window step drops a succ-side target that repeats a pred-side one of
    its pair (R: ``lo <= pred.key - b``; S: ``hi >= -(pred.key - b)``).
    Integer keys and integer band ends put runs on the edges of that mask:
    bands sharing a ``lo`` or a ``hi``, a succ-side member whose other
    endpoint equals the pred-side bound exactly (dropped: ``<=``), and
    pairs with a succ-side prefix only.  Every run, above and below the
    pair floor and the window step's vector floor, equals the per-event
    probe, query order and hit-list order included."""

    CENTRES = (0, 40, 80, 120, 160, 200, 240, 280)  # one stabbing group each

    @classmethod
    def _populate(cls, processor, rng):
        bands = [
            Interval(float(centre - rng.randrange(0, 5)), float(centre + rng.randrange(1, 5)))
            for centre in cls.CENTRES
            for __ in range(6)
        ]
        los, his = [band.lo for band in bands], [band.hi for band in bands]
        assert len(set(los)) < len(los) and len(set(his)) < len(his), "want shared ends"
        for band in bands:
            processor.add_query(BandJoinQuery(band))
        return processor

    @classmethod
    def _bjssi(cls, rng, table_s, table_r):
        return cls._populate(BJSSI(table_s, table_r), rng)

    @classmethod
    def _hotspot(cls, rng, table_s, table_r):
        processor = cls._populate(HotspotBandJoinProcessor(table_s, table_r, alpha=0.05), rng)
        for k in range(4):  # far-off singletons stay scattered
            processor.add_query(BandJoinQuery(Interval(1000.0 + 50 * k, 1001.0 + 50 * k)))
        assert processor._hot.group_count() == len(cls.CENTRES)
        assert len(processor._hot.scattered) == 4
        return processor

    @staticmethod
    def _spy(monkeypatch):
        """Per kernel call: (row, group) pairs, targets, and the mask's
        edges the gathered targets reach."""
        from repro.fastpath import band as band_kernels

        calls = []
        batch_probe, emit = band_kernels._batch_probe, band_kernels._emit

        def probe(col_b, rows, points, structures, *args, **kwargs):
            calls.append({"side": "R" if kwargs["r_side"] else "S", "targets": 0,
                          "pairs": len(rows) * sum(1 for st in structures if st.by_lo),
                          "succ_only": 0, "edge": 0, "dropped": 0})
            return batch_probe(col_b, rows, points, structures, *args, **kwargs)

        def counted(keys, values, targets, *args, r_side):
            seen = calls[-1]
            seen["targets"] = len(targets.queries)
            t = 0
            segments = zip(targets.seg_len, targets.seg_succ, targets.seg_cut)
            for n, succ, cut in segments:
                if succ and cut != cut:  # NaN: the pair has no pred-side prefix
                    seen["succ_only"] += 1
                elif succ:
                    for k in range(t, t + n):
                        low = targets.raw_lo[k] if r_side else -targets.raw_lo[k]
                        seen["edge"] += low == cut
                        seen["dropped"] += low <= cut
                t += n
            written = emit(keys, values, targets, *args, r_side=r_side)
            assert written == len(targets.queries) - seen["dropped"]
            return written

        monkeypatch.setattr(band_kernels, "_batch_probe", probe)
        monkeypatch.setattr(band_kernels, "_emit", counted)
        return calls

    @pytest.mark.parametrize("make", ["_bjssi", "_hotspot"])
    def test_runs_on_the_mask_edges_match_per_event(self, kernel, make, monkeypatch):
        rng = random.Random(57)
        table_s, table_r = TableS(), TableR()
        for __ in range(120):
            table_s.add(float(rng.randrange(0, 400)), rng.uniform(0, 100))
            table_r.add(rng.uniform(0, 100), float(rng.randrange(0, 120)))
        processor = getattr(self, make)(rng, table_s, table_r)
        calls = self._spy(monkeypatch)
        rs = [table_r.new_row(rng.uniform(0, 100), float(rng.randrange(0, 120))) for __ in range(40)]
        ss = [table_s.new_row(float(rng.randrange(0, 400)), rng.uniform(0, 100)) for __ in range(40)]
        # A row past the end of the other relation's keys whose windows
        # hold few of them: a run below the vector floor (a pair has at
        # most two targets per result).
        lone_r = next(
            row for row in (table_r.new_row(50.0, float(b)) for b in range(380, 420))
            if 0 < 2 * len(processor.process_r(row)) < kernel_mod.MIN_VECTOR
        )
        lone_s = next(
            row for row in (table_s.new_row(float(b), 50.0) for b in range(30, -10, -1))
            if 0 < 2 * len(processor.process_s(row)) < kernel_mod.MIN_VECTOR
        )
        for probe, probe_one, rows, lone in (
            (processor.process_r_batch, processor.process_r, rs, lone_r),
            (processor.process_s_batch, processor.process_s, ss, lone_s),
        ):
            for run in (rows, rows[:1], rows[1:3], rows[3:], [lone]):
                deltas = probe(run)
                want = [probe_one(row) for row in run]
                assert [list(delta.items()) for delta in deltas] == [
                    list(delta.items()) for delta in want
                ]
        floor, vector = kernel_mod.MIN_CANDIDATES, kernel_mod.MIN_VECTOR
        for side in "RS":
            mine = [call for call in calls if call["side"] == side]
            assert len(mine) == 5
            assert {call["pairs"] >= floor for call in mine} == {True, False}
            assert {call["targets"] >= vector for call in mine} == {True, False}
            for edge in ("succ_only", "edge", "dropped"):
                assert sum(call[edge] for call in mine), (side, edge)


class TestBandSuspects:
    """A band kernel handed the other relation's touched join keys names
    every (row, query) whose window holds one: exactly the hit lists that
    have a touched key between their first and last hit."""

    @staticmethod
    def _bjssi(rng):
        table_s, table_r = integer_tables(rng, n_s=80, n_r=80)
        strategy = BJSSI(table_s, table_r)
        for __ in range(60):
            lo = float(rng.randrange(-40, 40))
            strategy.add_query(BandJoinQuery(Interval(lo, lo + rng.randrange(0, 8))))
        return strategy

    @staticmethod
    def _hotspot(rng):
        table_s, table_r = integer_tables(rng, n_s=80, n_r=80)
        return band_population(table_s, table_r, hot=12, scattered=6)

    @pytest.mark.parametrize("make", ["_bjssi", "_hotspot"])
    def test_suspects_equal_the_hit_range_test(self, kernel, make):
        rng = random.Random(31)
        flagged = {"R": 0, "S": 0}
        scattered_flagged = False
        for __ in range(6):
            processor = getattr(self, make)(rng)
            inserted, touched = install_band_batch(
                rng, processor.table_r, processor.table_s, 40
            )
            scattered = set(processor._hot.scattered.values()) if make == "_hotspot" else set()
            runs = (
                ("R", processor.process_r_batch, inserted["R"], touched["S"]),
                ("S", processor.process_s_batch, inserted["S"], touched["R"]),
            )
            for relation, probe, rows, keys in runs:
                suspects = {}
                deltas = probe(rows, keys, suspects)
                assert in_order(deltas) == in_order(probe(rows))  # the keys change no delta
                got = [(i, query.qid) for i, queries in suspects.items() for query in queries]
                assert len(got) == len(set(got))
                assert set(got) == hit_range_suspects(deltas, keys)
                flagged[relation] += len(got)
                scattered_flagged |= any(
                    query in scattered for queries in suspects.values() for query in queries
                )
        assert all(flagged.values()), flagged
        assert scattered_flagged == (make == "_hotspot")

    def test_a_run_makes_one_window_step_whatever_its_groups(self, kernel, monkeypatch):
        """Twelve disjoint bands are twelve stabbing groups; each run still
        enumerates every result of every group in one window step."""
        from repro.fastpath import band as band_kernels

        rng = random.Random(33)
        table_s, table_r = make_tables(rng)
        strategy = BJSSI(table_s, table_r)
        for k in range(12):
            strategy.add_query(BandJoinQuery(Interval(-60.0 + 10 * k, -55.0 + 10 * k)))
        assert strategy.group_count >= 10
        steps = []
        emit = band_kernels._emit

        def counted(*args, **kwargs):
            written = emit(*args, **kwargs)  # the results it wrote
            steps.append(written)
            return written

        monkeypatch.setattr(band_kernels, "_emit", counted)
        rs = [table_r.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(30)]
        ss = [table_s.new_row(rng.uniform(0, 100), rng.uniform(0, 100)) for __ in range(30)]
        r_deltas, s_deltas = strategy.process_r_batch(rs), strategy.process_s_batch(ss)
        assert in_order(r_deltas) == in_order(map(strategy.process_r, rs))
        assert in_order(s_deltas) == in_order(map(strategy.process_s, ss))
        results = [sum(map(len, deltas)) for deltas in (r_deltas, s_deltas)]
        assert steps == results and all(results)

    def test_runs_above_and_below_the_floor_match_per_event(self, kernel, monkeypatch):
        """A run of ``MIN_CANDIDATES`` or more (row, group) pairs takes the
        numpy phase 1 (on the numpy kernel), a short run the bisect loop:
        both equal ``process_r``/``process_s`` per tuple and name the
        suspects the hit-range test does.  Fuzz batches of 24 rarely reach
        the floor, so this run keeps the numpy phase 1 covered."""
        from repro.fastpath import band as band_kernels

        rng = random.Random(41)
        table_s, table_r = integer_tables(rng, n_s=80, n_r=80)
        strategy = BJSSI(table_s, table_r)
        for k in range(12):  # twelve disjoint bands: twelve groups
            strategy.add_query(BandJoinQuery(Interval(-60.0 + 10 * k, -55.0 + 10 * k)))
        groups = strategy.group_count
        assert groups == 12
        inserted, touched = install_band_batch(rng, table_r, table_s, 160)
        seen = []  # per kernel call: [(row, group) pairs, numpy phase 1 taken]
        batch_probe, vector_candidates = band_kernels._batch_probe, band_kernels._vector_candidates

        def counted_probe(col_b, rows, points, structures, *args, **kwargs):
            seen.append([len(rows) * sum(1 for st in structures if st.by_lo), False])
            return batch_probe(col_b, rows, points, structures, *args, **kwargs)

        def counted_candidates(*args):
            seen[-1][1] = True
            return vector_candidates(*args)

        monkeypatch.setattr(band_kernels, "_batch_probe", counted_probe)
        monkeypatch.setattr(band_kernels, "_vector_candidates", counted_candidates)
        sides = (
            (strategy.process_r_batch, strategy.process_r, inserted["R"], touched["S"]),
            (strategy.process_s_batch, strategy.process_s, inserted["S"], touched["R"]),
        )
        for probe, probe_one, rows, keys in sides:
            singles = [probe_one(row) for row in rows]
            # One row whose hit list holds a touched key: a short run with
            # a result and a suspect.
            short_run = [
                row for row, delta in zip(rows, singles) if hit_range_suspects([delta], keys)
            ][:1]
            assert short_run and len(rows) * groups >= kernel_mod.MIN_CANDIDATES
            for run in (rows, short_run):
                seen.clear()
                suspects = {}
                deltas = probe(run, keys, suspects)
                assert in_order(deltas) == in_order(map(probe_one, run))
                got = [(i, query.qid) for i, queries in suspects.items() for query in queries]
                assert got and set(got) == hit_range_suspects(deltas, keys)
                ((pairs, numpy_phase_1),) = seen
                above = pairs >= kernel_mod.MIN_CANDIDATES
                assert above == (run is rows)
                assert numpy_phase_1 == (above and kernel == "native" and KERNEL == "numpy")

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_rows_hidden_inside_a_window_are_struck(self, kernel, alpha, monkeypatch):
        """An R arrival's hot and scattered windows each hold, strictly
        between two visible rows, an S row deleted before it and one
        inserted after it: both are struck, from the kernel's suspects."""
        seen = spy_row_strikes(monkeypatch)
        group = ShardGroup(0, alpha=alpha)
        reference = ContinuousQuerySystem(alpha=alpha)
        # Four nested bands around 0 (hot at alpha 0.5) and one far band.
        queries = [BandJoinQuery(Interval(-10.0 + k, 10.0 - k), qid=9201 + k) for k in range(4)]
        queries.append(BandJoinQuery(Interval(30.0, 40.0), qid=9205))
        for query in queries:
            group.shard.subscribe(query)
            reference.subscribe(query)
        if alpha is not None:
            assert group.shard.band._hot.group_count() and group.shard.band._hot.scattered
        keys = (42.0, 45.0, 55.0, 58.0, 81.0, 83.0, 86.0, 89.0)
        s_rows = {key: STuple(sid, key, 5000.0) for sid, key in enumerate(keys)}
        preload = [_insert(s_rows[key]) for key in (42.0, 55.0, 58.0, 81.0, 83.0, 89.0)]
        events = [
            _delete(s_rows[55.0]),          # hot window, deleted before R 0
            _delete(s_rows[83.0]),          # far window, deleted before R 0
            _insert(RTuple(0, 10.0, 50.0)),
            _insert(s_rows[45.0]),          # hot window, inserted after R 0
            _insert(s_rows[86.0]),          # far window, inserted after R 0
        ]
        for batch in (preload, events):
            entries = [(seq, event, -1 if event.relation == "R" else 0)
                       for seq, event in enumerate(batch)]
            answered = group.apply_batch(entries)
            got = dict(answered[1]) if answered else {}
            want = TestShardedBatch._reference_views(reference, batch)
            assert [ordered_view(got.get(seq, {})) for seq in range(len(batch))] == want
        r_view = want[2]
        assert r_view[9201] == [0, 3] and r_view[9205] == [4, 7]
        assert seen["band_struck"] == 4 * 2 + 2  # each nested band: 45, 55; the far one: 83, 86

    def test_a_select_only_pipeline_never_reads_the_touched_keys(self, kernel, monkeypatch):
        """The touched keys are the band kernel's: a pipeline whose band
        plane holds no query never builds them, however its batches
        interleave; one band query makes it build them."""
        calls = []
        touched_bs = sharding._Touched.touched_bs

        def counted(self):
            calls.append(True)
            return touched_bs(self)

        monkeypatch.setattr(sharding._Touched, "touched_bs", counted)
        rng = random.Random(34)
        events = []
        for i in range(200):  # join keys on 0..19, so select-joins match
            r = RTuple(i, rng.uniform(0, 100), float(rng.randrange(20)))
            s = STuple(i, float(rng.randrange(20)), rng.uniform(0, 100))
            events += [_insert(r), _insert(s)]
            if i % 4 == 3:
                events += [_delete(r), _delete(s)]
        pipeline = EventPipeline(alpha=0.05, batch_size=32)
        for query in select_queries(rng, 40):
            pipeline.subscribe(query)
        half = len(events) // 2
        results = pipeline.run(events[:half])
        assert any(delta for __, ___, delta in results) and calls == []
        pipeline.subscribe(BandJoinQuery(Interval(-1.0, 1.0)))
        pipeline.run(events[half:])
        assert calls


def _insert(row):
    return DataEvent(EventKind.INSERT, "R" if isinstance(row, RTuple) else "S", row)


def _delete(row):
    return DataEvent(EventKind.DELETE, "R" if isinstance(row, RTuple) else "S", row)


def _rows_struck(pipeline):
    """Rows the batch fix-up removed, over all shards."""
    counters = pipeline.metrics.snapshot()["counters"]
    return sum(
        value for name, value in counters.items() if name.endswith("/runtime/rows_struck")
    )


def spy_row_strikes(monkeypatch):
    """Count what the row strikes do: the rows each plane's strike removed,
    and of the select plane the events with a non-empty part and the
    events whose lists it scanned."""
    seen = {"band_struck": 0, "select_struck": 0, "select_events": 0, "select_scanned": 0}
    strike_band, strike_select = sharding._strike_band, sharding._strike_select
    drop_hidden = sharding._drop_hidden
    in_select = []

    def band(parts, positions, suspects, other):
        struck = strike_band(parts, positions, suspects, other)
        seen["band_struck"] += struck
        return struck

    def select(parts, *args):
        seen["select_events"] += sum(1 for deltas in parts if deltas)
        in_select.append(True)
        try:
            struck = strike_select(parts, *args)
        finally:
            in_select.pop()
        seen["select_struck"] += struck
        return struck

    def drop(*args):
        seen["select_scanned"] += bool(in_select)
        return drop_hidden(*args)

    monkeypatch.setattr(sharding, "_strike_band", band)
    monkeypatch.setattr(sharding, "_strike_select", select)
    monkeypatch.setattr(sharding, "_drop_hidden", drop)
    return seen


#: Where a C-slice case runs: inline the select plane is whole at any K;
#: under ``process-shm`` at K = 3 it is cut into three C-slices.
SLICINGS = [
    pytest.param("inline", 1, id="1"),
    pytest.param("inline", 3, id="3"),
    pytest.param("process-shm", 3, id="shm-3"),
]


def ordered_view(deltas):
    """qid -> row ids in result order: unlike ``normalize_deltas`` this keeps
    the enumeration order, so it also catches ordering regressions."""
    return {
        q.qid: [row.sid if isinstance(row, STuple) else row.rid for row in rows]
        for q, rows in deltas.items()
        if rows
    }


class TestShardedBatch:
    def _stream(self, rng, count, c_scale=1.0):
        """Inserts and deletes with attributes on ``[0, 100]``, S.c on
        ``[0, 100 * c_scale]``."""
        events = []
        live_r, live_s = [], []
        rid = sid = 0
        for __ in range(count):
            roll = rng.random()
            if roll < 0.4 or not live_r and not live_s:
                row = RTuple(rid, rng.uniform(0, 100), rng.uniform(0, 100))
                rid += 1
                live_r.append(row)
                events.append(DataEvent(EventKind.INSERT, "R", row))
            elif roll < 0.8:
                row = STuple(sid, rng.uniform(0, 100), rng.uniform(0, 100) * c_scale)
                sid += 1
                live_s.append(row)
                events.append(DataEvent(EventKind.INSERT, "S", row))
            elif roll < 0.9 and live_r:
                events.append(
                    DataEvent(EventKind.DELETE, "R", live_r.pop(rng.randrange(len(live_r))))
                )
            elif live_s:
                events.append(
                    DataEvent(EventKind.DELETE, "S", live_s.pop(rng.randrange(len(live_s))))
                )
        return events

    @staticmethod
    def _reference_views(reference, events):
        """``ordered_view`` of what the per-event system answers, data
        event by data event (a delete answers nothing), subscription
        changes applied in place."""
        want = []
        for event in events:
            if isinstance(event, QueryEvent):
                if event.kind is EventKind.INSERT:
                    reference.subscribe(event.query)
                else:
                    reference.unsubscribe(event.query)
            elif event.kind is EventKind.INSERT:
                if event.relation == "R":
                    want.append(ordered_view(reference.insert_r_row(event.row)))
                else:
                    want.append(ordered_view(reference.insert_s_row(event.row)))
            else:
                if event.relation == "R":
                    reference.delete_r(event.row)
                else:
                    reference.delete_s(event.row)
                want.append({})
        return want

    @pytest.mark.parametrize("alpha", [0.05, None])
    def test_batched_pipeline_matches_per_event_system(self, kernel, alpha):
        rng = random.Random(6)
        # Every event reports a delta, so the batched run lines up with the
        # per-event reference one to one.
        batched = EventPipeline(num_shards=3, alpha=alpha, batch_size=37)
        reference = ContinuousQuerySystem(alpha=alpha)
        population = band_queries(rng, 60) + select_queries(rng, 60)
        for query in population:
            batched.subscribe(query)  # an entry of the first batches
            reference.subscribe(query)
        events = self._stream(rng, 400)
        want = self._reference_views(reference, events)
        got = [ordered_view(delta) for __, ___, delta in batched.run(events)]
        assert got == want
        batches = batched.metrics.counter("pipeline/batches").value
        # Really batched, not per event, and no subscription a barrier.
        assert batches == -(-(len(population) + len(events)) // 37)
        assert _rows_struck(batched) > 0  # and interleaved: the fix-up ran

    @staticmethod
    def _grid_stream(rng, count):
        """Inserts and deletes on an integer grid: join keys 0-9, R.a on a
        step of 5 and S.c on a step of 500 (every C-slice of the routing
        domain), so equal b and equal (b, c) abound."""
        events, live = [], []
        rid = sid = 0
        for __ in range(count):
            if live and rng.random() < 0.15:
                row = live.pop(rng.randrange(len(live)))
                events.append(_delete(row))
                continue
            if rng.random() < 0.5:
                row = RTuple(rid, float(rng.randrange(0, 100, 5)), float(rng.randrange(10)))
                rid += 1
            else:
                row = STuple(sid, float(rng.randrange(10)), float(rng.randrange(0, 10_000, 500)))
                sid += 1
            live.append(row)
            events.append(_insert(row))
        return events

    @staticmethod
    def _grid_queries(rng):
        """Band and select queries on the grid of :meth:`_grid_stream`; the
        last is a select query whose rangeC spans every C-slice."""
        population = [
            BandJoinQuery(Interval(float(lo), float(lo + rng.randrange(4))))
            for lo in rng.choices(range(-5, 5), k=20)
        ]
        population += [
            SelectJoinQuery(
                Interval(float(a_lo), float(a_lo + 40)),
                Interval(float(c_lo), float(c_lo + 3_000)),
            )
            for a_lo, c_lo in zip(rng.choices(range(0, 60, 5), k=20),
                                  rng.choices(range(0, 7_000, 500), k=20))
        ]
        population.append(SelectJoinQuery(Interval(0.0, 100.0), Interval(0.0, 10_000.0)))
        return population

    @pytest.mark.parametrize(
        "num_shards,batch_size,mode",
        [(1, 1, "inline"), (1, 16, "inline"), (3, 1, "inline"), (3, 16, "inline"),
         (3, 16, "process-shm")],
    )
    def test_delta_lists_keep_the_per_event_order_under_ties(
        self, kernel, num_shards, batch_size, mode
    ):
        """Every list equals the per-event system's, unsorted: band lists
        in (b, insertion) order, select lists in (c, insertion) or
        (a, insertion) order, and a select query spanning every C-slice
        answers an R arrival with its shards' parts in index order.  Keys
        tie in b, (b, a) and (b, c), where no sort by row coordinates keeps
        the insertion order."""
        rng = random.Random(37)
        reference = ContinuousQuerySystem(alpha=0.05)
        population = self._grid_queries(rng)
        spanning = population[-1]
        events = self._grid_stream(rng, 400)
        with EventPipeline(
            num_shards=num_shards, alpha=0.05, batch_size=batch_size, mode=mode,
        ) as batched:
            for query in population:
                batched.subscribe(query)
                reference.subscribe(query)
            results = batched.run(events)
        want = self._reference_views(reference, events)
        assert [ordered_view(delta) for __, ___, delta in results] == want
        assert all(rows for __, ___, delta in results for rows in delta.values())
        # The stream really has lists several rows long, and R arrivals
        # whose spanning list holds S rows of more than one C-slice.
        assert max(len(rows) for view in want for rows in view.values()) > 5
        assert sum(
            len({int(row.c * 3 // 10_000) for row in delta[spanning]}) > 1
            for __, event, delta in results
            if event.relation == "R" and spanning in delta
        ) > 10

    @pytest.mark.parametrize(
        "num_shards,mode", [(1, "inline"), (3, "inline"), (3, "process-shm")]
    )
    def test_clearing_emitted_lists_changes_no_later_delta(self, kernel, num_shards, mode):
        """A delta hands over the lists the shards built, uncopied.  A
        caller that clears them, returned or passed to a callback, after
        each flush must reach no state a later event reads, and no two
        (event, query) entries of one flush may share a list."""
        rng = random.Random(41)
        reference = ContinuousQuerySystem(alpha=0.05)
        received = []

        def keep(query, row, matches):
            received.append(matches)

        events = self._grid_stream(rng, 400)
        with EventPipeline(
            num_shards=num_shards, alpha=0.05, batch_size=16, mode=mode,
        ) as batched:
            for k, query in enumerate(self._grid_queries(rng)):
                batched.subscribe(query, keep if k % 2 else None)
                reference.subscribe(query)
            for start in range(0, len(events), 16):
                chunk = events[start : start + 16]
                results = batched.run(chunk)
                want = self._reference_views(reference, chunk)
                assert [ordered_view(delta) for __, ___, delta in results] == want
                lists = [rows for __, ___, delta in results for rows in delta.values()]
                assert len({id(rows) for rows in lists}) == len(lists)
                for rows in lists + received:
                    rows.clear()
                received.clear()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_a_select_only_stream_builds_no_band_index(self, kernel, num_shards):
        """With no band query nothing reads R's or the shared S's
        ``col_b``, so neither is built; a band query subscribed mid-stream
        builds them from the rows so far and answers as the per-event
        system does.  No table of the group ever builds a B+-tree."""
        rng = random.Random(11)
        batched = EventPipeline(
            num_shards=num_shards, alpha=0.05, batch_size=16,
        )
        reference = ContinuousQuerySystem(alpha=0.05)

        def subscribe(queries):
            for query in queries:
                batched.subscribe(query)
                reference.subscribe(query)

        def run(events):
            want = self._reference_views(reference, events)
            assert [ordered_view(delta) for __, ___, delta in batched.run(events)] == want

        events = self._stream(rng, 300, c_scale=100.0)
        subscribe(select_queries(rng, 40, c_scale=100.0))
        run(events[:150])
        group = batched.shard_group
        # Inline, the one shard holds the whole select plane, over the shared S.
        assert batched.shards == [group.shard]
        assert group.shard.select.query_count == 40
        assert group.shard.table_s_select is group.table_s
        tables = [group.table_r, group.table_s]
        assert list(group.table_r.built_columns()) == ["cols_ba"]
        assert list(group.table_s.built_columns()) == ["cols_bc"]
        subscribe(spread_band_queries(rng, 20))
        assert batched.router.band_queries_per_shard == [20]
        run(events[150:])
        assert sorted(group.table_r.built_columns()) == ["col_b", "cols_ba"]
        assert sorted(group.table_s.built_columns()) == ["col_b", "cols_bc"]
        assert all(table.built_indexes() == {} for table in tables)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_a_band_stream_never_rebuilds_a_key_column(self, kernel, num_shards):
        """The band_probe shape: band queries only (pure BJ-SSI) and
        batches of inserts and deletes on both relations.  The first
        probing batch builds R's and the shared S's ``col_b``, and those
        very objects serve every later batch: a rebuild (a write that met
        a buffer view a probe left behind drops the column) shows as a new
        object."""
        rng = random.Random(12)
        batched = EventPipeline(
            num_shards=num_shards, alpha=None, batch_size=64,
        )
        reference = ContinuousQuerySystem(alpha=None)
        for query in spread_band_queries(rng, 40):
            batched.subscribe(query)
            reference.subscribe(query)
        group = batched.shard_group
        # Inline, the one shard holds every band and probes the shared tables.
        assert batched.router.band_queries_per_shard == [40]
        events = self._stream(rng, 640, c_scale=100.0)
        first = None
        for start in range(0, len(events), 64):
            chunk = events[start : start + 64]
            want = self._reference_views(reference, chunk)
            assert [ordered_view(delta) for __, ___, delta in batched.run(chunk)] == want
            columns = [table.built_columns() for table in (group.table_r, group.table_s)]
            assert all(list(built) == ["col_b"] for built in columns)
            first = first or [built["col_b"] for built in columns]
            assert all(built["col_b"] is col for built, col in zip(columns, first))
        assert [len(col[1]) for col in first] == [len(group.table_r), len(group.table_s)]
        # Inline there is no C-slice: the select plane reads the one S.
        assert group.shard.table_s_select is group.table_s

    def test_inline_band_plane_probes_once_per_relation_run(self, kernel, monkeypatch):
        """Inline, ``num_shards=3`` builds one shard, which holds every
        band: each batch's R run and S run reach the band kernel once, and
        every delta is the per-event system's."""
        from repro.fastpath import band as band_kernels

        calls = {"R": [], "S": []}
        for relation, name in (("R", "batch_probe_band_r"), ("S", "batch_probe_band_s")):
            def spy(col_b, rows, *args, _inner=getattr(band_kernels, name), _log=calls[relation]):
                _log.append(len(rows))
                return _inner(col_b, rows, *args)
            monkeypatch.setattr(band_kernels, name, spy)
        rng = random.Random(21)
        batched = EventPipeline(num_shards=3, alpha=None, batch_size=32)
        reference = ContinuousQuerySystem(alpha=None)
        for query in spread_band_queries(rng, 30) + select_queries(rng, 20, c_scale=100.0):
            batched.subscribe(query)
            reference.subscribe(query)
        batched.drain()
        events = self._stream(rng, 320, c_scale=100.0)
        want = self._reference_views(reference, events)
        runs = {"R": [], "S": []}
        got = []
        for start in range(0, len(events), 32):
            chunk = events[start : start + 32]
            for relation in runs:
                n = sum(
                    1 for e in chunk if e.relation == relation and e.kind is EventKind.INSERT
                )
                if n:
                    runs[relation].append(n)
            got.extend(ordered_view(delta) for __, ___, delta in batched.run(chunk))
        assert got == want
        assert any(want)
        assert calls == runs

    def test_inline_select_plane_probes_once_per_relation_run(self, kernel, monkeypatch):
        """Inline, ``num_shards=3`` builds one shard, which holds every
        select-join over the shared S table: each batch's R run and S run
        reach the select kernel once, not once per C-slice, and every
        delta is the per-event system's."""
        calls = {"R": [], "S": []}
        for relation, name in (("R", "batch_probe_select_r"), ("S", "batch_probe_select_s")):
            def spy(cols, rows, *args, _inner=getattr(select_probe, name), _log=calls[relation], **kw):
                _log.append(len(rows))
                return _inner(cols, rows, *args, **kw)
            monkeypatch.setattr(select_probe, name, spy)
        rng = random.Random(22)
        batched = EventPipeline(num_shards=3, alpha=0.05, batch_size=32)
        reference = ContinuousQuerySystem(alpha=0.05)
        # rangeC on [0, 10000] and S.c up to 10000: at K = 3 C-slices
        # every slice would hold select-joins and S rows.
        selects = select_queries(rng, 40, c_scale=100.0)
        for query in spread_band_queries(rng, 10) + selects:
            batched.subscribe(query)
            reference.subscribe(query)
        batched.drain()
        assert [shard.select.query_count for shard in batched.shards] == [40]
        # Five join keys, so that the equality join matches.
        stream = self._stream(rng, 320, c_scale=100.0)
        keyed = {}
        for event in stream:
            row = event.row
            if id(row) not in keyed:
                b = float(int(row.b) % 5)
                keyed[id(row)] = (
                    RTuple(row.rid, row.a, b) if event.relation == "R" else STuple(row.sid, b, row.c)
                )
        events = [DataEvent(e.kind, e.relation, keyed[id(e.row)]) for e in stream]
        want = self._reference_views(reference, events)
        runs = {"R": [], "S": []}
        got = []
        for start in range(0, len(events), 32):
            chunk = events[start : start + 32]
            for relation in runs:
                n = sum(
                    1 for e in chunk if e.relation == relation and e.kind is EventKind.INSERT
                )
                if n:
                    runs[relation].append(n)
            got.extend(ordered_view(delta) for __, ___, delta in batched.run(chunk))
        assert got == want
        assert any(query.qid in view for view in want for query in selects)
        assert calls == runs

    # -- the in-batch term: one batch, any interleaving ----------------------
    #
    # Each case is ONE micro-batch (after an optional preload batch),
    # compared event by event, order included, against the per-event
    # system.  The pipeline's domain is [0, 10000], so under process-shm
    # at K = 3 the C-slices meet at 3333.3 and 6666.7.

    BAND = BandJoinQuery(Interval(-1.0, 1.0), qid=9001)
    SELECT = SelectJoinQuery(Interval(0.0, 100.0), Interval(1000.0, 9000.0), qid=9002)

    def _one_batch(self, events, *, num_shards, preload=(), mode="inline"):
        """Run ``events`` as one batch; ``(raw results, rows struck)`` once
        every delta equals the per-event system's."""
        reference = ContinuousQuerySystem(alpha=0.05)
        with EventPipeline(
            num_shards=num_shards, alpha=0.05, batch_size=len(events) + len(preload),
            mode=mode,
        ) as batched:
            for query in (self.BAND, self.SELECT):
                batched.subscribe(query)
                reference.subscribe(query)
            batched.run(list(preload))
            self._reference_views(reference, preload)
            before = batched.metrics.counter("pipeline/batches").value
            results = batched.run(list(events))
            assert batched.metrics.counter("pipeline/batches").value == before + 1
            want = self._reference_views(reference, events)
            assert [ordered_view(delta) for __, ___, delta in results] == want
            if mode != "inline":
                batched.sample_hotspots()  # ships the workers' counters
            return results, _rows_struck(batched)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_alternating_pair_is_reported_once_on_the_later_event(self, kernel, num_shards):
        r0, r1 = RTuple(0, 10.0, 50.0), RTuple(1, 20.0, 50.5)
        s0, s1 = STuple(0, 50.0, 5000.0), STuple(1, 50.5, 2000.0)
        events = [_insert(row) for row in (r0, s0, s1, r1)]
        results, struck = self._one_batch(events, num_shards=num_shards)
        views = [ordered_view(delta) for __, ___, delta in results]
        # (r0, s0) joins on both queries: reported by s0, which came later;
        # r0 sees nothing, s1 sees r0 in the band only.
        assert views[0] == {}
        assert views[1] == {9001: [0], 9002: [0]}
        assert views[2] == {9001: [0]}
        assert views[3] == {9001: [0, 1], 9002: [1]}
        assert struck > 0  # r0 probed a table that already held s0 and s1

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_delete_before_and_after_a_matching_arrival(self, kernel, num_shards):
        old = STuple(0, 50.0, 5000.0)  # from an earlier batch: (-1, delete)
        new = STuple(1, 50.0, 7000.0)  # inserted and deleted here: (insert, delete)
        events = [
            _insert(RTuple(0, 10.0, 50.0)),  # sees old
            _insert(new),                    # sees the first R row
            _insert(RTuple(1, 10.0, 50.0)),  # sees old and new
            _delete(old),
            _insert(RTuple(2, 10.0, 50.0)),  # sees new only
            _delete(new),
            _insert(RTuple(3, 10.0, 50.0)),  # sees neither
        ]
        results, struck = self._one_batch(
            events, num_shards=num_shards, preload=[_insert(old)]
        )
        seen = [ordered_view(delta).get(9002, []) for __, ___, delta in results]
        assert seen == [[0], [0], [0, 1], [], [1], [], []]
        assert struck > 0

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_equal_keys_inserted_in_one_batch_keep_their_order(self, kernel, num_shards):
        # Equal b, and twice an equal (b, c): the trees keep insertion
        # order among equals, and so must every struck hit list.
        s_rows = [STuple(i, 50.0, c) for i, c in enumerate((2000.0, 2000.0, 5000.0, 5000.0, 8000.0))]
        r_rows = [RTuple(i, 10.0 + i, 50.0) for i in range(5)]
        events = [_insert(row) for pair in zip(s_rows, r_rows) for row in pair]
        results, struck = self._one_batch(events, num_shards=num_shards)
        last = ordered_view(results[-1][2])
        assert last == {9001: [0, 1, 2, 3, 4], 9002: [0, 1, 2, 3, 4]}
        assert struck > 0

    @pytest.mark.parametrize("mode, num_shards", SLICINGS)
    def test_select_join_spanning_c_slices(self, kernel, mode, num_shards):
        # SELECT's rangeC covers all three C-slices: under process-shm an R
        # arrival's delta is three shards' partial lists, each struck on its
        # own, concatenated in shard-index order, which is ascending c.
        s_rows = [STuple(i, 50.0, c) for i, c in enumerate((1500.0, 2500.0, 4500.0, 7500.0, 8500.0))]
        events = [_insert(s_rows[0]), _insert(s_rows[1])]
        events.append(_insert(RTuple(0, 10.0, 50.0)))  # sees 0, 1: one slice
        events += [_insert(s_rows[2]), _delete(s_rows[0]), _insert(s_rows[3])]
        events.append(_insert(RTuple(1, 10.0, 50.0)))  # sees 1, 2, 3: a row of each slice
        events.append(_insert(s_rows[4]))
        results, struck = self._one_batch(events, num_shards=num_shards, mode=mode)
        assert ordered_view(results[2][2])[9002] == [0, 1]
        assert ordered_view(results[6][2])[9002] == [1, 2, 3]
        assert struck > 0

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_select_strike_keeps_only_the_visible_row_of_a_shared_key(
        self, kernel, num_shards, monkeypatch
    ):
        # Three S rows share the R arrival's join key: one visible, one
        # deleted before it and one inserted after it.
        seen = spy_row_strikes(monkeypatch)
        visible, gone = STuple(0, 50.0, 5000.0), STuple(1, 50.0, 7000.0)
        later = STuple(2, 50.0, 2000.0)
        events = [_delete(gone), _insert(RTuple(0, 10.0, 50.0)), _insert(later)]
        results, struck = self._one_batch(
            events, num_shards=num_shards, preload=[_insert(visible), _insert(gone)]
        )
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{}, {9001: [0], 9002: [0]}, {9001: [0], 9002: [0]}]
        assert seen["select_struck"] == 2 and seen["band_struck"] == 2
        assert struck == 4

    @pytest.mark.parametrize("mode, num_shards", SLICINGS)
    def test_select_strike_on_the_s_run_maps_owned_rows_to_their_positions(
        self, kernel, mode, num_shards, monkeypatch
    ):
        """S arrivals of every C-slice interleave around two R deletes and
        an R insert of their join key.  A C-slice's select part answers
        only the S rows it owns, so each must be struck at its own stream
        position: read at the position of the run's k-th S row instead,
        the rows after the first delete would still see R 1 (and those
        before the insert would see R 2).  S 4 lies between the two
        deletes and after the insert, so only the key's first delete
        tells it that a row of its key may be hidden."""
        seen = spy_row_strikes(monkeypatch)
        r_rows = [RTuple(i, 10.0, 50.0) for i in range(4)]
        s_rows = [STuple(i, 50.0, c) for i, c in enumerate((2000.0, 8000.0, 5000.0, 2500.0, 7000.0))]
        events = [
            _insert(s_rows[0]),  # slice 0: sees R 0, 1 and 3
            _insert(s_rows[1]),  # slice 2: sees R 0, 1 and 3
            _delete(r_rows[1]),
            _insert(s_rows[2]),  # slice 1: sees R 0 and 3
            _insert(s_rows[3]),  # slice 0: sees R 0 and 3
            _insert(r_rows[2]),  # sees S 0-3, in c order
            _insert(s_rows[4]),  # slice 2: sees R 0, 3 and 2
            _delete(r_rows[3]),
        ]
        preload = [_insert(r_rows[0]), _insert(r_rows[1]), _insert(r_rows[3])]
        results, struck = self._one_batch(
            events, num_shards=num_shards, preload=preload, mode=mode
        )
        seen_by_select = [ordered_view(delta).get(9002) for __, ___, delta in results]
        assert seen_by_select == [
            [0, 1, 3], [0, 1, 3], None, [0, 3], [0, 3], [0, 3, 2, 1], [0, 3, 2], None,
        ]
        # R 2 hides from S 0-3, R 1 from S 2-4, S 4 from R 2, in each plane
        # (the band joins equal keys too).  A worker's strikes reach the
        # spy of no process but its own, so under process-shm only the
        # shipped counters count them.
        assert struck == 16
        if mode == "inline":
            assert seen["select_struck"] == seen["band_struck"] == 8

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_band_part_is_struck_while_the_select_part_is_not_scanned(
        self, kernel, num_shards, monkeypatch
    ):
        # R 0's band window holds S 1, inserted after it; no hidden row
        # shares R 0's join key, so its select part costs one lookup and
        # keeps S 0.
        seen = spy_row_strikes(monkeypatch)
        events = [_insert(RTuple(0, 10.0, 50.0)), _insert(STuple(1, 50.5, 5000.0))]
        results, struck = self._one_batch(
            events, num_shards=num_shards, preload=[_insert(STuple(0, 50.0, 5000.0))]
        )
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{9001: [0], 9002: [0]}, {9001: [0]}]
        assert seen["band_struck"] == struck == 1
        assert seen["select_events"] > 0
        assert seen["select_scanned"] == seen["select_struck"] == 0

    @pytest.mark.parametrize("mode, num_shards", SLICINGS)
    def test_select_join_spanning_c_slices_subscribed_and_cancelled_in_one_batch(
        self, kernel, mode, num_shards
    ):
        # ``span`` answers only the arrivals between its subscribe and its
        # cancel, with the rows of every C-slice; both relations arrive
        # before, between and after.
        span = SelectJoinQuery(Interval(0.0, 100.0), Interval(500.0, 9500.0), qid=9003)
        events = [
            _insert(RTuple(0, 10.0, 50.0)),     # before
            _insert(STuple(2, 50.0, 4500.0)),   # before
            _sub(span),
            _insert(RTuple(1, 10.0, 50.0)),     # between: S 0, 2 and 1
            _insert(STuple(3, 50.0, 7500.0)),   # between: R 0 and 1
            _unsub(span),
            _insert(RTuple(2, 10.0, 50.0)),     # after
            _insert(STuple(4, 50.0, 2000.0)),   # after
        ]
        preload = [_insert(STuple(0, 50.0, 1500.0)), _insert(STuple(1, 50.0, 8500.0))]
        results, __ = self._one_batch(
            events, num_shards=num_shards, preload=preload, mode=mode
        )
        by_span = [ordered_view(delta).get(9003) for __, ___, delta in results]
        assert by_span == [None, None, [0, 2, 1], [0, 1], None, None]

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_a_list_that_empties_removes_its_query(self, kernel, num_shards):
        events = [_insert(RTuple(0, 10.0, 50.0)), _insert(STuple(0, 50.0, 5000.0))]
        results, struck = self._one_batch(events, num_shards=num_shards)
        assert results[0][2] == {}  # not {query: []}
        assert struck == 2  # one band hit, one select hit

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_reinserted_row_id_cuts_the_batch(self, kernel, num_shards):
        # A row id deleted and inserted again in one batch: its second life
        # cannot be installed while the first is still in the tables.
        first, second = STuple(0, 50.0, 5000.0), STuple(0, 50.5, 6000.0)
        events = [
            _insert(RTuple(0, 10.0, 50.0)),  # sees the first life
            _delete(first),
            _insert(RTuple(1, 10.0, 50.0)),  # sees neither
            _insert(second),
            _insert(RTuple(2, 10.0, 50.5)),  # sees the second life
            _delete(second),
            _insert(first),                  # a third life, another cut: R 0, 1
            _insert(RTuple(3, 10.0, 50.0)),
        ]
        results, __ = self._one_batch(
            events, num_shards=num_shards, preload=[_insert(first)]
        )
        seen = [ordered_view(delta).get(9002, []) for __, ___, delta in results]
        assert seen == [[0], [], [], [], [0], [], [0, 1], [0]]

    def test_batch_without_a_touched_row_of_the_other_relation_strikes_nothing(self, kernel):
        preload = [_insert(STuple(i, 50.0, 5000.0)) for i in range(3)]
        events = [_insert(RTuple(i, 10.0, 50.0)) for i in range(4)]
        results, struck = self._one_batch(events, num_shards=3, preload=preload)
        assert all(ordered_view(delta)[9002] == [0, 1, 2] for __, ___, delta in results)
        assert struck == 0

    def test_in_batch_term_in_process_shm(self):
        # A worker decodes every row into a new object, a DELETE's too: the
        # fix-up has to know rows by id.  Its counters ship with the rest.
        old = STuple(0, 50.0, 5000.0)
        events = [
            _insert(RTuple(0, 10.0, 50.0)),
            _insert(STuple(1, 50.0, 2000.0)),
            _delete(old),
            _insert(RTuple(1, 10.0, 50.0)),
            _insert(STuple(2, 50.5, 8000.0)),
            _insert(RTuple(2, 10.0, 50.5)),
        ]
        results, struck = self._one_batch(
            events, num_shards=2, preload=[_insert(old)], mode="process-shm"
        )
        seen = [ordered_view(delta).get(9002, []) for __, ___, delta in results]
        assert seen == [[0], [0], [], [1], [], [2]]
        assert struck > 0

    def test_shard_order_survives_without_the_merge(self, kernel):
        """A group of one shard, with no pipeline and no merge around it,
        answers in the per-event system's order: a fix-up that reordered
        equal keys shows here before any merge could move it."""
        group = ShardGroup(0, alpha=0.05)
        reference = ContinuousQuerySystem(alpha=0.05)
        for query in (self.BAND, self.SELECT):
            group.shard.subscribe(query)
            reference.subscribe(query)
        # Equal b with c falling as the ids rise: band lists keep insertion
        # order, which no sort by (b, c, id) reproduces.
        s_rows = [STuple(i, 50.0, 8000.0 - 1000.0 * i) for i in range(5)]
        r_rows = [RTuple(i, 10.0, 50.0) for i in range(5)]
        events = [_insert(row) for pair in zip(s_rows, r_rows) for row in pair]
        events += [_delete(s_rows[1]), _insert(RTuple(5, 10.0, 50.0))]
        entries = [(seq, event, 0 if event.relation == "S" else -1)
                   for seq, event in enumerate(events)]
        __, answered = group.apply_batch(entries)
        got = {seq: ordered_view(deltas) for seq, deltas in answered}
        want = self._reference_views(reference, events)
        assert [got.get(seq, {}) for seq in range(len(events))] == want
        assert got[len(events) - 1][9001] == [0, 2, 3, 4]
        assert [seq for seq, __ in answered] == sorted(got)  # stream order

    def test_empty_batch_and_singleton(self, kernel):
        pipeline = EventPipeline(num_shards=2, alpha=0.1, batch_size=37)
        assert pipeline.flush() == []
        assert pipeline.run([]) == []
        pipeline.subscribe(BandJoinQuery(Interval(-5, 5)))
        event = DataEvent(EventKind.INSERT, "S", STuple(0, 3.0, 3.0))
        assert pipeline.run([event]) == [(0, event, {})]  # no R rows yet


def _queries_struck(pipeline):
    """Delta entries the batch fix-up removed, over all shards."""
    counters = pipeline.metrics.snapshot()["counters"]
    return sum(
        value for name, value in counters.items() if name.endswith("/runtime/queries_struck")
    )


def _sub(query):
    return QueryEvent(EventKind.INSERT, query)


def _unsub(query):
    return QueryEvent(EventKind.DELETE, query)


class TestQueryEntries:
    """Subscription changes are entries of a batch, in stream order: each
    case is ONE micro-batch (after the batches that apply ``before``),
    compared data event by data event, order included, against the
    per-event system.  Under ``process-shm`` at K = 3 the C-slices meet at
    3333.3 and 6666.7."""

    BAND = BandJoinQuery(Interval(-1.0, 1.0), qid=9101)

    @staticmethod
    def _select(qid=9102):
        return SelectJoinQuery(Interval(0.0, 100.0), Interval(1000.0, 9000.0), qid=qid)

    def _one_batch(self, events, *, num_shards, before=(), mode="inline", on_results=None):
        """Apply ``before`` (rows and subscriptions), then ``events`` as one
        batch; ``(data results, queries struck, pipeline)`` once every
        delta equals the per-event system's.  ``on_results`` maps a query
        of ``before`` to the callback it subscribes with."""
        on_results = on_results or {}
        reference = ContinuousQuerySystem(alpha=0.05)
        pipeline = EventPipeline(
            num_shards=num_shards, alpha=0.05, batch_size=len(events), mode=mode,
        )
        try:
            for event in before:
                if isinstance(event, QueryEvent):
                    pipeline.subscribe(event.query, on_results.get(event.query))
                else:
                    pipeline.submit(event)
            pipeline.drain()
            TestShardedBatch._reference_views(reference, before)
            batches = pipeline.metrics.counter("pipeline/batches").value
            results = pipeline.run(list(events))
            assert pipeline.metrics.counter("pipeline/batches").value == batches + 1
            want = TestShardedBatch._reference_views(reference, events)
            assert [ordered_view(delta) for __, ___, delta in results] == want
            if mode != "inline":
                pipeline.sample_hotspots()  # ships the workers' counters
            return results, _queries_struck(pipeline), pipeline
        finally:
            pipeline.close()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_subscribe_mid_batch_sees_later_arrivals_and_earlier_rows(self, kernel, num_shards):
        select = self._select()
        events = [
            _insert(STuple(0, 50.0, 5000.0)),
            _insert(RTuple(0, 10.0, 50.0)),   # before: answers no one
            _sub(select),
            _insert(RTuple(1, 10.0, 50.0)),   # joins the S row inserted before it
            _insert(STuple(1, 50.0, 2000.0)),  # joins both R rows
        ]
        results, struck, __ = self._one_batch(events, num_shards=num_shards)
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{}, {}, {9102: [0]}, {9102: [0, 1]}]
        assert struck > 0  # R 0 was probed against the subscription, then struck

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_unsubscribe_mid_batch_keeps_earlier_answers_and_callbacks(self, kernel, num_shards):
        select = self._select()
        seen = []
        events = [
            _insert(RTuple(0, 10.0, 50.0)),  # still answered
            _unsub(select),
            _insert(RTuple(1, 10.0, 50.0)),  # no longer
        ]
        results, struck, pipeline = self._one_batch(
            events, num_shards=num_shards,
            before=[_insert(STuple(0, 50.0, 5000.0)), _sub(select), _sub(self.BAND)],
            on_results={select: lambda query, row, matches: seen.append((query, row.rid))},
        )
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{9101: [0], 9102: [0]}, {9101: [0]}]
        assert seen == [(select, 0)]  # the callback outlived the unsubscribe
        assert struck > 0
        with pytest.raises(KeyError):  # retired with the batch that applied it
            pipeline.query_by_id(select.qid)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_subscribe_and_unsubscribe_in_one_batch(self, kernel, num_shards):
        band = BandJoinQuery(Interval(-5.0, 5.0), qid=9103)
        events = [
            _insert(RTuple(0, 10.0, 50.0)),    # before
            _sub(band),
            _insert(RTuple(1, 10.0, 51.0)),    # between
            _unsub(band),
            _insert(RTuple(2, 10.0, 52.0)),    # after
            _insert(STuple(1, 52.0, 2000.0)),  # after: sees R 0, 1 and 2
        ]
        results, struck, __ = self._one_batch(
            events, num_shards=num_shards, before=[_insert(STuple(0, 50.0, 5000.0))]
        )
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{}, {9103: [0]}, {}, {}]
        assert struck >= 3

    @pytest.mark.parametrize("mode, num_shards", SLICINGS)
    def test_select_join_spanning_c_slices_subscribed_mid_batch(self, kernel, mode, num_shards):
        # rangeC covers all three C-slices: under process-shm each shard
        # installs the query at its position and strikes it from its own
        # partial lists.
        select = self._select()
        s_rows = [STuple(i, 50.0, c) for i, c in enumerate((1500.0, 4500.0, 7500.0))]
        events = [
            _insert(s_rows[0]),
            _insert(RTuple(0, 10.0, 50.0)),  # before
            _sub(select),
            _insert(s_rows[1]),              # sees R 0 in its slice
            _insert(RTuple(1, 10.0, 50.0)),  # sees S 0 and 1: two slices
            _insert(s_rows[2]),              # sees R 0 and 1
        ]
        results, struck, __ = self._one_batch(events, num_shards=num_shards, mode=mode)
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{}, {}, {9102: [0]}, {9102: [0, 1]}, {9102: [0, 1]}]
        assert struck > 0

    def test_one_batch_of_query_entries_in_process_shm(self):
        # A worker installs what its placement names and cancels by qid; the
        # parent resolves a retiring query's qid until the batch is applied.
        band, select = BandJoinQuery(Interval(-5.0, 5.0), qid=9103), self._select()
        seen = []
        events = [
            _insert(RTuple(0, 10.0, 50.0)),
            _sub(band),
            _insert(RTuple(1, 10.0, 51.0)),
            _unsub(select),
            _insert(STuple(1, 52.0, 2000.0)),
            _unsub(band),
            _insert(RTuple(2, 10.0, 52.0)),
        ]
        results, struck, __ = self._one_batch(
            events, num_shards=2, mode="process-shm",
            before=[_insert(STuple(0, 50.0, 5000.0)), _sub(select)],
            on_results={select: lambda query, row, matches: seen.append((query, row.rid))},
        )
        views = [ordered_view(delta) for __, ___, delta in results]
        assert views == [{9102: [0]}, {9103: [0]}, {9103: [0, 1]}, {}]
        assert seen == [(select, 0)]  # resolved to the caller's object
        assert struck > 0

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_reused_qid_flushes_exactly_once(self, kernel, num_shards):
        """Re-subscribing a qid whose unsubscribe is still pending is the
        one barrier left: one batch holds one life of a qid."""
        first, second = self._select(qid=77), BandJoinQuery(Interval(-5.0, 5.0), qid=77)
        reference = ContinuousQuerySystem(alpha=0.05)
        stream = [
            _insert(STuple(0, 50.0, 5000.0)),
            _insert(RTuple(0, 10.0, 50.0)),  # first answers
            _unsub(first),
            _insert(RTuple(1, 10.0, 50.0)),  # no one answers
            _sub(second),                    # flushes the four entries above
            _insert(RTuple(2, 10.0, 52.0)),  # second answers
        ]
        want = TestShardedBatch._reference_views(reference, [_sub(first), *stream])
        assert want == [{}, {77: [0]}, {}, {77: [0]}]
        for stepwise in (False, True):
            with EventPipeline(num_shards=num_shards, alpha=0.05, batch_size=64) as pipeline:
                pipeline.subscribe(first)
                pipeline.drain()
                batches = pipeline.metrics.counter("pipeline/batches")
                before = batches.value
                if not stepwise:
                    results = pipeline.run(stream)
                    assert [ordered_view(delta) for __, ___, delta in results] == want
                    assert batches.value == before + 2  # the reuse, the final drain
                    continue
                for position, event in enumerate(stream):
                    pipeline.submit(event)
                    assert batches.value == before + (position >= 4)
                assert pipeline.pending == 2  # the new life and the R after it
                assert pipeline.query_by_id(77) is second

    def test_wal_order_is_submit_order(self, tmp_path):
        """Subscription changes are logged at submit, in stream order among
        the data events, however the batches then fall."""
        manager = DurabilityManager(tmp_path, fsync="never")
        select, band = self._select(), BandJoinQuery(Interval(-5.0, 5.0), qid=9103)
        stream = [
            _insert(RTuple(0, 10.0, 50.0)), _sub(select), _insert(STuple(0, 50.0, 5000.0)),
            _sub(band), _unsub(select), _insert(RTuple(1, 10.0, 51.0)), _unsub(band),
        ]
        with EventPipeline(num_shards=2, batch_size=2, durability=manager) as pipeline:
            manager.attach(pipeline)
            for event in stream:
                pipeline.submit(event)
            pipeline.drain()
            batches = pipeline.metrics.counter("pipeline/batches").value
        logged = [record.payload for record in read_wal(tmp_path).records]
        assert logged == [encode_event(event) for event in stream]
        assert batches >= 3  # the stream spans several batches

