"""Tests for the hotspot-based processors (Figure 9's HOTSPOT-BASED):
correctness vs brute force, hot/scattered bookkeeping, coverage behaviour."""

import random

import pytest

from repro.core.intervals import Interval
from repro.engine.queries import (
    BandJoinQuery,
    SelectJoinQuery,
    brute_force_band_join,
    brute_force_select_join,
)
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.operators.band_join import BJQOuter
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
)
from repro.operators.select_join import SJSelectFirst


def norm(results):
    return {
        query.qid: sorted(row.sid if hasattr(row, "sid") else row.rid for row in rows)
        for query, rows in results.items()
    }


def clustered_select_queries(rng, count, hot_fraction=0.7):
    """Queries whose rangeC midpoints cluster on three anchors with
    ``hot_fraction`` probability, scattered uniformly otherwise."""
    anchors = [20.0, 50.0, 80.0]
    queries = []
    for __ in range(count):
        a_lo = rng.uniform(0, 80)
        range_a = Interval(a_lo, a_lo + rng.uniform(5, 25))
        if rng.random() < hot_fraction:
            anchor = rng.choice(anchors)
            range_c = Interval(anchor - rng.uniform(0, 6), anchor + rng.uniform(0, 6))
        else:
            c_lo = rng.uniform(0, 90)
            range_c = Interval(c_lo, c_lo + rng.uniform(0, 8))
        queries.append(SelectJoinQuery(range_a, range_c))
    return queries


class TestHotspotSelectJoin:
    def make(self, seed=301, n_queries=200, alpha=0.05):
        rng = random.Random(seed)
        table_s = TableS(order=4)
        table_r = TableR(order=4)
        for __ in range(200):
            table_s.add(float(rng.randrange(12)), rng.uniform(0, 100))
        processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=alpha)
        queries = clustered_select_queries(rng, n_queries)
        for query in queries:
            processor.add_query(query)
        return rng, table_s, table_r, processor, queries

    def test_matches_bruteforce(self):
        rng, table_s, table_r, processor, queries = self.make()
        processor.validate()
        for __ in range(25):
            r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
            assert norm(processor.process_r(r)) == norm(
                brute_force_select_join(queries, r, table_s)
            )

    def test_clustered_workload_has_high_coverage(self):
        __, __, __, processor, __ = self.make()
        assert processor.hotspot_coverage > 0.5

    def test_matches_traditional_baseline(self):
        rng, table_s, table_r, processor, queries = self.make(seed=302)
        baseline = SJSelectFirst(table_s, table_r)
        for query in queries:
            baseline.add_query(query)
        for __ in range(10):
            r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
            assert norm(processor.process_r(r)) == norm(baseline.process_r(r))

    def test_remove_queries(self):
        rng, table_s, table_r, processor, queries = self.make(seed=303)
        for query in queries[::2]:
            processor.remove_query(query)
        processor.validate()
        kept = [q for i, q in enumerate(queries) if i % 2 == 1]
        assert processor.query_count == len(kept)
        r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
        assert norm(processor.process_r(r)) == norm(
            brute_force_select_join(kept, r, table_s)
        )

    def test_bookkeeping_under_churn(self):
        rng, table_s, table_r, processor, queries = self.make(seed=304)
        live = list(queries)
        for __ in range(300):
            if live and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                processor.remove_query(victim)
            else:
                query = clustered_select_queries(rng, 1)[0]
                live.append(query)
                processor.add_query(query)
        processor.validate()
        r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
        assert norm(processor.process_r(r)) == norm(
            brute_force_select_join(live, r, table_s)
        )

    def test_duplicate_query_rejected(self):
        __, __, __, processor, queries = self.make(seed=305, n_queries=5)
        with pytest.raises(ValueError):
            processor.add_query(queries[0])


class TestHotspotBandJoin:
    def make(self, seed=401, alpha=0.05):
        rng = random.Random(seed)
        table_s = TableS(order=4)
        table_r = TableR(order=4)
        for __ in range(200):
            table_s.add(rng.uniform(0, 100), 0.0)
        processor = HotspotBandJoinProcessor(table_s, table_r, alpha=alpha)
        queries = []
        for __ in range(150):
            if rng.random() < 0.7:
                anchor = rng.choice([-5.0, 0.0, 5.0])
                band = Interval(anchor - rng.uniform(0, 2), anchor + rng.uniform(0, 2))
            else:
                lo = rng.uniform(-10, 10)
                band = Interval(lo, lo + rng.uniform(0, 3))
            query = BandJoinQuery(band)
            queries.append(query)
            processor.add_query(query)
        return rng, table_s, table_r, processor, queries

    def test_matches_bruteforce(self):
        rng, table_s, table_r, processor, queries = self.make()
        processor.validate()
        for __ in range(25):
            r = table_r.new_row(0.0, rng.uniform(0, 100))
            assert norm(processor.process_r(r)) == norm(
                brute_force_band_join(queries, r, table_s)
            )

    def test_churn_and_validate(self):
        rng, table_s, table_r, processor, queries = self.make(seed=402)
        live = list(queries)
        for __ in range(200):
            if live and rng.random() < 0.5:
                victim = live.pop(rng.randrange(len(live)))
                processor.remove_query(victim)
            else:
                lo = rng.uniform(-10, 10)
                query = BandJoinQuery(Interval(lo, lo + rng.uniform(0, 3)))
                live.append(query)
                processor.add_query(query)
        processor.validate()
        r = table_r.new_row(0.0, rng.uniform(0, 100))
        assert norm(processor.process_r(r)) == norm(
            brute_force_band_join(live, r, table_s)
        )

    def test_coverage_reflects_clustering(self):
        __, __, __, processor, __ = self.make(seed=403)
        assert processor.hotspot_coverage > 0.5


class TestHotspotBandJoinSSide:
    """An S arrival probes per hot group too (the mirror of ``process_r``):
    checked against a scan of R and against BJ-QOuter's per-query windows."""

    def make(self, seed, *, clustered, alpha=0.05, n_queries=150, n_r=200):
        rng = random.Random(seed)
        table_s = TableS(order=4)
        table_r = TableR(order=4)
        for __ in range(n_r):
            table_r.add(0.0, float(rng.randrange(0, 100)))
        processor = HotspotBandJoinProcessor(table_s, table_r, alpha=alpha)
        reference = BJQOuter(table_s, table_r)
        for i in range(n_queries):
            if rng.random() < clustered:
                anchor = rng.choice([-5.0, 0.0, 5.0])
                band = Interval(anchor - rng.randrange(0, 3), anchor + rng.randrange(0, 3))
            else:  # pairwise disjoint: no stabbing group beyond one band
                lo = -220.0 + 3 * i
                band = Interval(lo, lo + rng.randrange(0, 3))
            query = BandJoinQuery(band)
            processor.add_query(query)
            reference.add_query(query)
        return rng, table_s, table_r, processor, reference

    def check(self, rng, table_s, table_r, processor, reference, arrivals=25):
        processor.validate()
        for __ in range(arrivals):
            s = table_s.new_row(float(rng.randrange(0, 100)), 0.0)
            got = processor.process_s(s)
            scan = {
                query.qid: sorted(r.rid for r in table_r if query.band.contains(s.b - r.b))
                for query in reference.queries
            }
            assert norm(got) == {qid: rids for qid, rids in scan.items() if rids}
            # Equally ordered row lists, not just equal sets.
            assert got == reference.process_s(s)
            assert processor.process_s_batch([s]) == [got]

    @pytest.mark.parametrize(
        "clustered", [1.0, 0.0, 0.7], ids=["hot-only", "scattered-only", "mixed"]
    )
    def test_matches_scan_and_bj_qouter(self, clustered):
        rng, table_s, table_r, processor, reference = self.make(411, clustered=clustered)
        assert bool(processor._hot.group_count()) == (clustered > 0)
        assert bool(processor._hot.scattered) == (clustered < 1)
        self.check(rng, table_s, table_r, processor, reference)

    def test_empty_r_table(self):
        rng, table_s, table_r, processor, reference = self.make(412, clustered=0.7, n_r=0)
        assert processor._hot.group_count() and processor._hot.scattered
        s = table_s.new_row(50.0, 0.0)
        assert processor.process_s(s) == {} == reference.process_s(s)
        assert processor.process_s_batch([s, s]) == [{}, {}]

    def test_across_promotions_and_demotions(self):
        rng, table_s, table_r, processor, reference = self.make(
            413, clustered=0.0, alpha=0.2, n_queries=30
        )
        assert not processor._hot.group_count()
        cluster = [BandJoinQuery(Interval(-2.0 - k, 1.0 + k)) for k in range(12)]
        for query in cluster:
            processor.add_query(query)
            reference.add_query(query)
        assert processor._hot.group_count()
        self.check(rng, table_s, table_r, processor, reference)
        for query in cluster[:10]:
            processor.remove_query(query)
            reference.remove_query(query)
        assert not processor._hot.group_count()
        self.check(rng, table_s, table_r, processor, reference)


class TestBulkSubscriptionChanges:
    """``add_query`` / ``remove_query`` take any number of queries in one
    tracker call; the answers are those of the same queries added one by
    one, and a bad qid anywhere in a call changes nothing."""

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_churn_matches_bruteforce(self, chunk):
        rng = random.Random(306)
        table_s = TableS(order=4)
        table_r = TableR(order=4)
        for __ in range(200):
            table_s.add(float(rng.randrange(12)), rng.uniform(0, 100))
        select = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.05)
        band = HotspotBandJoinProcessor(table_s, table_r, alpha=0.05)
        live_select, live_band = [], []
        for __ in range(6):
            new_select = clustered_select_queries(rng, chunk)
            new_band = [
                BandJoinQuery(Interval(anchor - 1.0, anchor + rng.uniform(0, 2)))
                for anchor in (rng.choice([-5.0, 0.0, 5.0]) for __ in range(chunk))
            ]
            select.add_query(*new_select)
            band.add_query(*new_band)
            live_select += new_select
            live_band += new_band
            gone_select = live_select[: chunk // 2]
            gone_band = live_band[: chunk // 2]
            live_select = live_select[chunk // 2 :]
            live_band = live_band[chunk // 2 :]
            select.remove_query(*gone_select)
            band.remove_query(*gone_band)
            select.validate()
            band.validate()
        assert select.query_count == len(live_select)
        assert band.query_count == len(live_band)
        for __ in range(10):
            r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
            assert norm(select.process_r(r)) == norm(
                brute_force_select_join(live_select, r, table_s)
            )
            assert norm(band.process_r(r)) == norm(brute_force_band_join(live_band, r, table_s))

    @pytest.mark.parametrize("kind", ["select", "band"])
    def test_bad_qid_changes_nothing(self, kind):
        table_s, table_r = TableS(order=4), TableR(order=4)
        if kind == "select":
            processor = HotspotSelectJoinProcessor(table_s, table_r, alpha=0.2)
            make = lambda lo, qid: SelectJoinQuery(Interval(0, 50), Interval(lo, lo + 5), qid=qid)
        else:
            processor = HotspotBandJoinProcessor(table_s, table_r, alpha=0.2)
            make = lambda lo, qid: BandJoinQuery(Interval(lo, lo + 5), qid=qid)
        held = [make(float(k % 3), k) for k in range(10)]
        processor.add_query(*held)
        fresh = make(1.0, 99)
        for call in (
            lambda: processor.add_query(fresh, make(2.0, 3)),  # qid 3 is held
            lambda: processor.add_query(fresh, make(2.0, 99)),  # 99 twice
        ):
            with pytest.raises(ValueError):
                call()
            assert processor.query_count == len(processor.tracker) == 10
            processor.validate()
        for call in (
            lambda: processor.remove_query(held[0], fresh),  # 99 is not held
            lambda: processor.remove_query(held[0], held[0]),
        ):
            with pytest.raises(KeyError):
                call()
            assert processor.query_count == len(processor.tracker) == 10
            processor.validate()


class TestLazyScatteredTree:
    """``HotspotSelectJoinProcessor._scattered_a`` serves only the per-event
    ``process_r``: the batch path never builds it, the first ``process_r``
    does, and from then on it follows ``_hot.scattered``."""

    def test_built_on_first_process_r_then_kept(self):
        rng, table_s, table_r, processor, queries = TestHotspotSelectJoin().make(seed=307)
        assert processor._scattered_a is None
        processor.process_r_batch([table_r.new_row(50.0, 3.0)])
        assert processor._scattered_a is None
        r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
        assert norm(processor.process_r(r)) == norm(brute_force_select_join(queries, r, table_s))
        assert processor._scattered_a is not None
        live = list(queries)
        for __ in range(100):
            if rng.random() < 0.5:
                processor.remove_query(live.pop(rng.randrange(len(live))))
            else:
                live.append(clustered_select_queries(rng, 1)[0])
                processor.add_query(live[-1])
        processor.validate()
        r = table_r.new_row(rng.uniform(0, 100), float(rng.randrange(12)))
        assert norm(processor.process_r(r)) == norm(brute_force_select_join(live, r, table_s))
        # validate() holds the built tree to exactly the scattered queries.
        interval, query = next(iter(processor._scattered_a))
        processor._scattered_a.remove(interval, query)
        with pytest.raises(AssertionError):
            processor.validate()

    def test_inline_pipeline_never_builds_it(self):
        from repro.engine.events import DataEvent, EventKind, QueryEvent
        from repro.runtime.pipeline import EventPipeline

        rng = random.Random(308)
        queries = clustered_select_queries(rng, 120, hot_fraction=0.5)
        events = [QueryEvent(EventKind.INSERT, query) for query in queries]
        for rid in range(300):
            b = float(rng.randrange(12))
            if rng.random() < 0.5:
                events.append(DataEvent(EventKind.INSERT, "R", RTuple(rid, rng.uniform(0, 100), b)))
            else:
                events.append(DataEvent(EventKind.INSERT, "S", STuple(rid, b, rng.uniform(0, 100))))
        events += [QueryEvent(EventKind.DELETE, query) for query in queries[::3]]
        with EventPipeline(num_shards=3, alpha=0.05, batch_size=32, mode="inline") as pipeline:
            results = pipeline.run(events)
            selects = [shard.select for shard in pipeline.shards]
        assert any(deltas for __, __, deltas in results)
        assert any(select._hot.scattered for select in selects)
        assert all(select._scattered_a is None for select in selects)

    def test_system_answers_alike_whenever_the_tree_is_built(self):
        from repro.engine.system import ContinuousQuerySystem

        rng = random.Random(309)
        early, late = (ContinuousQuerySystem(alpha=0.05) for __ in range(2))
        initial = clustered_select_queries(rng, 60)
        for system in (early, late):
            for query in initial:
                system.subscribe(query)
        # ``early`` answers a probe (then drops the row) before the churn, so
        # it builds its tree now and keeps it through every change below.
        probe = early.table_r.new_row(50.0, 3.0)
        early.insert_r_row(probe)
        early.delete_r(probe)
        assert early._select._scattered_a is not None
        live = list(initial)
        steps = []
        for sid in range(400):
            roll = rng.random()
            if roll < 0.3:
                steps.append(("sub", clustered_select_queries(rng, 1)[0]))
                live.append(steps[-1][1])
            elif roll < 0.55 and live:
                steps.append(("unsub", live.pop(rng.randrange(len(live)))))
            else:
                steps.append(("s", STuple(1_000 + sid, float(rng.randrange(12)), rng.uniform(0, 100))))
        for system in (early, late):
            for kind, item in steps:
                if kind == "sub":
                    system.subscribe(item)
                elif kind == "unsub":
                    system.unsubscribe(item)
                else:
                    system.insert_s_row(item)
        assert late._select._scattered_a is None
        for rid in range(40):
            r = RTuple(10_000 + rid, rng.uniform(0, 100), float(rng.randrange(12)))
            assert early.insert_r_row(r) == late.insert_r_row(r)
        assert late._select._scattered_a is not None
        assert early._select._hot.scattered
        early._select.validate()
        late._select.validate()
