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
from repro.engine.table import TableR, TableS
from repro.operators.band_join import BJQOuter
from repro.operators.hotspot_processor import (
    HotspotBandJoinProcessor,
    HotspotSelectJoinProcessor,
    TraditionalSelectJoinProcessor,
)


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
        baseline = TraditionalSelectJoinProcessor(table_s, table_r)
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
        assert bool(processor._hot_indexes) == (clustered > 0)
        assert bool(processor._scattered) == (clustered < 1)
        self.check(rng, table_s, table_r, processor, reference)

    def test_empty_r_table(self):
        rng, table_s, table_r, processor, reference = self.make(412, clustered=0.7, n_r=0)
        assert processor._hot_indexes and processor._scattered
        s = table_s.new_row(50.0, 0.0)
        assert processor.process_s(s) == {} == reference.process_s(s)
        assert processor.process_s_batch([s, s]) == [{}, {}]

    def test_across_promotions_and_demotions(self):
        rng, table_s, table_r, processor, reference = self.make(
            413, clustered=0.0, alpha=0.2, n_queries=30
        )
        assert not processor._hot_indexes
        cluster = [BandJoinQuery(Interval(-2.0 - k, 1.0 + k)) for k in range(12)]
        for query in cluster:
            processor.add_query(query)
            reference.add_query(query)
        assert processor._hot_indexes
        self.check(rng, table_s, table_r, processor, reference)
        for query in cluster[:10]:
            processor.remove_query(query)
            reference.remove_query(query)
        assert not processor._hot_indexes
        self.check(rng, table_s, table_r, processor, reference)
