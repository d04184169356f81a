"""Tests for the runtime's shard router and for the sharded pipeline driven
one event per batch (the unsharded system's per-event counterpart)."""

import random
import re

import pytest

from repro.core.intervals import Interval
from repro.engine.events import DataEvent, EventKind
from repro.engine.queries import BandJoinQuery, SelectJoinQuery
from repro.engine.system import ContinuousQuerySystem
from repro.engine.table import RTuple, STuple, TableR, TableS
from repro.runtime.pipeline import EventPipeline
from repro.runtime.sharding import ShardRouter, merge_deltas, scaled_alpha


def select_query(lo, hi, a_lo=0.0, a_hi=10_000.0):
    return SelectJoinQuery(Interval(a_lo, a_hi), Interval(lo, hi))


class TestShardRouter:
    def test_value_ranges_tile_the_domain(self):
        router = ShardRouter(4, domain_lo=0.0, domain_hi=100.0)
        ranges = router.value_ranges()
        assert [r.index for r in ranges] == [0, 1, 2, 3]
        assert ranges[0].lo == 0.0 and ranges[-1].hi == 100.0
        for prev, cur in zip(ranges, ranges[1:]):
            assert prev.hi == cur.lo

    def test_band_ranges_tile_the_difference_domain(self):
        router = ShardRouter(4, domain_lo=0.0, domain_hi=100.0)
        ranges = router.band_ranges()
        assert ranges[0].lo == -100.0 and ranges[-1].hi == 100.0
        for prev, cur in zip(ranges, ranges[1:]):
            assert prev.hi == cur.lo

    def test_out_of_domain_values_clamp_to_edge_shards(self):
        router = ShardRouter(4, domain_lo=0.0, domain_hi=100.0)
        assert router.shard_for_value(-5.0) == 0
        assert router.shard_for_value(1e9) == 3

    def test_select_query_reaches_every_overlapping_shard(self):
        rng = random.Random(3)
        router = ShardRouter(6, domain_lo=0.0, domain_hi=600.0)
        ranges = router.value_ranges()
        for __ in range(300):
            lo = rng.uniform(-50, 650)
            query = select_query(lo, lo + rng.uniform(0, 250))
            placed = set(router.shards_for_query(query))
            for shard in ranges:
                # Outermost ranges extend to +-infinity for routing.
                s_lo = float("-inf") if shard.index == 0 else shard.lo
                s_hi = float("inf") if shard.index == len(ranges) - 1 else shard.hi
                overlaps = query.range_c.hi >= s_lo and query.range_c.lo < s_hi
                if overlaps:
                    assert shard.index in placed
            assert placed == set(range(min(placed), max(placed) + 1))

    def test_band_query_routes_to_single_midpoint_shard(self):
        router = ShardRouter(4, domain_lo=0.0, domain_hi=100.0)
        query = BandJoinQuery(Interval(-10.0, 10.0))  # midpoint 0 -> shard 2
        assert router.shards_for_query(query) == [2]

    def test_event_and_matching_query_are_co_located(self):
        """Any S row lands in a shard where every query selecting it lives."""
        rng = random.Random(11)
        router = ShardRouter(5, domain_lo=0.0, domain_hi=1000.0)
        for __ in range(300):
            lo = rng.uniform(0, 1000)
            query = select_query(lo, lo + rng.uniform(0, 100))
            c = rng.uniform(0, 1000)
            if query.range_c.contains(c):
                assert router.shard_for_value(c) in router.shards_for_query(query)

    def test_route_event_owner_at_a_slice_boundary(self):
        """A boundary value belongs to the slice above it — the same side
        a query ending exactly there is placed on."""
        router = ShardRouter(3, domain_lo=0.0, domain_hi=300.0)
        for c, owner in [(99.999, 0), (100.0, 1), (150.0, 1), (200.0, 2)]:
            event = DataEvent(EventKind.INSERT, "S", STuple(0, 5.0, c))
            assert router.route_event(event) == owner
            assert owner in router.shards_for_query(select_query(c - 1.0, c))
        r_event = DataEvent(EventKind.INSERT, "R", RTuple(0, 5.0, 150.0))
        assert router.route_event(r_event) == -1

    @pytest.mark.parametrize("c, owner", [(-5.0, 0), (1e9, 2)])
    def test_route_event_owner_outside_the_domain(self, c, owner):
        """Out-of-domain rows clamp to the edge shards, and the delete of
        a row names the owner its insert did."""
        router = ShardRouter(3, domain_lo=0.0, domain_hi=300.0)
        row = STuple(7, 5.0, c)
        insert = DataEvent(EventKind.INSERT, "S", row)
        delete = DataEvent(EventKind.DELETE, "S", row)
        assert router.route_event(insert) == owner
        router.note_event(owner)
        assert router.route_event(delete) == owner
        assert router.stats()["select_probes_per_shard"][owner] == 1
        assert router.stats()["events_per_shard"] == [1, 1, 1]

    def test_unsupported_query_type(self):
        router = ShardRouter(2)
        with pytest.raises(TypeError):
            router.shards_for_query("nope")

    def test_stats_track_load_and_imbalance(self):
        router = ShardRouter(2, domain_lo=0.0, domain_hi=100.0)
        query = select_query(10.0, 20.0)
        router.note_query(query, router.shards_for_query(query), +1)
        stats = router.stats()
        assert stats["select_queries_per_shard"] == [1, 0]
        assert stats["select_query_imbalance"] == 2.0  # all load on 1 of 2


def test_scaled_alpha_keeps_absolute_threshold():
    assert scaled_alpha(0.01, 8) == pytest.approx(0.08)
    assert scaled_alpha(0.3, 8) == 1.0  # capped
    assert scaled_alpha(None, 8) is None


def test_merge_deltas_passes_one_part_through():
    q, other = select_query(0, 10), select_query(20, 30)
    # Out of (b, c, id) order on purpose: one part is never sorted.
    rows = [STuple(2, 5.0, 3.0), STuple(1, 4.0, 2.0)]
    part = {q: rows, other: rows[:1]}
    merged = merge_deltas([part])
    assert merged[q] is rows and merged[other] is part[other]
    assert [row.sid for row in merged[q]] == [2, 1]


def test_merge_deltas_concatenates_shared_queries_in_part_order():
    q, only_first, only_second = (select_query(0, 10) for __ in range(3))
    first = {q: [STuple(2, 5.0, 3.0)], only_first: [STuple(3, 5.0, 1.0)]}
    second = {q: [STuple(1, 4.0, 2.0)], only_second: [STuple(4, 6.0, 9.0)]}
    merged = merge_deltas([first, second])
    assert [row.sid for row in merged[q]] == [2, 1]  # part order, no sort
    assert [row.sid for row in merge_deltas([second, first])[q]] == [1, 2]
    # A query one part answered keeps that part's list; a shared one gets
    # a new list, so neither part is changed.
    assert merged[only_first] is first[only_first]
    assert merged[only_second] is second[only_second]
    assert [len(first[q]), len(second[q])] == [1, 1]


def per_event_pipeline(**kwargs):
    """The sharded host driven one event per batch: ``run([event])`` is
    then the sharded counterpart of the unsharded system's row-level API."""
    return EventPipeline(batch_size=1, **kwargs)


def apply(pipeline, kind, relation, row):
    [(__, ___, deltas)] = pipeline.run([DataEvent(kind, relation, row)])
    return deltas


def norm(deltas):
    return sorted(
        (sorted(r.sid if isinstance(r, STuple) else r.rid for r in rows))
        for rows in deltas.values()
        if rows
    )


class TestShardedPipeline:
    @pytest.mark.parametrize("num_shards", [1, 5])
    @pytest.mark.parametrize("alpha", [None, 0.05])
    def test_matches_unsharded_system(self, num_shards, alpha):
        rng = random.Random(42)
        plain = ContinuousQuerySystem(alpha=alpha)
        # Inline builds one shard whatever num_shards (the process-shm
        # process count); the K-way split is the process-shm tests' and
        # fuzz cells'.
        sharded = per_event_pipeline(num_shards=num_shards, alpha=alpha)
        assert len(sharded.shards) == 1
        for qid in range(60):
            if qid % 3 == 0:
                band_lo = rng.uniform(-40, 40)
                band = Interval(band_lo, band_lo + rng.uniform(0, 30))
                make = lambda: BandJoinQuery(band)
            else:
                c_lo, a_lo = rng.uniform(0, 10_000), rng.uniform(0, 10_000)
                range_a = Interval(a_lo, a_lo + 3_000)
                range_c = Interval(c_lo, c_lo + rng.uniform(0, 2_000))
                make = lambda: SelectJoinQuery(range_a, range_c)
            q1, q2 = make(), make()
            plain.subscribe(q1)
            sharded.subscribe(q2)

        live_r, live_s = [], []
        for step in range(250):
            roll = rng.random()
            if roll < 0.15 and live_r:
                row = live_r.pop(rng.randrange(len(live_r)))
                plain.delete_r(row)
                assert apply(sharded, EventKind.DELETE, "R", row) == {}
            elif roll < 0.3 and live_s:
                row = live_s.pop(rng.randrange(len(live_s)))
                plain.delete_s(row)
                assert apply(sharded, EventKind.DELETE, "S", row) == {}
            elif roll < 0.65:
                row = RTuple(step, rng.uniform(0, 10_000), rng.uniform(0, 1000))
                live_r.append(row)
                assert norm(plain.insert_r_row(row)) == norm(
                    apply(sharded, EventKind.INSERT, "R", row)
                )
            else:
                row = STuple(step, rng.uniform(0, 1000), rng.uniform(0, 10_000))
                live_s.append(row)
                assert norm(plain.insert_s_row(row)) == norm(
                    apply(sharded, EventKind.INSERT, "S", row)
                )
        applied = sharded.metrics.counter("pipeline/events_applied").value
        assert applied == plain.events_processed == 250

    def test_mid_stream_subscribe_sees_prior_state(self):
        sharded = per_event_pipeline(num_shards=4, alpha=None)
        # Two S rows in different C-slices, installed before the query exists.
        apply(sharded, EventKind.INSERT, "S", STuple(0, 10.0, 5_000.0))
        apply(sharded, EventKind.INSERT, "S", STuple(1, 10.0, 7_500.0))
        query = sharded.subscribe(select_query(0.0, 10_000.0, 0.0, 100.0))
        deltas = apply(sharded, EventKind.INSERT, "R", RTuple(0, 5.0, 10.0))
        assert len(deltas[query]) == 2  # both pre-subscribe S rows join

    def test_unsubscribe_removes_from_all_shards(self):
        sharded = per_event_pipeline(num_shards=4, alpha=None)
        query = sharded.subscribe(select_query(0.0, 10_000.0, 0.0, 100.0))
        assert sharded.subscription_count == 1
        # Inline, the whole select plane is the one shard's.
        assert [shard.query_count for shard in sharded.shards] == [1]
        sharded.unsubscribe(query)
        assert sharded.subscription_count == 0
        assert all(shard.query_count == 0 for shard in sharded.shards)
        apply(sharded, EventKind.INSERT, "S", STuple(0, 1.0, 5_000.0))
        assert apply(sharded, EventKind.INSERT, "R", RTuple(0, 1.0, 1.0)) == {}

    def test_inline_builds_one_shard_and_process_shm_one_per_process(self):
        """Inline, ``num_shards`` is ignored: the pipeline builds one shard,
        the router counts one, and no metric is named for a shard i >= 1.
        Under ``process-shm`` it is the process count, and every shard's
        metrics appear."""
        named = re.compile(r"(?:obs/)?shard/(\d+)/")

        def shards_named(pipeline):
            pipeline.subscribe(BandJoinQuery(Interval(-5.0, 5.0)))
            pipeline.subscribe(select_query(0.0, 10_000.0))
            pipeline.run([
                DataEvent(EventKind.INSERT, "R", RTuple(0, 1.0, 2.0)),
                DataEvent(EventKind.INSERT, "S", STuple(0, 2.0, 5_000.0)),
            ])
            pipeline.sample_hotspots()
            return {
                int(match.group(1))
                for section in pipeline.metrics.snapshot().values()
                for name in section
                if (match := named.match(name))
            }

        with EventPipeline(num_shards=4, alpha=0.05, batch_size=4) as inline:
            assert len(inline.shards) == 1
            assert inline.router.stats()["num_shards"] == 1
            assert shards_named(inline) == {0}
        with EventPipeline(num_shards=3, alpha=0.05, batch_size=4, mode="process-shm") as shm:
            assert shm.router.stats()["num_shards"] == 3
            assert shards_named(shm) == {0, 1, 2}

    @pytest.mark.parametrize("mode", ["inline", "process-shm"])
    def test_a_shard_count_below_one_is_rejected(self, mode):
        with pytest.raises(ValueError, match="at least one shard"):
            EventPipeline(num_shards=0, mode=mode)

    def test_deletions_count_as_applied_events(self):
        sharded = per_event_pipeline(num_shards=2, alpha=None)
        row = RTuple(0, 1.0, 2.0)
        apply(sharded, EventKind.INSERT, "R", row)
        apply(sharded, EventKind.DELETE, "R", row)
        assert sharded.metrics.counter("pipeline/events_applied").value == 2
        assert all(len(shard.table_r) == 0 for shard in sharded.shards)


class TestBandPlane:
    """The band plane is split over the processes, one shard each."""

    # Midpoints -4000, 0 and +4000: one per band slice at K = 3.
    BANDS = ((-8_000.0, 0.0), (-5.0, 5.0), (0.0, 8_000.0))

    def test_inline_places_every_band_on_shard_0_and_shm_by_midpoint(self):
        queries = [BandJoinQuery(Interval(lo, hi)) for lo, hi in self.BANDS]
        with EventPipeline(num_shards=3, alpha=0.05, mode="inline") as inline:
            assert [inline.router.shards_for_query(q) for q in queries] == [[0]] * 3
            for query in queries:
                inline.subscribe(query)
            inline.drain()
            assert [shard.band.query_count for shard in inline.shards] == [3]
            stats = inline.router.stats()
            assert stats["num_shards"] == 1
            assert stats["band_queries_per_shard"] == [3]
            assert stats["band_query_imbalance"] == 1.0
        with EventPipeline(num_shards=3, alpha=0.05, mode="process-shm") as shm:
            assert [shm.router.shards_for_query(q) for q in queries] == [[0], [1], [2]]
            assert [r.index for r in shm.router.band_ranges()] == [0, 1, 2]
            assert shm.router.stats()["num_shards"] == 3

    def test_a_band_cluster_of_30_percent_is_hot_at_alpha_quarter(self):
        """Inline, the shard holding the bands promotes at the workload's
        alpha over all of them: 30 co-stabbed bands of 100 clear
        ``0.25 * 100``.  Split four ways at ``scaled_alpha(0.25, 4) = 1``,
        the cluster would share its shard with other bands and stay cold."""
        cluster = [BandJoinQuery(Interval(-1.0 - 0.01 * i, 1.0 + 0.01 * i)) for i in range(30)]
        # Narrow, pairwise disjoint bands clear of the cluster, spread over
        # the whole difference domain.
        others = [
            BandJoinQuery(Interval(lo, lo + 1.0))
            for lo in (-9_000.0 + 260.0 * k for k in range(70))
        ]
        pipeline = EventPipeline(num_shards=4, alpha=0.25, batch_size=128)
        for query in cluster + others:
            pipeline.subscribe(query)
        pipeline.drain()
        (index,) = pipeline.router.shards_for_query(cluster[0])
        tracker = pipeline.shards[index].band.tracker
        assert all(tracker.is_hotspot_item(query) for query in cluster)
        assert not any(tracker.is_hotspot_item(query) for query in others)
        pipeline.shards[index].band.validate()


class TestSelectPlane:
    """The select plane is split over the processes too: one shard
    inline, C-slices only under ``process-shm``."""

    # rangeC inside slice 0, 1 and 2 at K = 3, and one across all three.
    RANGES_C = ((100.0, 200.0), (4_000.0, 5_000.0), (7_000.0, 9_000.0), (0.0, 10_000.0))

    def test_inline_places_every_select_on_shard_0_and_shm_by_c_slice(self):
        queries = [select_query(lo, hi) for lo, hi in self.RANGES_C]
        s_rows = [STuple(i, 1.0, c) for i, c in enumerate((150.0, 4_500.0, 8_000.0))]
        with EventPipeline(num_shards=3, alpha=0.05, mode="inline") as inline:
            router = inline.router
            assert [router.shards_for_query(q) for q in queries] == [[0]] * 4
            assert [router.route_event(_event("S", row)) for row in s_rows] == [0, 0, 0]
            assert [r.index for r in router.value_ranges()] == [0]
            for query in queries:
                inline.subscribe(query)
            inline.drain()
            assert [shard.select.query_count for shard in inline.shards] == [4]
            assert not inline.shards[0].sliced
            stats = router.stats()
            assert stats["select_queries_per_shard"] == [4]
            assert stats["select_query_imbalance"] == 1.0
        with EventPipeline(num_shards=3, alpha=0.05, mode="process-shm") as shm:
            router = shm.router
            assert [router.shards_for_query(q) for q in queries] == [[0], [1], [2], [0, 1, 2]]
            assert [router.route_event(_event("S", row)) for row in s_rows] == [0, 1, 2]
            assert [r.index for r in router.value_ranges()] == [0, 1, 2]
            for query in queries:
                shm.subscribe(query)
            shm.drain()
            assert router.stats()["select_queries_per_shard"] == [2, 2, 2]
            assert shm.table_set.shard.sliced
            assert shm.table_set.shard.select.query_count == 2

    def test_one_threshold_serves_both_planes(self):
        """Inline, shard 0's two trackers promote at the pipeline's alpha;
        under ``process-shm`` both at ``scaled_alpha(alpha, K)``."""
        with EventPipeline(num_shards=4, alpha=0.05, mode="inline") as inline:
            shard = inline.shards[0]
            assert shard.band.tracker.alpha == shard.select.tracker.alpha == 0.05
        with EventPipeline(num_shards=2, alpha=0.05, mode="process-shm") as shm:
            shard = shm.table_set.shard
            assert shard.band.tracker.alpha == shard.select.tracker.alpha == scaled_alpha(0.05, 2)


def _event(relation, row):
    return DataEvent(EventKind.INSERT, relation, row)


def group_tables(group):
    """Every table of a shard group: R, the shared S and its C-slice."""
    slices = [group.shard.table_s_select] if group.shard.sliced else []
    return [group.table_r, group.table_s] + slices


class TestOneTableSet:
    """R and S exist once per process, whatever K is."""

    def test_runs_in_one_batch_see_each_other_like_per_event(self):
        """R-run, S-run, delete, R-run inside one 64-event batch: the S-run
        must see the first R-run's rows, the last R-run the S-run's rows
        minus the deleted one — delta for delta the unsharded engine."""
        plain = ContinuousQuerySystem(alpha=None)
        sharded = EventPipeline(num_shards=4, alpha=None, batch_size=64)
        for system in (plain, sharded):
            system.subscribe(BandJoinQuery(Interval(-1.0, 1.0)))
            system.subscribe(BandJoinQuery(Interval(-3.0, 12_000.0)))
            system.subscribe(select_query(0.0, 10_000.0, 0.0, 100.0))  # the whole C domain
            system.subscribe(select_query(3_000.0, 4_500.0, 0.0, 50.0))
        r_rows = [RTuple(i, 10.0 * i, 10.0 + i) for i in range(6)]
        s_rows = [STuple(i, 10.0 + i, 2_000.0 * i) for i in range(5)]
        events = (
            [DataEvent(EventKind.INSERT, "R", row) for row in r_rows[:3]]
            + [DataEvent(EventKind.INSERT, "S", row) for row in s_rows]
            + [DataEvent(EventKind.DELETE, "S", s_rows[1])]
            + [DataEvent(EventKind.INSERT, "R", row) for row in r_rows[3:]]
        )
        want = []
        for event in events:
            if event.kind is EventKind.DELETE:
                plain.delete_s(event.row)
                want.append([])
            elif event.relation == "R":
                want.append(norm(plain.insert_r_row(event.row)))
            else:
                want.append(norm(plain.insert_s_row(event.row)))
        got = [norm(deltas) for __, ___, deltas in sharded.run(events)]
        assert sharded.metrics.counter("pipeline/batches").value == 1
        assert sharded.router.band_queries_per_shard == [2]  # inline: one shard
        assert got == want
        assert any(want[3:8]) and any(want[9:])  # later runs did match earlier rows

    def test_a_data_event_writes_each_table_once(self, monkeypatch):
        """One TableR write per R event and one TableS write per S event:
        inline, the whole select plane reads the shared S table, so no
        C-slice is written — not K and K+1, and not two."""
        writes = {}
        for cls in (TableR, TableS):
            for op in ("insert", "delete"):
                def counted(self, row, _inner=getattr(cls, op), _key=(cls.__name__, op)):
                    writes[_key] = writes.get(_key, 0) + 1
                    return _inner(self, row)
                monkeypatch.setattr(cls, op, counted)
        sharded = EventPipeline(num_shards=4, alpha=None, batch_size=8)
        r_rows = [RTuple(i, 1.0, 2.0 + i) for i in range(5)]
        s_rows = [STuple(i, 2.0 + i, 2_500.0 * i) for i in range(4)]
        sharded.run(
            [DataEvent(EventKind.INSERT, "R", row) for row in r_rows]
            + [DataEvent(EventKind.INSERT, "S", row) for row in s_rows]
        )
        sharded.run(
            [DataEvent(EventKind.DELETE, "R", r_rows[0])]
            + [DataEvent(EventKind.DELETE, "S", row) for row in s_rows[:3]]
        )
        assert writes == {
            ("TableR", "insert"): 5, ("TableS", "insert"): 4,
            ("TableR", "delete"): 1, ("TableS", "delete"): 3,
        }
        group = sharded.shard_group
        assert group.shard.table_r is group.table_r
        assert group.shard.table_s_band is group.shard.table_s_select is group.table_s
        assert (len(group.table_r), len(group.table_s)) == (4, 1)

    def test_each_s_table_builds_only_the_index_its_plane_probes(self):
        """Inline, the shared S table serves the band plane (``col_b``) and
        the whole select plane (``cols_bc``), R both: with both families
        live and both relations probed, that is what each table has built,
        there is no C-slice, and no table builds a B+-tree (the trees
        serve the per-event references)."""
        pipeline = EventPipeline(num_shards=3, alpha=None, batch_size=4)
        pipeline.subscribe(BandJoinQuery(Interval(-5.0, 5.0)))
        pipeline.subscribe(select_query(0.0, 10_000.0, 0.0, 100.0))  # the whole C domain
        pipeline.run(
            [DataEvent(EventKind.INSERT, "R", RTuple(0, 1.0, 50.0))]
            + [DataEvent(EventKind.INSERT, "S", STuple(i, 50.0, 3_000.0 * i)) for i in range(4)]
        )
        group = pipeline.shard_group
        assert sorted(group.table_r.built_columns()) == ["col_b", "cols_ba"]
        assert sorted(group.table_s.built_columns()) == ["col_b", "cols_bc"]
        assert not group.shard.sliced
        assert group_tables(group) == [group.table_r, group.table_s]
        for table in group_tables(group):
            assert table.built_indexes() == {}

    def test_the_process_shm_parent_group_builds_no_tree(self):
        """In ``process-shm`` the parent applies shard 0 through its own
        group, which holds every row: a mixed band and select stream builds
        columns there and no B+-tree."""
        rng = random.Random(3)
        pipeline = EventPipeline(num_shards=3, alpha=0.05, batch_size=8, mode="process-shm")
        try:
            # One band per band slice, each covering the small b-differences.
            for lo, hi in ((-8_000.0, 100.0), (-5.0, 15.0), (-100.0, 8_000.0)):
                pipeline.subscribe(BandJoinQuery(Interval(lo, hi)))
            assert pipeline.router.band_queries_per_shard == [1, 1, 1]
            pipeline.subscribe(select_query(0.0, 10_000.0, 0.0, 100.0))  # all 3 slices
            pipeline.run(
                [
                    DataEvent(EventKind.INSERT, "R", RTuple(i, rng.uniform(0, 100), float(i % 7)))
                    for i in range(20)
                ]
                + [
                    DataEvent(EventKind.INSERT, "S", STuple(i, float(i % 7), rng.uniform(0, 10_000)))
                    for i in range(20)
                ]
            )
            group = pipeline.table_set
            assert sorted(group.table_r.built_columns()) == ["col_b", "cols_ba"]
            assert list(group.table_s.built_columns()) == ["col_b"]
            assert list(group.shard.table_s_select.built_columns()) == ["cols_bc"]
            for table in group_tables(group):
                assert table.built_indexes() == {}
        finally:
            pipeline.close()

    def test_the_unsharded_system_keeps_both_s_indexes(self):
        table_s = ContinuousQuerySystem().table_s
        assert hasattr(table_s, "by_b") and hasattr(table_s, "by_bc")
