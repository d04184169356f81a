"""Replay-driver tests, including the 10k-event acceptance run: the
sharded+batched pipeline must produce exactly the unsharded facade's
per-event result deltas on a mixed insert/delete/subscribe stream."""

from repro.engine.events import DataEvent, EventKind, QueryEvent
from repro.runtime.replay import (
    StreamProfile,
    generate_mixed_stream,
    normalize_deltas,
    run_replay,
)
from repro.workload.params import WorkloadParams


class TestStreamGenerator:
    def test_deterministic_per_seed(self):
        profile = StreamProfile(n_events=200, n_initial_queries=20, seed=3)

        def fingerprint(stream):
            out = []
            for event in stream:
                if isinstance(event, QueryEvent):
                    out.append(("Q", event.kind.name))
                else:
                    row = event.row
                    rid = row.rid if event.relation == "R" else row.sid
                    out.append((event.relation, event.kind.name, rid))
            return out

        a = generate_mixed_stream(profile)
        b = generate_mixed_stream(profile)
        assert fingerprint(a) == fingerprint(b)

    def test_counts_and_composition(self):
        profile = StreamProfile(
            n_events=500,
            n_initial_queries=30,
            query_event_fraction=0.05,
            delete_fraction=0.3,
            min_delete_age=16,
            seed=8,
        )
        stream = generate_mixed_stream(profile)
        data = [e for e in stream if isinstance(e, DataEvent)]
        queries = [e for e in stream if isinstance(e, QueryEvent)]
        assert len(data) == 500
        assert len(queries) >= 30
        assert any(e.kind is EventKind.DELETE for e in data)
        # Deletes only reference rows inserted earlier in the stream.
        seen = set()
        for event in data:
            row = event.row
            key = (event.relation, row.rid if event.relation == "R" else row.sid)
            if event.kind is EventKind.INSERT:
                seen.add(key)
            else:
                assert key in seen

    def test_normalize_deltas_sorts_ids(self):
        from repro.core.intervals import Interval
        from repro.engine.queries import SelectJoinQuery
        from repro.engine.table import STuple

        query = SelectJoinQuery(Interval(0, 1), Interval(0, 1))
        deltas = {query: [STuple(5, 0.0, 0.0), STuple(2, 0.0, 0.0)]}
        assert normalize_deltas(deltas) == {query.qid: (2, 5)}


class TestReplayEquivalence:
    def test_acceptance_10k_mixed_stream(self):
        """ISSUE acceptance: 10k data events (inserts, deletes,
        subscribe/unsubscribe mixed in) through the sharded+batched
        pipeline match the unsharded system's deltas event-for-event."""
        profile = StreamProfile(
            n_events=10_000,
            n_initial_queries=120,
            band_fraction=0.3,
            query_event_fraction=0.02,
            delete_fraction=0.2,
            seed=2006,
        )
        stream = generate_mixed_stream(profile)
        report = run_replay(stream, num_shards=4, batch_size=64)
        assert report.data_events == 10_000
        assert report.equivalent, report.summary()
        assert report.compared == 10_000
        assert report.pipeline_results == report.reference_results > 0

    def test_churn_stream_is_strictly_equivalent(self):
        """Under churn a row is often inserted and deleted inside one
        batch: every data event is still applied and compared, in order,
        and the shards strike the row outside its lifetime."""
        profile = StreamProfile(
            n_events=1_500,
            n_initial_queries=80,
            delete_fraction=0.4,
            churn=0.5,
            min_delete_age=64,
            recent_window=16,
            seed=17,
        )
        stream = generate_mixed_stream(profile)
        report = run_replay(stream, num_shards=4, batch_size=32)
        assert report.equivalent, report.summary()
        assert report.compared == report.applied == report.data_events == 1_500
        assert report.pipeline_results == report.reference_results > 0
        counters = report.metrics["counters"]
        assert counters["shard/0/runtime/rows_struck"] > 0  # inline: one shard

    def test_report_carries_metrics_and_router_stats(self):
        profile = StreamProfile(n_events=300, n_initial_queries=20, seed=4)
        report = run_replay(generate_mixed_stream(profile), num_shards=3)
        assert report.metrics["counters"]["pipeline/events_applied"] == 300
        assert report.router_stats["num_shards"] == 1  # inline: one shard
        assert sum(report.router_stats["select_probes_per_shard"]) > 0
        assert "EQUIVALENT" in report.summary()

    def test_degenerate_routing_domain_is_correctness_neutral(self):
        """Routing only affects load balance: a stream whose values all
        fall in one C-slice of the routing domain, so under ``process-shm``
        every select query and S row lands on shard 0, must reproduce
        identical deltas; inline, every query is on shard 0 by design."""
        profile = StreamProfile(n_events=200, n_initial_queries=25, seed=12)
        params = WorkloadParams(seed=12, domain_hi=1_000.0, range_a_mid_mean=500.0)
        stream = generate_mixed_stream(profile, params)
        report = run_replay(stream, num_shards=5, batch_size=8)
        assert report.equivalent, report.summary()
        assert report.reference_results > 0
        stats = report.router_stats
        assert stats["num_shards"] == 1
        # One shard inline: both planes read 1.0.
        assert stats["band_query_imbalance"] == stats["select_query_imbalance"] == 1.0
        report = run_replay(stream, num_shards=3, batch_size=8, mode="process-shm")
        assert report.equivalent, report.summary()
        stats = report.router_stats
        assert stats["num_shards"] == 3
        assert stats["select_probes_per_shard"][0] > 0
        assert stats["select_probes_per_shard"][1:] == [0, 0]
        assert stats["select_queries_per_shard"][0] > 0
        assert stats["select_queries_per_shard"][1:] == [0, 0]
