"""Tests for the base relations R(A, B) and S(B, C)."""

import pytest

from repro.engine.table import RTuple, STuple, TableR, TableS


class TestTableS:
    def test_add_and_get(self):
        table = TableS()
        row = table.add(5.0, 7.0)
        assert table.get(row.sid) is row
        assert len(table) == 1

    def test_new_row_not_inserted(self):
        table = TableS()
        row = table.new_row(1.0, 2.0)
        assert table.get(row.sid) is None
        table.insert(row)
        assert table.get(row.sid) is row

    def test_duplicate_sid_rejected(self):
        table = TableS()
        row = table.add(1.0, 2.0)
        with pytest.raises(ValueError):
            table.insert(STuple(row.sid, 3.0, 4.0))

    def test_delete_removes_from_both_indexes(self):
        table = TableS()
        keep = table.add(5.0, 1.0)
        drop = table.add(5.0, 2.0)
        table.delete(drop)
        assert table.joining(5.0) == [keep]
        assert [v for __, v in table.by_bc.irange((5.0, 0.0), (5.0, 9.0))] == [keep]
        assert len(table) == 1

    def test_scan_by_b_sorted(self):
        table = TableS()
        for b in [5.0, 1.0, 3.0]:
            table.add(b, 0.0)
        assert [row.b for row in table.scan_by_b()] == [1.0, 3.0, 5.0]

    def test_joining_exact_matches_only(self):
        table = TableS()
        table.add(1.0, 0.0)
        hit = table.add(2.0, 0.0)
        assert table.joining(2.0) == [hit]
        assert table.joining(9.0) == []

    def test_composite_index_orders_by_c_within_b(self):
        table = TableS()
        rows = [table.add(7.0, c) for c in [3.0, 1.0, 2.0]]
        got = [v.c for __, v in table.by_bc.irange((7.0, 0.0), (7.0, 9.0))]
        assert got == [1.0, 2.0, 3.0]

    def test_iteration(self):
        table = TableS()
        rows = {table.add(float(i), 0.0).sid for i in range(5)}
        assert {row.sid for row in table} == rows

    @pytest.mark.parametrize("kept, dropped", [("by_b", "by_bc"), ("by_bc", "by_b")])
    def test_one_index_table_keeps_only_that_index(self, kept, dropped):
        table = TableS(indexes=(kept,))
        keep = table.add(5.0, 1.0)
        drop = table.add(5.0, 2.0)
        table.delete(drop)
        assert [row for __, row in getattr(table, kept).items()] == [keep]
        assert not hasattr(table, dropped)
        assert [row.sid for row in table] == [keep.sid]

    @pytest.mark.parametrize("indexes", [(), ("by_a",), ("by_b", "by_c")])
    def test_unknown_or_empty_index_set_rejected(self, indexes):
        with pytest.raises(ValueError, match="indexes"):
            TableS(indexes=indexes)


class TestTableR:
    def test_mirror_of_table_s(self):
        table = TableR()
        row = table.add(2.5, 7.5)  # (a, b)
        assert row.a == 2.5 and row.b == 7.5
        assert table.joining(7.5) == [row]
        table.delete(row)
        assert len(table) == 0

    def test_duplicate_rid_rejected(self):
        table = TableR()
        row = table.add(1.0, 2.0)
        with pytest.raises(ValueError):
            table.insert(RTuple(row.rid, 3.0, 4.0))

    def test_by_ba_composite(self):
        table = TableR()
        for a in [3.0, 1.0, 2.0]:
            table.add(a, 9.0)
        got = [v.a for __, v in table.by_ba.irange((9.0, 0.0), (9.0, 9.0))]
        assert got == [1.0, 2.0, 3.0]

    def test_scan_by_b(self):
        table = TableR()
        for b in [4.0, 2.0]:
            table.add(0.0, b)
        assert [r.b for r in table.scan_by_b()] == [2.0, 4.0]


def test_tuples_are_frozen():
    row = STuple(0, 1.0, 2.0)
    with pytest.raises(Exception):
        row.b = 9.0  # type: ignore[misc]
    row_r = RTuple(0, 1.0, 2.0)
    with pytest.raises(Exception):
        row_r.a = 9.0  # type: ignore[misc]
