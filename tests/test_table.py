"""Tests for the base relations R(A, B) and S(B, C)."""

from dataclasses import astuple
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dstruct.btree import BPlusTree
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
    def test_only_the_index_read_is_built(self, kept, dropped):
        table = TableS()
        keep = table.add(5.0, 1.0)
        drop = table.add(5.0, 2.0)
        assert table.built_indexes() == {}
        assert [row for __, row in getattr(table, kept).items()] == [keep, drop]
        table.delete(drop)
        assert [row for __, row in getattr(table, kept).items()] == [keep]
        assert list(table.built_indexes()) == [kept] and dropped not in vars(table)
        assert [row.sid for row in table] == [keep.sid]


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


TABLES = {
    "R": (TableR, RTuple, ("by_b", "by_ba")),
    "S": (TableS, STuple, ("by_b", "by_bc")),
}


def copy_of(row):
    """An equal row that is a new object, as a decoded DELETE carries."""
    return type(row)(*astuple(row))


@pytest.mark.parametrize("relation", sorted(TABLES))
@pytest.mark.parametrize("built", [False, True])
def test_a_mismatched_delete_is_refused_and_changes_nothing(relation, built):
    """A delete names its row by id but must carry that row: another row
    under a stored id raises ``KeyError`` before any write, so the table
    and every index still hold the stored row."""
    make, cls, names = TABLES[relation]
    table = make()
    row = table.add(1.0, 2.0)
    row_id = astuple(row)[0]
    if built:
        for name in names:
            getattr(table, name)
    for wrong in (cls(row_id, 1.0, 3.0), cls(row_id + 1, 1.0, 2.0)):
        with pytest.raises(KeyError):
            table.delete(wrong)
    assert len(table) == 1 and table.get(row_id) is row
    for name in names:
        assert [value for __, value in getattr(table, name).items()] == [row]
    table.delete(copy_of(row))  # deletes the stored object
    assert len(table) == 0 and table.get(row_id) is None
    for name in names:
        assert len(getattr(table, name)) == 0


@pytest.mark.parametrize("relation", sorted(TABLES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_an_index_built_late_equals_one_kept_from_the_start(relation, data):
    """Interleave inserts and deletes over few distinct values (duplicate
    B, equal composite keys) and read the indexes at a random point: each
    must hold the keys and the very row objects, in order, of a tree kept
    from the first write, and so must a flat snapshot of B taken then."""
    make, cls, names = TABLES[relation]
    table = make(order=4)  # small leaves, so the built tree splits too
    second = attrgetter("a" if cls is RTuple else "c")
    key_of = {names[0]: attrgetter("b"), names[1]: lambda row: (row.b, second(row))}
    eager = {name: BPlusTree(4) for name in names}
    live = []
    steps = data.draw(st.integers(0, 80))
    build_at = data.draw(st.integers(0, steps))
    values = st.sampled_from([0.0, 1.0, 2.0])
    for step in range(steps + 1):
        if step == build_at:
            assert table.built_indexes() == {}
            for name in names:
                getattr(table, name)
            mirror, eager_mirror = table.by_b.flat_snapshot(), eager["by_b"].flat_snapshot()
        if step == steps:
            break
        if live and data.draw(st.booleans()):
            row = live.pop(data.draw(st.integers(0, len(live) - 1)))
            table.delete(copy_of(row))
            for name, tree in eager.items():
                tree.remove(key_of[name](row), row)
        else:
            row = table.add(data.draw(values), data.draw(values))
            live.append(row)
            for name, tree in eager.items():
                tree.insert(key_of[name](row), row)
    assert list(table.built_indexes()) == list(names)
    for name in names:
        tree = getattr(table, name)
        tree.check_invariants()
        assert [(k, id(v)) for k, v in tree.items()] == [
            (k, id(v)) for k, v in eager[name].items()
        ]
    assert list(mirror[0]) == list(eager_mirror[0])
    assert [id(v) for v in mirror[1]] == [id(v) for v in eager_mirror[1]]
