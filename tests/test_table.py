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
    "R": (TableR, RTuple, "a"),
    "S": (TableS, STuple, "c"),
}


def trees(relation):
    return ("by_b", "by_b" + TABLES[relation][2])


def columns(relation):
    return ("col_b", "cols_b" + TABLES[relation][2])


def copy_of(row):
    """An equal row that is a new object, as a decoded DELETE carries."""
    return type(row)(*astuple(row))


def index_rows(table, name):
    """The rows of the index ``name`` in index order (a keyed column's
    buckets in key order)."""
    index = getattr(table, name)
    if isinstance(index, BPlusTree):
        return [row for __, row in index.items()]
    if name == "col_b":
        return list(index[1])
    return [row for b in sorted(index) for row in index[b][1]]


@pytest.mark.parametrize("relation", sorted(TABLES))
@pytest.mark.parametrize("built", [False, True])
def test_a_mismatched_delete_is_refused_and_changes_nothing(relation, built):
    """A delete names its row by id but must carry that row: another row
    under a stored id raises ``KeyError`` before any write, so the table
    and every index still hold the stored row."""
    make, cls, __ = TABLES[relation]
    names = trees(relation) + columns(relation)
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
        assert index_rows(table, name) == [row]
    table.delete(copy_of(row))  # deletes the stored object
    assert len(table) == 0 and table.get(row_id) is None
    for name in names:
        assert index_rows(table, name) == []
    assert getattr(table, columns(relation)[1]) == {}  # the emptied bucket is gone


@pytest.mark.parametrize("relation", sorted(TABLES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_an_index_built_late_equals_one_kept_from_the_start(relation, data):
    """Interleave inserts and deletes over few distinct values (duplicate
    B, equal composite keys) and read the trees at a random point: each
    must hold the keys and the very row objects, in order, of a tree kept
    from the first write."""
    make, cls, second = TABLES[relation]
    names = trees(relation)
    table = make(order=4)  # small leaves, so the built tree splits too
    key_of = {names[0]: attrgetter("b"), names[1]: attrgetter("b", second)}
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


GRID = st.integers(0, 2).map(float)
WRITE = st.one_of(
    st.tuples(st.just("insert"), GRID, GRID),
    # Delete the first, middle or last row of the tie run (equal B, or
    # equal B and second key) of some live row.
    st.tuples(
        st.just("delete"), st.integers(0, 999),
        st.sampled_from(["b", "b+second"]), st.sampled_from(["first", "middle", "last"]),
    ),
)


def assert_columns_match(table, second, eager):
    """``col_b`` equals the eager ``by_b``'s flat snapshot and the keyed
    columns its ``(b, second)`` tree's prefix runs: the same keys and the
    very row objects, in order, with no empty bucket."""
    keys, rows = table.col_b
    want_keys, want_rows = eager["b"].flat_snapshot()
    assert list(keys) == list(want_keys)
    assert [id(row) for row in rows] == [id(row) for row in want_rows]
    runs = {}
    for (b, x), row in eager["b+second"].items():
        run = runs.setdefault(b, ([], []))
        run[0].append(x)
        run[1].append(id(row))
    cols = getattr(table, "cols_b" + second)
    assert sorted(cols) == sorted(runs)
    for b, (xs, row_list) in cols.items():
        assert (list(xs), [id(row) for row in row_list]) == runs[b]


@pytest.mark.parametrize("relation", sorted(TABLES))
@pytest.mark.parametrize("build", ["before", "middle", "after"])
@given(writes=st.lists(WRITE, max_size=60))
@settings(max_examples=60, deadline=None)
def test_columns_equal_an_eager_tree_under_inserts_and_deletes(relation, build, writes):
    """Integer-grid keys tie in B and in the second key; a column built
    before, in the middle of, or after the writes is kept by every later
    write exactly as an eager B+-tree keeps its entries."""
    make, __, second = TABLES[relation]
    x_of = attrgetter(second)
    table = make()
    eager = {"b": BPlusTree(4), "b+second": BPlusTree(4)}
    key_of = {"b": attrgetter("b"), "b+second": attrgetter("b", second)}
    build_at = {"before": 0, "middle": len(writes) // 2, "after": len(writes)}[build]
    live = []  # in insertion order
    for step, write in enumerate(writes + [None]):
        if step == build_at:
            assert table.built_columns() == {}
            getattr(table, "col_b"), getattr(table, "cols_b" + second)
        if write is None:
            break
        if write[0] == "insert":
            __, b, x = write
            row = table.add(x, b) if relation == "R" else table.add(b, x)
            live.append(row)
            for name, tree in eager.items():
                tree.insert(key_of[name](row), row)
        elif live:
            __, pick, tie, at = write
            probe = live[pick % len(live)]
            run = [
                row for row in live
                if row.b == probe.b and (tie == "b" or x_of(row) == x_of(probe))
            ]
            row = run[{"first": 0, "middle": len(run) // 2, "last": -1}[at]]
            live.remove(row)
            table.delete(copy_of(row))
            for name, tree in eager.items():
                tree.remove(key_of[name](row), row)
        if step >= build_at:
            assert_columns_match(table, second, eager)
    assert_columns_match(table, second, eager)
    assert table.built_indexes() == {}


@pytest.mark.parametrize("write", ["insert", "delete"])
@pytest.mark.parametrize("column", ["col_b", "cols_bc"])
def test_a_failed_column_write_drops_the_column(column, write):
    """A held buffer view makes the column's ``array`` refuse to resize
    (``BufferError``): the row write lands in the table, every built index
    is forgotten, and the next read builds each from the rows.  A
    mismatched delete raises ``KeyError`` before it touches a column."""
    table = TableS()
    rows = [table.add(b, c) for b, c in [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 1.0)]]
    built = {"col_b": table.col_b, "cols_bc": table.cols_bc}
    index = built[column]
    keys = index[0] if column == "col_b" else index[2.0][0]
    with memoryview(keys):
        with pytest.raises(KeyError):
            table.delete(STuple(rows[2].sid, 2.0, 9.0))
        assert table.built_columns() == built
        with pytest.raises(BufferError):
            table.add(2.0, 1.5) if write == "insert" else table.delete(rows[2])
    assert table.built_columns() == {} and not {"col_b", "cols_bc"} & set(vars(table))
    for name in ("col_b", "cols_bc"):
        eager = {"col_b": attrgetter("b"), "cols_bc": attrgetter("b", "c")}[name]
        assert index_rows(table, name) == sorted(table, key=eager)
