"""Tests for the mini-SQL substrate: lexer, parser, executor."""

import pytest

from repro.core.errors import UnknownVariableError
from repro.sql import (
    Database,
    Insert,
    Select,
    SqlError,
    Update,
    parse,
    parse_script,
    tokenize,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt * FrOm t")
        assert tokens[0].kind == "KEYWORD" and tokens[0].value == "select"

    def test_identifiers_preserve_case(self):
        tokens = tokenize("SELECT Abc FROM T1")
        assert tokens[1].value == "Abc"

    def test_strings_both_quotes(self):
        tokens = tokenize("'hello' \"world\"")
        assert tokens[0].value == "hello"
        assert tokens[1].value == "world"

    def test_numbers(self):
        tokens = tokenize("42 3.25 .5")
        assert [t.value for t in tokens[:3]] == ["42", "3.25", ".5"]

    def test_operators(self):
        tokens = tokenize("= <> != < > <= >=")
        assert [t.value for t in tokens[:7]] == ["=", "<>", "!=", "<", ">", "<=", ">="]

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("SELECT 'oops")

    def test_stray_character(self):
        with pytest.raises(SqlError):
            tokenize("SELECT @")


class TestParser:
    def test_create_table(self):
        statement = parse("CREATE TABLE t (a, b, c)")
        assert statement.table == "t"
        assert statement.columns == ("a", "b", "c")

    def test_insert(self):
        statement = parse("INSERT INTO t VALUES (1, 'x', v)")
        assert isinstance(statement, Insert)
        assert not statement.bulk
        assert len(statement.values) == 3

    def test_bulk_insert(self):
        statement = parse("BULK INSERT INTO t VALUES (a, b)")
        assert statement.bulk

    def test_insert_with_columns(self):
        statement = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert statement.columns == ("a", "b")

    def test_update(self):
        statement = parse("UPDATE t SET a = 1, b = x WHERE c = 'y'")
        assert isinstance(statement, Update)
        assert [column for column, _ in statement.assignments] == ["a", "b"]
        assert statement.where is not None

    def test_delete(self):
        statement = parse("DELETE FROM t WHERE a > 5")
        assert statement.table == "t"

    def test_select_star(self):
        statement = parse("SELECT * FROM t")
        assert isinstance(statement, Select)
        assert statement.columns is None

    def test_select_full(self):
        statement = parse(
            "SELECT DISTINCT a, b FROM t WHERE a = 1 AND (b < 2 OR c <> 'x') "
            "ORDER BY a DESC, b LIMIT 10"
        )
        assert statement.distinct
        assert statement.columns == ("a", "b")
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending
        assert statement.limit == 10

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT * FROM t garbage here")

    def test_unknown_statement(self):
        with pytest.raises(SqlError):
            parse("EXPLAIN t")

    def test_script_split_respects_strings(self):
        statements = parse_script(
            "INSERT INTO t VALUES ('a;b'); SELECT * FROM t;"
        )
        assert len(statements) == 2

    def test_create_index(self):
        statement = parse("CREATE INDEX ON t (a)")
        assert statement.table == "t" and statement.column == "a"

    def test_create_index_named(self):
        statement = parse("CREATE INDEX idx1 ON t (a)")
        assert statement.column == "a"


class TestExecutor:
    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (a, b)")

    def fill(self):
        for index in range(5):
            self.db.execute(
                "INSERT INTO t VALUES (i, x)", {"i": index, "x": index * 10}
            )

    def test_insert_and_select(self):
        self.fill()
        assert self.db.query("SELECT a FROM t WHERE b = 20") == [(2,)]

    def test_select_order_and_limit(self):
        self.fill()
        rows = self.db.query("SELECT a FROM t ORDER BY a DESC LIMIT 2")
        assert rows == [(4,), (3,)]

    def test_select_distinct(self):
        self.db.execute("INSERT INTO t VALUES (1, 1)")
        self.db.execute("INSERT INTO t VALUES (1, 1)")
        assert self.db.query("SELECT DISTINCT a, b FROM t") == [(1, 1)]

    def test_update_returns_count(self):
        self.fill()
        affected = self.db.execute("UPDATE t SET b = 99 WHERE a >= 3")
        assert affected == 2
        assert self.db.query("SELECT a FROM t WHERE b = 99 ORDER BY a") == [(3,), (4,)]

    def test_delete(self):
        self.fill()
        removed = self.db.execute("DELETE FROM t WHERE a < 2")
        assert removed == 2
        assert len(self.db.table("t")) == 3

    def test_delete_all(self):
        self.fill()
        assert self.db.execute("DELETE FROM t") == 5
        assert self.db.query("SELECT * FROM t") == []

    def test_arity_mismatch(self):
        with pytest.raises(SqlError):
            self.db.execute("INSERT INTO t VALUES (1)")

    def test_unknown_table(self):
        with pytest.raises(SqlError):
            self.db.execute("SELECT * FROM missing")

    def test_unknown_column_in_select(self):
        with pytest.raises(SqlError):
            self.db.query("SELECT nope FROM t")

    def test_unknown_column_in_update(self):
        with pytest.raises(SqlError):
            self.db.execute("UPDATE t SET nope = 1")

    def test_duplicate_table(self):
        with pytest.raises(SqlError):
            self.db.execute("CREATE TABLE t (x)")

    def test_unbound_variable(self):
        with pytest.raises(UnknownVariableError):
            self.db.execute("INSERT INTO t VALUES (missing, 1)")

    def test_params_resolve_in_where(self):
        self.fill()
        rows = self.db.query("SELECT b FROM t WHERE a = wanted", {"wanted": 3})
        assert rows == [(30,)]

    def test_column_wins_over_param(self):
        self.fill()
        # 'a' is a column; the parameter of the same name must not shadow it.
        rows = self.db.query("SELECT b FROM t WHERE a = 1", {"a": 999})
        assert rows == [(10,)]

    def test_null_comparisons(self):
        self.db.execute("INSERT INTO t VALUES (NULL, 1)")
        assert self.db.query("SELECT b FROM t WHERE a = NULL") == [(1,)]
        assert self.db.query("SELECT b FROM t WHERE a < 5") == []

    def test_boolean_logic(self):
        self.fill()
        rows = self.db.query(
            "SELECT a FROM t WHERE (a = 1 OR a = 3) AND NOT b = 10"
        )
        assert rows == [(3,)]

    def test_query_rejects_non_select(self):
        with pytest.raises(SqlError):
            self.db.query("DELETE FROM t")

    def test_insert_with_column_list_fills_missing_with_none(self):
        self.db.execute("INSERT INTO t (a) VALUES (7)")
        assert self.db.query("SELECT b FROM t WHERE a = 7") == [(None,)]


class TestIndexes:
    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k, v)")
        self.db.execute("CREATE INDEX ON t (k)")
        for index in range(100):
            self.db.execute("INSERT INTO t VALUES (i, j)", {"i": index % 10, "j": index})

    def test_index_probe_matches_scan(self):
        indexed = self.db.query("SELECT v FROM t WHERE k = 3 ORDER BY v")
        self.db.table("t")._indexes.clear()
        scanned = self.db.query("SELECT v FROM t WHERE k = 3 ORDER BY v")
        assert indexed == scanned and len(indexed) == 10

    def test_index_maintained_by_update(self):
        self.db.execute("UPDATE t SET k = 99 WHERE v = 0")
        assert self.db.query("SELECT v FROM t WHERE k = 99") == [(0,)]
        assert (0,) not in self.db.query("SELECT v FROM t WHERE k = 0")

    def test_index_maintained_by_delete(self):
        self.db.execute("DELETE FROM t WHERE k = 3")
        assert self.db.query("SELECT v FROM t WHERE k = 3") == []

    def test_index_probe_with_param(self):
        rows = self.db.query("SELECT v FROM t WHERE k = wanted", {"wanted": 7})
        assert len(rows) == 10

    def test_index_on_missing_column(self):
        with pytest.raises(SqlError):
            self.db.execute("CREATE INDEX ON t (zzz)")

    def test_update_keeping_indexed_value_keeps_equal_rows_apart(self):
        db = Database()
        db.execute("CREATE TABLE t (k, v)")
        db.execute("CREATE INDEX ON t (k)")
        first = db.execute("INSERT INTO t VALUES ('a', 1)")
        second = db.execute("INSERT INTO t VALUES ('a', 2)")
        # Afterwards both rows read ('a', 1); the bucket must still hold
        # each row once, not the second row twice.
        db.execute("UPDATE t SET v = 1, k = 'a' WHERE v = 2")
        bucket = db.table("t")._indexes["k"]["a"]
        assert [id(row) for row in bucket] == [id(first), id(second)]
        assert db.execute("UPDATE t SET v = 9 WHERE k = 'a'") == 2
        assert db.query("SELECT k, v FROM t") == [("a", 9), ("a", 9)]

    def test_update_moving_one_of_equal_rows(self):
        db = Database()
        db.execute("CREATE TABLE t (k, v)")
        db.execute("CREATE INDEX ON t (k)")
        db.execute("INSERT INTO t VALUES ('a', 1)")
        db.execute("INSERT INTO t VALUES ('a', 1)")
        assert db.execute("UPDATE t SET k = 'b' WHERE k = 'a' AND v = 1") == 2
        assert db.query("SELECT v FROM t WHERE k = 'a'") == []
        assert db.query("SELECT v FROM t WHERE k = 'b'") == [(1,), (1,)]


class TestAggregates:
    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k, v)")
        for index in range(10):
            self.db.execute(
                "INSERT INTO t VALUES (a, b)", {"a": index % 3, "b": index}
            )

    def test_count_star(self):
        assert self.db.query("SELECT COUNT(*) FROM t") == [(10,)]

    def test_count_star_with_where(self):
        assert self.db.query("SELECT COUNT(*) FROM t WHERE k = 1") == [(3,)]

    def test_count_star_empty(self):
        assert self.db.query("SELECT COUNT(*) FROM t WHERE k = 99") == [(0,)]

    def test_group_by_with_aggregates(self):
        rows = self.db.query(
            "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k"
        )
        assert rows == [(0, 4, 18), (1, 3, 12), (2, 3, 15)]

    def test_min_max_avg(self):
        assert self.db.query(
            "SELECT MIN(v), MAX(v), AVG(v) FROM t WHERE k = 1"
        ) == [(1, 7, 4.0)]

    def test_count_column_skips_nulls(self):
        self.db.execute("INSERT INTO t VALUES (5, NULL)")
        assert self.db.query("SELECT COUNT(v) FROM t WHERE k = 5") == [(0,)]
        assert self.db.query("SELECT COUNT(*) FROM t WHERE k = 5") == [(1,)]

    def test_aggregate_over_empty_group_is_null(self):
        assert self.db.query("SELECT SUM(v) FROM t WHERE k = 99") == [(None,)]

    def test_plain_column_requires_group_by(self):
        with pytest.raises(SqlError):
            self.db.query("SELECT v, COUNT(*) FROM t")

    def test_star_with_group_by_rejected(self):
        with pytest.raises(SqlError):
            self.db.query("SELECT * FROM t GROUP BY k")

    def test_sum_star_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT SUM(*) FROM t")

    def test_order_by_aggregate_label(self):
        rows = self.db.query(
            "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k DESC"
        )
        assert [row[0] for row in rows] == [2, 1, 0]

    def test_unknown_aggregate_column(self):
        with pytest.raises(SqlError):
            self.db.query("SELECT SUM(zzz) FROM t")

    def test_group_by_unknown_column(self):
        with pytest.raises(SqlError):
            self.db.query("SELECT COUNT(*) FROM t GROUP BY zzz")

    def test_aggregate_as_rule_condition_shape(self):
        # The shape rule conditions use: non-empty result iff count > 0 is
        # not expressible, but COUNT(*) always returns one row -- document
        # that callers compare in Python or filter via WHERE instead.
        rows = self.db.query("SELECT COUNT(*) FROM t WHERE k = 0")
        assert rows[0][0] == 4


class TestJoins:
    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE loc (object_epc, loc_id)")
        self.db.execute("CREATE TABLE cont (object_epc, parent_epc)")
        for obj, loc in (("i1", "dock"), ("i2", "store"), ("i3", "dock")):
            self.db.execute("INSERT INTO loc VALUES (a, b)", {"a": obj, "b": loc})
        for obj, parent in (("i1", "caseA"), ("i2", "caseA"), ("i3", "caseB")):
            self.db.execute(
                "INSERT INTO cont VALUES (a, b)", {"a": obj, "b": parent}
            )

    def test_inner_equi_join(self):
        rows = self.db.query(
            "SELECT cont.object_epc, loc_id, parent_epc FROM cont "
            "JOIN loc ON cont.object_epc = loc.object_epc ORDER BY parent_epc, loc_id"
        )
        assert rows == [
            ("i1", "dock", "caseA"),
            ("i2", "store", "caseA"),
            ("i3", "dock", "caseB"),
        ]

    def test_join_with_where(self):
        rows = self.db.query(
            "SELECT cont.object_epc FROM cont JOIN loc "
            "ON cont.object_epc = loc.object_epc WHERE loc_id = 'dock' "
            "ORDER BY cont.object_epc"
        )
        assert rows == [("i1",), ("i3",)]

    def test_join_with_aggregates(self):
        rows = self.db.query(
            "SELECT parent_epc, COUNT(*) FROM cont JOIN loc "
            "ON cont.object_epc = loc.object_epc GROUP BY parent_epc "
            "ORDER BY parent_epc"
        )
        assert rows == [("caseA", 2), ("caseB", 1)]

    def test_join_star_concatenates_columns(self):
        rows = self.db.query(
            "SELECT * FROM cont JOIN loc ON cont.object_epc = loc.object_epc"
        )
        assert all(len(row) == 4 for row in rows)

    def test_unmatched_rows_excluded(self):
        self.db.execute("INSERT INTO cont VALUES ('ghost', 'caseC')")
        rows = self.db.query(
            "SELECT cont.object_epc FROM cont JOIN loc "
            "ON cont.object_epc = loc.object_epc"
        )
        assert ("ghost",) not in rows

    def test_ambiguous_plain_column_rejected(self):
        with pytest.raises(SqlError):
            self.db.query(
                "SELECT object_epc FROM cont JOIN loc "
                "ON cont.object_epc = loc.object_epc"
            )

    def test_ambiguous_on_column_rejected(self):
        with pytest.raises(SqlError):
            self.db.query(
                "SELECT parent_epc FROM cont JOIN loc ON object_epc = object_epc"
            )

    def test_on_must_span_both_tables(self):
        with pytest.raises(SqlError):
            self.db.query(
                "SELECT parent_epc FROM cont JOIN loc "
                "ON cont.object_epc = cont.parent_epc"
            )

    def test_self_join_rejected(self):
        with pytest.raises(SqlError):
            self.db.query(
                "SELECT parent_epc FROM cont JOIN cont "
                "ON cont.object_epc = cont.parent_epc"
            )

    def test_unknown_join_table(self):
        with pytest.raises(SqlError):
            self.db.query(
                "SELECT parent_epc FROM cont JOIN missing ON object_epc = x"
            )

    def test_unqualified_on_columns_resolve(self):
        rows = self.db.query(
            "SELECT parent_epc, loc_id FROM cont JOIN loc "
            "ON cont.object_epc = loc.object_epc WHERE parent_epc = 'caseB'"
        )
        assert rows == [("caseB", "dock")]


class TestExplain:
    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k, v)")
        self.db.execute("CREATE INDEX ON t (k)")
        self.db.execute("CREATE TABLE u (k, w)")

    def test_index_probe_reported(self):
        plan = self.db.explain("SELECT v FROM t WHERE k = 3")
        assert plan == "index probe t(k)"

    def test_probe_with_parameter(self):
        plan = self.db.explain("SELECT v FROM t WHERE k = wanted", {"wanted": 1})
        assert "index probe" in plan

    def test_scan_without_usable_index(self):
        assert self.db.explain("SELECT v FROM t WHERE v = 3") == "scan t"
        assert self.db.explain("SELECT v FROM t") == "scan t"

    def test_or_disables_probe(self):
        plan = self.db.explain("SELECT v FROM t WHERE k = 1 OR v = 2")
        assert plan == "scan t"

    def test_join_plan(self):
        plan = self.db.explain("SELECT t.v FROM t JOIN u ON t.k = u.k")
        assert plan.startswith("hash join")

    def test_explain_rejects_non_select(self):
        with pytest.raises(SqlError):
            self.db.explain("DELETE FROM t")
