"""In-memory tables and the mini-SQL executor.

:class:`Table` stores rows as dicts with optional hash indexes on
equality-filtered columns; :class:`Database` holds the tables and
executes parsed statements (or SQL text directly).  Parameters — the
rule engine's variable bindings — are threaded through every expression
evaluation, so action templates like
``UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o`` work as the
paper writes them.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from .ast import (
    Aggregate,
    Comparison,
    CreateIndex,
    CreateTable,
    Delete,
    Expr,
    Insert,
    Literal,
    Name,
    Select,
    Statement,
    Update,
)
from .lexer import SqlError
from .parser import parse

_NO_PARAMS: dict[str, Any] = {}

Row = dict[str, Any]


class Table:
    """One in-memory table: named columns, dict rows, hash indexes."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if not columns:
            raise SqlError(f"table {name!r} needs at least one column")
        if len(set(columns)) != len(columns):
            raise SqlError(f"duplicate column in table {name!r}")
        self.name = name
        self.columns = tuple(columns)
        self.rows: list[Row] = []
        self._indexes: dict[str, dict[Any, list[Row]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    # -- modification -------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Row:
        if len(values) != len(self.columns):
            raise SqlError(
                f"table {self.name!r} has {len(self.columns)} columns but "
                f"{len(values)} values were supplied"
            )
        row = dict(zip(self.columns, values))
        self.rows.append(row)
        for column, index in self._indexes.items():
            index.setdefault(row[column], []).append(row)
        return row

    def insert_row(self, row: Mapping[str, Any]) -> Row:
        return self.insert([row.get(column) for column in self.columns])

    def delete_rows(self, predicate) -> int:
        keep = [row for row in self.rows if not predicate(row)]
        removed = len(self.rows) - len(keep)
        if removed:
            self.rows = keep
            self._rebuild_indexes()
        return removed

    def create_index(self, column: str) -> None:
        if column not in self.columns:
            raise SqlError(f"no column {column!r} in table {self.name!r}")
        index: dict[Any, list[Row]] = {}
        for row in self.rows:
            index.setdefault(row[column], []).append(row)
        self._indexes[column] = index

    def _rebuild_indexes(self) -> None:
        for column in list(self._indexes):
            self.create_index(column)

    def reindex_value(self, row: Row, column: str, old_value: Any) -> None:
        index = self._indexes.get(column)
        if index is None or row[column] == old_value:
            return
        # By identity: another row with equal contents is not this row.
        bucket = index.get(old_value, [])
        for position, member in enumerate(bucket):
            if member is row:
                del bucket[position]
                break
        index.setdefault(row[column], []).append(row)

    # -- scanning ---------------------------------------------------------------

    def lookup(self, column: str, value: Any) -> list[Row]:
        """Equality lookup on ``column``, building its hash index on demand.

        The first call pays one scan to build the index; every later
        call is O(1).  This is the fast path for rule conditions that
        probe a table per event (e.g. "was this EPC ever sold?") where
        issuing SQL per observation would rescan the table each time.
        """
        if column not in self._indexes:
            self.create_index(column)
        return list(self._indexes[column].get(value, ()))

    def candidate_rows(
        self, where: Optional[Expr], params: Mapping[str, Any]
    ) -> Iterable[Row]:
        """Use a hash index when the WHERE allows it; else scan."""
        probe = self._index_probe(where, params)
        if probe is not None:
            column, value = probe
            return list(self._indexes[column].get(value, ()))
        return self.rows

    def _index_probe(
        self, where: Optional[Expr], params: Mapping[str, Any]
    ) -> Optional[tuple[str, Any]]:
        """Find ``indexed_column = constant`` anywhere in a conjunction."""
        if where is None or not self._indexes:
            return None
        for comparison in _conjuncts(where):
            if not isinstance(comparison, Comparison) or comparison.operator != "=":
                continue
            for column_side, value_side in (
                (comparison.left, comparison.right),
                (comparison.right, comparison.left),
            ):
                if (
                    isinstance(column_side, Name)
                    and column_side.name in self._indexes
                    and _is_constant(value_side, column_side.name, params)
                ):
                    value = value_side.evaluate(_NO_PARAMS, params)
                    return column_side.name, value
        return None


def _conjuncts(expr: Expr) -> Iterable[Expr]:
    from .ast import BoolOp

    if isinstance(expr, BoolOp) and expr.operator == "and":
        for operand in expr.operands:
            yield from _conjuncts(operand)
    else:
        yield expr


def _is_constant(expr: Expr, column: str, params: Mapping[str, Any]) -> bool:
    if isinstance(expr, Literal):
        return True
    return isinstance(expr, Name) and expr.name != column and expr.name in params


class Database:
    """A named collection of tables plus statement execution.

    SQL text is lexed and parsed on every call; a caller that repeats a
    statement passes the parsed one.  A SELECT or UPDATE whose WHERE
    conjunction fixes an indexed column probes that hash index, and
    :meth:`explain` reports which access path it takes.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (a, b)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'x')")
    >>> db.query("SELECT a FROM t")
    [(1,)]
    """

    def __init__(self) -> None:
        self.tables: dict[str, Table] = {}

    # -- schema -------------------------------------------------------------

    def create_table(self, name: str, columns: Sequence[str]) -> Table:
        if name in self.tables:
            raise SqlError(f"table {name!r} already exists")
        table = Table(name, columns)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"no such table: {name!r}") from None

    # -- persistence -----------------------------------------------------------

    def dump(self) -> dict:
        """A JSON-compatible snapshot of schema, rows, indexes and aliases."""
        tables: dict[str, Any] = {}
        aliases: dict[str, str] = {}
        seen: dict[int, str] = {}
        for name, table in self.tables.items():
            if id(table) in seen:
                aliases[name] = seen[id(table)]
                continue
            seen[id(table)] = name
            tables[name] = {
                "columns": list(table.columns),
                "rows": [
                    [row[column] for column in table.columns]
                    for row in table.rows
                ],
                "indexes": sorted(table._indexes),
            }
        return {"tables": tables, "aliases": aliases}

    @classmethod
    def load(cls, payload: Mapping[str, Any]) -> "Database":
        """Rebuild a database from :meth:`dump` output."""
        database = cls()
        for name, spec in payload.get("tables", {}).items():
            table = database.create_table(name, spec["columns"])
            for values in spec["rows"]:
                table.insert(values)
            for column in spec.get("indexes", ()):
                table.create_index(column)
        for alias, target in payload.get("aliases", {}).items():
            database.tables[alias] = database.table(target)
        return database

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        statement: "Statement | str",
        params: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Execute a statement; SELECT returns a list of tuples.

        INSERT returns the inserted row; UPDATE/DELETE return the number
        of affected rows.
        """
        if isinstance(statement, str):
            statement = parse(statement)
        params = params if params is not None else _NO_PARAMS

        if isinstance(statement, CreateTable):
            return self.create_table(statement.table, statement.columns)
        if isinstance(statement, CreateIndex):
            self.table(statement.table).create_index(statement.column)
            return None
        if isinstance(statement, Insert):
            return self._execute_insert(statement, params)
        if isinstance(statement, Update):
            return self._execute_update(statement, params)
        if isinstance(statement, Delete):
            return self._execute_delete(statement, params)
        if isinstance(statement, Select):
            return self._execute_select(statement, params)
        raise SqlError(f"cannot execute {type(statement).__name__}")

    def query(
        self, text: "Statement | str", params: Optional[Mapping[str, Any]] = None
    ) -> list[tuple]:
        """Execute a SELECT and return its rows (alias of execute)."""
        result = self.execute(text, params)
        if not isinstance(result, list):
            raise SqlError("query() expects a SELECT statement")
        return result

    def explain(
        self, statement: "Statement | str", params: Optional[Mapping[str, Any]] = None
    ) -> str:
        """A one-line access-plan description for a SELECT.

        ``index probe t(k)`` when a hash index satisfies an equality in
        the WHERE conjunction, ``scan t`` otherwise, ``hash join`` for
        joined selects — so tests (and users) can confirm the index they
        created is actually used.
        """
        if isinstance(statement, str):
            statement = parse(statement)
        if not isinstance(statement, Select):
            raise SqlError("explain() expects a SELECT statement")
        params = params if params is not None else _NO_PARAMS
        if statement.join is not None:
            return (
                f"hash join {statement.table} x {statement.join.table} "
                f"then filter"
            )
        table = self.table(statement.table)
        probe = table._index_probe(statement.where, params)
        if probe is not None:
            column, _value = probe
            return f"index probe {statement.table}({column})"
        return f"scan {statement.table}"

    # -- statement handlers ------------------------------------------------------

    def _execute_insert(self, statement: Insert, params: Mapping[str, Any]) -> Row:
        table = self.table(statement.table)
        values = [expr.evaluate(_NO_PARAMS, params) for expr in statement.values]
        if statement.columns is not None:
            if len(statement.columns) != len(values):
                raise SqlError("column list and VALUES arity mismatch")
            row = dict.fromkeys(table.columns)
            row.update(dict(zip(statement.columns, values)))
            return table.insert([row[column] for column in table.columns])
        return table.insert(values)

    def _execute_update(self, statement: Update, params: Mapping[str, Any]) -> int:
        table = self.table(statement.table)
        for column, _expr in statement.assignments:
            if column not in table.columns:
                raise SqlError(
                    f"no column {column!r} in table {statement.table!r}"
                )
        affected = 0
        for row in list(table.candidate_rows(statement.where, params)):
            if statement.where is not None and not statement.where.evaluate(
                row, params
            ):
                continue
            for column, expr in statement.assignments:
                old_value = row[column]
                row[column] = expr.evaluate(row, params)
                table.reindex_value(row, column, old_value)
            affected += 1
        return affected

    def _execute_delete(self, statement: Delete, params: Mapping[str, Any]) -> int:
        table = self.table(statement.table)
        if statement.where is None:
            removed = len(table.rows)
            table.rows.clear()
            table._rebuild_indexes()
            return removed
        where = statement.where
        return table.delete_rows(lambda row: where.evaluate(row, params))

    def _execute_select(
        self, statement: Select, params: Mapping[str, Any]
    ) -> list[tuple]:
        if statement.join is not None:
            candidates, available, default_columns = self._joined_rows(statement)
        else:
            table = self.table(statement.table)
            candidates = table.candidate_rows(statement.where, params)
            available = set(table.columns)
            default_columns = table.columns
        rows = [
            row
            for row in candidates
            if statement.where is None or statement.where.evaluate(row, params)
        ]
        if statement.has_aggregates() or statement.group_by:
            return self._execute_aggregate_select(
                statement, available, default_columns, rows
            )
        columns = statement.columns or default_columns
        for column in columns:
            if column not in available:
                raise SqlError(f"no column {column!r} in table {statement.table!r}")
        for item in reversed(statement.order_by):
            rows.sort(key=lambda row: row[item.column], reverse=item.descending)
        result = [tuple(row[column] for column in columns) for row in rows]
        if statement.distinct:
            seen: set[tuple] = set()
            unique = []
            for row in result:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            result = unique
        if statement.limit is not None:
            result = result[: statement.limit]
        return result

    def _joined_rows(
        self, statement: Select
    ) -> tuple[list[Row], set, tuple]:
        """Inner equi-join rows with qualified (and unambiguous plain) keys."""
        join = statement.join
        assert join is not None
        left_name, right_name = statement.table, join.table
        if left_name == right_name:
            raise SqlError("self-joins are not supported (no aliases)")
        left, right = self.table(left_name), self.table(right_name)

        def resolve(reference: str) -> tuple[str, str]:
            if "." in reference:
                table_name, column = reference.split(".", 1)
                if table_name not in (left_name, right_name):
                    raise SqlError(f"unknown table in reference {reference!r}")
                target = left if table_name == left_name else right
                if column not in target.columns:
                    raise SqlError(f"no column {column!r} in {table_name!r}")
                return table_name, column
            in_left = reference in left.columns
            in_right = reference in right.columns
            if in_left and in_right:
                raise SqlError(f"ambiguous join column {reference!r}")
            if in_left:
                return left_name, reference
            if in_right:
                return right_name, reference
            raise SqlError(f"unknown join column {reference!r}")

        first = resolve(join.left_column)
        second = resolve(join.right_column)
        if {first[0], second[0]} != {left_name, right_name}:
            raise SqlError("JOIN ... ON must relate one column from each table")
        left_column = first[1] if first[0] == left_name else second[1]
        right_column = first[1] if first[0] == right_name else second[1]

        ambiguous = set(left.columns) & set(right.columns)
        right_index: dict[Any, list[Row]] = {}
        for row in right.rows:
            right_index.setdefault(row[right_column], []).append(row)
        joined: list[Row] = []
        for left_row in left.rows:
            for right_row in right_index.get(left_row[left_column], ()):
                merged: Row = {}
                for column in left.columns:
                    merged[f"{left_name}.{column}"] = left_row[column]
                    if column not in ambiguous:
                        merged[column] = left_row[column]
                for column in right.columns:
                    merged[f"{right_name}.{column}"] = right_row[column]
                    if column not in ambiguous:
                        merged[column] = right_row[column]
                joined.append(merged)
        default_columns = tuple(
            [f"{left_name}.{column}" for column in left.columns]
            + [f"{right_name}.{column}" for column in right.columns]
        )
        available = set(default_columns)
        available.update(
            column
            for column in tuple(left.columns) + tuple(right.columns)
            if column not in ambiguous
        )
        return joined, available, default_columns

    def _execute_aggregate_select(
        self,
        statement: Select,
        available: set,
        _default_columns: tuple,
        rows: list[Row],
    ) -> list[tuple]:
        """SELECT with aggregates and/or GROUP BY over pre-filtered rows."""
        if statement.columns is None:
            raise SqlError("SELECT * cannot be combined with GROUP BY")
        group_columns = statement.group_by
        for column in group_columns:
            if column not in available:
                raise SqlError(
                    f"no column {column!r} in table {statement.table!r}"
                )
        for item in statement.columns:
            if isinstance(item, Aggregate):
                if item.column is not None and item.column not in available:
                    raise SqlError(
                        f"no column {item.column!r} in table {statement.table!r}"
                    )
            elif item not in group_columns:
                raise SqlError(
                    f"column {item!r} must appear in GROUP BY to be selected "
                    "alongside aggregates"
                )

        grouped: dict[tuple, list[Row]] = {}
        if group_columns:
            for row in rows:
                key = tuple(row[column] for column in group_columns)
                grouped.setdefault(key, []).append(row)
        else:
            grouped[()] = rows  # one global group (may be empty)

        result = []
        for key, members in grouped.items():
            key_by_column = dict(zip(group_columns, key))
            record = []
            for item in statement.columns:
                if isinstance(item, Aggregate):
                    record.append(_aggregate(item, members))
                else:
                    record.append(key_by_column[item])
            result.append(tuple(record))
        if statement.order_by:
            index_of = {
                item if isinstance(item, str) else item.label(): position
                for position, item in enumerate(statement.columns)
            }
            for order in reversed(statement.order_by):
                if order.column not in index_of:
                    raise SqlError(
                        f"ORDER BY {order.column!r} is not in the select list"
                    )
                position = index_of[order.column]
                result.sort(key=lambda row: row[position], reverse=order.descending)
        if statement.limit is not None:
            result = result[: statement.limit]
        return result


def _aggregate(item: Aggregate, rows: list[Row]) -> Any:
    if item.function == "count":
        if item.column is None:
            return len(rows)
        return sum(1 for row in rows if row[item.column] is not None)
    values = [row[item.column] for row in rows if row[item.column] is not None]
    if not values:
        return None
    if item.function == "sum":
        return sum(values)
    if item.function == "min":
        return min(values)
    if item.function == "max":
        return max(values)
    if item.function == "avg":
        return sum(values) / len(values)
    raise SqlError(f"unknown aggregate {item.function!r}")
