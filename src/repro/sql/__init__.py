"""Mini-SQL substrate: the statement language of RFID rule actions.

The paper's rule actions are SQL statements executed against the RFID
data store (``INSERT INTO OBJECTLOCATION VALUES(o, "loc2", t, "UC")``).
This package provides the lexer, parser, AST and an in-memory executor
for exactly that dialect, including the paper's ``BULK INSERT``
extension (applied once per member of a matched sequence).

Cost model: :meth:`Database.execute`, ``query`` and ``explain`` lex and
parse SQL text on every call, so a caller that repeats a statement
parses it once and passes the parsed one (rule conditions and SQL
actions do so when the rule is built).  A WHERE with
``indexed_column = constant`` in its top-level conjunction probes that
column's hash index; anything else scans the table.  ``explain()`` names the access path a SELECT takes.  Typed
helpers such as :meth:`repro.store.RfidStore.location_of` skip SQL and
read the hash index bucket directly (:meth:`Table.lookup`).
"""

from .ast import (
    Aggregate,
    BoolOp,
    Comparison,
    CreateIndex,
    CreateTable,
    Delete,
    Expr,
    Insert,
    Join,
    Literal,
    Name,
    NotOp,
    OrderItem,
    Select,
    Statement,
    Update,
)
from .executor import Database, Row, Table
from .lexer import SqlError, Token, tokenize
from .parser import parse, parse_script

__all__ = [
    "Aggregate",
    "BoolOp",
    "Comparison",
    "CreateIndex",
    "CreateTable",
    "Database",
    "Delete",
    "Expr",
    "Insert",
    "Join",
    "Literal",
    "Name",
    "NotOp",
    "OrderItem",
    "parse",
    "parse_script",
    "Row",
    "Select",
    "SqlError",
    "Statement",
    "Table",
    "Token",
    "tokenize",
    "Update",
]
