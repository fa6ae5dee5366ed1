"""MiniDB — the in-container SQL database substrate.

The paper's Fig 6c workload drives PHP pages that issue read and write
queries against MySQL.  This is the functional stand-in: a small SQL
engine supporting the statement shapes the workload needs::

    CREATE TABLE kv (k, v)
    INSERT INTO kv VALUES ('alpha', 1)
    SELECT v FROM kv WHERE k = 'alpha'
    SELECT * FROM kv
    UPDATE kv SET v = 2 WHERE k = 'alpha'
    DELETE FROM kv WHERE k = 'alpha'

Values are integers or single-quoted strings.  The engine is
deterministic and dependency-free; each query charges a fixed cost to
the engine's clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.perf.clock import SimClock


class SqlError(ValueError):
    pass


_CREATE = re.compile(
    r"^\s*CREATE\s+TABLE\s+(\w+)\s*\(([^)]*)\)\s*$", re.IGNORECASE
)
_INSERT = re.compile(
    r"^\s*INSERT\s+INTO\s+(\w+)\s+VALUES\s*\(([^)]*)\)\s*$", re.IGNORECASE
)
_SELECT = re.compile(
    r"^\s*SELECT\s+(.+?)\s+FROM\s+(\w+)(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*$",
    re.IGNORECASE,
)
_UPDATE = re.compile(
    r"^\s*UPDATE\s+(\w+)\s+SET\s+(\w+)\s*=\s*(.+?)"
    r"(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*$",
    re.IGNORECASE,
)
_DELETE = re.compile(
    r"^\s*DELETE\s+FROM\s+(\w+)(?:\s+WHERE\s+(\w+)\s*=\s*(.+?))?\s*$",
    re.IGNORECASE,
)


def _parse_value(token: str):
    token = token.strip()
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1]
    try:
        return int(token)
    except ValueError as exc:
        raise SqlError(f"bad value {token!r}") from exc


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise SqlError(
                f"no column {column!r} in table {self.name!r}"
            ) from exc


@dataclass
class DbStats:
    queries: int = 0
    reads: int = 0
    writes: int = 0


class MiniDB:
    """The engine: one instance per database server process."""

    #: CPU cost per executed query.
    QUERY_COST_NS = 18000.0

    def __init__(self, clock: SimClock | None = None) -> None:
        self._tables: dict[str, Table] = {}
        self.clock = clock if clock is not None else SimClock()
        self.stats = DbStats()

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            raise SqlError(f"no such table {name!r}")
        return table

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Run one statement.

        Returns a list of row tuples for SELECT, or the affected-row
        count for writes/DDL.
        """
        self.stats.queries += 1
        self.clock.advance(self.QUERY_COST_NS)
        match = _CREATE.match(sql)
        if match:
            return self._create(match.group(1), match.group(2))
        match = _INSERT.match(sql)
        if match:
            return self._insert(match.group(1), match.group(2))
        match = _SELECT.match(sql)
        if match:
            return self._select(*match.groups())
        match = _UPDATE.match(sql)
        if match:
            return self._update(*match.groups())
        match = _DELETE.match(sql)
        if match:
            return self._delete(*match.groups())
        raise SqlError(f"cannot parse statement: {sql!r}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _create(self, name: str, columns_spec: str) -> int:
        if name in self._tables:
            raise SqlError(f"table {name!r} already exists")
        columns = [c.strip() for c in columns_spec.split(",") if c.strip()]
        if not columns:
            raise SqlError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise SqlError("duplicate column names")
        self._tables[name] = Table(name, columns)
        self.stats.writes += 1
        return 0

    def _insert(self, name: str, values_spec: str) -> int:
        table = self.table(name)
        values = [_parse_value(v) for v in _split_values(values_spec)]
        if len(values) != len(table.columns):
            raise SqlError(
                f"{table.name} has {len(table.columns)} columns, got "
                f"{len(values)} values"
            )
        table.rows.append(values)
        self.stats.writes += 1
        return 1

    def _match_rows(self, table: Table, where_col, where_val):
        if where_col is None:
            return list(range(len(table.rows)))
        index = table.column_index(where_col)
        value = _parse_value(where_val)
        return [
            i for i, row in enumerate(table.rows) if row[index] == value
        ]

    def _select(self, columns_spec, name, where_col, where_val):
        table = self.table(name)
        matches = self._match_rows(table, where_col, where_val)
        self.stats.reads += 1
        if columns_spec.strip() == "*":
            indices = range(len(table.columns))
        else:
            indices = [
                table.column_index(c.strip())
                for c in columns_spec.split(",")
            ]
        return [
            tuple(table.rows[i][j] for j in indices) for i in matches
        ]

    def _update(self, name, set_col, set_val, where_col, where_val) -> int:
        table = self.table(name)
        set_index = table.column_index(set_col)
        value = _parse_value(set_val)
        matches = self._match_rows(table, where_col, where_val)
        for i in matches:
            table.rows[i][set_index] = value
        self.stats.writes += 1
        return len(matches)

    def _delete(self, name, where_col, where_val) -> int:
        table = self.table(name)
        matches = set(self._match_rows(table, where_col, where_val))
        before = len(table.rows)
        table.rows = [
            row for i, row in enumerate(table.rows) if i not in matches
        ]
        self.stats.writes += 1
        return before - len(table.rows)


def _split_values(spec: str) -> list[str]:
    """Split a VALUES list on commas outside quotes."""
    out, current, quoted = [], [], False
    for char in spec:
        if char == "'":
            quoted = not quoted
            current.append(char)
        elif char == "," and not quoted:
            out.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        out.append("".join(current))
    return [piece for piece in out if piece.strip()]


# ----------------------------------------------------------------------
# Text wire protocol (the "MySQL protocol" of the Fig 6c substrate)
# ----------------------------------------------------------------------
def serve_query(db: MiniDB, request: bytes) -> bytes:
    """Handle one ``QUERY <sql>`` request; returns the wire response."""
    if not request.startswith(b"QUERY "):
        return b"ERR bad request"
    sql = request[len(b"QUERY "):].decode("utf-8", errors="replace")
    try:
        result = db.execute(sql)
    except SqlError as exc:
        return f"ERR {exc}".encode()
    if isinstance(result, int):
        return f"OK {result}".encode()
    rows = ";".join(",".join(str(v) for v in row) for row in result)
    return f"ROWS {rows}".encode()
