import pytest

from repro.guest.minidb import MiniDB, SqlError, serve_query
from repro.perf.clock import SimClock


@pytest.fixture
def db():
    engine = MiniDB()
    engine.execute("CREATE TABLE kv (k, v)")
    engine.execute("INSERT INTO kv VALUES ('alpha', 1)")
    engine.execute("INSERT INTO kv VALUES ('beta', 2)")
    return engine


class TestDdlAndInsert:
    def test_create_duplicate_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("CREATE TABLE kv (a)")

    def test_create_needs_columns(self):
        with pytest.raises(SqlError):
            MiniDB().execute("CREATE TABLE empty ()")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SqlError):
            MiniDB().execute("CREATE TABLE t (a, a)")

    def test_insert_arity_checked(self, db):
        with pytest.raises(SqlError):
            db.execute("INSERT INTO kv VALUES (1)")

    def test_insert_into_missing_table(self):
        with pytest.raises(SqlError):
            MiniDB().execute("INSERT INTO nope VALUES (1)")

    def test_string_values_with_commas(self, db):
        db.execute("INSERT INTO kv VALUES ('a,b', 3)")
        assert db.execute("SELECT v FROM kv WHERE k = 'a,b'") == [(3,)]


class TestSelect:
    def test_select_star(self, db):
        rows = db.execute("SELECT * FROM kv")
        assert rows == [("alpha", 1), ("beta", 2)]

    def test_select_column_with_where(self, db):
        assert db.execute("SELECT v FROM kv WHERE k = 'beta'") == [(2,)]

    def test_select_no_match(self, db):
        assert db.execute("SELECT v FROM kv WHERE k = 'gamma'") == []

    def test_where_on_int_column(self, db):
        assert db.execute("SELECT k FROM kv WHERE v = 1") == [("alpha",)]

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SqlError):
            db.execute("SELECT nope FROM kv")


class TestUpdateDelete:
    def test_update_with_where(self, db):
        count = db.execute("UPDATE kv SET v = 10 WHERE k = 'alpha'")
        assert count == 1
        assert db.execute("SELECT v FROM kv WHERE k = 'alpha'") == [(10,)]

    def test_update_all_rows(self, db):
        assert db.execute("UPDATE kv SET v = 0") == 2


class TestEngineBehaviour:
    def test_unparseable_statement(self, db):
        with pytest.raises(SqlError):
            db.execute("DROP TABLE kv")

    def test_stats(self, db):
        db.execute("SELECT * FROM kv")
        assert db.stats.reads == 1
        assert db.stats.writes == 3  # create + 2 inserts
        assert db.stats.queries == 4

    def test_query_cost_charged(self):
        clock = SimClock()
        engine = MiniDB(clock)
        engine.execute("CREATE TABLE t (a)")
        assert clock.now_ns == pytest.approx(MiniDB.QUERY_COST_NS)


class TestWireProtocol:
    def test_ok_response(self, db):
        reply = serve_query(db, b"QUERY INSERT INTO kv VALUES ('c', 3)")
        assert reply == b"OK 1"

    def test_rows_response(self, db):
        reply = serve_query(db, b"QUERY SELECT v FROM kv WHERE k = 'beta'")
        assert reply == b"ROWS 2"

    def test_error_response(self, db):
        reply = serve_query(db, b"QUERY SELECT nope FROM kv")
        assert reply.startswith(b"ERR ")

    def test_bad_frame(self, db):
        assert serve_query(db, b"PING") == b"ERR bad request"
