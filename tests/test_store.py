"""Tests for the RFID data store: temporal tables with UC semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sql.parser as sql_parser
from repro.scenarios import get_pack
from repro.sql import Database, SqlError, parse
from repro.store import SCHEMA, UC, RfidStore, create_schema


class TestSchema:
    def test_standard_tables_exist(self):
        store = RfidStore()
        for name in SCHEMA:
            assert name in store.database.tables

    def test_containment_alias(self):
        store = RfidStore()
        assert store.database.table("CONTAINMENT") is store.database.table(
            "OBJECTCONTAINMENT"
        )

    def test_create_schema_twice_fails(self):
        store = RfidStore()
        with pytest.raises(SqlError):
            create_schema(store.database)

    def test_counts_excludes_alias(self):
        counts = RfidStore().counts()
        assert "CONTAINMENT" not in counts
        assert counts["OBSERVATION"] == 0


class TestReaders:
    def test_place_and_lookup(self):
        store = RfidStore()
        store.place_reader("r1", "dock")
        assert store.reader_location("r1") == "dock"
        assert store.reader_location("r2") is None

    def test_move_reader(self):
        store = RfidStore()
        store.place_reader("r1", "dock")
        store.place_reader("r1", "gate")
        assert store.reader_location("r1") == "gate"
        assert len(store.database.table("READERLOCATION")) == 1


class TestLocations:
    def test_history_and_current(self):
        store = RfidStore()
        store.update_location("box", "factory", 0.0)
        store.update_location("box", "truck", 10.0)
        store.update_location("box", "store", 25.0)
        assert store.location_history("box") == [
            ("factory", 0.0, 10.0),
            ("truck", 10.0, 25.0),
            ("store", 25.0, UC),
        ]
        assert store.location_of("box") == "store"

    def test_location_at_time(self):
        store = RfidStore()
        store.update_location("box", "factory", 0.0)
        store.update_location("box", "truck", 10.0)
        assert store.location_of("box", at=5.0) == "factory"
        assert store.location_of("box", at=10.0) == "truck"
        assert store.location_of("box", at=999.0) == "truck"

    def test_before_first_sighting(self):
        store = RfidStore()
        store.update_location("box", "factory", 10.0)
        assert store.location_of("box", at=5.0) is None

    def test_reobservation_at_same_location_is_noop(self):
        store = RfidStore()
        store.update_location("box", "factory", 0.0)
        store.update_location("box", "factory", 5.0)
        assert store.location_history("box") == [("factory", 0.0, UC)]

    def test_objects_at(self):
        store = RfidStore()
        store.update_location("a", "dock", 0.0)
        store.update_location("b", "dock", 1.0)
        store.update_location("a", "gate", 5.0)
        assert store.objects_at("dock") == ["b"]
        assert store.objects_at("dock", at=3.0) == ["a", "b"]

    def test_unknown_object(self):
        assert RfidStore().location_of("ghost") is None


class TestContainment:
    def test_add_and_query(self):
        store = RfidStore()
        store.add_containment(["i1", "i2"], "case", 10.0)
        assert store.contents_of("case") == ["i1", "i2"]
        assert store.parent_of("i1") == "case"

    def test_end_containment(self):
        store = RfidStore()
        store.add_containment(["i1"], "case", 10.0)
        assert store.end_containment("i1", 20.0)
        assert store.parent_of("i1") is None
        assert store.parent_of("i1", at=15.0) == "case"
        assert not store.end_containment("i1", 30.0)  # already closed

    def test_unpack_closes_all(self):
        store = RfidStore()
        store.add_containment(["i1", "i2", "i3"], "case", 10.0)
        assert store.unpack("case", 50.0) == 3
        assert store.contents_of("case") == []
        assert store.contents_of("case", at=20.0) == ["i1", "i2", "i3"]

    def test_nested_containment_tree(self):
        store = RfidStore()
        store.add_containment(["i1", "i2"], "case", 0.0)
        store.add_containment(["case"], "pallet", 5.0)
        assert store.containment_tree("pallet") == {"case": {"i1": {}, "i2": {}}}

    def test_repacking_history(self):
        store = RfidStore()
        store.add_containment(["i1"], "caseA", 0.0)
        store.end_containment("i1", 10.0)
        store.add_containment(["i1"], "caseB", 12.0)
        assert store.parent_of("i1", at=5.0) == "caseA"
        assert store.parent_of("i1", at=11.0) is None
        assert store.parent_of("i1") == "caseB"


class TestObservationsAndAlerts:
    def test_record_and_read_observations(self):
        store = RfidStore()
        store.record_observation("r1", "x", 1.0)
        store.record_observation("r2", "x", 2.0)
        assert store.observations_of("x") == [("r1", 1.0), ("r2", 2.0)]

    def test_alerts_in_table_and_list(self):
        store = RfidStore()
        store.send_alert("r5", "laptop walking away", 42.0)
        assert store.alerts == [("r5", "laptop walking away", 42.0)]
        rows = store.database.query("SELECT rule_id, timestamp FROM ALERT")
        assert rows == [("r5", 42.0)]

    def test_sql_interface_sees_typed_writes(self):
        store = RfidStore()
        store.update_location("box", "dock", 3.0)
        rows = store.database.query(
            "SELECT loc_id FROM OBJECTLOCATION WHERE object_epc = 'box' "
            "AND tend = 'UC'"
        )
        assert rows == [("dock",)]


class TestSqlJoinOverStore:
    def test_cookbook_join_query(self):
        """The join+aggregate query documented in docs/cookbook.md."""
        store = RfidStore()
        store.add_containment(["i1", "i2"], "caseA", 0.0)
        store.add_containment(["i3"], "caseB", 0.0)
        store.update_location("i1", "warehouse", 1.0)
        store.update_location("i2", "warehouse", 1.0)
        store.update_location("i3", "shop", 1.0)
        rows = store.database.query(
            "SELECT parent_epc, COUNT(*) FROM OBJECTCONTAINMENT "
            "JOIN OBJECTLOCATION "
            "ON OBJECTCONTAINMENT.object_epc = OBJECTLOCATION.object_epc "
            "WHERE loc_id = 'warehouse' AND OBJECTCONTAINMENT.tend = 'UC' "
            "GROUP BY parent_epc"
        )
        assert rows == [("caseA", 2)]


class _SqlStore(RfidStore):
    """The per-object helpers as written before they read the indexes
    directly: SQL text through ``Database.query``, or a parsed WHERE
    through ``Table.candidate_rows``.  The oracle for the typed helpers."""

    _EQ_OBJECT = parse("SELECT * FROM OBSERVATION WHERE object_epc = o").where

    def _candidates(self, table, obj):
        table = self.database.table(table)
        return [
            row
            for row in table.candidate_rows(self._EQ_OBJECT, {"o": obj})
            if row["object_epc"] == obj
        ]

    def place_reader(self, reader, location):
        table = self.database.table("READERLOCATION")
        for row in table.rows:
            if row["reader_epc"] == reader:
                row["loc_id"] = location
                return
        table.insert([reader, location])

    def reader_location(self, reader):
        rows = self.database.query(
            "SELECT loc_id FROM READERLOCATION WHERE reader_epc = r", {"r": reader}
        )
        return rows[0][0] if rows else None

    def observations_of(self, obj):
        return self.database.query(
            "SELECT reader_epc, timestamp FROM OBSERVATION WHERE object_epc = o",
            {"o": obj},
        )

    def _current_location_row(self, obj):
        for row in self._candidates("OBJECTLOCATION", obj):
            if row["tend"] == UC:
                return row
        return None

    def location_of(self, obj, at=None):
        for row in self._candidates("OBJECTLOCATION", obj):
            if at is None:
                if row["tend"] == UC:
                    return row["loc_id"]
            elif row["tstart"] <= at and (row["tend"] == UC or at < row["tend"]):
                return row["loc_id"]
        return None

    def location_history(self, obj):
        return self.database.query(
            "SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = o "
            "ORDER BY tstart",
            {"o": obj},
        )

    def end_containment(self, child, timestamp):
        for row in self._candidates("OBJECTCONTAINMENT", child):
            if row["tend"] == UC:
                row["tend"] = timestamp
                return True
        return False


_EPCS = ("a", "b", "c")
_READERS = ("r1", "r2")
_PLACES = ("dock", "gate", "shelf")
#: Few distinct instants, so equal ``tstart`` values are common.
_TIMES = st.sampled_from((0.0, 1.0, 2.0, 3.0))
_OPERATIONS = st.lists(
    st.one_of(
        # Raw rows, duplicates included, straight into the tables.
        st.tuples(
            st.just("row"),
            st.sampled_from(("OBJECTLOCATION", "OBJECTCONTAINMENT")),
            st.tuples(
                st.sampled_from(_EPCS),
                st.sampled_from(_PLACES + _EPCS),
                _TIMES,
                st.one_of(st.just(UC), _TIMES),
            ),
        ),
        st.tuples(
            st.just("row"),
            st.just("READERLOCATION"),
            st.tuples(st.sampled_from(_READERS), st.sampled_from(_PLACES)),
        ),
        st.tuples(
            st.just("row"),
            st.just("OBSERVATION"),
            st.tuples(st.sampled_from(_READERS), st.sampled_from(_EPCS), _TIMES),
        ),
        # Helper calls that write.
        st.tuples(
            st.just("place_reader"),
            st.tuples(st.sampled_from(_READERS), st.sampled_from(_PLACES)),
        ),
        st.tuples(
            st.just("update_location"),
            st.tuples(st.sampled_from(_EPCS), st.sampled_from(_PLACES), _TIMES),
        ),
        st.tuples(
            st.just("end_containment"),
            st.tuples(st.sampled_from(_EPCS), _TIMES),
        ),
    ),
    max_size=30,
)


def _apply(store, operation):
    kind, *rest = operation
    if kind == "row":
        table, values = rest
        store.database.table(table).insert(list(values))
        return None
    return getattr(store, kind)(*rest[0])


class TestTypedHelpersMatchSql:
    """Each index-reading helper answers as the SQL it replaced."""

    @given(_OPERATIONS)
    @settings(max_examples=200, deadline=None)
    def test_random_stores(self, operations):
        store, oracle = RfidStore(), _SqlStore()
        for operation in operations:
            assert _apply(store, operation) == _apply(oracle, operation)
        for reader in _READERS + ("unplaced",):
            assert store.reader_location(reader) == oracle.reader_location(reader)
        for epc in _EPCS + ("ghost",):
            assert store.observations_of(epc) == oracle.observations_of(epc)
            assert store.location_history(epc) == oracle.location_history(epc)
            assert store.location_of(epc) == oracle.location_of(epc)
            for at in (-1.0, 0.0, 0.5, 1.0, 2.5, 9.0):
                assert store.location_of(epc, at) == oracle.location_of(epc, at)
        assert store.database.dump() == oracle.database.dump()


class TestPerReadingPathParsesNoSql:
    """Rule 3's per-reading store work goes to hash indexes, not SQL text."""

    @pytest.mark.parametrize("pack", ["hospital-assets", "movement"])
    def test_no_sql_text_per_observation(self, monkeypatch, pack):
        run = get_pack(pack).build()
        engine = run.engine_factory()()
        texts = []
        tokenize_text = sql_parser.tokenize

        def lexing(text):
            texts.append(("lex", text))
            return tokenize_text(text)

        monkeypatch.setattr(sql_parser, "tokenize", lexing)
        for name in ("execute", "query", "explain"):
            method = getattr(Database, name)

            def recording(db, statement, *args, _name=name, _method=method, **kw):
                if isinstance(statement, str):
                    texts.append((_name, statement))
                return _method(db, statement, *args, **kw)

            monkeypatch.setattr(Database, name, recording)
        detections = list(engine.run(run.observations))
        assert len(run.observations) > 0 and detections
        assert texts == []
        assert all(check.ok for check in run.verify(engine.store, detections))
