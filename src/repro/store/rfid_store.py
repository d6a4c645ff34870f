"""The RFID data store: temporal state of the virtual world (paper §3.2).

:class:`RfidStore` wraps a mini-SQL :class:`~repro.sql.Database` with the
standard schema and a typed API over it.  It preserves the *history* of
object movement and relationships — closing a location or containment
period writes its ``tend`` rather than deleting the row — exactly the
temporal model of the paper's reference [2] (Wang & Liu, VLDB 2005).

Rule actions may use either interface: SQL templates execute against
``store.database``; condition callables and applications usually prefer
the typed methods (:meth:`location_of`, :meth:`contents_of`, ...).  The
per-object and per-reader helpers read the schema's hash indexes
directly (:meth:`~repro.sql.Table.lookup`), one probe per call.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sql import Database
from .schema import UC, create_schema


def _covers(tstart: float, tend, at: float) -> bool:
    """Does the period [tstart, tend) — tend possibly ``UC`` — cover ``at``?"""
    return tstart <= at and (tend == UC or at < tend)


class RfidStore:
    """In-memory temporal store for RFID semantic data."""

    def __init__(self) -> None:
        self.database = Database()
        create_schema(self.database)
        #: alerts captured as (rule_id, message, timestamp) for quick access.
        self.alerts: list[tuple[str, str, float]] = []

    # -- reader deployment ----------------------------------------------------

    def place_reader(self, reader: str, location: str) -> None:
        """Record (or move) a reader's physical location."""
        table = self.database.table("READERLOCATION")
        for row in table.lookup("reader_epc", reader):
            row["loc_id"] = location  # not indexed; plain update suffices
            return
        table.insert([reader, location])

    def reader_location(self, reader: str) -> Optional[str]:
        rows = self.database.table("READERLOCATION").lookup("reader_epc", reader)
        return rows[0]["loc_id"] if rows else None

    # -- observations -----------------------------------------------------------

    def record_observation(self, reader: str, obj: str, timestamp: float) -> None:
        self.database.table("OBSERVATION").insert([reader, obj, timestamp])

    def observations_of(self, obj: str) -> list[tuple[str, float]]:
        """(reader, timestamp) pairs for one object, in insertion order."""
        return [
            (row["reader_epc"], row["timestamp"])
            for row in self.database.table("OBSERVATION").lookup("object_epc", obj)
        ]

    # -- locations (Rule 3 semantics) -------------------------------------------

    def update_location(self, obj: str, location: str, timestamp: float) -> None:
        """Close the object's current location and open the new one.

        Implements the paper's Rule 3: ``UPDATE ... SET tend = t WHERE
        object_epc = o AND tend = 'UC'`` followed by an INSERT of the new
        period ``[t, UC)``.  Re-observation at the current location is a
        no-op (the period simply continues).
        """
        current = self._current_location_row(obj)
        if current is not None:
            if current["loc_id"] == location:
                return
            current["tend"] = timestamp
        self.database.table("OBJECTLOCATION").insert([obj, location, timestamp, UC])

    def _current_location_row(self, obj: str):
        for row in self.database.table("OBJECTLOCATION").lookup("object_epc", obj):
            if row["tend"] == UC:
                return row
        return None

    def location_of(self, obj: str, at: Optional[float] = None) -> Optional[str]:
        """The object's location now (``at=None``) or at a past instant."""
        for row in self.database.table("OBJECTLOCATION").lookup("object_epc", obj):
            if at is None:
                if row["tend"] == UC:
                    return row["loc_id"]
            elif _covers(row["tstart"], row["tend"], at):
                return row["loc_id"]
        return None

    def location_history(self, obj: str) -> list[tuple[str, float, object]]:
        """(location, tstart, tend) periods for an object, chronological."""
        rows = self.database.table("OBJECTLOCATION").lookup("object_epc", obj)
        rows.sort(key=lambda row: row["tstart"])  # stable: ties keep index order
        return [(row["loc_id"], row["tstart"], row["tend"]) for row in rows]

    def objects_at(self, location: str, at: Optional[float] = None) -> list[str]:
        """Objects at a location now or at a past instant."""
        found = []
        for row in self.database.table("OBJECTLOCATION").rows:
            if row["loc_id"] != location:
                continue
            if at is None:
                if row["tend"] == UC:
                    found.append(row["object_epc"])
            elif _covers(row["tstart"], row["tend"], at):
                found.append(row["object_epc"])
        return sorted(set(found))

    # -- containment (Rule 4 semantics) -----------------------------------------

    def add_containment(
        self, children: Iterable[str], parent: str, timestamp: float
    ) -> None:
        """Open containment periods: children packed into parent at t."""
        table = self.database.table("OBJECTCONTAINMENT")
        for child in children:
            table.insert([child, parent, timestamp, UC])

    def end_containment(self, child: str, timestamp: float) -> bool:
        """Close the child's open containment period, if any."""
        table = self.database.table("OBJECTCONTAINMENT")
        for row in table.lookup("object_epc", child):
            if row["tend"] == UC:
                row["tend"] = timestamp
                return True
        return False

    def unpack(self, parent: str, timestamp: float) -> int:
        """Close every open containment period under ``parent``."""
        closed = 0
        for row in self.database.table("OBJECTCONTAINMENT").rows:
            if row["parent_epc"] == parent and row["tend"] == UC:
                row["tend"] = timestamp
                closed += 1
        return closed

    def parent_of(self, obj: str, at: Optional[float] = None) -> Optional[str]:
        for row in self.database.table("OBJECTCONTAINMENT").rows:
            if row["object_epc"] != obj:
                continue
            if at is None:
                if row["tend"] == UC:
                    return row["parent_epc"]
            elif _covers(row["tstart"], row["tend"], at):
                return row["parent_epc"]
        return None

    def contents_of(self, parent: str, at: Optional[float] = None) -> list[str]:
        """Direct children of a container now or at a past instant."""
        found = []
        for row in self.database.table("OBJECTCONTAINMENT").rows:
            if row["parent_epc"] != parent:
                continue
            if at is None:
                if row["tend"] == UC:
                    found.append(row["object_epc"])
            elif _covers(row["tstart"], row["tend"], at):
                found.append(row["object_epc"])
        return sorted(set(found))

    def containment_tree(self, root: str, at: Optional[float] = None) -> dict:
        """Nested dict of the containment hierarchy below ``root``."""
        return {
            child: self.containment_tree(child, at) for child in self.contents_of(root, at)
        }

    # -- alerts -------------------------------------------------------------------

    def send_alert(self, rule_id: str, message: str, timestamp: float) -> None:
        self.alerts.append((rule_id, message, timestamp))
        self.database.table("ALERT").insert([rule_id, message, timestamp])

    # -- detections (paper Fig. 2: complex events feed the store) -----------------

    def record_detection(self, detection) -> None:
        """Persist a complex-event detection into the DETECTION table.

        ``primary_epc`` is the first leaf observation's object — enough
        to anchor history queries; the full constituent structure lives
        with the application if it needs it.
        """
        observations = list(detection.instance.observations())
        primary = observations[0].obj if observations else None
        self.database.table("DETECTION").insert(
            [
                detection.rule.rule_id,
                detection.instance.t_begin,
                detection.instance.t_end,
                detection.time,
                primary,
            ]
        )

    def detections_of(self, rule_id: str) -> list[tuple]:
        """(t_begin, t_end, detected_at, primary_epc) rows for one rule."""
        return self.database.query(
            "SELECT t_begin, t_end, detected_at, primary_epc FROM DETECTION "
            "WHERE rule_id = r ORDER BY detected_at",
            {"r": rule_id},
        )

    # -- persistence ------------------------------------------------------------------

    def save_json(self, path: str) -> None:
        """Write the whole store (all tables) to a JSON file."""
        import json

        with open(path, "w") as handle:
            json.dump(self.database.dump(), handle)

    @classmethod
    def load_json(cls, path: str) -> "RfidStore":
        """Rebuild a store — tables, indexes and the alert log — from disk."""
        import json

        from ..sql import Database

        with open(path) as handle:
            payload = json.load(handle)
        store = cls.__new__(cls)
        store.database = Database.load(payload)
        store.alerts = [
            (row["rule_id"], row["message"], row["timestamp"])
            for row in store.database.table("ALERT").rows
        ]
        return store

    # -- convenience ---------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Row counts per table (diagnostics)."""
        return {
            name: len(table)
            for name, table in self.database.tables.items()
            if name not in ("CONTAINMENT",)  # alias, not a second table
        }
