"""Plate-format data model and CSV ingestion.

CSV schema (header required, comma-separated, UTF-8 with or without a BOM):

    plate_id,row,col,role,value

with role in {pos, neg, sample, empty} (case-insensitive) and value empty
only for role=empty. One output ``Plate`` per distinct plate_id, in order
of first appearance.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataValidationError, DuplicateWell, MalformedRow, NonFiniteValue, UnknownRole
from .samples import SampleSet

EXPECTED_HEADER = ["plate_id", "row", "col", "role", "value"]


class WellRole(str, Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    SAMPLE = "sample"
    EMPTY = "empty"


@dataclass(frozen=True)
class Well:
    row: int
    col: int
    role: WellRole
    value: float | None = None

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise MalformedRow(f"well address ({self.row}, {self.col}) must be positive")
        if self.role is WellRole.EMPTY:
            if self.value is not None:
                raise MalformedRow("empty wells carry no value")
        else:
            if self.value is None or not math.isfinite(self.value):
                raise NonFiniteValue(
                    f"well ({self.row}, {self.col}) needs a finite value"
                )

    @property
    def address(self) -> str:
        return f"R{self.row}C{self.col}"


@dataclass
class Plate:
    """All wells of one plate; addresses must be unique."""

    plate_id: str
    wells: list[Well] = field(default_factory=list)

    def __post_init__(self):
        wells, self.wells, self._addresses = self.wells, [], set()
        for w in wells:
            self.add(w)

    def add(self, well: Well) -> None:
        """Append ``well``; its address must be new on this plate."""
        key = (well.row, well.col)
        if key in self._addresses:
            raise DuplicateWell(f"plate {self.plate_id}: duplicate well {well.address}")
        self._addresses.add(key)
        self.wells.append(well)

    def _values(self, role: WellRole) -> np.ndarray:
        return np.array([w.value for w in self.wells if w.role is role], dtype=np.float64)

    def control_sets(self) -> tuple[SampleSet, SampleSet]:
        """(negative controls, positive controls) as SampleSets."""
        return (
            SampleSet(self._values(WellRole.NEGATIVE), label=f"{self.plate_id}:neg"),
            SampleSet(self._values(WellRole.POSITIVE), label=f"{self.plate_id}:pos"),
        )

    def count(self, role: WellRole) -> int:
        return sum(1 for w in self.wells if w.role is role)

    def sample_wells(self) -> list[Well]:
        return [w for w in self.wells if w.role is WellRole.SAMPLE]

    def transformed(self, fn) -> "Plate":
        """New plate with fn applied to every non-empty well value."""
        wells = [
            Well(w.row, w.col, w.role, None if w.value is None else float(fn(w.value)))
            for w in self.wells
        ]
        return Plate(self.plate_id, wells)


_ROLES = {r.value: r for r in WellRole}


@contextmanager
def read_csv_rows(source, headers: Sequence[list[str]]) -> Iterator[tuple[list[str], Iterator]]:
    """Open ``source`` once; yield ``(header, rows)``.

    ``source`` is a path, bytes or a readable text stream; paths and bytes
    are decoded as UTF-8 with an optional byte-order mark. The header,
    stripped and lower-cased, must equal one of ``headers``. ``rows``
    streams ``(line_no, stripped fields)``, skipping blank lines and
    rejecting rows whose field count differs from the header's. Bytes that
    are not UTF-8, and text the ``csv`` module cannot split, raise
    ``MalformedRow`` too.
    """
    expected = " or ".join(",".join(h) for h in headers)
    with ExitStack() as stack:
        try:
            if isinstance(source, (str, Path)):
                source = stack.enter_context(open(source, encoding="utf-8-sig", newline=""))
            elif isinstance(source, (bytes, bytearray)):
                source = io.StringIO(source.decode("utf-8-sig"))
            reader = csv.reader(source)
            first = next(reader, None)
            if first is None:
                raise MalformedRow(f"empty input: expected header {expected}")
            header = [h.strip().lower() for h in first]
            if header not in headers:
                raise MalformedRow(f"line 1: expected header {expected}, got {','.join(header)}")
            yield header, _rows(reader, header)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedRow(f"unreadable CSV: {exc}") from None


def _rows(reader, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    for fields in reader:
        fields = [f.strip() for f in fields]
        if fields in ([], [""]):
            continue
        if len(fields) != len(header):
            raise MalformedRow(
                f"line {reader.line_num}: expected {len(header)} fields "
                f"({','.join(header)}), got {len(fields)}"
            )
        yield reader.line_num, fields


def _parse_well(fields: list[str]) -> tuple[str, Well]:
    plate_id, row_s, col_s, role_s, value_s = fields
    if not plate_id:
        raise MalformedRow("empty plate_id")
    try:
        row, col = int(row_s), int(col_s)
    except ValueError:
        raise MalformedRow("row/col must be integers") from None
    role = _ROLES.get(role_s.lower())
    if role is None:
        raise UnknownRole(f"role {role_s!r} not in {sorted(_ROLES)}")
    if not value_s and role is not WellRole.EMPTY:
        raise MalformedRow(f"role {role.value!r} needs a value")
    try:
        value = float(value_s) if value_s else None
    except ValueError:
        raise MalformedRow(f"value {value_s!r} is not a number") from None
    return plate_id, Well(row, col, role, value)


def plates_from_rows(rows: Iterable[tuple[int, list[str]]]) -> list[Plate]:
    """Group ``(line_no, fields)`` plate-CSV rows into plates.

    Errors from ``Well`` and ``Plate`` checks carry the row's line number.
    A file without data rows is rejected.
    """
    plates: dict[str, Plate] = {}
    for line_no, fields in rows:
        try:
            plate_id, well = _parse_well(fields)
            plate = plates.get(plate_id)
            if plate is None:
                plate = plates[plate_id] = Plate(plate_id)
            plate.add(well)
        except DataValidationError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
    if not plates:
        raise MalformedRow("no data rows after the header")
    return list(plates.values())


def load_plate_csv(source) -> list[Plate]:
    """Parse a plate CSV from a path, bytes or readable text stream.

    Errors carry the 1-based line number of the offending row. Duplicate
    (plate, row, col) addresses are rejected.
    """
    with read_csv_rows(source, [EXPECTED_HEADER]) as (_, rows):
        return plates_from_rows(rows)
