"""Plate-format data model and CSV ingestion.

CSV schema (header required, comma-separated, UTF-8 with or without a BOM):

    plate_id,row,col,role,value

with role in {pos, neg, sample, empty} (case-insensitive) and value empty
only for role=empty. One output ``Plate`` per distinct plate_id, in order
of first appearance.

A ``Plate`` stores its wells as arrays in file order. The loader reads a
file in chunks of ``CHUNK_ROWS`` rows and checks each chunk with array
operations, so every row of every plate is checked while memory stays
bounded. The first failing row, in file order, is reported with the
message of the per-row check in ``_parse_well``.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataValidationError, DuplicateWell, MalformedRow, NonFiniteValue, UnknownRole
from .samples import SampleSet

EXPECTED_HEADER = ["plate_id", "row", "col", "role", "value"]
CHUNK_ROWS = 2048  # rows read and checked at a time
_ADDRESS_LIMIT = 2**63  # rows and columns are stored as int64


class WellRole(str, Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"
    SAMPLE = "sample"
    EMPTY = "empty"


ROLES = tuple(WellRole)  # a plate's role codes index this tuple
_ROLE_CODES = {r.value: code for code, r in enumerate(ROLES)}
_EMPTY = _ROLE_CODES[WellRole.EMPTY.value]


@dataclass(frozen=True)
class Well:
    row: int
    col: int
    role: WellRole
    value: float | None = None

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise MalformedRow(f"well address ({self.row}, {self.col}) must be positive")
        if self.row >= _ADDRESS_LIMIT or self.col >= _ADDRESS_LIMIT:
            raise MalformedRow(f"well address ({self.row}, {self.col}) must be below 2**63")
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


def _first_repeat(*keys: np.ndarray) -> int | None:
    """Index of the first entry whose key tuple occurs at an earlier index, or None.

    ``np.lexsort`` is stable, so within a run of equal keys every entry
    after the first is a repeat.
    """
    if keys[0].size < 2:
        return None
    order = np.lexsort(keys[::-1])
    same = np.logical_and.reduce([k[order[1:]] == k[order[:-1]] for k in keys])
    return int(order[1:][same].min()) if same.any() else None


class Plate:
    """All wells of one plate, as arrays in file order; addresses are unique.

    ``row``, ``col`` and ``line_no`` are int64, ``role`` holds int8 indices
    into ``ROLES`` and ``value`` is float64 with NaN for empty wells.
    ``line_no`` is each well's line in its source file, 0 for wells that
    were not read from one.
    """

    def __init__(self, plate_id: str, wells: Iterable[Well] = ()):
        wells = list(wells)
        self.plate_id = plate_id
        self.row = np.array([w.row for w in wells], dtype=np.int64)
        self.col = np.array([w.col for w in wells], dtype=np.int64)
        self.role = np.array([_ROLE_CODES[w.role.value] for w in wells], dtype=np.int8)
        self.value = np.array([math.nan if w.value is None else w.value for w in wells],
                              dtype=np.float64)
        self.line_no = np.zeros(len(wells), dtype=np.int64)
        repeat_at = _first_repeat(self.row, self.col)
        if repeat_at is not None:
            raise DuplicateWell(
                f"plate {plate_id}: duplicate well {self.wells[repeat_at].address}")

    @classmethod
    def _from_columns(cls, plate_id, row, col, role, value, line_no) -> "Plate":
        """A plate over already checked columns."""
        plate = cls(plate_id)
        plate.row, plate.col, plate.role, plate.value, plate.line_no = (
            row, col, role, value, line_no)
        return plate

    def add(self, well: Well) -> None:
        """Append ``well``; its address must be new on this plate."""
        if np.any((self.row == well.row) & (self.col == well.col)):
            raise DuplicateWell(f"plate {self.plate_id}: duplicate well {well.address}")
        new = Plate(self.plate_id, [well])
        for name in ("row", "col", "role", "value", "line_no"):
            setattr(self, name, np.concatenate((getattr(self, name), getattr(new, name))))

    @property
    def wells(self) -> list[Well]:
        """Every well as a ``Well``, built on each access."""
        columns = (a.tolist() for a in (self.row, self.col, self.role, self.value))
        return [Well(r, c, ROLES[k], None if k == _EMPTY else v) for r, c, k, v in zip(*columns)]

    def is_role(self, role: WellRole) -> np.ndarray:
        """Boolean mask of the wells with ``role``."""
        return self.role == _ROLE_CODES[role.value]

    def addresses(self, mask: np.ndarray) -> list[str]:
        """``R<row>C<col>`` of the wells ``mask`` selects, in file order."""
        return [f"R{r}C{c}" for r, c in zip(self.row[mask].tolist(), self.col[mask].tolist())]

    def _values(self, role: WellRole) -> np.ndarray:
        return self.value[self.is_role(role)]

    def control_sets(self) -> tuple[SampleSet, SampleSet]:
        """(negative controls, positive controls) as SampleSets."""
        return (
            SampleSet(self._values(WellRole.NEGATIVE), label=f"{self.plate_id}:neg"),
            SampleSet(self._values(WellRole.POSITIVE), label=f"{self.plate_id}:pos"),
        )

    def count(self, role: WellRole) -> int:
        return int(np.count_nonzero(self.is_role(role)))

    def sample_wells(self) -> list[Well]:
        return [w for w in self.wells if w.role is WellRole.SAMPLE]

    def transformed(self, fn) -> "Plate":
        """New plate with ``fn`` applied to the array of non-empty well values.

        ``fn`` maps a float64 array elementwise, as a numpy ufunc does; every
        result must be finite.
        """
        filled = ~self.is_role(WellRole.EMPTY)
        value = self.value.copy()
        value[filled] = fn(self.value[filled])
        non_finite = filled & ~np.isfinite(value)
        if non_finite.any():
            w = self.wells[int(np.argmax(non_finite))]
            raise NonFiniteValue(f"well ({w.row}, {w.col}) needs a finite value")
        return Plate._from_columns(self.plate_id, self.row, self.col, self.role, value,
                                   self.line_no)


def _field_count_error(line_no: int, header: list[str], n_fields: int) -> MalformedRow:
    return MalformedRow(
        f"line {line_no}: expected {len(header)} fields ({','.join(header)}), got {n_fields}"
    )


class CsvRows:
    """The data rows that follow a CSV header.

    Iterating yields ``(line_no, stripped fields)``, skipping blank lines and
    rejecting rows whose field count differs from the header's. Bulk loaders
    read ``reader``, the underlying ``csv.reader``, instead.
    """

    def __init__(self, reader, header: list[str]):
        self.reader, self.header = reader, header

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        for fields in self.reader:
            fields = [f.strip() for f in fields]
            if fields in ([], [""]):
                continue
            if len(fields) != len(self.header):
                raise _field_count_error(self.reader.line_num, self.header, len(fields))
            yield self.reader.line_num, fields


@contextmanager
def read_csv_rows(source, headers: Sequence[list[str]]) -> Iterator[tuple[list[str], CsvRows]]:
    """Open ``source`` once; yield ``(header, rows)``.

    ``source`` is a path, bytes or a readable text stream; paths and bytes
    are decoded as UTF-8 with an optional byte-order mark. The header,
    stripped and lower-cased, must equal one of ``headers``. ``rows`` is a
    ``CsvRows`` over the rest of the file. Bytes that are not UTF-8, and
    text the ``csv`` module cannot split, raise ``MalformedRow`` too.
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
            yield header, CsvRows(reader, header)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedRow(f"unreadable CSV: {exc}") from None


def _parse_well(fields: list[str]) -> tuple[str, Well]:
    plate_id, row_s, col_s, role_s, value_s = fields
    if not plate_id:
        raise MalformedRow("empty plate_id")
    try:
        row, col = int(row_s), int(col_s)
    except ValueError:
        raise MalformedRow("row/col must be integers") from None
    code = _ROLE_CODES.get(role_s.lower())
    if code is None:
        raise UnknownRole(f"role {role_s!r} not in {sorted(_ROLE_CODES)}")
    role = ROLES[code]
    if not value_s and role is not WellRole.EMPTY:
        raise MalformedRow(f"role {role.value!r} needs a value")
    try:
        value = float(value_s) if value_s else None
    except ValueError:
        raise MalformedRow(f"value {value_s!r} is not a number") from None
    return plate_id, Well(row, col, role, value)


def _row_error(line_no: int, fields: list[str]) -> DataValidationError:
    """The error of a row that fails the per-row check, with its line."""
    fields = [f.strip() for f in fields]
    if len(fields) != len(EXPECTED_HEADER):
        return _field_count_error(line_no, EXPECTED_HEADER, len(fields))
    try:
        _parse_well(fields)
    except DataValidationError as exc:
        return type(exc)(f"line {line_no}: {exc}")
    raise AssertionError(f"line {line_no}: flagged by the chunk checks, passed by _parse_well")


def _parsed_or(parse, text: str, dtype, invalid):
    try:
        return dtype(parse(text))
    except (ValueError, OverflowError):
        return invalid


def _column(texts: list[str], parse, dtype, invalid) -> np.ndarray:
    """``texts`` parsed into a ``dtype`` array; a text that ``parse`` rejects,
    or whose value ``dtype`` cannot hold, reads ``invalid``."""
    try:
        return np.fromiter(map(parse, texts), dtype, len(texts))
    except (ValueError, OverflowError):
        return np.array([_parsed_or(parse, t, dtype, invalid) for t in texts], dtype)


# Plate code, row, col, role code, value and line number of each row.
_NO_COLUMNS = tuple(np.empty(0, t) for t in (np.int64, np.int64, np.int64, np.int8,
                                             np.float64, np.int64))


def _check_chunk(fields: list[list[str]], lines: list[int], plate_codes: dict[str, int]):
    """Check one chunk of raw rows: ``(columns, failure)``.

    Blank rows are dropped. ``failure`` is ``(line_no, fields)`` of the first
    row that the per-row check (``_parse_well`` and the field count) would
    reject, or None; ``columns`` hold the rows before it. New plate ids get
    the next codes in ``plate_codes``, in order of first appearance.
    """
    n_fields, m = len(EXPECTED_HEADER), len(fields)  # m: rows before a wrong field count
    if set(map(len, fields)) != {n_fields}:
        kept = [i for i, f in enumerate(fields) if len(f) > 1 or (f and f[0].strip())]
        fields, lines = [fields[i] for i in kept], [lines[i] for i in kept]
        m = next((i for i, f in enumerate(fields) if len(f) != n_fields), len(fields))
    first, columns = m, _NO_COLUMNS
    if m:
        ids, rows, cols, roles, values = (list(map(str.strip, c)) for c in zip(*fields[:m]))
        for plate_id in dict.fromkeys(ids):
            plate_codes.setdefault(plate_id, len(plate_codes))
        code = np.fromiter(map(plate_codes.__getitem__, ids), np.int64, m)
        row = _column(rows, int, np.int64, 0)
        col = _column(cols, int, np.int64, 0)
        role_of = {r: _ROLE_CODES.get(r.lower(), -1) for r in set(roles)}
        role = np.fromiter(map(role_of.__getitem__, roles), np.int8, m)
        value = _column([v or "nan" for v in values], float, np.float64, math.nan)
        # An empty well must have no value; any other needs a finite one.
        value_bad = np.where(role == _EMPTY, np.fromiter(map(bool, values), bool, m),
                             ~np.isfinite(value))
        bad = (~np.fromiter(map(bool, ids), bool, m) | (row < 1) | (col < 1) | (role < 0)
               | value_bad)
        if bad.any():
            first = int(np.argmax(bad))
        columns = tuple(a[:first] for a in (code, row, col, role, value,
                                             np.array(lines[:m], dtype=np.int64)))
    failure = (lines[first], fields[first]) if first < len(fields) else None
    return columns, failure


def plates_from_rows(rows: CsvRows) -> list[Plate]:
    """Check every data row of a plate CSV and group the rows into plates.

    Reads ``rows.reader`` in chunks of ``CHUNK_ROWS`` rows and stops at the
    first row that fails a check. That row, or an earlier row that repeats
    a (plate, row, col) address, raises with the per-row check's message
    and its line number. A file without data rows is rejected.
    """
    reader, plate_codes, chunks = rows.reader, {}, []
    failure = read_error = None
    while failure is None and read_error is None:
        fields, lines = [], []
        try:
            for row_fields in islice(reader, CHUNK_ROWS):
                fields.append(row_fields)
                lines.append(reader.line_num)
        except (UnicodeDecodeError, csv.Error) as exc:
            read_error = exc  # raised once the rows before it are checked
        columns, failure = _check_chunk(fields, lines, plate_codes)
        chunks.append(columns)
        if len(fields) < CHUNK_ROWS:
            break
    code, row, col, role, value, line = (np.concatenate(c) for c in zip(*chunks))
    repeat_at = _first_repeat(code, row, col)
    if repeat_at is not None:
        plate_id = list(plate_codes)[code[repeat_at]]
        raise DuplicateWell(f"line {line[repeat_at]}: plate {plate_id}: duplicate well "
                            f"R{row[repeat_at]}C{col[repeat_at]}")
    if failure is not None:
        raise _row_error(*failure)
    if read_error is not None:
        raise read_error
    if not code.size:
        raise MalformedRow("no data rows after the header")
    groups = np.split(np.argsort(code, kind="stable"), np.cumsum(np.bincount(code))[:-1])
    return [Plate._from_columns(plate_id, row[g], col[g], role[g], value[g], line[g])
            for plate_id, g in zip(plate_codes, groups)]


def load_plate_csv(source) -> list[Plate]:
    """Parse a plate CSV from a path, bytes or readable text stream.

    Errors carry the 1-based line number of the offending row. Duplicate
    (plate, row, col) addresses are rejected.
    """
    with read_csv_rows(source, [EXPECTED_HEADER]) as (_, rows):
        return plates_from_rows(rows)
