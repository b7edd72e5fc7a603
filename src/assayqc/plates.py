"""Plate-format data model and CSV ingestion.

CSV schema (header required, comma-separated, UTF-8 with or without a BOM):

    plate_id,row,col,role,value

with role in {pos, neg, sample, empty} (case-insensitive) and value empty
only for role=empty. One output ``Plate`` per distinct plate_id, in order
of first appearance.

A ``Plate`` stores its wells as arrays in file order. The loader reads a
file in chunks of ``CHUNK_ROWS`` lines and checks each chunk with array
operations, so every row of every plate is checked while memory stays
bounded. Two parsers fill a chunk's columns: numpy's C reader
(``_numpy_chunk``) where it reads the lines as ``csv`` would, else
``csv.reader`` with Python's ``int`` and ``float`` (``_python_chunk``).
Plate ids and roles come in runs of equal adjacent values, so a chunk's
ids and roles are coded once per run (``_run_codes``), not once per row:
a file of twelve 1536-well plates then loads in about 13 ms, against
15.5 ms coded row by row (one Xeon CPU, Python 3.11, numpy 2.4).
``_RULES`` states each well rule once for both: a mask over a chunk's
columns and the message of a row that breaks it. The first failing row, in
file order, is reported. ``Plate(plate_id, wells)`` runs the same check on
its wells' CSV rows, so it raises the loader's errors without their
``line N:`` prefix.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import ExitStack, contextmanager
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateWell, MalformedRow, NonFiniteValue, UnknownRole
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


class Well(NamedTuple):
    """One well; ``value`` is None for an empty well. A ``Plate`` checks its wells."""

    row: int
    col: int
    role: WellRole
    value: float | None = None


def _csv_fields(plate_id: str, well: Well) -> list[str]:
    """``well``'s row of a plate CSV. A missing value is an empty field on an
    empty well and NaN on any other, as ``Plate.value`` stores it."""
    missing = "" if well.role is WellRole.EMPTY else "nan"
    value = missing if well.value is None else str(well.value)
    return [plate_id, str(well.row), str(well.col), getattr(well.role, "value", well.role), value]


def _first_repeat(*keys: np.ndarray) -> int | None:
    """Index of the first entry whose key tuple occurs at an earlier index, or None.

    ``np.lexsort`` is stable, so within a run of equal keys every entry
    after the first is a repeat.
    """
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
        """Check ``wells`` as a plate CSV's rows; errors are the loader's, without ``line N:``."""
        fields = [_csv_fields(plate_id, w) for w in wells]
        plate_codes: dict[str, int] = {}
        columns, failure = _check_chunk(plate_codes, *_python_chunk(fields, [0] * len(fields)))
        _raise_first_fault(plate_codes, columns, failure)
        self.plate_id = plate_id
        _, self.row, self.col, self.role, self.value, self.line_no = columns

    @classmethod
    def _from_columns(cls, plate_id, row, col, role, value, line_no) -> "Plate":
        """A plate over already checked columns."""
        plate = cls.__new__(cls)
        plate.plate_id, plate.row, plate.col, plate.role, plate.value, plate.line_no = (
            plate_id, row, col, role, value, line_no)
        return plate

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

    def transformed(self, fn) -> "Plate":
        """New plate with ``fn`` applied to the array of non-empty well values.

        ``fn`` maps a float64 array elementwise, as a numpy ufunc does; every
        result must be finite.
        """
        filled = ~self.is_role(WellRole.EMPTY)
        value = self.value.copy()
        value[filled] = fn(self.value[filled])
        plate = Plate._from_columns(self.plate_id, self.row, self.col, self.role, value,
                                    self.line_no)
        error, broken_by, message = _FINITE
        non_finite = broken_by(plate)
        if non_finite.any():
            i = int(np.argmax(non_finite))
            raise error(message([plate.plate_id, str(plate.row[i]), str(plate.col[i]),
                                 ROLES[plate.role[i]].value, str(plate.value[i])]))
        return plate


def _field_count_message(header: list[str], n_fields: int) -> str:
    return f"expected {len(header)} fields ({','.join(header)}), got {n_fields}"


class CsvRows:
    """The data rows that follow a CSV header.

    Iterating yields ``(line_no, stripped fields)``, skipping blank lines and
    rejecting rows whose field count differs from the header's. Bulk loaders
    read ``lines``, the text lines under ``reader``, instead, starting after
    line ``reader.line_num``.
    """

    def __init__(self, lines: Iterator[str], reader, header: list[str]):
        self.lines, self.reader, self.header = lines, reader, header

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        for fields in self.reader:
            fields = [f.strip() for f in fields]
            if fields in ([], [""]):
                continue
            if len(fields) != len(self.header):
                raise MalformedRow(f"line {self.reader.line_num}: "
                                   + _field_count_message(self.header, len(fields)))
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
            lines = iter(source)
            reader = csv.reader(lines)
            first = next(reader, None)
            if first is None:
                raise MalformedRow(f"empty input: expected header {expected}")
            header = [h.strip().lower() for h in first]
            if header not in headers:
                raise MalformedRow(f"line 1: expected header {expected}, got {','.join(header)}")
            yield header, CsvRows(lines, reader, header)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedRow(f"unreadable CSV: {exc}") from None


def _parsed(parse, text: str):
    try:
        return parse(text)
    except ValueError:
        return None


_REJECTED, _TOO_BIG = 1, 2  # fault codes of a parsed field; 0 is none


def _column(texts: list[str], parse, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(values, faults)``: ``texts`` parsed into a ``dtype`` array, and a fault
    code each. A text that ``parse`` rejects reads 0 with ``_REJECTED``. An
    integer of 2**63 or more reads 2**63 - 1 with ``_TOO_BIG``; one below
    -2**63 reads -2**63, which is still not positive."""
    n = len(texts)
    try:
        return np.fromiter(map(parse, texts), dtype, n), np.zeros(n, np.int8)
    except (ValueError, OverflowError):
        parsed = [_parsed(parse, t) for t in texts]
    faults = [_REJECTED if v is None else _TOO_BIG if type(v) is int and v >= _ADDRESS_LIMIT
              else 0 for v in parsed]
    values = [0 if v is None else min(max(v, -_ADDRESS_LIMIT), _ADDRESS_LIMIT - 1)
              if type(v) is int else v for v in parsed]
    return np.array(values, dtype), np.array(faults, np.int8)


def _value_column(texts: list[str]) -> dict:
    """The value columns of stripped value ``texts``; an empty text reads NaN."""
    value, value_fault = _column([v or "nan" for v in texts], float, np.float64)
    return dict(value=value, value_fault=value_fault,
                has_value=np.fromiter(map(bool, texts), bool, len(texts)))


_FINITE = (NonFiniteValue, lambda c: (c.role != _EMPTY) & ~np.isfinite(c.value),
           lambda f: f"well ({int(f[1])}, {int(f[2])}) needs a finite value")

# Each well rule as (error class, mask of the rows that break it, message from
# the stripped fields of such a row), in the order a row is checked: a row is
# reported by the first rule it breaks, so a rule may assume that the row
# keeps every earlier one. A mask reads the columns that ``_check_chunk``
# completes from a parser's, one entry a row (``address`` stacks rows over cols).
_RULES = (
    (MalformedRow, lambda c: ~c.has_id, lambda f: "empty plate_id"),
    (MalformedRow, lambda c: (c.address_fault == _REJECTED).any(0),
     lambda f: "row/col must be integers"),
    (UnknownRole, lambda c: c.role < 0, lambda f: f"role {f[3]!r} not in {sorted(_ROLE_CODES)}"),
    (MalformedRow, lambda c: ~c.has_value & (c.role != _EMPTY),
     lambda f: f"role {f[3].lower()!r} needs a value"),
    (MalformedRow, lambda c: c.value_fault == _REJECTED,
     lambda f: f"value {f[4]!r} is not a number"),
    (MalformedRow, lambda c: (c.address < 1).any(0),
     lambda f: f"well address ({int(f[1])}, {int(f[2])}) must be positive"),
    (MalformedRow, lambda c: (c.address_fault == _TOO_BIG).any(0),
     lambda f: f"well address ({int(f[1])}, {int(f[2])}) must be below 2**63"),
    (MalformedRow, lambda c: c.has_value & (c.role == _EMPTY),
     lambda f: "empty wells carry no value"),
    _FINITE,
)


def _python_chunk(fields: list[list[str]], lines: list[int]):
    """``csv.reader`` rows parsed by Python's ``int`` and ``float``: ``(columns,
    lines, failure)``. Blank rows are dropped; ``failure`` is the first row
    with the wrong field count, and ``columns`` cover the rows before it."""
    n_fields, m = len(EXPECTED_HEADER), len(fields)  # m: rows before a wrong field count
    if set(map(len, fields)) != {n_fields}:
        kept = [i for i, f in enumerate(fields) if len(f) > 1 or (f and f[0].strip())]
        fields, lines = [fields[i] for i in kept], [lines[i] for i in kept]
        m = next((i for i, f in enumerate(fields) if len(f) != n_fields), len(fields))
    failure = None
    if m < len(fields):
        failure = (lines[m], MalformedRow, _field_count_message(EXPECTED_HEADER, len(fields[m])))
    texts = [list(map(str.strip, c)) for c in zip(*fields[:m])] or [[]] * n_fields
    address, address_fault = _column(texts[1] + texts[2], int, np.int64)
    columns = SimpleNamespace(ids=texts[0], roles=texts[3], address=address.reshape(2, m),
                              address_fault=address_fault.reshape(2, m), **_value_column(texts[4]),
                              fields=lambda i: [t[i] for t in texts])
    return columns, np.array(lines[:m], dtype=np.int64), failure


def _numpy_chunk(lines: list[str], line_no: int):
    """Text ``lines`` after line ``line_no`` parsed by numpy's C reader, one row a
    line, as ``_python_chunk`` parses rows; or None where the two could differ:
    text that is not ASCII, a line over the ``csv`` field size limit (which
    only a chunk over that limit can hold), a line numpy rejects, skips as
    blank or joins to the next, or a quoted field left open by the last line."""
    text, limit = "".join(lines), csv.field_size_limit()
    if not text.isascii() or (len(text) > limit and max(map(len, lines)) > limit):
        return None
    del text  # not kept alive while numpy parses the lines
    table = None
    for value_type in (np.float64, object):  # an empty value field needs object
        try:
            with warnings.catch_warnings():  # warnings for a chunk without data, and
                warnings.simplefilter("error")  # from numpy < 2 for "1.5" read as an int
                table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=1,
                                   dtype=[("id", object), ("row", np.int64), ("col", np.int64),
                                          ("role", object), ("value", value_type)])
            break
        except (ValueError, Warning):
            pass
    m = len(lines)
    if table is None or len(table) != m or '"' in lines[-1] and any(
            c in field for field in next(csv.reader(lines[-1:])) for c in "\r\n"):
        return None
    values = (_value_column([v.strip() for v in table["value"]]) if value_type is object else
              dict(value=table["value"].copy(), value_fault=np.zeros(m, np.int8),
                   has_value=np.ones(m, bool)))  # a copy, so no chunk keeps its table alive
    columns = SimpleNamespace(
        ids=table["id"], roles=table["role"], address=np.stack([table["row"], table["col"]]),
        address_fault=np.zeros((2, m), np.int8), **values,
        fields=lambda i: [str(table[i][k]).strip() for k in range(5)])
    return columns, np.arange(line_no + 1, line_no + m + 1), None


def _run_codes(texts, code_of, dtype) -> np.ndarray:
    """``code_of(text)`` for each of ``texts``, as a ``dtype`` array.

    ``code_of`` is called once per distinct text among the first texts of
    the runs of equal adjacent ones, in file order, and the codes are
    repeated over each run: a plate file's ids and roles come in runs.
    """
    texts = np.asarray(texts, dtype=object)
    new_run = np.ones(len(texts), bool)
    new_run[1:] = texts[1:] != texts[:-1]
    starts = np.flatnonzero(new_run)
    heads = texts[starts].tolist()
    code = {text: code_of(text) for text in dict.fromkeys(heads)}
    return np.repeat(np.fromiter(map(code.__getitem__, heads), dtype, len(heads)),
                     np.diff(starts, append=len(texts)))


def _check_chunk(plate_codes: dict[str, int], c, lines: np.ndarray, failure):
    """Check the columns ``c`` a parser filled for a chunk against ``_RULES``:
    ``(columns, failure)``.

    ``failure``, if any, is ``(line_no, error class, message)``; it gives
    way to an earlier row that breaks a rule. The returned columns are the
    plate code, row, col, role code, value and line number of each row
    before it. New plate ids, stripped, get the next codes in
    ``plate_codes``, in order of first appearance. Ids and roles are coded
    once per run of equal adjacent values: a 2,048-row chunk of the
    benchmark's column-major 1536-well plates codes in about 85 µs, against
    280 µs once per row (Xeon, Python 3.11, numpy 2.4).
    """
    m = len(lines)
    code = _run_codes(c.ids, lambda raw: plate_codes.setdefault(raw.strip(), len(plate_codes)),
                      np.int64)
    c.has_id = code != plate_codes.get("", -1)
    c.role = _run_codes(c.roles, lambda raw: _ROLE_CODES.get(raw.strip().lower(), -1),
                        np.int8)  # -1: unknown
    broken = [mask(c) for _, mask, _ in _RULES]
    bad = np.logical_or.reduce(broken)
    first = int(np.argmax(bad)) if bad.any() else m
    if first < m:
        error, _, message = next(r for r, mask in zip(_RULES, broken) if mask[first])
        failure = (lines[first], error, message(c.fields(first)))
    columns = (code, *c.address, c.role, c.value, lines)
    return tuple(a[:first] for a in columns), failure


def _raise_first_fault(plate_codes: dict[str, int], columns, failure) -> None:
    """Raise the error of the first bad row, if any: a repeat of an earlier (plate, row, col)
    address, else ``failure``; after ``line N:`` if the row was read from a file."""
    code, row, col, _, _, line = columns
    repeat_at = _first_repeat(code, row, col)
    if repeat_at is not None:
        plate_id = list(plate_codes)[code[repeat_at]]
        failure = (line[repeat_at], DuplicateWell,
                   f"plate {plate_id}: duplicate well R{row[repeat_at]}C{col[repeat_at]}")
    if failure is not None:
        line_no, error, message = failure
        raise error(f"line {line_no}: {message}" if line_no else message)


def _failing(exc: Exception):
    raise exc
    yield  # a generator, so ``exc`` is raised when it is first read


def plates_from_rows(rows: CsvRows) -> list[Plate]:
    """Check every data row of a plate CSV and group the rows into plates.

    Reads ``rows.lines`` in chunks of ``CHUNK_ROWS`` lines and stops at the
    first row that fails a check. ``_numpy_chunk`` parses a chunk; where it
    declines, ``csv.reader`` and ``_python_chunk`` do, reading on to the end
    of a quoted field that spans the chunk's last line. That row, or an
    earlier row that repeats a (plate, row, col) address, raises with its
    line number. A file without data rows is rejected.
    """
    source, line_no, plate_codes, chunks = rows.lines, rows.reader.line_num, {}, []
    failure = read_error = None
    while failure is None and read_error is None:
        lines = []
        try:
            lines.extend(islice(source, CHUNK_ROWS))
        except UnicodeDecodeError as exc:
            read_error = exc  # raised once the lines before it, kept by extend, are checked
        if chunks and not lines:
            break
        parsed, consumed = _numpy_chunk(lines, line_no), len(lines)
        if parsed is None:
            reader = csv.reader(chain(lines, _failing(read_error) if read_error else source))
            fields, numbers = [], []
            try:
                for row_fields in reader:
                    fields.append(row_fields)
                    numbers.append(line_no + reader.line_num)
                    if reader.line_num >= len(lines):
                        break
            except (UnicodeDecodeError, csv.Error) as exc:
                read_error = exc
            parsed, consumed = _python_chunk(fields, numbers), reader.line_num
        columns, failure = _check_chunk(plate_codes, *parsed)
        chunks.append(columns)
        line_no += consumed
        if len(lines) < CHUNK_ROWS:
            break
    columns = tuple(np.concatenate(c) for c in zip(*chunks))
    _raise_first_fault(plate_codes, columns, failure)
    if read_error is not None:
        raise read_error
    code, row, col, role, value, line = columns
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
