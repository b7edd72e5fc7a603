import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assayqc import (
    DuplicateWell,
    MalformedRow,
    NonFiniteValue,
    Plate,
    UnknownRole,
    Well,
    WellRole,
    load_plate_csv,
    plates as plate_module,
)
from assayqc.errors import DataValidationError
from assayqc.plates import read_csv_rows

HEADER = "plate_id,row,col,role,value\n"


def load(text):
    return load_plate_csv(io.StringIO(text))


class TestLoadPlateCsv:
    def test_minimal_plate(self):
        plates = load(HEADER + "p1,1,1,pos,10.5\np1,1,2,neg,0.25\n")
        assert len(plates) == 1
        assert plates[0].plate_id == "p1"
        assert len(plates[0].wells) == 2
        assert plates[0].wells[0].role is WellRole.POSITIVE
        assert plates[0].wells[1].value == 0.25

    def test_roles_case_insensitive(self):
        plates = load(HEADER + "p1,1,1,POS,1\np1,1,2,Neg,2\np1,1,3,SAMPLE,3\np1,1,4,empty,\n")
        roles = [w.role for w in plates[0].wells]
        assert roles == [WellRole.POSITIVE, WellRole.NEGATIVE, WellRole.SAMPLE, WellRole.EMPTY]
        assert plates[0].wells[-1].value is None

    def test_multiple_plates_in_first_seen_order(self):
        plates = load(
            HEADER
            + "p2,1,1,pos,1\np1,1,1,neg,2\np2,1,2,neg,3\n"
        )
        assert [p.plate_id for p in plates] == ["p2", "p1"]
        assert len(plates[0].wells) == 2

    def test_duplicate_well_reports_line(self):
        with pytest.raises(DuplicateWell, match="line 3"):
            load(HEADER + "p1,1,1,pos,1\np1,1,1,neg,2\n")

    def test_same_address_ok_on_different_plates(self):
        plates = load(HEADER + "p1,1,1,pos,1\np2,1,1,pos,2\n")
        assert len(plates) == 2

    def test_nan_value_rejected(self):
        with pytest.raises(NonFiniteValue, match="line 2"):
            load(HEADER + "p1,1,1,pos,NaN\n")

    def test_inf_value_rejected(self):
        with pytest.raises(NonFiniteValue):
            load(HEADER + "p1,1,1,sample,inf\n")

    def test_unknown_role(self):
        with pytest.raises(UnknownRole, match="line 2"):
            load(HEADER + "p1,1,1,control,1\n")

    def test_missing_header(self):
        with pytest.raises(MalformedRow, match="expected header plate_id,row,col,role,value"):
            load("p1,1,1,pos,1\n")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow, match="line 2"):
            load(HEADER + "p1,1,1,pos\n")

    def test_non_integer_address(self):
        with pytest.raises(MalformedRow, match="line 2"):
            load(HEADER + "p1,one,1,pos,1\n")

    def test_missing_value_for_control(self):
        with pytest.raises(MalformedRow, match="line 2"):
            load(HEADER + "p1,1,1,pos,\n")

    def test_value_on_empty_well(self):
        with pytest.raises(MalformedRow, match="line 2"):
            load(HEADER + "p1,1,1,empty,3\n")

    def test_blank_lines_skipped(self):
        plates = load(HEADER + "p1,1,1,pos,1\n\np1,1,2,neg,2\n")
        assert len(plates[0].wells) == 2

    def test_header_only_rejected(self):
        with pytest.raises(MalformedRow, match="no data rows"):
            load(HEADER + "\n")

    def test_bytes_with_byte_order_mark(self):
        plates = load_plate_csv(("\ufeff" + HEADER + "p1,1,1,pos,1\n").encode("utf-8"))
        assert plates[0].wells[0].value == 1.0

    def test_from_path(self, tmp_path):
        path = tmp_path / "plate.csv"
        path.write_text(HEADER + "p1,1,1,pos,1\np1,1,2,neg,2\n")
        plates = load_plate_csv(path)
        assert len(plates) == 1


class TestPlateHelpers:
    def make(self):
        return Plate("p", [
            Well(1, 1, WellRole.NEGATIVE, 0.0),
            Well(2, 1, WellRole.NEGATIVE, 1.0),
            Well(1, 2, WellRole.POSITIVE, 10.0),
            Well(2, 2, WellRole.POSITIVE, 11.0),
            Well(1, 3, WellRole.SAMPLE, 5.0),
            Well(2, 3, WellRole.EMPTY),
        ])

    def test_control_sets(self):
        neg, pos = self.make().control_sets()
        assert neg.values.tolist() == [0.0, 1.0]
        assert pos.values.tolist() == [10.0, 11.0]

    def test_counts_and_samples(self):
        plate = self.make()
        assert plate.count(WellRole.NEGATIVE) == 2
        assert plate.count(WellRole.EMPTY) == 1

    def test_transformed_applies_only_to_values(self):
        plate = self.make().transformed(lambda v: v * 2)
        assert plate.wells[2].value == 20.0
        assert plate.wells[-1].value is None

    def test_transformed_values_must_stay_finite(self):
        with pytest.raises(NonFiniteValue, match=r"^well \(1, 2\) needs a finite value$"):
            self.make().transformed(lambda v: np.where(v < 10, v, np.inf))

    def test_duplicate_addresses_rejected_at_construction(self):
        with pytest.raises(DuplicateWell):
            Plate("p", [Well(1, 1, WellRole.SAMPLE, 1.0), Well(1, 1, WellRole.SAMPLE, 2.0)])

    def test_well_validation(self):
        with pytest.raises(MalformedRow):
            Plate("p", [Well(0, 1, WellRole.SAMPLE, 1.0)])
        with pytest.raises(NonFiniteValue):
            Plate("p", [Well(1, 1, WellRole.SAMPLE, float("nan"))])
        with pytest.raises(NonFiniteValue):
            Plate("p", [Well(1, 1, WellRole.SAMPLE, None)])


class TestReadCsvRows:
    def test_returns_the_matched_header_and_streams_rows(self):
        text = "Group, Value\n\nneg, 1\n  \npos,2\n"
        with read_csv_rows(io.StringIO(text), [["a"], ["group", "value"]]) as (header, rows):
            assert header == ["group", "value"]
            assert list(rows) == [(3, ["neg", "1"]), (5, ["pos", "2"])]

    def test_field_count_checked_against_the_header(self):
        text = io.StringIO("group,value\nneg,1,2\n")
        with read_csv_rows(text, [["group", "value"]]) as (_, rows):
            with pytest.raises(MalformedRow, match="line 2: expected 2 fields"):
                list(rows)

    def test_unknown_header_names_every_accepted_one(self):
        with pytest.raises(MalformedRow, match="expected header a,b or group,value, got x"):
            with read_csv_rows(io.StringIO("x\n"), [["a", "b"], ["group", "value"]]):
                pass

    def test_undecodable_or_unsplittable_input(self):
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            with read_csv_rows(b"group,value\nneg,\xe9\n", [["group", "value"]]):
                pass
        huge_field = io.StringIO('group,value\nneg,"' + "1" * 200_000 + '"\n')
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            with read_csv_rows(huge_field, [["group", "value"]]) as (_, rows):
                list(rows)

    def test_empty_input(self):
        with pytest.raises(MalformedRow, match="empty input"):
            with read_csv_rows(b"", [["group", "value"]]):
                pass


# --- the column-wise loader against the per-row loader it replaced ----------

def _row_by_row_well(fields):
    """The per-row check the column-wise loader replaced, kept as the oracle."""
    plate_id, row_s, col_s, role_s, value_s = fields
    if not plate_id:
        raise MalformedRow("empty plate_id")
    try:
        row, col = int(row_s), int(col_s)
    except ValueError:
        raise MalformedRow("row/col must be integers") from None
    roles = ["empty", "neg", "pos", "sample"]
    role = role_s.lower()
    if role not in roles:
        raise UnknownRole(f"role {role_s!r} not in {roles}")
    if not value_s and role != "empty":
        raise MalformedRow(f"role {role!r} needs a value")
    try:
        value = float(value_s) if value_s else None
    except ValueError:
        raise MalformedRow(f"value {value_s!r} is not a number") from None
    if row < 1 or col < 1:
        raise MalformedRow(f"well address ({row}, {col}) must be positive")
    if row >= 2**63 or col >= 2**63:
        raise MalformedRow(f"well address ({row}, {col}) must be below 2**63")
    if role == "empty":
        if value is not None:
            raise MalformedRow("empty wells carry no value")
    elif value is None or not math.isfinite(value):
        raise NonFiniteValue(f"well ({row}, {col}) needs a finite value")
    return plate_id, (row, col, role, value)


def load_row_by_row(text):
    """``[(plate_id, [(row, col, role, value), ...]), ...]``, one row at a time."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    found: dict[str, dict] = {}
    try:
        for fields in reader:
            fields = [f.strip() for f in fields]
            if fields in ([], [""]):
                continue
            line = reader.line_num
            if len(fields) != 5:
                raise MalformedRow(
                    f"line {line}: expected 5 fields (plate_id,row,col,role,value), "
                    f"got {len(fields)}")
            try:
                plate_id, well = _row_by_row_well(fields)
                wells = found.setdefault(plate_id, {})
                if well[:2] in wells:
                    raise DuplicateWell(
                        f"plate {plate_id}: duplicate well R{well[0]}C{well[1]}")
                wells[well[:2]] = well
            except DataValidationError as exc:
                raise type(exc)(f"line {line}: {exc}") from None
    except csv.Error as exc:
        raise MalformedRow(f"unreadable CSV: {exc}") from None
    if not found:
        raise MalformedRow("no data rows after the header")
    return [(pid, list(wells.values())) for pid, wells in found.items()]


def outcome(load, text):
    """``load(text)``, or the class and message of the error it raises."""
    try:
        return load(text)
    except DataValidationError as exc:
        return type(exc), str(exc)


def load_text(text):
    return load_plate_csv(io.StringIO(text))


def load_as_tuples(text):
    return [(p.plate_id, [(w.row, w.col, w.role.value, w.value) for w in p.wells])
            for p in load_text(text)]


def assert_same_as_row_by_row(text, chunk_rows=plate_module.CHUNK_ROWS):
    with mock.patch.object(plate_module, "CHUNK_ROWS", chunk_rows):
        assert outcome(load_as_tuples, text) == outcome(load_row_by_row, text), text


# Mostly valid fields, so that most rows pass and addresses repeat.
_address = st.sampled_from(["1", "2", "3"] * 5 + [" 2 ", "0", "-1", "a", "1.5", "", "1_0", "+3",
                                                  "\u0663", "9223372036854775807",
                                                  "9223372036854775808", "-9223372036854775809"])
_fields = st.tuples(
    st.sampled_from(["p1"] * 6 + ["p2", " p2 ", "P1", ""]),
    _address,
    _address,
    st.sampled_from(["pos", "neg", "sample", "empty"] * 3 + ["Pos", " NEG ", "ctl", ""]),
    st.sampled_from(["1", "-2.5", "0", "1e-300"] * 3 + [" 3 ", "", "nan", "inf", "1e400",
                                                        "x"]),
)
_lines = st.lists(
    _fields.map(",".join)
    | st.sampled_from(["", "  ", "p1,1,1,pos", "p1,1,1,pos,1,2", ",",
                       '"p\n1",1,1,pos,1', 'p2,2,2,neg,"4\n"']),
    max_size=14,
)


@settings(max_examples=400)
@given(_lines, st.sampled_from([1, 2, 3, 5, plate_module.CHUNK_ROWS]))
def test_same_plates_or_error_as_the_row_by_row_loader(lines, chunk_rows):
    assert_same_as_row_by_row(HEADER + "\n".join(lines) + "\n", chunk_rows)


def valid_rows(n, plate_id="p1"):
    return [f"{plate_id},{i // 48 + 1},{i % 48 + 1},sample,{i}.5" for i in range(n)]


class TestColumnWiseLoader:
    def test_error_in_the_second_chunk(self):
        lines = valid_rows(plate_module.CHUNK_ROWS + 100)
        lines[plate_module.CHUNK_ROWS + 50] = "p1,1,1,ctl,1"
        text = HEADER + "\n".join(lines) + "\n"
        with pytest.raises(UnknownRole, match=f"^line {plate_module.CHUNK_ROWS + 52}: role 'ctl'"):
            load_text(text)
        assert_same_as_row_by_row(text)

    def test_duplicate_across_chunks(self):
        lines = valid_rows(plate_module.CHUNK_ROWS + 100) + ["p1,1,7,neg,2"]
        text = HEADER + "\n".join(lines) + "\n"
        with pytest.raises(DuplicateWell,
                           match=f"^line {len(lines) + 1}: plate p1: duplicate well R1C7$"):
            load_text(text)
        assert_same_as_row_by_row(text)

    def test_a_bad_row_before_a_duplicate_wins(self):
        text = HEADER + "p1,1,1,pos,1\np1,1,2,ctl,1\np1,1,1,neg,2\n"
        with pytest.raises(UnknownRole, match="^line 3: "):
            load_text(text)
        assert_same_as_row_by_row(text)

    def test_a_duplicate_before_a_bad_row_wins(self):
        text = HEADER + "p1,1,1,pos,1\np1,1,1,neg,2\np1,1,2,ctl,1\n"
        with pytest.raises(DuplicateWell, match="^line 3: plate p1: duplicate well R1C1$"):
            load_text(text)
        assert_same_as_row_by_row(text)

    def test_blank_lines_and_a_quoted_line_break_count_as_lines(self):
        text = HEADER + 'p1,1,1,pos,1\n\n"p\n1",1,2,neg,2\n  \np1,one,1,pos,1\n'
        with pytest.raises(MalformedRow, match="^line 7: row/col must be integers$"):
            load_text(text)
        assert_same_as_row_by_row(text)
        assert_same_as_row_by_row(text, chunk_rows=1)

    def test_what_int_and_float_accept(self):
        text = HEADER + "p1,1_0,+3,pos,1\np1,\u0663,2,neg,2.5\n"
        [plate] = load_text(text)
        assert [(w.row, w.col) for w in plate.wells] == [(10, 3), (3, 2)]
        assert_same_as_row_by_row(text)
        with pytest.raises(NonFiniteValue, match="^line 2: well \\(1, 1\\) needs a finite"):
            load_text(HEADER + "p1,1,1,pos,1e400\n")

    def test_addresses_must_fit_in_int64(self):
        [plate] = load_text(HEADER + f"p1,{2**63 - 1},1,pos,1\n")
        assert plate.wells[0].row == 2**63 - 1
        with pytest.raises(MalformedRow, match=f"^line 3: well address \\(1, {2**63}\\) "
                                               "must be below 2\\*\\*63$"):
            load_text(HEADER + f"p1,1,1,pos,1\np1,1,{2**63},pos,1\n")
        with pytest.raises(MalformedRow, match="must be positive"):
            load_text(HEADER + f"p1,{-2**70},1,pos,1\n")

    def test_a_bad_row_is_reported_before_a_later_unreadable_one(self):
        huge = 'p1,2,2,neg,"' + "1" * 200_000 + '"\n'
        with pytest.raises(UnknownRole, match="^line 2: "):
            load_text(HEADER + "p1,1,1,ctl,1\n" + huge)
        with pytest.raises(MalformedRow, match="unreadable CSV"):
            load_text(HEADER + "p1,1,1,pos,1\n" + huge)

    def test_every_plate_is_checked(self):
        text = HEADER + "p1,1,1,pos,1\np2,1,1,pos,nan\n"
        with pytest.raises(NonFiniteValue, match="^line 3: "):
            load_text(text)

    def test_columns_in_file_order(self):
        plate_a, plate_b = load_text(
            HEADER + "a,2,1,neg,1\nb,1,1,pos,3\n\na,1,1,empty,\na,1,2,sample,4\n")
        assert plate_a.row.tolist() == [2, 1, 1] and plate_a.col.tolist() == [1, 1, 2]
        assert plate_a.line_no.tolist() == [2, 5, 6] and plate_b.line_no.tolist() == [3]
        assert [ROLE.value for ROLE in (plate_module.ROLES[k] for k in plate_a.role)] == [
            "neg", "empty", "sample"]
        assert plate_a.value[[0, 2]].tolist() == [1.0, 4.0] and math.isnan(plate_a.value[1])


# Plate ids and roles are coded once per run of equal adjacent values: the worst cases
# for runs, each split across chunks in every way.
_RUN_WORST_CASES = {
    "ids-alternate-every-row": [f"p{i % 2 + 1},{i // 2 + 1},1,sample,{i}" for i in range(9)],
    "ids-differ-only-by-padding": ["p2,1,1,pos,1", " p2 ,1,2,pos,2", "p1,1,1,neg,3",
                                   "p2 ,1,3,neg,4", " p2,2,1,sample,5", "p1,1,2,sample,6"],
    "roles-alternate-case-and-padding": [
        f"p1,1,{c},{role},{c}"
        for c, role in enumerate(["pos", " POS ", "Pos", "neg", " neg", "NEG ", "pos"], 1)],
    "empty-id-inside-a-run": ["p1,1,1,pos,1", "p1,1,2,pos,2", ",1,3,pos,3", ",1,4,pos,4",
                              "p1,1,5,pos,5"],
    "unknown-role-inside-a-run": ["p1,1,1,pos,1", "p1,1,2,ctl,2", "p1,1,3,ctl,3",
                                  "p1,1,4,pos,4"],
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, plate_module.CHUNK_ROWS])
@pytest.mark.parametrize("rows", list(_RUN_WORST_CASES.values()), ids=list(_RUN_WORST_CASES))
def test_runs_of_ids_and_roles_give_the_row_by_row_plates_or_error(rows, chunk_rows):
    assert_same_as_row_by_row(HEADER + "\n".join(rows) + "\n", chunk_rows)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, plate_module.CHUNK_ROWS])
def test_ids_that_differ_only_by_padding_are_one_plate(chunk_rows):
    text = HEADER + "\n".join(_RUN_WORST_CASES["ids-differ-only-by-padding"]) + "\n"
    with mock.patch.object(plate_module, "CHUNK_ROWS", chunk_rows):
        plates = load_text(text)
    assert [(p.plate_id, p.line_no.tolist()) for p in plates] == [("p2", [2, 3, 5, 6]),
                                                                   ("p1", [4, 7])]


# One bad row per well rule, in the order the rules are checked, a repeated address and
# rows that break two rules: (CSV data rows, plate id, wells, the message without its line).
_ONE_BAD_ROW_PER_RULE = [
    (",1,1,pos,1.0", "", [Well(1, 1, WellRole.POSITIVE, 1.0)], "empty plate_id"),
    ("p,one,1,pos,1.0", "p", [Well("one", 1, WellRole.POSITIVE, 1.0)],
     "row/col must be integers"),
    ("p,1,1,ctl,1.0", "p", [Well(1, 1, "ctl", 1.0)],
     "role 'ctl' not in ['empty', 'neg', 'pos', 'sample']"),
    ("p,1,1,sample,", "p", [Well(1, 1, WellRole.SAMPLE, "")], "role 'sample' needs a value"),
    ("p,1,1,sample,x", "p", [Well(1, 1, WellRole.SAMPLE, "x")], "value 'x' is not a number"),
    ("p,0,1,sample,1.0", "p", [Well(0, 1, WellRole.SAMPLE, 1.0)],
     "well address (0, 1) must be positive"),
    (f"p,1,{2**63},sample,1.0", "p", [Well(1, 2**63, WellRole.SAMPLE, 1.0)],
     f"well address (1, {2**63}) must be below 2**63"),
    ("p,1,1,empty,3.0", "p", [Well(1, 1, WellRole.EMPTY, 3.0)], "empty wells carry no value"),
    ("p,1,1,sample,inf", "p", [Well(1, 1, WellRole.SAMPLE, math.inf)],
     "well (1, 1) needs a finite value"),
    ("p,1,1,sample,1.0\np,1,1,neg,2.0", "p",
     [Well(1, 1, WellRole.SAMPLE, 1.0), Well(1, 1, WellRole.NEGATIVE, 2.0)],
     "plate p: duplicate well R1C1"),
    # A row that breaks two rules is reported by the one checked first.
    ("p,1,1,ctl,x", "p", [Well(1, 1, "ctl", "x")],
     "role 'ctl' not in ['empty', 'neg', 'pos', 'sample']"),
    ("p,1,1,neg,", "p", [Well(1, 1, WellRole.NEGATIVE, "")], "role 'neg' needs a value"),
    (f"p,{2**63},0,sample,1.0", "p", [Well(2**63, 0, WellRole.SAMPLE, 1.0)],
     f"well address ({2**63}, 0) must be positive"),
    ("p,0,1,empty,3.0", "p", [Well(0, 1, WellRole.EMPTY, 3.0)],
     "well address (0, 1) must be positive"),
]


@pytest.mark.parametrize("rows, plate_id, wells, message", _ONE_BAD_ROW_PER_RULE)
def test_plate_raises_the_loaders_error_without_the_line(rows, plate_id, wells, message):
    with pytest.raises(DataValidationError) as from_csv:
        load_text(HEADER + rows + "\n")
    with pytest.raises(DataValidationError) as from_wells:
        Plate(plate_id, wells)
    assert type(from_wells.value) is type(from_csv.value)
    assert str(from_wells.value) == message
    assert str(from_csv.value) == f"line {1 + len(wells)}: {message}"


# --- numpy's C reader against the row-by-row oracle ---------------------------

def _quoted(field):
    """``field`` as R's ``write.csv`` writes a string: in quotes, with ``""`` for a quote."""
    return '"' + field.replace('"', '""') + '"'


_OPEN_AT_END = 'p1,1,1,neg,"1'  # a quoted field that the line break does not close
# Lines that numpy reads otherwise than ``csv`` with Python's int and float, or not at all,
# and rows that break a rule, each among valid rows.
_C_ODD_LINES = [
    "p1,\u01fe1,1,pos,1", "p1,1_0,10,pos,1", "p1,\u0663,11,neg,1", f"p1,1,{2**63},pos,1",
    f"p1,{2**63 - 1},12,sample,1", "p1,10,10,empty,nan", 'p1,10,11, "pos",1',
    '"p1",10,12,"empty",""', "", "  ", "\t", "\ufeff", "\ufeffp1,10,13,pos,1", "p1,1,1,pos", ",",
    '"p\n1",1,2,pos,1', 'p2,2,2,neg,"4\n"', _OPEN_AT_END, "p1,0,1,pos,1", "p1,10,14,ctl,1",
    "p1,10,15,pos, x ", "p1,10,16,pos,", "p1,10,17,pos,inf", "p1,1,1,neg,2", "p#1,10,18,pos,1",
]


@st.composite
def _c_lines(draw):
    """Valid rows, some quoted as R quotes strings, with up to three odd lines among them."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["p1", "p2", " p2 ", "p#1", 'p"1']), st.integers(1, 9),
                  st.sampled_from(["1", "2", " 3 ", "+4"]),
                  st.sampled_from(["pos", "neg", "sample", "empty", " NEG "]),
                  st.sampled_from(["1", "-2.5", "1e-300", "7"]), st.booleans(), st.booleans()),
        unique_by=lambda r: (r[0].strip(), r[1], int(r[2])), max_size=10))
    lines = []
    for plate_id, row, col, role, value, quote_strings, space_before_id in rows:
        if quote_strings:
            plate_id, role = (" " if space_before_id else "") + _quoted(plate_id), _quoted(role)
        lines.append(",".join([plate_id, str(row), col, role, "" if "empty" in role else value]))
    for odd in draw(st.lists(st.sampled_from(_C_ODD_LINES), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


def _c_reader_outcome(source):
    return outcome(lambda s: [(p.plate_id, [(w.row, w.col, w.role.value, w.value)
                                            for w in p.wells]) for p in load_plate_csv(s)],
                   source)


@settings(max_examples=300, deadline=None)
@given(_c_lines(), st.sampled_from(["\n", "\r\n", "\r"]),
       st.sampled_from([1, 2, 3, 5, plate_module.CHUNK_ROWS]))
def test_c_reader_gives_the_row_by_row_plates_or_error(lines, line_end, chunk_rows):
    """R-quoted fields, odd whitespace, quotes and line ends, empty wells and numbers numpy
    rejects give what the row-by-row oracle gives, through every kind of source."""
    text = HEADER + "".join(line + line_end for line in lines)
    expected = outcome(load_row_by_row, text)
    with mock.patch.object(plate_module, "CHUNK_ROWS", chunk_rows):
        assert _c_reader_outcome(io.StringIO(text)) == expected, text
        assert _c_reader_outcome(("\ufeff" + text).encode("utf-8")) == expected, text
        if line_end == "\r" and _OPEN_AT_END not in lines:
            # A file is read with universal newlines, where a lone CR ends a line
            # as "\n" does for the oracle (an open quoted field would keep the CR).
            same_lines = HEADER + "".join(line + "\n" for line in lines)
            assert (_c_reader_outcome(io.StringIO(text, newline=""))
                    == outcome(load_row_by_row, same_lines)), text


def test_a_quoted_line_break_across_a_chunk_boundary():
    rows = valid_rows(3)
    text = HEADER + f'{rows[0]}\n"p\n1",9,9,pos,1\n{rows[1]}\n{rows[2]}\n'
    for chunk_rows in (1, 2, 3):
        assert_same_as_row_by_row(text, chunk_rows)
    with mock.patch.object(plate_module, "CHUNK_ROWS", 2):
        p1, p_1 = load_text(text)
    assert p_1.plate_id == "p\n1" and p_1.line_no.tolist() == [4]  # a row ends on its last line
    assert p1.line_no.tolist() == [2, 5, 6]


def _bench_layout(n_plates):
    """Rows of 32 x 48 plates as the benchmark writes them: controls in two columns each."""
    rng = np.random.default_rng(0)
    return [f"plate{p:02d},{r},{c},{'neg' if c < 3 else 'pos' if c < 5 else 'sample'},"
            f"{rng.normal()!r}" for p in range(n_plates) for c in range(1, 49)
            for r in range(1, 33)]


@pytest.mark.parametrize("chunk_rows", [512, plate_module.CHUNK_ROWS])
@pytest.mark.parametrize("rows", [
    _bench_layout(2),
    [",".join([_quoted("p1"), str(r), str(c), _quoted("sample"), f"{r * c}.5"])
     for r in range(1, 33) for c in range(1, 49)],
    [f"p1,{r},{c},{'empty' if c % 4 == 0 else 'sample'},{'' if c % 4 == 0 else c / 8}"
     for r in range(1, 33) for c in range(1, 49)],
    # Row by row, as R's write.csv writes a plate whose controls sit in every few columns.
    [",".join([_quoted(f"plate{p}"), str(r), str(c),
               _quoted("neg" if c % 6 == 1 else "pos" if c % 6 == 4 else "sample"),
               f"{(r * 48 + c) / 7:.15g}"])
     for p in range(2) for r in range(1, 33) for c in range(1, 49)],
], ids=["bench-layout", "R-quoted", "empty-wells", "row-major"])
def test_common_files_never_reach_the_python_parser(rows, chunk_rows):
    """Every chunk of these files is parsed by numpy's C reader, so none of them is slowed by
    a fall back that no output would show."""
    text = HEADER + "\n".join(rows) + "\n"
    with mock.patch.object(plate_module, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(plate_module, "_python_chunk",
                              side_effect=AssertionError("parsed by the Python fallback")):
        plates = load_as_tuples(text)
    assert plates == load_row_by_row(text)
    assert sum(len(wells) for _, wells in plates) == len(rows)


@pytest.fixture
def field_size_limit():
    """``csv.field_size_limit``, restored after the test."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


def test_a_line_over_the_csv_field_limit_reaches_the_python_parser(field_size_limit):
    rows = valid_rows(8)
    rows[5] = "p1,9,9,sample," + "1." + "0" * 20  # each field within the limit, the line not
    field_size_limit(32)
    text = HEADER + "\n".join(rows) + "\n"
    with mock.patch.object(plate_module, "_python_chunk",
                           wraps=plate_module._python_chunk) as python_chunk:
        assert_same_as_row_by_row(text)
    assert python_chunk.call_count == 1


def test_a_chunk_over_the_csv_field_limit_stays_on_the_c_reader(field_size_limit):
    rows = valid_rows(8)
    field_size_limit(max(map(len, rows)) + 1)
    text = HEADER + "\n".join(rows) + "\n"
    assert len(text) > 4 * csv.field_size_limit()
    with mock.patch.object(plate_module, "_python_chunk",
                           side_effect=AssertionError("parsed by the Python fallback")):
        assert_same_as_row_by_row(text)
