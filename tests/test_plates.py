import io

import pytest

from assayqc import (
    DuplicateWell,
    MalformedRow,
    NonFiniteValue,
    Plate,
    UnknownRole,
    Well,
    WellRole,
    load_plate_csv,
)
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
        assert [w.address for w in plate.sample_wells()] == ["R1C3"]

    def test_transformed_applies_only_to_values(self):
        plate = self.make().transformed(lambda v: v * 2)
        assert plate.wells[2].value == 20.0
        assert plate.wells[-1].value is None

    def test_duplicate_addresses_rejected_at_construction(self):
        with pytest.raises(DuplicateWell):
            Plate("p", [Well(1, 1, WellRole.SAMPLE, 1.0), Well(1, 1, WellRole.SAMPLE, 2.0)])

    def test_add_rejects_a_taken_address(self):
        plate = self.make()
        plate.add(Well(3, 1, WellRole.SAMPLE, 1.0))
        with pytest.raises(DuplicateWell, match="R3C1"):
            plate.add(Well(3, 1, WellRole.NEGATIVE, 2.0))
        assert len(plate.wells) == 7

    def test_well_validation(self):
        with pytest.raises(MalformedRow):
            Well(0, 1, WellRole.SAMPLE, 1.0)
        with pytest.raises(NonFiniteValue):
            Well(1, 1, WellRole.SAMPLE, float("nan"))
        with pytest.raises(NonFiniteValue):
            Well(1, 1, WellRole.SAMPLE, None)


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
