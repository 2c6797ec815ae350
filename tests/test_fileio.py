"""Tests for the correspondence file format and bench CSV records."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustfit.exceptions import InvalidInputError, ParseError
from robustfit.fileio import (
    BenchRecord,
    CSV_HEADER,
    correspondences_to_text,
    csv_safe,
    parse_correspondences,
    parse_correspondences_text,
    parse_records,
    parse_records_text,
    records_to_csv,
    write_correspondences,
)
from robustfit.geometry import FUNDAMENTAL, HOMOGRAPHY
from robustfit.ransac import LO_METHODS
from robustfit.synth import SynthConfig, synth_homography


def test_minimal_unlabeled_file():
    text = (
        "# robustfit v1 homography 640 480\n"
        "1 2 3 4\n"
        "5 6 7 8\n"
        "9 10 11 12\n"
        "13 14 15 16\n"
    )
    data = parse_correspondences_text(text)
    assert data.problem == HOMOGRAPHY
    assert data.image_size == (640, 480)
    assert data.n == 4
    assert data.labels is None
    np.testing.assert_array_equal(data.x1[1], [5.0, 6.0])
    with pytest.raises(InvalidInputError):
        data.validation_mask()


def test_labeled_file_validation_set():
    text = "# robustfit v1 fundamental 800 600\n1 2 3 4 1\n5 6 7 8 0\n9 10 11 12 1\n"
    data = parse_correspondences_text(text)
    assert data.labels.tolist() == [True, False, True]
    assert int(np.count_nonzero(data.validation_mask())) == 2


def test_round_trip_bit_identical(tmp_path):
    ds = synth_homography(SynthConfig(HOMOGRAPHY, n_inliers=30, n_outliers=20, noise_sigma=1.0, seed=0))
    path = tmp_path / "ds.rf"
    write_correspondences(path, HOMOGRAPHY, ds.image_size, ds.x1, ds.x2, ds.labels)
    first = path.read_text()
    parsed = parse_correspondences(path)
    again = correspondences_to_text(
        parsed.problem, parsed.image_size, parsed.x1, parsed.x2, parsed.labels
    )
    assert again == first  # 9-significant-digit decimals survive a parse/format cycle


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_correspondences_text("# wrongmagic v1 homography 640 480\n1 2 3 4\n")
    assert e.value.line_no == 1

    with pytest.raises(ParseError) as e:
        parse_correspondences_text("# robustfit v1 homography 640 480\n1 2 3\n")
    assert e.value.line_no == 2

    with pytest.raises(ParseError) as e:
        parse_correspondences_text("# robustfit v1 homography 640 480\n1 2 3 4 1\n5 6 7 8\n")
    assert e.value.line_no == 3

    with pytest.raises(ParseError) as e:
        parse_correspondences_text("# robustfit v1 homography 640 480\n1 2 x 4\n")
    assert e.value.line_no == 2

    with pytest.raises(ParseError):
        parse_correspondences_text("# robustfit v1 essential 640 480\n1 2 3 4\n")


def _sample_records():
    return [
        BenchRecord("ds", "dpcp", 0.0025, t, 1000 + t, 0.5 + 0.01 * t, 80, 47, 3, 12.5)
        for t in range(5)
    ] + [
        BenchRecord("ds", "none", 0.0025, t, 1000 + t, 1.5 + 0.02 * t, 70, 47, 0, 2.5)
        for t in range(5)
    ]


def test_csv_round_trip():
    records = _sample_records()
    text = records_to_csv(records)
    assert text.splitlines()[0] == CSV_HEADER
    parsed = parse_records_text(text)
    assert parsed == sorted(records, key=BenchRecord.sort_key)
    assert records_to_csv(parsed) == text


def test_csv_columns_are_pinned():
    """The header and a row's cells are fixed bytes, so a new BenchRecord
    field cannot change the format unseen."""
    assert CSV_HEADER == "dataset,method,sigma,trial,seed,error_px,inliers,iterations,lo_count,wall_ms"
    rec = BenchRecord("H160-40", "dpcp", 0.0025, 7, 2**63 + 5, 1.0 / 3.0, 151.0, 49.0, 2.0,
                      12.345678912)
    assert rec.to_csv_row() == "H160-40,dpcp,0.0025,7,9223372036854775813,0.333333333,151,49,2,12.3456789"
    with pytest.raises(ParseError, match="expected 10 columns, got 11"):
        parse_records_text(CSV_HEADER + "\n" + rec.to_csv_row() + ",0\n")


def test_csv_rejects_bad_header_and_rows():
    with pytest.raises(ParseError):
        parse_records_text("dataset,method\n")
    with pytest.raises(ParseError) as e:
        parse_records_text(CSV_HEADER + "\nds,dpcp,0.01,0,1,nope,1,2,3,4\n")
    assert e.value.line_no == 2
    # Blank lines are skipped but still counted: the bad record is on line 5.
    with pytest.raises(ParseError) as e:
        parse_records_text(CSV_HEADER + "\n\n\nds,dpcp,0.01,0,1,1,1,2,3,4\nds,dpcp\n")
    assert e.value.line_no == 5


def test_non_ascii_byte_is_a_parse_error_on_its_line(tmp_path):
    path = tmp_path / "bad.rf"
    path.write_bytes(b"# robustfit v1 homography 640 480\n1 2 3 4\n5 6 \xe9 8\n")
    with pytest.raises(ParseError) as e:
        parse_correspondences(path)
    assert e.value.line_no == 3
    path.write_bytes(CSV_HEADER.encode() + b"\n\xff\n")
    with pytest.raises(ParseError) as e:
        parse_records(path)
    assert e.value.line_no == 2


HEADER = "# robustfit v1 homography 640 480\n"
finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text().map(lambda body: HEADER + body)))
def test_correspondence_parser_raises_only_parse_error(text):
    try:
        parse_correspondences_text(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text().map(lambda body: CSV_HEADER + "\n" + body)))
def test_records_parser_raises_only_parse_error(text):
    try:
        parse_records_text(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    problem=st.sampled_from([FUNDAMENTAL, HOMOGRAPHY]),
    size=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
    points=st.lists(st.tuples(finite, finite, finite, finite, st.booleans()), max_size=20),
    labeled=st.booleans(),
)
def test_correspondence_write_parse_write_is_byte_identical(problem, size, points, labeled):
    pts = np.array([p[:4] for p in points], dtype=np.float64).reshape(-1, 4)
    labels = np.array([p[4] for p in points], dtype=bool) if labeled else None
    text = correspondences_to_text(problem, size, pts[:, :2], pts[:, 2:], labels)
    parsed = parse_correspondences_text(text)
    again = correspondences_to_text(
        parsed.problem, parsed.image_size, parsed.x1, parsed.x2, parsed.labels
    )
    assert again == text


# A dataset id is any ASCII text without a comma or a line break (csv_safe).
dataset_ids = st.text(st.characters(max_codepoint=127, exclude_characters=",")).filter(csv_safe)
records = st.builds(
    BenchRecord,
    dataset=dataset_ids,
    method=st.sampled_from(LO_METHODS),
    sigma=st.floats(allow_nan=False),
    trial=st.integers(0, 10**6),
    seed=st.integers(0, 2**64 - 1),
    error_px=st.floats(),
    inliers=st.floats(),
    iterations=st.floats(),
    lo_count=st.floats(),
    wall_ms=st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(records, max_size=20))
# Two sigmas that print alike: the rows must keep their order when re-sorted.
@example([BenchRecord("d", "dpcp", 0.1234567891, 1, 0, 0, 0, 0, 0, 0),
          BenchRecord("d", "dpcp", 0.1234567892, 0, 0, 0, 0, 0, 0, 0)])
def test_csv_write_parse_write_is_byte_identical(recs):
    text = records_to_csv(recs)
    assert records_to_csv(parse_records_text(text)) == text
