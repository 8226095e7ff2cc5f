"""Dataset container and the strict CSV/JSON file formats."""

import dataclasses
import json
import os
import stat

import numpy as np
import pytest

from paircorr.correlation import correlation_curve
from paircorr.data import (
    Dataset,
    _atomic_write,
    load_dataset,
    save_curve,
    save_dataset,
    save_fit_result,
)
from paircorr.errors import DataFormatError
from paircorr.fitting import FitResult

POINTS = Dataset(
    delta_p=(0.2, 0.5, 0.9, 1.4),
    r=(-0.3, 0.1, 0.25, 0.05),
    sigma_r=(0.05, 0.04, 0.06, 0.05),
    label="test system",
)


def test_roundtrip_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    save_dataset(first, POINTS)
    loaded = load_dataset(first)
    assert loaded == POINTS
    save_dataset(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def test_roundtrip_keeps_a_label_of_several_lines(tmp_path):
    # each line of the label is its own comment line; a bare second line
    # was read as a malformed header
    labelled = Dataset(POINTS.delta_p, POINTS.r, POINTS.sigma_r, label="He run 1\nbeam 2 keV")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(first, labelled)
    assert first.read_text().startswith("# He run 1\n# beam 2 keV\ndelta_p,R,sigma_R\n")
    loaded = load_dataset(first)
    assert loaded == labelled
    save_dataset(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    # the label splits at "\n" alone: a trailing newline and the
    # characters that str.splitlines also takes for line ends survive
    odd_ends = ("a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b")
    for label in ("He\n", "\n", "a\n\n", *odd_ends):
        labelled = dataclasses.replace(POINTS, label=label)
        save_dataset(first, labelled)
        assert load_dataset(first) == labelled, repr(label)
        save_dataset(second, load_dataset(first))
        assert first.read_bytes() == second.read_bytes(), repr(label)


def test_save_refuses_a_label_with_a_carriage_return(tmp_path):
    # a text-mode reader ends a line at "\r", so the file would not load
    path = tmp_path / "a.csv"
    for label in ("a\rb", "a\r\nb", "a\r"):
        with pytest.raises(ValueError, match="label"):
            save_dataset(path, dataclasses.replace(POINTS, label=label))
    assert not path.exists()


def test_load_reads_the_saved_label(tmp_path):
    # the comment lines before the header are the label, blank and
    # indented lines included; comments after the header are not
    path = tmp_path / "a.csv"
    for label in ("", "He 2 keV", "a\nb", "a\n\nb", "  indented"):
        dataset = Dataset(POINTS.delta_p, POINTS.r, POINTS.sigma_r, label=label)
        save_dataset(path, dataset)
        assert load_dataset(path) == dataset, label
    path.write_text("#bare\n#\ndelta_p,R\n# interior note\n0.5,0.1\n")
    assert load_dataset(path).label == "bare\n"


def test_roundtrip_without_uncertainties(tmp_path):
    ds = Dataset(delta_p=(0.1, 0.2), r=(0.0, 0.5))
    path = tmp_path / "plain.csv"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert loaded.sigma_r is None
    assert loaded.delta_p == ds.delta_p and loaded.r == ds.r
    np.testing.assert_array_equal(loaded.weights(), np.ones(2))


def test_points_are_sorted_by_delta_p():
    ds = Dataset(delta_p=(0.9, 0.2, 0.5), r=(3.0, 1.0, 2.0), sigma_r=(0.3, 0.1, 0.2))
    assert ds.delta_p == (0.2, 0.5, 0.9)
    assert ds.r == (1.0, 2.0, 3.0)
    assert ds.sigma_r == (0.1, 0.2, 0.3)


def test_weights_are_inverse_variance():
    np.testing.assert_allclose(
        POINTS.weights(), 1.0 / np.asarray(POINTS.sigma_r) ** 2, rtol=1e-15
    )


def test_dataset_validation():
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.0, 0.5), r=(0.1, 0.2))  # dp must be > 0
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.5, 0.5), r=(0.1, 0.2))  # duplicates
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.5, np.nan), r=(0.1, 0.2))
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.5, 0.7), r=(0.1,))
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.5, 0.7), r=(0.1, 0.2), sigma_r=(0.1,))
    with pytest.raises(DataFormatError):
        Dataset(delta_p=(0.5, 0.7), r=(0.1, 0.2), sigma_r=(0.1, 0.0))


def test_below_minus_one_only_warns():
    with pytest.warns(UserWarning, match="below -1"):
        ds = Dataset(delta_p=(0.2, 0.5), r=(-1.2, 0.1))
    assert ds.r == (-1.2, 0.1)


def test_load_reports_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("# comment\ndp,R\n0.5,0.1\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(bad_header)
    assert excinfo.value.line == 2

    bad_field = tmp_path / "f.csv"
    bad_field.write_text("delta_p,R\n0.5,0.1\n0.7,oops\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(bad_field)
    assert excinfo.value.line == 3
    assert "non-numeric" in str(excinfo.value)

    short_row = tmp_path / "s.csv"
    short_row.write_text("delta_p,R,sigma_R\n0.5,0.1,0.05\n0.7,0.2\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(short_row)
    assert excinfo.value.line == 3

    # values that parse but are out of range are caught on their row too
    for name, row in (
        ("nan.csv", "0.7,nan,0.05"),
        ("inf.csv", "0.7,0.2,inf"),
        ("neg.csv", "-0.7,0.2,0.05"),
        ("zero.csv", "0.0,0.2,0.05"),
        ("sig.csv", "0.7,0.2,0.0"),
    ):
        out_of_range = tmp_path / name
        out_of_range.write_text(f"delta_p,R,sigma_R\n# note\n0.5,0.1,0.05\n{row}\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_dataset(out_of_range)
        assert excinfo.value.line == 4, name

    empty = tmp_path / "e.csv"
    empty.write_text("# nothing here\n\n")
    with pytest.raises(DataFormatError, match="no header"):
        load_dataset(empty)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# digitized points\n\ndelta_p,R\n# interior note\n0.5,0.1\n\n0.7,0.2\n")
    ds = load_dataset(path)
    assert ds.delta_p == (0.5, 0.7)


def test_load_reads_past_a_byte_order_mark(tmp_path):
    # spreadsheet exports often start with a UTF-8 byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_dataset(plain, POINTS)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_dataset(marked) == load_dataset(plain) == POINTS
    assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")  # writers add none


def test_duplicate_delta_p_names_the_file(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("delta_p,R\n0.5,0.1\n0.5,0.2\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert "duplicate delta_p" in str(excinfo.value)


def test_atomic_write_cleans_up_on_failure(tmp_path):
    # replacing a directory fails; the temp file must not be left behind
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        _atomic_write(target, "text\n")
    assert target.is_dir()
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_applies_the_umask(tmp_path):
    # a new file and an overwritten one get 0o666 less the umask, as
    # open() gives; a mkstemp temp file kept its 0o600
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("old\n")
    old.chmod(0o644)
    mask = os.umask(0o022)
    try:
        for path in (new, old):
            _atomic_write(path, "text\n")
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
    finally:
        os.umask(mask)


def test_save_curve_formats(tmp_path):
    curve = correlation_curve(np.linspace(0.1, 2.0, 5), 0.5, 0.25, 0.3)
    csv_path = tmp_path / "curve.csv"
    save_curve(csv_path, curve, fmt="csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "delta_p,R"
    assert len(lines) == 6
    first_dp, first_r = (float(part) for part in lines[1].split(","))
    assert first_dp == 0.1 and first_r == float(curve.r[0])

    json_path = tmp_path / "curve.json"
    save_curve(json_path, curve, fmt="json")
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"sigma", "f", "p_tilde", "delta_p", "r"}
    assert payload["sigma"] == 0.5
    assert payload["r"] == [float(v) for v in curve.r]

    with pytest.raises(ValueError):
        save_curve(tmp_path / "curve.xml", curve, fmt="xml")


def test_save_fit_result_key_set(tmp_path):
    result = FitResult(
        sigma=0.42,
        f=0.5,
        p_tilde=0.1,
        estimates={"sigma": 0.42},
        approx_error_pct=12.5,
        residuals=(0.01, -0.02),
        converged=True,
        iterations=17,
        objective=3.4e-4,
        objective_trace=(1.0, 3.4e-4),
        start_index=2,
        model_calls=40,
    )
    path = tmp_path / "fit.json"
    save_fit_result(path, result)
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "sigma",
        "f",
        "p_tilde",
        "approx_error_pct",
        "converged",
        "residuals",
    }
    assert payload["sigma"] == 0.42
    assert payload["converged"] is True
    assert payload["residuals"] == [0.01, -0.02]


def test_writers_leave_no_temp_files(tmp_path):
    save_dataset(tmp_path / "out.csv", POINTS)
    curve = correlation_curve(np.linspace(0.1, 1.0, 3), 0.5, 0.0, 0.0)
    save_curve(tmp_path / "out.json", curve, fmt="json")
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json"]
