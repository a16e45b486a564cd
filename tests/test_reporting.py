import json
import math

import pytest

from radonlab import cli
from radonlab.reporting import (CSV_COLUMNS, ResultRow, atomic_write_text,
                                compare_runs, document_rows, emit_plotdata,
                                make_document, params_json, read_csv,
                                read_json, render_comparison, write_csv,
                                write_json)


def sample_rows():
    return [
        ResultRow("demo", "fit", {"q": 3, "tag": "a,b"}, 0.1),
        ResultRow("demo", "check", {"q": 5}, 1.5, 2.0, 0.75, True),
        ResultRow("demo", "check", {"q": 7}, 2.5, 2.0, 1.25, False),
    ]


# -- CSV round trips ----------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rows = sample_rows()
    path = write_csv(rows, tmp_path / "demo.csv")
    assert read_csv(path) == rows


def test_csv_uses_crlf_and_quote_doubling(tmp_path):
    raw = write_csv(sample_rows(), tmp_path / "demo.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert raw.endswith(b"\r\n")
    assert b"\n" not in raw.replace(b"\r\n", b"")
    assert lines[0] == ",".join(CSV_COLUMNS).encode()
    # params JSON holds commas and quotes, so it must arrive quoted with
    # the quotes doubled.
    assert b'"{""q"":3,""tag"":""a,b""}"' in lines[1]


def test_csv_floats_survive_exactly(tmp_path):
    rows = [ResultRow("demo", "v", {}, 0.1, 1.0 / 3.0, 1e-300, None)]
    back = read_csv(write_csv(rows, tmp_path / "f.csv"))[0]
    assert back.observed == 0.1
    assert back.reference == 1.0 / 3.0
    assert back.ratio == 1e-300


def test_csv_stamps_every_row_with_schema_version(tmp_path):
    raw = write_csv(sample_rows(), tmp_path / "demo.csv").read_bytes()
    body = raw.decode().split("\r\n")[1:-1]
    assert body and all(line.startswith("1,") for line in body)


def test_read_csv_rejects_wrong_version(tmp_path):
    path = write_csv(sample_rows(), tmp_path / "demo.csv")
    text = path.read_text().replace('1,demo,fit', '2,demo,fit')
    path.write_text(text)
    with pytest.raises(ValueError, match="demo/fit.*got 2"):
        read_csv(path)


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("a,b,c\r\n1,2,3\r\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path)


# -- JSON documents -----------------------------------------------------------

def test_json_document_round_trip(tmp_path):
    rows = sample_rows()
    doc = make_document("demo", rows, meta={"seed": 7})
    path = write_json(doc, tmp_path / "demo.json")
    loaded = read_json(path)
    assert loaded["meta"] == {"seed": 7}
    assert document_rows(loaded) == rows


def test_json_is_sorted_and_newline_terminated(tmp_path):
    text = write_json(make_document("demo", sample_rows()),
                      tmp_path / "demo.json").read_text()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              indent=2) + "\n"


def _no_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def test_json_is_standard_and_round_trips_non_finite(tmp_path, capsys):
    # NaN and the infinities are written as strings, which document_rows
    # reads back, so the drift rules still see the non-finite values.
    nan_row = ResultRow("demo", "fit", {}, math.nan, math.inf, -math.inf)
    doc = make_document("demo", [nan_row], meta={"worst": [math.inf]})
    path = write_json(doc, tmp_path / "nan.json")
    loaded = json.loads(path.read_text(), parse_constant=_no_constant)
    assert loaded["meta"] == {"worst": ["Infinity"]}
    row, = document_rows(loaded)
    assert math.isnan(row.observed)
    assert (row.reference, row.ratio) == (math.inf, -math.inf)
    assert compare_runs(loaded, loaded)["identical"]
    finite = write_json(make_document("demo", [ResultRow("demo", "fit", {},
                                                         1.0)]),
                        tmp_path / "one.json")
    assert cli.main(["report", str(finite), str(path),
                     "--format", "json"]) == 0
    diff = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert diff["drift"] == [{"row": "demo/fit {}", "previous": 1.0,
                              "current": "NaN", "relative_change": None}]
    doc["rows"][0]["observed"] = "nan"
    with pytest.raises(ValueError, match="demo/fit: observed 'nan'"):
        document_rows(doc)


def test_document_rows_rejects_wrong_version():
    doc = make_document("demo", sample_rows())
    doc["schema_version"] = 99
    with pytest.raises(ValueError, match="got 99"):
        document_rows(doc)


def test_document_rows_rejects_odd_fields():
    doc = make_document("demo", sample_rows())
    doc["rows"][1]["wall_time"] = 0.2
    with pytest.raises(ValueError, match="demo/check.*wall_time"):
        document_rows(doc)
    del doc["rows"][1]["wall_time"]
    del doc["rows"][1]["params"]
    with pytest.raises(ValueError, match="missing.*params"):
        document_rows(doc)


def test_params_json_is_order_independent():
    assert params_json({"b": 2, "a": 1}) == params_json({"a": 1, "b": 2})
    assert params_json({"a": 1, "b": 2}) == '{"a":1,"b":2}'


# -- atomic writes ------------------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    atomic_write_text(tmp_path / "out.txt", "stable")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"


# -- run comparison -----------------------------------------------------------

def test_compare_runs_identical():
    diff = compare_runs(sample_rows(), sample_rows())
    assert diff["identical"]
    assert diff["added"] == diff["removed"] == []
    assert diff["drift"] == diff["flips"] == []


def test_compare_runs_flags_drift_beyond_tolerance():
    base = [ResultRow("demo", "fit", {}, 1.00)]
    near = [ResultRow("demo", "fit", {}, 1.02)]
    far = [ResultRow("demo", "fit", {}, 1.20)]
    assert compare_runs(base, near)["identical"]
    diff = compare_runs(base, far)
    assert not diff["identical"]
    assert diff["drift"][0]["previous"] == 1.0
    assert diff["drift"][0]["current"] == 1.2
    assert compare_runs(base, far, drift_tolerance=0.5)["identical"]


@pytest.mark.parametrize("before, after", [
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, None),
    (None, 2.0), (math.nan, 1.0), (math.inf, -math.inf), (math.nan, None)])
def test_compare_runs_flags_changes_to_and_from_non_finite(before, after):
    diff = compare_runs([ResultRow("demo", "fit", {}, before)],
                        [ResultRow("demo", "fit", {}, after)],
                        drift_tolerance=10.0)
    assert not diff["identical"]
    change, = diff["drift"]
    assert change["relative_change"] is None
    assert json.loads(json.dumps(diff))["drift"][0]["relative_change"] \
        is None
    text = render_comparison(diff)
    assert f"{before!r} -> {after!r} (not comparable)" in text


@pytest.mark.parametrize("value", [math.nan, math.inf, None, 0.0])
def test_compare_runs_same_non_finite_value_is_no_change(value):
    rows = [ResultRow("demo", "fit", {}, value)]
    assert compare_runs(rows, rows, drift_tolerance=0.0)["identical"]


def test_compare_runs_flags_pass_flips():
    before = [ResultRow("demo", "check", {}, 1.0, 2.0, 0.5, True),
              ResultRow("demo", "fit", {}, 1.0)]
    after = [ResultRow("demo", "check", {}, 1.0, 2.0, 0.5, False),
             ResultRow("demo", "fit", {}, 1.0)]
    diff = compare_runs(before, after)
    assert len(diff["flips"]) == 1
    assert diff["flips"][0]["previous"] is True
    assert diff["flips"][0]["current"] is False
    # None on both sides is no flip; None to bool is one.
    fit_none = [ResultRow("demo", "fit", {}, 1.0)]
    fit_false = [ResultRow("demo", "fit", {}, 1.0, None, None, False)]
    assert compare_runs(fit_none, fit_none)["flips"] == []
    assert len(compare_runs(fit_none, fit_false)["flips"]) == 1


def test_compare_runs_lists_added_and_removed():
    diff = compare_runs(sample_rows()[:2], sample_rows()[1:])
    assert any('"q":7' in k for k in diff["added"])
    assert any('"q":3' in k for k in diff["removed"])


def test_compare_runs_accepts_documents():
    doc = make_document("demo", sample_rows())
    assert compare_runs(doc, doc)["identical"]


def test_render_comparison_identical():
    text = render_comparison(compare_runs(sample_rows(), sample_rows()))
    assert "No differences." in text


def test_render_comparison_sections():
    before = [ResultRow("demo", "check", {}, 1.0, 2.0, None, True),
              ResultRow("demo", "fit", {}, 1.0)]
    after = [ResultRow("demo", "check", {}, 1.0, 2.0, None, False),
             ResultRow("demo", "fit", {}, 2.0)]
    text = render_comparison(compare_runs(before, after))
    assert "pass-flag flips" in text
    assert "true -> false" in text
    assert "drift" in text


# -- plot data ----------------------------------------------------------------

def plot_rows():
    return [ResultRow("demo", "scan", {"q": q}, math.sqrt(q), float(q))
            for q in (2, 3, 5)]


def test_emit_plotdata_writes_dat_and_manifest(tmp_path):
    figures = [{"name": "decay", "case": "scan", "x": "params:q",
                "y": "observed", "yref": "reference",
                "xlabel": "q", "ylabel": "max |G|",
                "xscale": "log", "yscale": "log",
                "reference": "q^(1/2)"}]
    written = emit_plotdata(plot_rows(), figures, tmp_path, "demo")
    dat = tmp_path / "demo-decay.dat"
    manifest = tmp_path / "demo.plots.json"
    assert set(written) == {dat, manifest}
    lines = dat.read_text().splitlines()
    assert lines[0] == "# params:q observed reference"
    assert lines[1].split() == ["2.0", repr(math.sqrt(2)), "2.0"]
    spec = read_json(manifest)["figures"][0]
    assert spec["file"] == "demo-decay.dat"
    assert spec["xscale"] == "log"
    assert spec["reference"] == "q^(1/2)"


def test_emit_plotdata_skips_empty_selection(tmp_path):
    figures = [{"name": "ghost", "case": "nothing",
                "x": "params:q", "y": "observed"}]
    with pytest.warns(UserWarning) as caught:
        written = emit_plotdata(plot_rows(), figures, tmp_path, "demo")
    messages = [str(w.message) for w in caught]
    assert any("empty selection" in m for m in messages)
    assert any("manifest not written" in m for m in messages)
    assert written == []
    assert list(tmp_path.iterdir()) == []


def test_emit_plotdata_rejects_unknown_selector(tmp_path):
    figures = [{"name": "bad", "case": "scan",
                "x": "params:q", "y": "elapsed"}]
    with pytest.raises(ValueError, match="elapsed"):
        emit_plotdata(plot_rows(), figures, tmp_path, "demo")
