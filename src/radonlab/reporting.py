"""Versioned result tables: CSV and JSON serialization, diffs, plot data.

Everything written here is reproducible byte for byte: floats are
serialized with repr (shortest round-trip form), JSON keys are sorted,
CSV rows keep construction order, and files land via write-to-temp plus
rename so a crash never leaves a half-written table.  JSON is standard
JSON: a non-finite float is written as the string "NaN", "Infinity" or
"-Infinity", and `document_rows` reads a row's numbers back from them.
Wall-clock timing is deliberately excluded from the tables; the runner
stores it in a separate .meta.json sidecar.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf,
               "-Infinity": -math.inf}

CSV_COLUMNS = ("schema_version", "experiment", "case", "params",
               "observed", "reference", "ratio", "passed")


@dataclass(frozen=True)
class ResultRow:
    """One measurement: a case label, its parameters, and the numbers.

    `passed` is None for fitted or merely reported quantities.  It
    carries a bool only for exact-inequality checks with explicit
    constants, and those flags alone decide the process exit status.
    """

    experiment: str
    case: str
    params: dict = field(default_factory=dict)
    observed: float | None = None
    reference: float | None = None
    ratio: float | None = None
    passed: bool | None = None

    def key(self) -> tuple[str, str, str]:
        return (self.experiment, self.case, params_json(self.params))

    def record(self) -> dict:
        """Native-typed mapping, the JSON shape of the row."""
        return {"case": self.case,
                "params": dict(self.params),
                "observed": _as_float(self.observed),
                "reference": _as_float(self.reference),
                "ratio": _as_float(self.ratio),
                "passed": self.passed}


def params_json(params: dict) -> str:
    """Canonical one-line serialization of a parameter mapping."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _as_float(x):
    return None if x is None else float(x)


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _fmt_flag(flag) -> str:
    if flag is None:
        return ""
    return "true" if flag else "false"


def atomic_write_bytes(path, data: bytes) -> Path:
    """Write via a sibling temp file and rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(rows, path) -> Path:
    """RFC 4180 table, CRLF line endings, minimal quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n",
                        quoting=csv.QUOTE_MINIMAL)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([str(SCHEMA_VERSION), row.experiment, row.case,
                         params_json(row.params), _fmt(row.observed),
                         _fmt(row.reference), _fmt(row.ratio),
                         _fmt_flag(row.passed)])
    return atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def read_csv(path) -> list[ResultRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for rec in reader:
            version = int(rec[0])
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"schema version mismatch in row {rec[1]}/{rec[2]} "
                    f"{rec[3]}: got {version}, expected {SCHEMA_VERSION}")
            rows.append(ResultRow(
                experiment=rec[1], case=rec[2], params=json.loads(rec[3]),
                observed=float(rec[4]) if rec[4] else None,
                reference=float(rec[5]) if rec[5] else None,
                ratio=float(rec[6]) if rec[6] else None,
                passed=None if rec[7] == "" else rec[7] == "true"))
    return rows


def make_document(experiment: str, rows, meta: dict | None = None) -> dict:
    """The JSON mirror of a result table (plus deterministic metadata)."""
    return {"schema_version": SCHEMA_VERSION,
            "experiment": experiment,
            "meta": dict(meta or {}),
            "rows": [row.record() for row in rows]}


def _spelled(obj):
    """obj with each non-finite float, at any depth, as its string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, dict):
        return {key: _spelled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spelled(value) for value in obj]
    return obj


def json_text(obj) -> str:
    """Standard JSON, keys sorted, indented by 2, non-finite floats as
    strings."""
    return json.dumps(_spelled(obj), sort_keys=True, indent=2,
                      allow_nan=False)


def write_json(document: dict, path) -> Path:
    return atomic_write_text(path, json_text(document) + "\n")


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def document_rows(document: dict) -> list[ResultRow]:
    version = document.get("schema_version")
    experiment = document.get("experiment", "?")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema version mismatch in document "
                         f"{experiment}: got {version}, "
                         f"expected {SCHEMA_VERSION}")
    rows = []
    for rec in document["rows"]:
        where = f"row {experiment}/{rec.get('case')}"
        extra = set(rec) - {"case", "params", "observed", "reference",
                            "ratio", "passed"}
        missing = {"case", "params"} - set(rec)
        if extra or missing:
            raise ValueError(
                f"schema mismatch in {where}: "
                f"unexpected fields {sorted(extra)}, "
                f"missing {sorted(missing)}")
        numbers = {}
        for key in ("observed", "reference", "ratio"):
            value = rec.get(key)
            if isinstance(value, str):
                if value not in _NON_FINITE:
                    raise ValueError(f"{where}: {key} {value!r} is not "
                                     f"a number")
                value = _NON_FINITE[value]
            numbers[key] = value
        rows.append(ResultRow(experiment=experiment, case=rec["case"],
                              params=rec["params"], **numbers,
                              passed=rec.get("passed")))
    return rows


# -- run-over-run comparison -------------------------------------------------------


def compare_runs(previous, current, drift_tolerance: float = 0.05) -> dict:
    """Diff two result sets (documents or row lists).

    Fitted/observed values drifting by more than `drift_tolerance`
    (relative) are flagged, as is any change between a finite value and
    NaN, an infinity or None (its relative change is None), and any flip
    of an exact pass flag.  NaN against NaN is no change.  Rows appearing
    only on one side are listed.  Identical runs give {"identical": True}
    with empty lists.
    """
    prev = _ensure_rows(previous)
    curr = _ensure_rows(current)
    prev_map = {r.key(): r for r in prev}
    curr_map = {r.key(): r for r in curr}
    added = sorted(k for k in curr_map if k not in prev_map)
    removed = sorted(k for k in prev_map if k not in curr_map)
    drift, flips = [], []
    for k in sorted(set(prev_map) & set(curr_map)):
        a, b = prev_map[k], curr_map[k]
        rel = _relative_change(a.observed, b.observed)
        if rel is None or rel > drift_tolerance:
            drift.append({"row": _key_label(k), "previous": a.observed,
                          "current": b.observed, "relative_change": rel})
        if a.passed != b.passed and (a.passed is not None
                                     or b.passed is not None):
            flips.append({"row": _key_label(k),
                          "previous": a.passed, "current": b.passed})
    identical = not (added or removed or drift or flips)
    return {"identical": identical,
            "added": [_key_label(k) for k in added],
            "removed": [_key_label(k) for k in removed],
            "drift": drift,
            "flips": flips,
            "drift_tolerance": drift_tolerance}


def _relative_change(x, y) -> float | None:
    """|x - y| / max(|x|, |y|) between finite values; otherwise 0 for the
    same value (NaN and NaN included) and None for any change."""
    if x is None or y is None or not (math.isfinite(x)
                                      and math.isfinite(y)):
        # NaN is the one value unequal to itself.
        return 0.0 if x == y or (x != x and y != y) else None
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _ensure_rows(obj) -> list[ResultRow]:
    if isinstance(obj, dict):
        return document_rows(obj)
    return list(obj)


def _key_label(key: tuple[str, str, str]) -> str:
    experiment, case, params = key
    return f"{experiment}/{case} {params}"


def render_comparison(diff: dict) -> str:
    """Markdown rendering of a compare_runs result."""
    lines = ["# run comparison", ""]
    if diff["identical"]:
        lines.append("No differences.")
        return "\n".join(lines) + "\n"
    if diff["flips"]:
        lines.append("## pass-flag flips")
        lines.append("")
        for f in diff["flips"]:
            lines.append(f"- {f['row']}: {_fmt_flag(f['previous'])} -> "
                         f"{_fmt_flag(f['current'])}")
        lines.append("")
    if diff["drift"]:
        tol = diff["drift_tolerance"]
        lines.append(f"## observed-value drift beyond {tol:.0%}")
        lines.append("")
        for d in diff["drift"]:
            rel = d["relative_change"]
            change = "not comparable" if rel is None else f"{rel:.2%}"
            lines.append(f"- {d['row']}: {d['previous']!r} -> "
                         f"{d['current']!r} ({change})")
        lines.append("")
    if diff["added"]:
        lines.append("## added rows")
        lines.append("")
        lines.extend(f"- {k}" for k in diff["added"])
        lines.append("")
    if diff["removed"]:
        lines.append("## removed rows")
        lines.append("")
        lines.extend(f"- {k}" for k in diff["removed"])
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# -- plot data ---------------------------------------------------------------------


def emit_plotdata(rows, figures, out_dir, stem: str) -> list[Path]:
    """Whitespace-delimited .dat files plus a JSON manifest.

    Each figure is a mapping with keys `name`, `case` (row filter; None
    keeps all rows), `x`/`y`/optional `yref` column selectors
    ("observed", "reference", "ratio", or "params:<key>"), axis labels,
    and `xscale`/`yscale` hints.  Figures whose selection is empty are
    skipped with a warning; an entirely empty result set writes nothing.
    """
    out_dir = Path(out_dir)
    rows = _ensure_rows(rows)
    written: list[Path] = []
    manifest_figures = []
    for fig in figures:
        selected = [r for r in rows
                    if fig.get("case") is None or r.case == fig["case"]]
        points = []
        for r in selected:
            x = _column(r, fig["x"])
            y = _column(r, fig["y"])
            yref = _column(r, fig["yref"]) if fig.get("yref") else None
            if x is None or y is None:
                continue
            points.append((x, y, yref))
        if not points:
            warnings.warn(f"figure {fig['name']!r}: empty selection, "
                          "no data file written", stacklevel=2)
            continue
        columns = [fig["x"], fig["y"]]
        if fig.get("yref"):
            columns.append(fig["yref"])
        lines = ["# " + " ".join(columns)]
        for x, y, yref in points:
            cells = [repr(float(x)), repr(float(y))]
            if fig.get("yref"):
                cells.append("" if yref is None else repr(float(yref)))
            lines.append(" ".join(cells))
        dat = out_dir / f"{stem}-{fig['name']}.dat"
        atomic_write_text(dat, "\n".join(lines) + "\n")
        written.append(dat)
        manifest_figures.append({
            "name": fig["name"], "file": dat.name, "columns": columns,
            "xlabel": fig.get("xlabel", fig["x"]),
            "ylabel": fig.get("ylabel", fig["y"]),
            "xscale": fig.get("xscale", "linear"),
            "yscale": fig.get("yscale", "linear"),
            "reference": fig.get("reference")})
    if manifest_figures:
        manifest = out_dir / f"{stem}.plots.json"
        write_json({"schema_version": SCHEMA_VERSION, "stem": stem,
                    "figures": manifest_figures}, manifest)
        written.append(manifest)
    elif figures:
        warnings.warn("no figures produced data; manifest not written",
                      stacklevel=2)
    return written


def _column(row: ResultRow, selector: str):
    if selector.startswith("params:"):
        return row.params.get(selector[len("params:"):])
    if selector in ("observed", "reference", "ratio"):
        return getattr(row, selector)
    raise ValueError(f"unknown column selector {selector!r}")
