"""Persistence: binary mesh and lead-field files, geometry JSON, CSV, results.

All text artifacts are deterministic functions of their inputs (sorted
keys, repr-precision floats); the mesh and the lead field are stored as
raw little-endian arrays behind a magic header, each with a one-line
JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from importlib import resources
from pathlib import Path

import numpy as np

from .fem import LeadField
from .meshgen import ElectrodeLayout, FieldPointSet, HeadMesh, TargetSpec
from .metrics import MetricSet
from .optimizers import StimulusProblem
from .search import CandidateGrid, SearchOutcome

LEADFIELD_MAGIC = b"TESLF\x00\x00\x01"
MESH_MAGIC = b"TESMS\x00\x00\x01"
LATTICE_HEADERS = ("alpha_db", "weight_db", "gamma", "theta", "ad_deg",
                   "max_current_ma", "status")


class IoError(RuntimeError):
    pass


def _dump_json(data, path: Path, indent: int | None = 1) -> None:
    """Sorted-key JSON and a newline.

    Files only programs read (geometry, the lead-field sidecar) pass
    ``indent=None``: one line, written by the C encoder.  An indent, kept
    for the files people read, runs the pure-Python encoder.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=indent, sort_keys=True) + "\n")


def save_mesh(mesh: HeadMesh, path: str | Path) -> None:
    """Binary arrays plus a JSON sidecar with the counts and conductivities.

    After the magic and the ``<u4`` node and tet counts come the nodes
    (``<f8``), the tets and the labels (both ``<i8``); the sidecar is
    ``path`` with a ``.json`` suffix.
    """
    path = Path(path)
    if path.suffix == ".json":
        raise IoError("the mesh binary cannot take its sidecar's .json name")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MESH_MAGIC)
        fh.write(struct.pack("<II", mesh.n_nodes, mesh.n_tets))
        np.ascontiguousarray(mesh.nodes, dtype="<f8").tofile(fh)
        np.ascontiguousarray(mesh.tets, dtype="<i8").tofile(fh)
        np.ascontiguousarray(mesh.labels, dtype="<i8").tofile(fh)
    sidecar = {
        "n_nodes": mesh.n_nodes,
        "n_tets": mesh.n_tets,
        "conductivities": {str(k): v for k, v in mesh.conductivities.items()},
    }
    _dump_json(sidecar, path.with_suffix(".json"), indent=None)


def load_mesh(path: str | Path) -> HeadMesh:
    """The mesh ``save_mesh`` wrote to ``path``, checked against its sidecar."""
    path = Path(path)
    with open(path.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    if "nodes" in sidecar:
        raise IoError(f"{path.with_suffix('.json')} is an all-JSON mesh, which "
                      "is no longer read; re-run `tesopt mesh`")
    for fld in ("n_nodes", "n_tets", "conductivities"):
        if fld not in sidecar:
            raise IoError(f"mesh sidecar missing field '{fld}'")
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:8] != MESH_MAGIC:
            raise IoError("bad mesh magic; not a TESMS file")
        if len(header) < 16:
            raise IoError("mesh file is shorter than its header says")
        n_nodes, n_tets = struct.unpack("<II", header[8:])
        if (sidecar["n_nodes"], sidecar["n_tets"]) != (n_nodes, n_tets):
            raise IoError("sidecar field 'n_nodes'/'n_tets' disagrees with the "
                          "binary header")
        nodes = np.fromfile(fh, dtype="<f8", count=3 * n_nodes)
        tets = np.fromfile(fh, dtype="<i8", count=4 * n_tets)
        labels = np.fromfile(fh, dtype="<i8", count=n_tets)
    if (nodes.size, tets.size, labels.size) != (3 * n_nodes, 4 * n_tets, n_tets):
        raise IoError("mesh file is shorter than its header says")
    return HeadMesh(
        nodes=nodes.reshape(n_nodes, 3),
        tets=tets.reshape(n_tets, 4),
        labels=labels,
        conductivities={int(k): float(v)
                        for k, v in sidecar["conductivities"].items()},
    )


def save_layout(layout: ElectrodeLayout, path: str | Path) -> None:
    _dump_json(
        {
            "electrodes": [
                {"id": eid, "faces": list(faces), "area_m2": float(area),
                 "impedance_ohm": float(z)}
                for eid, faces, area, z in zip(
                    layout.electrode_ids, layout.face_ids, layout.areas,
                    layout.impedances)
            ]
        },
        Path(path),
        indent=None,
    )


def load_layout(path: str | Path) -> ElectrodeLayout:
    with open(path) as fh:
        data = json.load(fh)
    try:
        els = data["electrodes"]
        layout = ElectrodeLayout(
            face_ids=tuple(tuple(int(i) for i in e["faces"]) for e in els),
            impedances=np.array([e["impedance_ohm"] for e in els], dtype=float),
            areas=np.array([e["area_m2"] for e in els], dtype=float),
            electrode_ids=tuple(int(e["id"]) for e in els),
        )
    except KeyError as exc:
        raise IoError(f"layout file missing field {exc}") from exc
    layout.validate()
    return layout


def save_field_points(points: FieldPointSet, path: str | Path) -> None:
    _dump_json(
        {
            "points": points.points.tolist(),
            "tet_index": points.tet_index.tolist(),
            "seed": points.seed,
            "compartment": points.compartment,
        },
        Path(path),
        indent=None,
    )


def load_field_points(path: str | Path) -> FieldPointSet:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return FieldPointSet(
            points=np.asarray(data["points"], dtype=float).reshape(-1, 3),
            tet_index=np.asarray(data["tet_index"], dtype=np.int64),
            seed=int(data["seed"]),
            compartment=int(data["compartment"]),
        )
    except KeyError as exc:
        raise IoError(f"field-point file missing field {exc}") from exc


def save_target(target: TargetSpec, path: str | Path) -> None:
    _dump_json(
        {
            "position": target.position.tolist(),
            "orientation": target.orientation.tolist(),
            "d_target": target.d_target,
            "point_index": target.point_index,
        },
        Path(path),
        indent=None,
    )


def load_target(path: str | Path) -> TargetSpec:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return TargetSpec(
            position=np.asarray(data["position"], dtype=float),
            orientation=np.asarray(data["orientation"], dtype=float),
            d_target=float(data["d_target"]),
            point_index=int(data["point_index"]),
        )
    except KeyError as exc:
        raise IoError(f"target file missing field {exc}") from exc


def write_lead_field(lf: LeadField, problem: StimulusProblem, path: str | Path) -> None:
    """Binary matrix plus a JSON sidecar with the target point, ``x1`` and ``mu``.

    Point coordinates stay in ``fieldpoints.json`` and the target's
    orientation and density in ``target.json``; the sidecar holds only
    what ``read_lead_field`` needs to rebuild the problem.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mat = np.ascontiguousarray(lf.matrix, dtype="<f8")
    rows, cols = mat.shape
    with open(path, "wb") as fh:
        fh.write(LEADFIELD_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        mat.tofile(fh)
    sidecar = {
        "rows": rows,
        "cols": cols,
        "target_point": lf.target_point,
        "electrode_ids": list(lf.electrode_ids),
        "mu": problem.mu,
        "x1": problem.x1.tolist(),
    }
    _dump_json(sidecar, path.with_suffix(".json"), indent=None)


def read_lead_field(path: str | Path) -> tuple[LeadField, StimulusProblem]:
    """Matrix and problem; scale factors are derived, never read.

    Keys of older sidecars (point coordinates, target rows, orientation,
    target density, scale factors) are ignored.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:8] != LEADFIELD_MAGIC:
            raise IoError("bad lead-field magic; not a TESLF file")
        if len(header) < 16:
            raise IoError("lead-field file is shorter than its header says")
        rows, cols = struct.unpack("<II", header[8:])
        mat = np.fromfile(fh, dtype="<f8", count=rows * cols)
    if mat.size != rows * cols:
        raise IoError("lead-field file is shorter than its header says")
    with open(path.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    for fld in ("rows", "cols", "electrode_ids", "mu", "x1", "target_point"):
        if fld not in sidecar:
            raise IoError(f"lead-field sidecar missing field '{fld}'")
    if (sidecar["rows"], sidecar["cols"]) != (rows, cols):
        raise IoError("sidecar field 'rows'/'cols' disagrees with the binary header")
    if rows % 3 != 0 or cols < 2:
        # three rows per point; a balanced pattern needs two electrodes
        raise IoError("lead-field rows must be a multiple of 3, and cols at least 2")
    if not np.isfinite(mat).all():
        raise IoError("lead-field matrix holds a NaN or infinite entry")
    x1, ids, mu = sidecar["x1"], sidecar["electrode_ids"], sidecar["mu"]
    # a JSON number is an int or a float, never a bool
    if not (isinstance(x1, list) and len(x1) == 3
            and all(type(v) in (int, float) and math.isfinite(v) for v in x1)):
        raise IoError("sidecar field 'x1' must hold 3 finite numbers")
    if not (type(mu) in (int, float) and math.isfinite(mu) and mu > 0):
        raise IoError("sidecar field 'mu' must be a finite positive number")
    if not (isinstance(ids, list) and len(ids) == cols
            and all(type(i) is int for i in ids) and len(set(ids)) == cols):
        raise IoError("sidecar field 'electrode_ids' must hold one distinct int per column")
    target_point = sidecar["target_point"]
    if type(target_point) is not int or not 0 <= target_point < rows // 3:
        raise IoError("sidecar field 'target_point' must be an int in [0, rows/3)")
    lf = LeadField(
        matrix=mat.reshape(rows, cols),
        electrode_ids=tuple(ids),
        target_point=target_point,
    )
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(L1, L2, x1, mu, electrode_ids=lf.electrode_ids)
    return lf, problem


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def write_lattice_csv(grid: CandidateGrid, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        # csv quoting keeps a solver message containing a comma in one field
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LATTICE_HEADERS)
        for row in grid.cells:
            for c in row:
                writer.writerow([
                    _fmt(c.alpha_db),
                    _fmt(c.weight_db),
                    _fmt(c.metrics.gamma),
                    _fmt(c.metrics.theta),
                    _fmt(c.metrics.ad_deg),
                    _fmt(c.metrics.max_current * 1e3),
                    c.status,
                ])


def metric_fields(metrics: MetricSet) -> dict:
    """The metrics of one pattern as JSON values, currents in mA."""
    return {
        "gamma": _json_num(metrics.gamma),
        "theta": _json_num(metrics.theta),
        "ad_deg": _json_num(metrics.ad_deg),
        "max_current_ma": _json_num(metrics.max_current * 1e3),
    }


def result_record(outcome: SearchOutcome) -> dict:
    """One search outcome as a results.json record, Table-style units.

    No wall times: result files must be byte-identical across reruns
    (timings go to a sibling file).
    """
    record = {"method": outcome.method, "case": outcome.case,
              "channels": outcome.channels, "status": outcome.status,
              "montage": list(outcome.montage)}
    if outcome.status != "ok":
        return {**record, **dict.fromkeys(("gamma", "theta", "ad_deg", "max_current_ma",
                                           "deviations", "alpha_db", "weight_db"))}
    dev = {name: est.deviation for name, est in outcome.deviations.items()}
    dev["max_current_ma"] = dev.pop("max_current") * 1e3
    cell = outcome.run2
    return {**record, **metric_fields(cell.metrics),
            "deviations": {k: _json_num(v) for k, v in dev.items()},
            "alpha_db": _json_num(cell.alpha_db), "weight_db": _json_num(cell.weight_db)}


def _json_num(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _parse_num(x):
    if x is None or isinstance(x, (int, float)):
        return x
    return float(x)


def write_results(records: list[dict], path: str | Path) -> None:
    """``result_record`` dicts, checked against the schema, as results.json."""
    data = {"schema_version": 1, "records": records}
    validate_results(data)
    _dump_json(data, Path(path))


def load_results(path: str | Path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    validate_results(data)
    return data


def results_schema() -> dict:
    with resources.files("tesopt.schemas").joinpath("results.schema.json").open() as fh:
        return json.load(fh)


def validate_results(data: dict) -> None:
    """Structural validation against the shipped schema document."""
    schema = results_schema()
    _validate_node(data, schema, "results")


def _validate_node(value, schema: dict, where: str) -> None:
    kind = schema.get("type")
    if isinstance(kind, list):
        last_err = None
        for k in kind:
            try:
                _validate_node(value, {**schema, "type": k}, where)
                return
            except IoError as exc:
                last_err = exc
        raise last_err
    if kind == "object":
        if not isinstance(value, dict):
            raise IoError(f"{where}: expected object")
        for req in schema.get("required", []):
            if req not in value:
                raise IoError(f"{where}: missing required field '{req}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate_node(value[key], sub, f"{where}.{key}")
    elif kind == "array":
        if not isinstance(value, list):
            raise IoError(f"{where}: expected array")
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(value):
                _validate_node(item, item_schema, f"{where}[{i}]")
    elif kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if not (isinstance(value, str) and value in ("nan", "inf", "-inf")):
                raise IoError(f"{where}: expected number")
    elif kind == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise IoError(f"{where}: expected integer")
    elif kind == "string":
        if not isinstance(value, str):
            raise IoError(f"{where}: expected string")
        allowed = schema.get("enum")
        if allowed and value not in allowed:
            raise IoError(f"{where}: value {value!r} not in {allowed}")
    elif kind == "null":
        if value is not None:
            raise IoError(f"{where}: expected null")


_REPORT_COLUMNS = (
    ("max_current_ma", "{:.2f}", "max current (mA)"),
    ("gamma", "{:.3f}", "density (A/m^2)"),
    ("ad_deg", "{:.1f}", "angle diff (deg)"),
    ("theta", "{:.1f}", "current ratio"),
)


def format_report(data: dict) -> tuple[str, str]:
    """Render results as a text table and a CSV, Table-style layout."""
    header = ["method", "case", "channels"]
    for _, __, label in _REPORT_COLUMNS:
        header += [label, "deviation"]
    csv_rows = [",".join(header)]
    width = [max(8, len(h)) for h in header]
    text_rows = []
    for rec in data["records"]:
        if rec["status"] != "ok":
            row = [rec["method"].upper(), rec["case"], str(rec["channels"])]
            row += [rec["status"], ""] + [""] * (2 * len(_REPORT_COLUMNS) - 2)
        else:
            row = [rec["method"].upper(), rec["case"], str(rec["channels"])]
            for key, fmt, _ in _REPORT_COLUMNS:
                val = _parse_num(rec[key])
                dev = _parse_num(rec["deviations"][key])
                row.append(fmt.format(val) if math.isfinite(val) else str(val))
                row.append(f"{dev:.1E}" if math.isfinite(dev) else str(dev))
        csv_rows.append(",".join(row))
        text_rows.append(row)
    for row in text_rows:
        for i, cell in enumerate(row):
            width[i] = max(width[i], len(cell))
    def fmt_line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, width))
    text = "\n".join([fmt_line(header)] + [fmt_line(r) for r in text_rows])
    return text + "\n", "\n".join(csv_rows) + "\n"
