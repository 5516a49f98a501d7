"""Persistence: mesh/layout JSON, binary lead-field files, CSV, results.

All text artifacts are deterministic functions of their inputs (sorted
keys, repr-precision floats); the lead field is stored as raw little-
endian doubles behind a magic header.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .fem import LeadField
from .meshgen import ElectrodeLayout, FieldPointSet, HeadMesh, TargetSpec
from .optimizers import StimulusProblem
from .search import CandidateGrid, SearchOutcome

LEADFIELD_MAGIC = b"TESLF\x00\x00\x01"
LATTICE_HEADERS = ("alpha_db", "weight_db", "gamma", "theta", "ad_deg",
                   "max_current_ma", "status")


class IoError(RuntimeError):
    pass


def _dump_json(data, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_mesh(mesh: HeadMesh, path: str | Path) -> None:
    _dump_json(
        {
            "nodes": mesh.nodes.tolist(),
            "tets": mesh.tets.tolist(),
            "labels": mesh.labels.tolist(),
            "conductivities": {str(k): v for k, v in mesh.conductivities.items()},
        },
        Path(path),
    )


def load_mesh(path: str | Path) -> HeadMesh:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return HeadMesh(
            nodes=np.asarray(data["nodes"], dtype=float),
            tets=np.asarray(data["tets"], dtype=np.int64),
            labels=np.asarray(data["labels"], dtype=np.int64),
            conductivities={int(k): float(v) for k, v in data["conductivities"].items()},
        )
    except KeyError as exc:
        raise IoError(f"mesh file missing field {exc}") from exc


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
    )


def load_layout(path: str | Path) -> ElectrodeLayout:
    with open(path) as fh:
        data = json.load(fh)
    try:
        els = data["electrodes"]
        return ElectrodeLayout(
            face_ids=tuple(tuple(int(i) for i in e["faces"]) for e in els),
            impedances=np.array([e["impedance_ohm"] for e in els], dtype=float),
            areas=np.array([e["area_m2"] for e in els], dtype=float),
            electrode_ids=tuple(int(e["id"]) for e in els),
        )
    except KeyError as exc:
        raise IoError(f"layout file missing field {exc}") from exc


def save_field_points(points: FieldPointSet, path: str | Path) -> None:
    _dump_json(
        {
            "points": points.points.tolist(),
            "tet_index": points.tet_index.tolist(),
            "seed": points.seed,
            "compartment": points.compartment,
        },
        Path(path),
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


def write_lead_field(lf: LeadField, problem: StimulusProblem, path: str | Path,
                     target: TargetSpec | None = None) -> None:
    """Binary matrix plus a JSON sidecar with geometry, ``x1`` and ``mu``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mat = np.ascontiguousarray(lf.matrix, dtype="<f8")
    rows, cols = mat.shape
    with open(path, "wb") as fh:
        fh.write(LEADFIELD_MAGIC)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(mat.tobytes())
    sidecar = {
        "rows": rows,
        "cols": cols,
        "points": lf.points.tolist(),
        "target_point": lf.target_point,
        "target_rows": lf.target_rows().tolist() if lf.target_point is not None else None,
        "electrode_ids": list(lf.electrode_ids),
        "mu": problem.mu,
        "x1": problem.x1.tolist(),
    }
    if target is not None:
        sidecar["orientation"] = target.orientation.tolist()
        sidecar["d_target"] = target.d_target
    _dump_json(sidecar, path.with_suffix(".json"))


def read_lead_field(path: str | Path) -> tuple[LeadField, StimulusProblem]:
    """Matrix and problem; scale factors are derived, never read."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != LEADFIELD_MAGIC:
            raise IoError("bad lead-field magic; not a TESLF file")
        rows, cols = struct.unpack("<II", fh.read(8))
        mat = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8").reshape(rows, cols)
    with open(path.with_suffix(".json")) as fh:
        sidecar = json.load(fh)
    for fld in ("rows", "cols", "points", "electrode_ids", "mu", "x1", "target_point"):
        if fld not in sidecar:
            raise IoError(f"lead-field sidecar missing field '{fld}'")
    if (sidecar["rows"], sidecar["cols"]) != (rows, cols):
        raise IoError("sidecar field 'rows'/'cols' disagrees with the binary header")
    if len(sidecar["points"]) * 3 != rows:
        raise IoError("sidecar field 'points' count does not match matrix rows")
    x1, ids = sidecar["x1"], sidecar["electrode_ids"]
    if not isinstance(x1, list) or len(x1) != 3:
        raise IoError("sidecar field 'x1' must hold 3 entries")
    if not isinstance(ids, list) or len(ids) != cols:
        raise IoError("sidecar field 'electrode_ids' count does not match matrix columns")
    target_point = sidecar["target_point"]
    if type(target_point) is not int or not 0 <= target_point < rows // 3:
        raise IoError("sidecar field 'target_point' must be an int in [0, rows/3)")
    lf = LeadField(
        matrix=np.array(mat),
        points=np.asarray(sidecar["points"], dtype=float),
        electrode_ids=tuple(int(i) for i in ids),
        target_point=target_point,
    )
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(
        L1, L2, x1, sidecar["mu"], electrode_ids=lf.electrode_ids
    )
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
                status = "ok" if c.valid else (c.reason or "invalid")
                writer.writerow([
                    _fmt(c.params.alpha_db),
                    _fmt(c.params.weight_db),
                    _fmt(c.metrics.gamma),
                    _fmt(c.metrics.theta),
                    _fmt(c.metrics.ad_deg),
                    _fmt(c.metrics.max_current * 1e3),
                    status,
                ])


@dataclass(frozen=True)
class ResultRecord:
    """One search outcome in Table-style units (mA for currents)."""

    method: str
    case: str
    channels: int
    status: str
    max_current_ma: float | None
    gamma: float | None
    ad_deg: float | None
    theta: float | None
    deviations: dict | None
    alpha_db: float | None
    weight_db: float | None
    montage: tuple[int, ...]
    wall_time_s: float = 0.0

    @classmethod
    def from_outcome(cls, outcome: SearchOutcome, wall_time_s: float = 0.0):
        if outcome.status != "ok":
            return cls(outcome.method, outcome.case, outcome.channels,
                       outcome.status, None, None, None, None, None, None,
                       None, outcome.montage, wall_time_s)
        m = outcome.run2.metrics
        dev = {name: est.deviation for name, est in outcome.deviations.items()}
        dev["max_current_ma"] = dev.pop("max_current") * 1e3
        return cls(
            method=outcome.method,
            case=outcome.case,
            channels=outcome.channels,
            status="ok",
            max_current_ma=m.max_current * 1e3,
            gamma=m.gamma,
            ad_deg=m.ad_deg,
            theta=m.theta,
            deviations=dev,
            alpha_db=outcome.run2.params.alpha_db,
            weight_db=outcome.run2.params.weight_db,
            montage=outcome.montage,
            wall_time_s=wall_time_s,
        )

    def to_json_dict(self) -> dict:
        # wall time deliberately excluded: result files must be
        # byte-identical across reruns (timings go to a sibling file)
        return {
            "method": self.method,
            "case": self.case,
            "channels": self.channels,
            "status": self.status,
            "max_current_ma": _json_num(self.max_current_ma),
            "gamma": _json_num(self.gamma),
            "ad_deg": _json_num(self.ad_deg),
            "theta": _json_num(self.theta),
            "deviations": {k: _json_num(v) for k, v in self.deviations.items()}
            if self.deviations is not None else None,
            "alpha_db": _json_num(self.alpha_db),
            "weight_db": _json_num(self.weight_db),
            "montage": list(self.montage),
        }


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


def write_results(records: list[ResultRecord], path: str | Path) -> None:
    data = {
        "schema_version": 1,
        "records": [r.to_json_dict() for r in records],
    }
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
