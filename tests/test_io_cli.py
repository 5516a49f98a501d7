import json
import struct

import numpy as np
import pytest

from conftest import random_problem
from tesopt import cli, io
from tesopt.config import ConfigError, RunConfig
from tesopt.fem import LeadField
from tesopt.meshgen import generate_ball_mesh, place_electrodes, place_target, \
    sample_field_points
from tesopt.optimizers import StimulusProblem


@pytest.fixture(scope="module")
def tiny_model():
    mesh = generate_ball_mesh([0.09, 0.08, 0.07], [0.33, 0.0042, 0.33], 0.009)
    layout = place_electrodes(mesh, 6, 2000.0)
    points = sample_field_points(mesh, 3, 40, seed=3)
    target = place_target(mesh, points, (0, 0, 1), 0.2)
    return mesh, layout, points, target


def synthetic_lead_field(rng, n_points=12, n_electrodes=6):
    mat = rng.normal(size=(3 * n_points, n_electrodes)) * 5.0
    pts = rng.normal(size=(n_points, 3)) * 0.05
    return LeadField(matrix=mat, points=pts,
                     electrode_ids=tuple(range(1, n_electrodes + 1)),
                     target_point=2)


def test_mesh_roundtrip(tmp_path, tiny_model):
    mesh, layout, points, target = tiny_model
    io.save_mesh(mesh, tmp_path / "mesh.json")
    back = io.load_mesh(tmp_path / "mesh.json")
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.tets, mesh.tets)
    assert back.conductivities == mesh.conductivities

    io.save_layout(layout, tmp_path / "el.json")
    layout2 = io.load_layout(tmp_path / "el.json")
    assert layout2.face_ids == layout.face_ids
    assert np.array_equal(layout2.impedances, layout.impedances)

    io.save_field_points(points, tmp_path / "fp.json")
    points2 = io.load_field_points(tmp_path / "fp.json")
    assert np.array_equal(points2.points, points.points)

    io.save_target(target, tmp_path / "t.json")
    target2 = io.load_target(tmp_path / "t.json")
    assert np.array_equal(target2.orientation, target.orientation)
    assert target2.point_index == target.point_index


def test_lead_field_binary_roundtrip(tmp_path, rng):
    lf = synthetic_lead_field(rng)
    rows = lf.target_rows()
    mask = np.ones(lf.matrix.shape[0], dtype=bool)
    mask[rows] = False
    problem = StimulusProblem.from_parts(
        lf.matrix[rows], lf.matrix[mask], np.array([0.2, 0.0, 0.0]), 4e-3,
        electrode_ids=lf.electrode_ids)
    io.write_lead_field(lf, problem, tmp_path / "lf.bin")
    lf2, p2 = io.read_lead_field(tmp_path / "lf.bin")
    assert np.array_equal(lf2.matrix, lf.matrix)          # bitwise
    assert p2.zeta == problem.zeta
    assert p2.sigma_scale == problem.sigma_scale
    assert np.array_equal(p2.L1, problem.L1)


def test_lead_field_magic_enforced(tmp_path, rng):
    lf = synthetic_lead_field(rng)
    path = tmp_path / "lf.bin"
    rows = lf.target_rows()
    mask = np.ones(lf.matrix.shape[0], dtype=bool)
    mask[rows] = False
    problem = StimulusProblem.from_parts(
        lf.matrix[rows], lf.matrix[mask], np.array([0.2, 0.0, 0.0]), 4e-3)
    io.write_lead_field(lf, problem, path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(io.IoError, match="magic"):
        io.read_lead_field(path)


def test_lead_field_sidecar_dims_checked(tmp_path, rng):
    lf = synthetic_lead_field(rng)
    path = tmp_path / "lf.bin"
    rows = lf.target_rows()
    mask = np.ones(lf.matrix.shape[0], dtype=bool)
    mask[rows] = False
    problem = StimulusProblem.from_parts(
        lf.matrix[rows], lf.matrix[mask], np.array([0.2, 0.0, 0.0]), 4e-3)
    io.write_lead_field(lf, problem, path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    sidecar["rows"] = 7
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(io.IoError, match="rows"):
        io.read_lead_field(path)
    del sidecar["x1"]
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(io.IoError, match="x1"):
        io.read_lead_field(path)


@pytest.mark.parametrize("field, value, match", [
    ("x1", [0.2, 0.0], "x1"),
    ("x1", 0.2, "x1"),
    ("electrode_ids", [1, 2], "electrode_ids"),
    ("target_point", None, "target_point"),
    ("target_point", 2.0, "target_point"),
    ("target_point", True, "target_point"),
    ("target_point", -1, "target_point"),
    ("target_point", 12, "target_point"),
])
def test_lead_field_sidecar_values_checked(tmp_path, rng, field, value, match):
    # the synthetic lead field has 12 points and 6 electrodes
    lf = synthetic_lead_field(rng)
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(L1, L2, np.array([0.2, 0.0, 0.0]), 4e-3,
                                         electrode_ids=lf.electrode_ids)
    path = tmp_path / "lf.bin"
    io.write_lead_field(lf, problem, path)
    io.read_lead_field(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    sidecar[field] = value
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(io.IoError, match=match):
        io.read_lead_field(path)


def test_lead_field_sidecar_scale_keys_ignored(tmp_path, rng):
    # sidecars written before the scale factors were derived on read still
    # carry zeta, nu and sigma_scale; the reader ignores them
    lf = synthetic_lead_field(rng)
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(L1, L2, np.array([0.2, 0.0, 0.0]), 4e-3,
                                         electrode_ids=lf.electrode_ids)
    path = tmp_path / "lf.bin"
    io.write_lead_field(lf, problem, path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert not {"zeta", "nu", "sigma_scale"} & sidecar.keys()
    sidecar.update(zeta=-1.0, nu=123.0, sigma_scale=0.0)
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    _, p2 = io.read_lead_field(path)
    assert p2.zeta == problem.zeta
    assert p2.nu == problem.nu
    assert p2.sigma_scale == problem.sigma_scale


def assert_same_problem(a, b):
    for name in ("L1", "L2", "x1"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("mu", "zeta", "nu", "sigma_scale", "electrode_ids"):
        assert getattr(a, name) == getattr(b, name), name


def test_lead_field_one_problem_path(tmp_path, tiny_model):
    # split_problem, a write/read round trip and from_parts on the same rows
    # must give bitwise the same problem
    from tesopt import fem

    mesh, layout, points, target = tiny_model
    lf = fem.lead_field(fem.assemble(mesh, layout), mesh, points,
                        target_point=target.point_index)
    split = fem.split_problem(lf, target, 4e-3)
    io.write_lead_field(lf, split, tmp_path / "lf.bin", target=target)
    _, read = io.read_lead_field(tmp_path / "lf.bin")
    rows = lf.target_rows()
    mask = np.ones(lf.matrix.shape[0], dtype=bool)
    mask[rows] = False
    parts = StimulusProblem.from_parts(
        lf.matrix[rows], lf.matrix[mask], target.d_target * target.orientation,
        4e-3, electrode_ids=lf.electrode_ids)
    assert_same_problem(split, read)
    assert_same_problem(split, parts)
    assert_same_problem(split.restrict(split.electrode_ids), split)


def test_lattice_csv_headers(tmp_path, rng):
    from tesopt.search import LatticeSpec, evaluate_lattice

    p = random_problem(rng)
    spec = LatticeSpec(-60.0, -30.0, -60.0, -30.0, step_db=30.0)
    grid = evaluate_lattice(p, "tls", spec)
    io.write_lattice_csv(grid, tmp_path / "lat.csv")
    lines = (tmp_path / "lat.csv").read_text().splitlines()
    assert lines[0] == "alpha_db,weight_db,gamma,theta,ad_deg,max_current_ma,status"
    assert len(lines) == 1 + spec.dims[0] * spec.dims[1]


def test_lattice_csv_reason_with_comma(tmp_path, rng):
    import csv
    import dataclasses

    from tesopt.search import LatticeSpec, evaluate_lattice

    p = random_problem(rng)
    spec = LatticeSpec(-60.0, -30.0, -60.0, -30.0, step_db=30.0)
    grid = evaluate_lattice(p, "tls", spec)
    reason = "LinAlgError: 2-th leading minor, not positive definite"
    grid.cells[0][0] = dataclasses.replace(grid.cells[0][0], valid=False, reason=reason)
    io.write_lattice_csv(grid, tmp_path / "lat.csv")
    text = (tmp_path / "lat.csv").read_text()
    rows = list(csv.reader(text.splitlines()))
    assert all(len(row) == 7 for row in rows)
    assert rows[1][6] == reason
    # rows without a comma in any field keep the plain comma-joined bytes
    for line, row in zip(text.splitlines()[2:], rows[2:]):
        assert line == ",".join(row)


def test_config_defaults_and_gamma_lock(tmp_path):
    cfg = RunConfig()
    cfg.validate()
    assert cfg.radii == (0.09, 0.085, 0.078)
    assert cfg.electrode_count == 32
    assert cfg.impedance_ohm == 2000.0
    assert cfg.field_point_count == 1000
    assert cfg.mu == 4e-3
    assert cfg.gamma == 2e-3
    assert cfg.channels == (8, 20)
    assert cfg.gamma_threshold == 0.11
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mu": 2e-3, "gamma": 1e-3}))
    assert RunConfig.load(path).gamma == 1e-3
    path.write_text(json.dumps({"mu": 2e-3, "gamma": 0.9e-3}))
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_config_lattice_step_resolution():
    assert RunConfig().step_db == 15.0
    assert RunConfig(full_lattice=True).step_db == 5.0
    assert RunConfig(lattice_step_db=30.0).step_db == 30.0
    cfg = RunConfig()
    assert cfg.solver_opts()["l1l1"] == {"tol": 1e-10, "max_iter": 200}
    assert cfg.target_compartment == 3


def test_results_schema_validation(tmp_path):
    rec = io.ResultRecord(method="tls", case="A", channels=8, status="ok",
                          max_current_ma=1.0, gamma=0.12, ad_deg=5.0, theta=3.0,
                          deviations={"max_current_ma": 0.1, "gamma": 0.01,
                                      "ad_deg": 0.5, "theta": 0.2},
                          alpha_db=-90.0, weight_db=-40.0, montage=(1, 2))
    io.write_results([rec], tmp_path / "results.json")
    data = io.load_results(tmp_path / "results.json")
    assert data["records"][0]["gamma"] == 0.12
    data["records"][0]["method"] = "bogus"
    with pytest.raises(io.IoError):
        io.validate_results(data)
    with pytest.raises(io.IoError):
        io.validate_results({"schema_version": 1})


def test_report_formatting(tmp_path):
    rec = io.ResultRecord(method="l1l1", case="B", channels=20, status="ok",
                          max_current_ma=2.0, gamma=0.131, ad_deg=7.23, theta=3.52,
                          deviations={"max_current_ma": 1.9e-2, "gamma": 7.3e-3,
                                      "ad_deg": 2.9, "theta": 0.41},
                          alpha_db=-90.0, weight_db=-40.0, montage=(1, 2))
    io.write_results([rec], tmp_path / "results.json")
    text, csv = io.format_report(io.load_results(tmp_path / "results.json"))
    assert "2.00" in text          # mA with two decimals
    assert "0.131" in text
    assert "1.9E-02" in text
    row = csv.splitlines()[1].split(",")
    assert row[0] == "L1L1" and row[1] == "B" and row[2] == "20"
    # empty results give a header-only table
    io.write_results([], tmp_path / "empty.json")
    text, csv = io.format_report(io.load_results(tmp_path / "empty.json"))
    assert len(csv.splitlines()) == 1


def test_no_feasible_record_roundtrip(tmp_path):
    from tesopt.search import SearchOutcome

    outcome = SearchOutcome(method="tls", case="A", channels=8,
                            status="no-feasible-candidate", run1=None, run2=None,
                            montage=(), deviations={})
    rec = io.ResultRecord.from_outcome(outcome)
    io.write_results([rec], tmp_path / "results.json")
    data = io.load_results(tmp_path / "results.json")
    assert data["records"][0]["status"] == "no-feasible-candidate"
    assert data["records"][0]["gamma"] is None


@pytest.fixture()
def tiny_cfg(tmp_path):
    cfg = {
        "radii": [0.09, 0.08, 0.07],
        "conductivities": [0.33, 0.0042, 0.33],
        "cell_size": 0.009,
        "electrode_count": 6,
        "field_point_count": 40,
        "seed": 3,
        "methods": ["tls"],
        "cases": ["B"],
        "channels": [4],
        "lattice_step_db": 180.0,
        "threads": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_pipeline_smoke(tmp_path, tiny_cfg):
    out = tmp_path / "run"
    assert cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
    assert cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
    assert (out / "leadfield.bin").exists()
    code = cli.main(["search", "--config", str(tiny_cfg), "--out-dir", str(out)])
    assert code == 0
    results = io.load_results(out / "results.json")
    assert len(results["records"]) == 1
    rec = results["records"][0]
    assert rec["status"] == "ok"
    for key in ("max_current_ma", "gamma", "ad_deg", "theta"):
        val = rec[key]
        assert val is None or isinstance(val, (int, float)) or isinstance(val, str)
    assert cli.main(["report", str(out / "results.json"),
                     "--out-dir", str(out)]) == 0
    assert (out / "report.csv").exists()


def test_cli_mesh_idempotent(tmp_path, tiny_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out1)])
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out2)])
    for name in ("mesh.json", "electrodes.json", "fieldpoints.json", "target.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_search_deterministic(tmp_path, tiny_cfg):
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["search", "--config", str(tiny_cfg), "--out-dir", str(out)])
    first = (out / "results.json").read_bytes()
    csv_first = next(out.glob("lattice_*.csv")).read_bytes()
    cli.main(["search", "--config", str(tiny_cfg), "--out-dir", str(out)])
    assert (out / "results.json").read_bytes() == first
    assert next(out.glob("lattice_*.csv")).read_bytes() == csv_first


def test_cli_search_exit_code_no_candidate(tmp_path, tiny_cfg):
    cfg = json.loads(tiny_cfg.read_text())
    cfg["cases"] = ["A"]
    cfg["gamma_threshold"] = 1e9
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    assert cli.main(["search", "--config", str(tiny_cfg), "--out-dir", str(out)]) == 2


def test_cli_optimize_single_solve(tmp_path, tiny_cfg):
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    code = cli.main(["optimize", "--config", str(tiny_cfg), "--out-dir", str(out),
                     "--method", "tls", "--alpha-db", "-120", "--weight-db", "-40"])
    assert code == 0
    result = json.loads((out / "optimize.json").read_text())
    assert result["status"] == "optimal"
    assert len(result["currents_ma"]) == 6


def test_cli_error_exit(tmp_path):
    assert cli.main(["report", str(tmp_path / "missing.json")]) == 1


def test_leadfield_header_layout(tmp_path, rng):
    lf = synthetic_lead_field(rng)
    rows = lf.target_rows()
    mask = np.ones(lf.matrix.shape[0], dtype=bool)
    mask[rows] = False
    problem = StimulusProblem.from_parts(
        lf.matrix[rows], lf.matrix[mask], np.array([0.2, 0.0, 0.0]), 4e-3)
    path = tmp_path / "lf.bin"
    io.write_lead_field(lf, problem, path)
    blob = path.read_bytes()
    assert blob[:8] == b"TESLF\x00\x00\x01"
    r, c = struct.unpack("<II", blob[8:16])
    assert (r, c) == lf.matrix.shape
    assert len(blob) == 16 + r * c * 8
