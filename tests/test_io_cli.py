import csv
import json
import multiprocessing
import struct

import numpy as np
import pytest

from conftest import random_problem
from tesopt import cli, io, search
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
    return LeadField(matrix=mat,
                     electrode_ids=tuple(range(1, n_electrodes + 1)),
                     target_point=2)


def test_mesh_roundtrip(tmp_path, tiny_model):
    mesh, layout, points, target = tiny_model
    io.save_mesh(mesh, tmp_path / "mesh.bin")
    back = io.load_mesh(tmp_path / "mesh.bin")
    assert back.nodes.tobytes() == mesh.nodes.tobytes()
    assert np.array_equal(back.tets, mesh.tets)
    assert np.array_equal(back.labels, mesh.labels)
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


def test_mesh_binary_layout(tmp_path, tiny_model):
    mesh = tiny_model[0]
    io.save_mesh(mesh, tmp_path / "mesh.bin")
    blob = (tmp_path / "mesh.bin").read_bytes()
    assert blob[:8] == b"TESMS\x00\x00\x01"
    n, t = struct.unpack("<II", blob[8:16])
    assert (n, t) == (mesh.n_nodes, mesh.n_tets)
    assert len(blob) == 16 + 8 * (3 * n + 5 * t)
    assert blob[16:16 + 24 * n] == mesh.nodes.astype("<f8").tobytes()
    assert json.loads((tmp_path / "mesh.json").read_text()) == {
        "n_nodes": n, "n_tets": t,
        "conductivities": {str(k): v for k, v in mesh.conductivities.items()}}
    with pytest.raises(io.IoError, match="sidecar"):
        io.save_mesh(mesh, tmp_path / "mesh.json")


def _bad_magic(bin_path, json_path):
    bin_path.write_bytes(b"TESLF\x00\x00\x01" + bin_path.read_bytes()[8:])


def _truncated(bin_path, json_path):
    bin_path.write_bytes(bin_path.read_bytes()[:-8])


def _count_mismatch(bin_path, json_path):
    sidecar = json.loads(json_path.read_text())
    sidecar["n_tets"] += 1
    json_path.write_text(json.dumps(sidecar))


def _all_json(bin_path, json_path):
    mesh = io.load_mesh(bin_path)
    bin_path.unlink()
    json_path.write_text(json.dumps({
        "nodes": mesh.nodes.tolist(), "tets": mesh.tets.tolist(),
        "labels": mesh.labels.tolist(),
        "conductivities": {str(k): v for k, v in mesh.conductivities.items()}}))


@pytest.mark.parametrize("damage, match", [
    (_bad_magic, "magic"),
    (_truncated, "shorter"),
    (_count_mismatch, "n_tets"),
    (_all_json, "re-run `tesopt mesh`"),
])
def test_mesh_file_damage_rejected(tmp_path, tiny_model, damage, match):
    io.save_mesh(tiny_model[0], tmp_path / "mesh.bin")
    damage(tmp_path / "mesh.bin", tmp_path / "mesh.json")
    with pytest.raises(io.IoError, match=match):
        io.load_mesh(tmp_path / "mesh.bin")


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
    # header and sidecar agree on a row count that is not 3 per point
    odd = LeadField(matrix=lf.matrix[:-1], electrode_ids=lf.electrode_ids,
                    target_point=2)
    io.write_lead_field(odd, problem, path)
    assert json.loads(path.with_suffix(".json").read_text())["rows"] == 35
    with pytest.raises(io.IoError, match="multiple of 3"):
        io.read_lead_field(path)


def test_lead_field_truncated_binary_rejected(tmp_path, rng):
    lf = synthetic_lead_field(rng)
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(L1, L2, np.array([0.2, 0.0, 0.0]), 4e-3)
    path = tmp_path / "lf.bin"
    io.write_lead_field(lf, problem, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(io.IoError, match="shorter"):
        io.read_lead_field(path)


def test_lead_field_short_header_rejected(tmp_path):
    # the magic and 2 of the 8 count bytes: an IoError, not a struct.error
    path = tmp_path / "lf.bin"
    path.write_bytes(io.LEADFIELD_MAGIC + b"\x06\x00")
    assert path.stat().st_size == 10
    with pytest.raises(io.IoError, match="shorter"):
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
    # carry zeta, nu and sigma_scale, and older ones the point coordinates,
    # target rows, orientation and d_target; the reader ignores them
    lf = synthetic_lead_field(rng)
    L1, L2 = lf.split_rows()
    problem = StimulusProblem.from_parts(L1, L2, np.array([0.2, 0.0, 0.0]), 4e-3,
                                         electrode_ids=lf.electrode_ids)
    path = tmp_path / "lf.bin"
    io.write_lead_field(lf, problem, path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar.keys() == {"cols", "electrode_ids", "mu", "rows",
                              "target_point", "x1"}
    sidecar.update(zeta=-1.0, nu=123.0, sigma_scale=0.0)
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    _, p2 = io.read_lead_field(path)
    assert p2.zeta == problem.zeta
    assert p2.nu == problem.nu
    assert p2.sigma_scale == problem.sigma_scale
    sidecar.update(points=[[0.0, 0.0, 0.0]], target_rows=[0, 1],
                   orientation=[0.0, 1.0, 0.0], d_target=-5.0)
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    _, p3 = io.read_lead_field(path)
    assert_same_problem(p3, problem)


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
    io.write_lead_field(lf, split, tmp_path / "lf.bin")
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


def test_config_rejects_removed_lp_keys(tmp_path):
    # the L1L1 interior point runs at its own tolerance and iteration cap
    path = tmp_path / "cfg.json"
    for key, value in (("lp_tol", 1e-10), ("lp_max_iter", 200)):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(path)


def test_config_lattice_step_resolution():
    assert RunConfig().lattice_step_db == 15.0
    cfg = RunConfig()
    assert set(cfg.solver_opts()) == {"l1l2"}
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
    for name in ("mesh.bin", "mesh.json", "electrodes.json", "fieldpoints.json",
                 "target.json"):
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


def test_cli_search_independent_of_threads(tmp_path, tiny_cfg, monkeypatch):
    pools, lattices = [], []
    evaluate_lattice = search.evaluate_lattice

    class CountingPool(search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    def counting_lattice(p, method, *args, **kwargs):
        lattices.append(method)
        return evaluate_lattice(p, method, *args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(search, "evaluate_lattice", counting_lattice)

    cfg = json.loads(tiny_cfg.read_text())
    cfg.update(methods=["l1l1", "l1l2", "tls"], cases=["A", "B"],
               lattice_step_db=90.0)
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    outputs = {}
    for threads in (1, 2):
        cfg["threads"] = threads
        tiny_cfg.write_text(json.dumps(cfg))
        del pools[:], lattices[:]
        assert cli.main(["search", "--config", str(tiny_cfg),
                         "--out-dir", str(out)]) in (0, 2)
        workers = search.resolve_threads(threads)
        # one pool of the configured size serves every lattice of the run
        assert len(lattices) > 3
        assert pools == ([workers] if workers > 1 else [])
        outputs[threads] = {f.name: f.read_bytes() for f in out.glob("*")
                            if f.name == "results.json" or f.suffix == ".csv"}
    assert set(lattices) == {"l1l1", "l1l2", "tls"} and len(outputs[1]) > 3
    assert outputs[1] == outputs[2]


def test_cli_search_leaves_no_worker_running(tmp_path, tiny_cfg, monkeypatch):
    pools = []

    class CountingPool(search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
    cfg = json.loads(tiny_cfg.read_text())
    cfg.update(methods=["l1l1"], threads=2, cases=["A", "B"], lattice_step_db=90.0)
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    assert cli.main(["search", "--config", str(tiny_cfg),
                     "--out-dir", str(out)]) in (0, 2)
    workers = search.resolve_threads(2)
    assert pools == ([workers] if workers > 1 else [])
    assert multiprocessing.active_children() == []


def test_search_pipeline_solves_each_lattice_once(tmp_path, tiny_cfg, monkeypatch):
    # every case and channel count of a method shares its run-1 lattice,
    # and run-2 lattices on one montage are solved once
    lattices = []
    evaluate_lattice = search.evaluate_lattice

    def counting_lattice(p, method, spec, pool=None):
        lattices.append((method, p.electrode_ids))
        return evaluate_lattice(p, method, spec, pool=pool)

    monkeypatch.setattr(search, "evaluate_lattice", counting_lattice)
    cfg = json.loads(tiny_cfg.read_text())
    # no threshold: case A selects too, often the montage case B selects
    cfg.update(methods=["l1l1", "l1l2", "tls"], cases=["A", "B"], channels=[3, 4],
               lattice_step_db=90.0, gamma_threshold=0.0)
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    _, problem = io.read_lead_field(out / "leadfield.bin")
    _, outcomes, timings = cli.run_search_pipeline(problem, RunConfig.load(tiny_cfg))
    assert len(outcomes) == 12 and all(o.status == "ok" for o in outcomes)
    expected = {(m, problem.electrode_ids) for m in cfg["methods"]}
    expected |= {(o.method, o.montage) for o in outcomes if o.run2_grid is not None}
    assert len(expected) < 3 + len(outcomes)   # some run-2 lattices are shared
    assert len(lattices) == len(set(lattices)) == len(expected)
    assert set(lattices) == expected
    # the run-1 lattices are solved (and timed) before any search
    assert lattices[:3] == [(m, problem.electrode_ids) for m in cfg["methods"]]
    assert {f"lattice_{m}_s" for m in cfg["methods"]} <= set(timings)
    for m in cfg["methods"]:
        assert len({id(o.run1_grid) for o in outcomes if o.method == m}) == 1


@pytest.mark.parametrize("channels", [[4, 9], [1, 4]])
def test_cli_search_rejects_channel_count_first(tmp_path, tiny_cfg, monkeypatch,
                                                capsys, channels):
    # a channel count outside 2..L fails before any lattice is solved
    lattices = []
    monkeypatch.setattr(search, "evaluate_lattice",
                        lambda *args, **kwargs: lattices.append(args))
    cfg = json.loads(tiny_cfg.read_text())
    cfg.update(electrode_count=8, channels=channels, threads=2)
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    cli.main(["mesh", "--config", str(tiny_cfg), "--out-dir", str(out)])
    cli.main(["leadfield", "--config", str(tiny_cfg), "--out-dir", str(out)])
    capsys.readouterr()
    assert cli.main(["search", "--config", str(tiny_cfg),
                     "--out-dir", str(out)]) == 1
    bad = channels[0] if channels[0] < 2 else channels[1]
    assert f"channel count {bad} " in capsys.readouterr().err
    assert lattices == []


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


def test_cli_optimize_matches_lattice_rows(tmp_path, tiny_cfg):
    # tesopt optimize at a run-1 lattice cell writes that cell's CSV figures
    cfg = json.loads(tiny_cfg.read_text())
    cfg.update(methods=["l1l1", "l1l2", "tls"], lattice_step_db=90.0)
    tiny_cfg.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    for command in ("mesh", "leadfield", "search"):
        cli.main([command, "--config", str(tiny_cfg), "--out-dir", str(out)])
    for method in cfg["methods"]:
        with open(out / f"lattice_{method}_caseB_k4_run1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert cli.main(["optimize", "--config", str(tiny_cfg), "--out-dir", str(out),
                             "--method", method, "--alpha-db", row["alpha_db"],
                             "--weight-db", row["weight_db"]]) == 0
            result = json.loads((out / "optimize.json").read_text())
            for key in ("gamma", "theta", "max_current_ma"):
                assert io._fmt(float(result[key])) == row[key], (method, row, key)
    _, problem = io.read_lead_field(out / "leadfield.bin")
    with pytest.raises(search.SearchError, match="unknown method"):
        search.solve_single_cell(problem, "lp", -60.0, -40.0, {})


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


def test_json_layouts(tmp_path, tiny_cfg):
    # files people read keep indent=1; files only programs read are one
    # line, and both read back to the arrays that were written
    out = tmp_path / "run"
    for cmd in ("mesh", "leadfield", "search"):
        assert cli.main([cmd, "--config", str(tiny_cfg), "--out-dir", str(out)]) == 0
    for name in ("results.json", "timings.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    rec = io.ResultRecord(method="tls", case="B", channels=4, status="ok",
                          max_current_ma=1.5, gamma=0.1 + 0.2, ad_deg=float("nan"),
                          theta=1 / 3, deviations={"max_current_ma": 0.1, "gamma": 1e-300,
                                                   "ad_deg": 0.5, "theta": 0.2},
                          alpha_db=-90.0, weight_db=-40.0, montage=(1, 2))
    io.write_results([rec], tmp_path / "results.json")
    obj = {"schema_version": 1, "records": [rec.to_json_dict()]}
    assert (tmp_path / "results.json").read_text() == \
        json.dumps(obj, indent=1, sort_keys=True) + "\n"

    for name in ("mesh.json", "electrodes.json", "fieldpoints.json", "target.json",
                 "leadfield.json"):
        text = (out / name).read_text()
        assert text.count("\n") == 1 and text.endswith("\n"), name
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name
    mesh, layout, points, target = cli.build_model(RunConfig.load(tiny_cfg))
    back = io.load_mesh(out / "mesh.bin")
    for name in ("nodes", "tets", "labels"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name
    assert back.conductivities == mesh.conductivities
    layout2 = io.load_layout(out / "electrodes.json")
    assert layout2.face_ids == layout.face_ids
    assert np.array_equal(layout2.areas, layout.areas)
    assert np.array_equal(io.load_field_points(out / "fieldpoints.json").points,
                          points.points)
    target2 = io.load_target(out / "target.json")
    assert np.array_equal(target2.position, target.position)
    assert np.array_equal(target2.orientation, target.orientation)
