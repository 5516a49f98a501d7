"""Command-line driver: mesh, leadfield, optimize, search, report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import fem, io, meshgen, search
from .config import RunConfig
from .metrics import compute_metrics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CANDIDATE = 2


def build_model(cfg: RunConfig):
    """Mesh, electrode layout, field points and target from a config."""
    mesh = meshgen.generate_ball_mesh(list(cfg.radii), list(cfg.conductivities),
                                      cfg.cell_size)
    layout = meshgen.place_electrodes(mesh, cfg.electrode_count, cfg.impedance_ohm)
    points = meshgen.sample_field_points(mesh, cfg.target_compartment,
                                         cfg.field_point_count, cfg.seed)
    target = meshgen.place_target(mesh, points, cfg.target_hint, cfg.d_target)
    return mesh, layout, points, target


def cmd_mesh(cfg: RunConfig, out_dir: Path) -> int:
    mesh, layout, points, target = build_model(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_mesh(mesh, out_dir / "mesh.bin")
    io.save_layout(layout, out_dir / "electrodes.json")
    io.save_field_points(points, out_dir / "fieldpoints.json")
    io.save_target(target, out_dir / "target.json")
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_tets} tets, "
          f"{layout.n_electrodes} electrodes -> {out_dir}")
    return EXIT_OK


def cmd_leadfield(cfg: RunConfig, out_dir: Path) -> int:
    mesh = io.load_mesh(out_dir / "mesh.bin")
    layout = io.load_layout(out_dir / "electrodes.json")
    points = io.load_field_points(out_dir / "fieldpoints.json")
    target = io.load_target(out_dir / "target.json")
    system = fem.assemble(mesh, layout)
    # the roundoff of the factor's dense fronts and of the nuisance QR depends
    # on the BLAS thread count, so both run on one thread whatever the default
    with search.single_thread_blas():
        lf = fem.lead_field(system, mesh, points, target_point=target.point_index)
        problem = fem.split_problem(lf, target, cfg.mu)
    io.write_lead_field(lf, problem, out_dir / "leadfield.bin")
    print(f"lead field: {lf.matrix.shape[0]}x{lf.matrix.shape[1]} "
          f"-> {out_dir / 'leadfield.bin'}")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out_dir: Path, method: str,
                 alpha_db: float, weight_db: float) -> int:
    # on one BLAS thread, as a search reads the problem and a lattice
    # solves its cells, so that the cell rounds as it does in the lattice CSV
    with search.single_thread_blas():
        _, problem = io.read_lead_field(out_dir / "leadfield.bin")
        pattern = search.solve_single_cell(problem, method, alpha_db, weight_db,
                                           cfg.solver_opts())
        metrics = compute_metrics(problem, pattern)
    result = {
        "method": method,
        "alpha_db": alpha_db,
        "weight_db": weight_db,
        "status": pattern.status,
        "currents_ma": [v * 1e3 for v in pattern.y],
        **io.metric_fields(metrics),
    }
    io._dump_json(result, out_dir / "optimize.json")
    print(json.dumps(result, indent=1, sort_keys=True))
    return EXIT_OK


def run_search_pipeline(problem, cfg: RunConfig):
    """All (method, case, channels) searches with shared lattices.

    One lattice pool serves and keeps every lattice of the run; its
    workers are joined before this returns.  Returns (outcomes, timings);
    timings carries per-method first-run lattice times and
    per-combination wall times.
    """
    # validate has checked 2 <= k <= electrode_count, but the lead field
    # may have been built from another config
    for k in cfg.channels:
        if k > problem.n_electrodes:
            raise search.SearchError(f"channel count {k} exceeds the "
                                     f"{problem.n_electrodes} electrodes")
    spec_by_method = {
        m: search.default_lattice_spec(m, step_db=cfg.lattice_step_db)
        for m in cfg.methods
    }
    timings: dict[str, float] = {}
    outcomes = []
    with search.LatticePool(problem, search.resolve_threads(cfg.threads),
                            cfg.solver_opts()) as pool:
        for m in cfg.methods:
            t0 = time.perf_counter()
            pool.grid(problem, m, spec_by_method[m])
            timings[f"lattice_{m}_s"] = time.perf_counter() - t0

        for m in cfg.methods:
            for case in cfg.cases:
                for k in cfg.channels:
                    t0 = time.perf_counter()
                    outcome = search.two_run_search(
                        problem, m, case, k, spec_by_method[m],
                        threshold=cfg.gamma_threshold, pool=pool,
                    )
                    timings[f"search_{m}_{case}_{k}_s"] = time.perf_counter() - t0
                    outcomes.append(outcome)
    return outcomes, timings


def cmd_search(cfg: RunConfig, out_dir: Path) -> int:
    # the nuisance QR on one BLAS thread, as the lattices run
    with search.single_thread_blas():
        _, problem = io.read_lead_field(out_dir / "leadfield.bin")
    outcomes, timings = run_search_pipeline(problem, cfg)
    for outcome in outcomes:
        stem = f"lattice_{outcome.method}_case{outcome.case}_k{outcome.channels}"
        if outcome.run1_grid is not None:
            io.write_lattice_csv(outcome.run1_grid, out_dir / f"{stem}_run1.csv")
        if outcome.run2_grid is not None:
            io.write_lattice_csv(outcome.run2_grid, out_dir / f"{stem}_run2.csv")
    io.write_results([io.result_record(o) for o in outcomes], out_dir / "results.json")
    io._dump_json(timings, out_dir / "timings.json")
    print(f"search: {len(outcomes)} records -> {out_dir / 'results.json'}")
    if any(o.status != "ok" for o in outcomes):
        return EXIT_NO_CANDIDATE
    return EXIT_OK


def cmd_report(results_path: Path, out_dir: Path | None) -> int:
    data = io.load_results(results_path)
    text, csv = io.format_report(data)
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.csv").write_text(csv)
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="JSON config path")
    sub.add_argument("--out-dir", type=Path, default=Path("out"))
    sub.add_argument("--seed", type=int, default=None)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "lattice_step_db", None) is not None:
        cfg.lattice_step_db = args.lattice_step_db
    if getattr(args, "method", None):
        cfg.methods = tuple(args.method)
    if getattr(args, "case", None):
        cfg.cases = tuple(args.case)
    if getattr(args, "channels", None):
        cfg.channels = tuple(args.channels)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tesopt",
        description="Optimize multi-channel stimulation current patterns "
                    "on a synthetic layered ball head model.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("mesh", "leadfield"):
        sub = subs.add_parser(name)
        _add_common(sub)

    sub = subs.add_parser("optimize", help="single (method, alpha, weight) solve")
    _add_common(sub)
    # its own dest: _load_config reads ``method`` as search's list of methods
    sub.add_argument("--method", dest="solve_method", choices=search.METHODS,
                     required=True)
    sub.add_argument("--alpha-db", type=float, required=True)
    sub.add_argument("--weight-db", type=float, required=True)

    sub = subs.add_parser("search")
    _add_common(sub)
    sub.add_argument("--lattice-step-db", type=float, default=None)
    sub.add_argument("--method", choices=search.METHODS, action="append")
    sub.add_argument("--case", choices=("A", "B"), action="append")
    sub.add_argument("--channels", type=int, action="append")

    sub = subs.add_parser("report")
    sub.add_argument("results", type=Path)
    sub.add_argument("--out-dir", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.results, args.out_dir)
        cfg = _load_config(args)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out_dir, args.solve_method,
                                args.alpha_db, args.weight_db)
        if args.command == "mesh":
            return cmd_mesh(cfg, args.out_dir)
        if args.command == "leadfield":
            return cmd_leadfield(cfg, args.out_dir)
        if args.command == "search":
            return cmd_search(cfg, args.out_dir)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
