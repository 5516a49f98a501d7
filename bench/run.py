#!/usr/bin/env python3
"""tesopt benchmark: one workload, one seed, metrics as one JSON line.

    python3 bench/run.py --workload search_l1l1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up builds the models each run
searches, in fresh interpreters, and is timed separately.  The timed part
runs in one child process as a closed loop with one client: each
iteration calls ``tesopt.cli.main`` for the workload's commands into a
fresh directory, then checks the outputs.  ``--trace 1`` instead makes
a traced run and prints the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from workloads import IMPORT_SETUPS, QUICK_MODELS, WORKERS, WORKLOADS, derived_seeds  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0          # the run must end within 180 s
SAMPLE_PERIOD_S = 0.1       # memory sampling period

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "1/s",
                    "ok_frac": "ratio", "peak_rss_mb": "MB"}
CELL_STATUSES = ("optimal", "degenerate", "max_iter", "error")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------- children

class Runner:
    """Starts child processes with the benchmark's environment and a shared
    deadline, and removes its scratch directory when closed."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("TESOPT_THREADS", None)      # workers come from the config
        for var in BLAS_ENV:
            self.env[var] = "1"
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        tmp = scratch / "tmp"
        tmp.mkdir(parents=True)
        self.env["TMPDIR"] = str(tmp)
        self._jobs = 0

    def run(self, job: dict, sampler: bool = False) -> tuple[dict, float, list]:
        """Run one child job; returns (report, wall seconds, memory samples)."""
        self._jobs += 1
        job_path = self.scratch / f"job{self._jobs}.json"
        job["report"] = str(self.scratch / f"report{self._jobs}.json")
        job_path.write_text(json.dumps(job))
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                                env=self.env, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        # a blocking wait returns as soon as the child exits (a wait with a
        # timeout polls); the timer kills the child's process group, pool
        # workers included, at the run's deadline
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                 os.killpg, (proc.pid, signal.SIGKILL))
        mem = PssSampler(proc.pid) if sampler else None
        killer.start()
        if mem:
            mem.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if mem:
                mem.stop.set()
                mem.join()
        wall = time.perf_counter() - t0
        if code == -signal.SIGKILL:
            raise BenchError(f"{job['role']} child exceeded the run deadline")
        if code != 0:
            raise BenchError(f"{job['role']} child exited {code}")
        report = json.loads(Path(job["report"]).read_text())
        if "error" in report:
            raise BenchError(report["error"])
        return report, wall, mem.samples if mem else []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class PssSampler(threading.Thread):
    """Samples the proportional set size of a process and its descendants,
    so pages that forked pool workers share are counted once."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[tuple[float, float]] = []   # (monotonic, MB)
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            t = time.monotonic()
            kb = sum(_pss_kb(p) for p in _process_tree(self.pid))
            if kb:
                self.samples.append((t, kb / 1024.0))
            self.stop.wait(SAMPLE_PERIOD_S)


def _process_tree(pid: int) -> list[int]:
    pids = [pid]
    for p in pids:
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    pids.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return pids


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ------------------------------------------------------------------ phases

def write_configs(runner: Runner, workload, seeds: list[int], quick: bool,
                  threads: int, tag: str) -> list[dict]:
    models = []
    for k, s in enumerate(seeds):
        model_dir = runner.scratch / f"model{k}"
        model_dir.mkdir(exist_ok=True)
        cfg_path = model_dir / f"config-{tag}.json"
        cfg_path.write_text(json.dumps(workload.model_config(quick, threads)))
        models.append({"dir": str(model_dir), "config": str(cfg_path), "seed": s})
    return models


def set_up(runner: Runner, workload, models: list[dict], trace: bool) -> tuple[list[float], dict]:
    """Build every model, or for pipeline workloads only import, several
    times; returns the set-up wall times and the first child's report."""
    count = len(models) if workload.build_in_setup else IMPORT_SETUPS
    walls, first = [], None
    for k in range(count):
        model = models[k % len(models)]
        report, wall, _ = runner.run({
            "role": "setup", "build": workload.build_in_setup,
            "trace": trace and k == 0, "run_id": "setup",
            "config": model["config"], "model_dir": model["dir"], "seed": model["seed"],
        })
        walls.append(wall)
        first = first or report
    return walls, first


def timed_loop(runner: Runner, workload, models: list[dict], quick: bool,
               seconds: float, trace: str, run_id: str) -> dict:
    commands = ["search"] if workload.build_in_setup else ["mesh", "leadfield", "search"]
    copy = ["leadfield.bin", "leadfield.json"] if workload.build_in_setup else []
    report, _, samples = runner.run({
        "role": "loop", "models": models, "commands": commands, "copy": copy,
        "search_args": workload.search_argv(quick), "work_dir": str(runner.scratch / run_id),
        "seconds": seconds, "trace": trace, "run_id": run_id,
    }, sampler=True)
    for rec in report["iterations"]:
        inside = [mb for t, mb in samples if rec["t_start"] <= t <= rec["t_end"]]
        rec["peak_mb"] = max(inside) if inside else None
    return report


# ----------------------------------------------------------------- metrics

def per_model(iterations: list[dict], key, center, reduce=min) -> float:
    """``center`` over models of ``reduce`` over each model's iterations.

    The best of a model's repeats (the default) drops repeats that other
    tenants of the machine slowed down; ``center`` over the models
    averages out the field-point draws (the workload's median or mean).
    """
    by_model: dict[int, list[float]] = {}
    for rec in iterations:
        by_model.setdefault(rec["model"], []).append(key(rec))
    return center([reduce(v) for v in by_model.values()])


def ok_fraction(iterations: list[dict]) -> float:
    """Succeeded cells over cells, pooled over the models: each model
    counts once however often it repeated, and an iteration that failed
    a check counts as all of its cells failed."""
    by_model: dict[int, list[dict]] = {}
    for rec in iterations:
        by_model.setdefault(rec["model"], []).append(rec)
    ok = cells = 0.0
    for recs in by_model.values():
        good = [r for r in recs if "error" not in r]
        if not good:
            continue
        ok += statistics.median(0 if "error" in r else r["ok"] for r in recs)
        cells += statistics.median(r["cells"] for r in good)
    return ok / cells if cells else 0.0


def end_to_end(workload, setup_walls: list[float], iterations: list[dict]) -> dict:
    good = [r for r in iterations if "error" not in r]
    if not good:
        raise BenchError("no iteration completed")
    values = {
        "wall_s": per_model(good, lambda r: r["wall"], workload.center),
        "setup_s": statistics.median(setup_walls),
        "cells_per_s": per_model(good, lambda r: r["cells"] / r["wall"], workload.center,
                                 reduce=max),
        "ok_frac": ok_fraction(iterations),
        # the loop process grows over its first iterations; the median over
        # all iterations reads its plateau
        "peak_rss_mb": statistics.median(r["peak_mb"] or 0.0 for r in good),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _spans_by_name(spans: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(setup_spans: list[dict], parallel: dict, serial: dict,
                  untraced: dict, workers: int) -> dict:
    """Per-layer metrics: set-up and parent-side spans from the traced run at
    ``workers`` lattice workers, cell-level spans from the serial pass.
    Sums are per timed iteration; set-up spans are added once."""
    n_par = len(parallel["iterations"])
    n_ser = len(serial["iterations"])
    setup = _spans_by_name(setup_spans)
    par = _spans_by_name(parallel["spans"])
    ser = _spans_by_name(serial["spans"])

    def stage(name: str, self_time: bool = False) -> float:
        key = "self" if self_time else None
        total_setup = sum(s[key] if key else _dur(s) for s in setup.get(name, []))
        total_par = sum(s[key] if key else _dur(s) for s in par.get(name, []))
        return total_setup + total_par / n_par

    m = {}
    for name in ("meshgen.generate_ball_mesh", "meshgen.place_electrodes",
                 "meshgen.sample_field_points", "fem.assemble", "fem.resistivity_matrix",
                 "fem.split_problem", "io.save_mesh", "io.load_mesh", "io.write_lead_field",
                 "io.read_lead_field", "io.write_lattice_csv", "io.write_results",
                 "cli.cmd_mesh", "cli.cmd_leadfield", "cli.cmd_search",
                 "metrics.compute_metrics"):
        m[f"{name}_s"] = stage(name)
    m["fem.lead_field_self_s"] = stage("fem.lead_field", self_time=True)
    written = [s for s in setup_spans + parallel["spans"]
               if s["name"].startswith("io.") and "bytes" in s.get("attrs", {})]
    m["io.bytes_written"] = (sum(s["attrs"]["bytes"] for s in written if s["run"] == "setup")
                             + sum(s["attrs"]["bytes"] for s in written if s["run"] != "setup")
                             / n_par)

    lattices = par.get("search.evaluate_lattice", [])
    cells = sum(s["attrs"]["cells"] for s in lattices)
    m["search.evaluate_lattice_calls"] = len(lattices) / n_par
    m["search.evaluate_lattice_s"] = sum(map(_dur, lattices)) / n_par
    m["search.cells"] = cells / n_par
    m["search.valid_ratio"] = sum(s["attrs"]["valid"] for s in lattices) / max(cells, 1)
    parents_with_lattice = {s["parent"] for s in lattices}
    m["search.run2_cache_hits"] = sum(
        1 for s in par.get("search.two_run_search", [])
        if s["attrs"]["run2"] and s["id"] not in parents_with_lattice) / n_par

    cell_times = [_dur(s) for s in ser.get("search.solve_single_cell", [])]
    m["search.cell_s_p50"] = _quantile(cell_times, 0.5)
    m["search.cell_s_p90"] = _quantile(cell_times, 0.9)
    m["search.cell_s_max"] = max(cell_times, default=0.0)
    # sum of cell seconds (serial pass) over worker-seconds spent in lattices
    lattice_s = m["search.evaluate_lattice_s"] * n_par
    m["search.parallel_efficiency"] = (sum(cell_times) / n_ser * n_par) / (workers * lattice_s) \
        if lattice_s else 0.0

    for name in ("optimizers.solve_l1l1", "optimizers.build_l1l1_lp", "lp.solve_lp",
                 "optimizers.solve_l1l2", "optimizers.project_feasible",
                 "optimizers.solve_tls"):
        m[f"{name}_s"] = sum(map(_dur, ser.get(name, []))) / n_ser
    lp_calls = ser.get("lp.solve_lp", [])
    iters = [s["attrs"]["iterations"] for s in lp_calls if "iterations" in s["attrs"]]
    m["lp.solve_lp_calls"] = len(lp_calls) / n_ser
    m["lp.iterations_total"] = sum(iters) / n_ser
    m["lp.iterations_p50"] = _quantile(iters, 0.5)
    m["lp.iterations_max"] = max(iters, default=0)
    m["lp.optimal_ratio"] = (sum(s["attrs"]["status"] == "optimal" for s in lp_calls)
                             / len(lp_calls)) if lp_calls else 0.0
    m["optimizers.project_feasible_calls"] = len(ser.get("optimizers.project_feasible", [])) / n_ser
    cell_status = [s["attrs"]["status"] for s in ser.get("search.solve_single_cell", [])]
    for status in CELL_STATUSES:
        m[f"optimizers.status_{status}"] = cell_status.count(status) / n_ser

    traced_wall = statistics.median(r["wall"] for r in parallel["iterations"])
    untraced_wall = statistics.median(r["wall"] for r in untraced["iterations"])
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in m.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("search.cell_s_"):
        return "s"
    if name == "io.bytes_written":
        return "bytes"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


# -------------------------------------------------------------------- main

def check_identical(passes: list[dict]) -> list[str]:
    """results.json must be byte-identical for every run of one model."""
    digests: dict[int, set] = {}
    for report in passes:
        for rec in report["iterations"]:
            if "results_sha256" in rec:
                digests.setdefault(rec["model"], set()).add(rec["results_sha256"])
    return [f"model {k}: {len(d)} different results.json" for k, d in digests.items() if len(d) > 1]


def environment(args, workload, runner: Runner, seeds: list[int], first_setup: dict,
                workers: int) -> dict:
    return {
        "workload": workload.name, "seed": args.seed,
        "seed_role": {1: "development", 2: "hold-out"}.get(args.seed, "other"),
        "model_seeds": seeds, "quick": args.quick,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": first_setup.get("numpy"), "scipy": first_setup.get("scipy"),
        "blas_threads": {v: runner.env[v] for v in BLAS_ENV},
        "lattice_workers": workers, "config_threads": WORKERS,
        "search_args": workload.search_argv(args.quick),
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(OUT_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            return traced_run(args, workload, runner, derived_seeds(args.seed, 1))
        seeds = derived_seeds(args.seed, QUICK_MODELS if args.quick else workload.models)
        models = write_configs(runner, workload, seeds, args.quick, WORKERS, "par")
        setup_walls, first = set_up(runner, workload, models, trace=False)
        loop = timed_loop(runner, workload, models, args.quick, args.seconds, "off", "timed")
        errors = [r["error"] for r in loop["iterations"] if "error" in r]
        errors += check_identical([loop])
        result = {
            "correct": not errors, "attempted": len(loop["iterations"]),
            "failed": sum("error" in r for r in loop["iterations"]),
            "metrics": end_to_end(workload, setup_walls, loop["iterations"]),
        }
        env = environment(args, workload, runner, seeds, first, loop["workers"])
        _save(f"{args.workload}-seed{args.seed}.json", {
            "result": result, "environment": env, "errors": errors,
            "setup_walls": setup_walls, "iterations": loop["iterations"],
        })
        return result
    finally:
        runner.close()


def traced_run(args, workload, runner: Runner, seeds: list[int]) -> dict:
    """Untraced, parent-traced and serial cell-traced passes over one model."""
    models = write_configs(runner, workload, seeds, args.quick, WORKERS, "par")
    serial_models = write_configs(runner, workload, seeds, args.quick, 1, "serial")
    _, first = set_up(runner, workload, models, trace=True)
    share = args.seconds / 3.0
    untraced = timed_loop(runner, workload, models, args.quick, share, "off", "untraced")
    parallel = timed_loop(runner, workload, models, args.quick, share, "parent", "parent")
    serial = timed_loop(runner, workload, serial_models, args.quick, 0.0, "all", "serial")
    passes = [untraced, parallel, serial]
    iterations = [r for p in passes for r in p["iterations"]]
    errors = [r["error"] for r in iterations if "error" in r]
    errors += check_identical(passes)
    metrics = {} if errors else layer_metrics(first.get("spans", []), parallel, serial,
                                              untraced, parallel["workers"])
    result = {"correct": not errors, "attempted": len(iterations),
              "failed": sum("error" in r for r in iterations), "metrics": metrics}
    spans = first.get("spans", []) + parallel["spans"] + serial["spans"]
    _save(f"trace-{args.workload}-seed{args.seed}.json", {
        "result": result, "errors": errors,
        "environment": environment(args, workload, runner, seeds, first, parallel["workers"]),
        "passes": {"untraced": untraced["iterations"], "parent": parallel["iterations"],
                   "serial": serial["iterations"]},
        "spans": spans,
    })
    return result


def _save(name: str, data: dict) -> None:
    """Write the run's details and echo its environment (seed, worker and
    BLAS thread settings, versions) on a line before the result line."""
    path = OUT_DIR / name
    path.write_text(json.dumps(data))
    print(f"details: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"environment": data["environment"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="1 is the development seed, 2 the hold-out seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny model and coarse lattices, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tesopt" / "__init__.py").is_file():
        print("error: tesopt sources not found under src/ of this checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
