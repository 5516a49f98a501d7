"""Benchmark child process: one set-up or one closed loop of CLI runs.

Run by ``bench/run.py`` as ``python3 bench/child.py <job.json>``; the job
file says what to do and where to write the report.  Each CLI run is a
call to ``tesopt.cli.main`` in this process, the user's real entry point.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import CheckError, check_run  # noqa: E402
from tracer import Tracer, install_cells, install_parent  # noqa: E402


def _cli(argv: list[str]) -> int:
    from tesopt import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_setup(job: dict) -> dict:
    import numpy
    import scipy
    from tesopt import cli  # noqa: F401  (set-up includes the import)

    report = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if not job["build"]:
        return report
    tracer = Tracer(job["run_id"]) if job["trace"] else None
    if tracer:
        install_parent(tracer)
    out = job["model_dir"]
    codes = [_cli([cmd, "--config", job["config"], "--out-dir", out,
                   "--seed", str(job["seed"])])
             for cmd in ("mesh", "leadfield")]
    if tracer:
        tracer.restore()
        report["spans"] = tracer.records()
    report["codes"] = codes
    if any(codes):
        report["error"] = f"set-up CLI exit codes {codes}"
    return report


def run_loop(job: dict) -> dict:
    from tesopt import search
    from tesopt.config import RunConfig

    models = job["models"]
    configs = [RunConfig.load(m["config"]) for m in models]
    work = Path(job["work_dir"])
    tracer = Tracer(job["run_id"]) if job["trace"] != "off" else None
    if tracer:
        install_parent(tracer)
        if job["trace"] == "all":
            install_cells(tracer)
    iterations = []
    report = {"iterations": iterations,
              "workers": search.resolve_threads(configs[0].threads)}
    t_begin = time.monotonic()
    i = 0
    while True:
        k = i % len(models)
        model = models[k]
        out = work / f"it{i}"
        out.mkdir(parents=True)
        for name in job["copy"]:
            shutil.copyfile(Path(model["dir"]) / name, out / name)
        argvs = [[cmd, "--config", model["config"], "--out-dir", str(out),
                  "--seed", str(model["seed"]),
                  *(job["search_args"] if cmd == "search" else [])]
                 for cmd in job["commands"]]
        span = tracer.span("bench.iteration", {"iteration": i, "model": k}) \
            if tracer else contextlib.nullcontext()
        t_start = time.monotonic()
        with span:
            c0, t0 = _cpu_seconds(), time.perf_counter()
            codes = [_cli(argv) for argv in argvs]
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        rec = {"model": k, "wall": wall, "cpu": cpu, "t_start": t_start,
               "t_end": time.monotonic(), "codes": codes}
        try:
            rec.update(check_run(out, codes, configs[k].mu))
        except (CheckError, OSError, ValueError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        iterations.append(rec)
        shutil.rmtree(out)
        i += 1
        if "error" in rec:
            break
        if i >= len(models) and time.monotonic() - t_begin >= job["seconds"]:
            break
    if tracer:
        tracer.restore()
        report["spans"] = tracer.records()
    return report


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    report = run_setup(job) if job["role"] == "setup" else run_loop(job)
    Path(job["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
