"""Benchmark workloads: model configs and the CLI commands they time."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

# The desk model (RunConfig defaults) needs a 5 mm mesh to resolve its
# 5 mm outer layer, and building it takes ~15 s on a 2-core machine, so a
# run could not repeat it.  The bench model keeps the defaults except for
# the test suite's small-ball geometry (10 mm layers) meshed at 7.5 mm:
# 8 625 nodes, 43 248 tets, 32 electrodes.  The solvers' problem size is
# set by the electrodes and field points, not by the mesh, so the search
# workloads mesh at 10 mm, which halves their set-up.
BENCH_MODEL = {"radii": [0.09, 0.08, 0.07], "cell_size": 0.0075}

# Tiny model for the quick mode and its smoke test.
QUICK_MODEL = {"radii": [0.09, 0.08, 0.07], "cell_size": 0.01,
               "electrode_count": 8, "field_point_count": 100,
               "channels": [4, 6]}
QUICK_STEP_DB = "60"

WORKERS = 2          # lattice workers, set through the config's "threads"
IMPORT_SETUPS = 9    # set-ups timed per run when set-up is import only
QUICK_MODELS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                    # overrides of RunConfig defaults
    search_args: tuple[str, ...]    # `tesopt search` arguments
    build_in_setup: bool            # mesh + leadfield in set-up, not timed
    models: int                     # field-point draws per run
    # reduces the models' best repeats to the run's figure
    center: Callable[[list[float]], float] = statistics.median

    def model_config(self, quick: bool, threads: int) -> dict:
        """The config file; the seed goes to the CLI's --seed instead."""
        return {**BENCH_MODEL, **self.config, **(QUICK_MODEL if quick else {}),
                "threads": threads}

    def search_argv(self, quick: bool) -> list[str]:
        args = list(self.search_args)
        if quick:
            args[args.index("--lattice-step-db") + 1] = QUICK_STEP_DB
        return args


# Every search keeps only case B, the densest cell: case A's threshold is
# met or missed depending on the field-point draw, which changes how many
# lattices a search evaluates from one model to the next.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pipeline_tls",
            config={},
            search_args=("--method", "tls", "--case", "B", "--lattice-step-db", "15"),
            build_in_setup=False,
            # the draw barely changes this workload's cost, so fewer
            # models leave more repeats of each
            models=3,
        ),
        Workload(
            name="search_l1l1",
            config={"cell_size": 0.01, "field_point_count": 100},
            search_args=("--method", "l1l1", "--case", "B", "--lattice-step-db", "45"),
            build_in_setup=True,
            # a few draws stall many more cells than the rest, so the
            # median over the draws, not their mean
            models=5,
        ),
        # One draw's L1L2 cost is set by its projection cycles, which vary
        # with the field points: up to 6x between draws of 100 points,
        # 1.6x between draws of 4000 at a cap of 150.  The draws' costs
        # have no heavy tail, so their mean, which averages the draw out
        # better than the median, is the run's figure.  The iteration cap
        # keeps a search under a second, so each draw repeats in a run.
        Workload(
            name="search_l1l2",
            config={"cell_size": 0.01, "field_point_count": 4000, "l1l2_max_iter": 100},
            search_args=("--method", "l1l2", "--case", "B", "--lattice-step-db", "45"),
            build_in_setup=True,
            models=10,
            center=statistics.mean,
        ),
    )
}


def derived_seeds(seed: int, count: int) -> list[int]:
    """Field-point seeds of the models one run searches."""
    return [seed * 1000 + k for k in range(count)]
