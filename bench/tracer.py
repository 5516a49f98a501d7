"""In-memory span tracer that wraps tesopt functions from the outside.

Each wrapped function is replaced at the module attribute its caller
looks up (``optimizers.solve_lp``, not ``lp.solve_lp``), so the program
itself is unchanged.  A span records its name, start, end, the span that
was open when it started, and optional attributes taken from the call's
arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []       # [id, parent, name, start, end, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span around a block, for spans the benchmark opens itself."""
        rec = self._open(name)
        rec[5] = attrs
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, name: str, attrs=None, label: str | None = None) -> None:
        """Replace ``module.name`` by a traced version.

        The span is named ``label``, by default ``<module>.<name>``.
        ``attrs(args, kwargs, result, exc)`` may return a dict stored on
        the span; ``exc`` is the exception the call raised, if any.
        """
        orig = getattr(module, name)
        label = label or f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = self._open(label)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                if attrs is not None:
                    rec[5] = attrs(args, kwargs, None, exc)
                raise
            self._close(rec)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result, None)
            return result

        setattr(module, name, traced)
        self._patches.append((module, name, orig))

    def restore(self) -> None:
        for module, name, orig in reversed(self._patches):
            setattr(module, name, orig)
        self._patches.clear()

    def records(self) -> list[dict]:
        """Spans as dicts with self time (duration minus child durations)."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {"run": self.run_id, "id": sid, "parent": parent, "name": name,
             "start": start, "end": end, "self": (end - start) - child_time[sid],
             **({"attrs": attrs} if attrs else {})}
            for sid, parent, name, start, end, attrs in self.spans
        ]


def _written_bytes(*paths) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in paths if Path(p).exists())}


def _path_attr(index: int, sidecar: bool = False):
    def attrs(args, kwargs, result, exc):
        if exc is not None:
            return {"error": type(exc).__name__}
        path = Path(args[index])
        return _written_bytes(path, path.with_suffix(".json")) if sidecar \
            else _written_bytes(path)
    return attrs


def _cell_status(args, kwargs, result, exc):
    return {"status": "error" if exc is not None else result.status}


def _lp_attrs(args, kwargs, result, exc):
    if exc is not None:
        return {"status": "error"}
    return {"status": result.status, "iterations": result.iterations}


def _grid_cells(args, kwargs, result, exc):
    if exc is not None:
        return {"error": type(exc).__name__}
    cells = [c for row in result.cells for c in row]
    return {"cells": len(cells), "valid": sum(c.valid for c in cells)}


def _run2_grid(args, kwargs, result, exc):
    if exc is not None:
        return {"error": type(exc).__name__}
    return {"run2": result.run2_grid is not None}


def install_parent(tracer: Tracer) -> None:
    """Functions that run in the CLI process whatever the worker count."""
    from tesopt import cli, fem, io, meshgen, search

    for name in ("cmd_mesh", "cmd_leadfield", "cmd_search"):
        tracer.wrap(cli, name)
    for name in ("generate_ball_mesh", "place_electrodes", "sample_field_points"):
        tracer.wrap(meshgen, name)
    for name in ("assemble", "lead_field", "resistivity_matrix", "split_problem"):
        tracer.wrap(fem, name)
    for name in ("save_mesh", "save_layout", "save_field_points", "save_target",
                 "write_lattice_csv", "write_results"):
        tracer.wrap(io, name, attrs=_path_attr(1))
    tracer.wrap(io, "write_lead_field", attrs=_path_attr(2, sidecar=True))
    tracer.wrap(io, "load_mesh")
    tracer.wrap(io, "read_lead_field")
    tracer.wrap(search, "evaluate_lattice", attrs=_grid_cells)
    tracer.wrap(search, "two_run_search", attrs=_run2_grid)
    tracer.wrap(search, "compute_metrics", label="metrics.compute_metrics")


def install_cells(tracer: Tracer) -> None:
    """Per-cell solver functions; these run inside pool workers unless the
    lattice is evaluated serially, so trace them only on a serial pass."""
    from tesopt import optimizers, search

    tracer.wrap(search, "solve_single_cell", attrs=_cell_status)
    for name in ("solve_l1l1", "solve_l1l2", "solve_tls", "build_l1l1_lp",
                 "project_feasible"):
        tracer.wrap(optimizers, name)
    tracer.wrap(optimizers, "solve_lp", attrs=_lp_attrs, label="lp.solve_lp")
