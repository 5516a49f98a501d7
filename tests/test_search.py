import ctypes
import functools
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_problem
from tesopt import search
from tesopt.metrics import MetricSet, compute_metrics
from tesopt.optimizers import CurrentPattern, StimulusProblem
from tesopt.search import (
    CandidateCell,
    CandidateGrid,
    LatticeSpec,
    SearchError,
    _window_deviations,
    db_to_linear,
    default_lattice_spec,
    evaluate_lattice,
    restrict_montage,
    select_case_a,
    select_case_b,
    two_run_search,
)


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert np.isclose(db_to_linear(20.0), 10.0)
    assert np.isclose(db_to_linear(-160.0), 1e-8)


def test_default_ranges_and_dims():
    spec = default_lattice_spec("l1l1", step_db=5.0)
    assert spec.dims == (36, 36)
    assert spec.alpha_values[0] == -160.0
    assert spec.alpha_values[-1] == 15.0
    spec = default_lattice_spec("l1l1", step_db=15.0)
    assert spec.dims == (12, 12)
    spec = default_lattice_spec("tls", step_db=5.0)
    assert spec.alpha_values[0] == -240.0
    assert spec.weight_values[0] == -100.0
    assert spec.dims == (36, 36)
    spec = default_lattice_spec("l1l2", step_db=5.0)
    assert (spec.alpha_db_min, spec.alpha_db_max) == (-140.0, 40.0)


def test_lattice_spec_validation():
    with pytest.raises(SearchError):
        LatticeSpec(0.0, 10.0, 0.0, 10.0, step_db=3.0)
    with pytest.raises(SearchError):
        LatticeSpec(10.0, 0.0, 0.0, 10.0, step_db=5.0)
    # non-finite bounds and steps, and a lattice without a cell
    nan, inf = float("nan"), float("inf")
    for bounds, step in (((nan, 0.0, 0.0, 10.0), 5.0), ((0.0, 10.0, -inf, 10.0), 5.0),
                         ((0.0, 10.0, 0.0, inf), 5.0), ((0.0, 10.0, 0.0, 10.0), nan),
                         ((0.0, 1e-12, 0.0, 10.0), 5.0)):
        with pytest.raises(SearchError):
            LatticeSpec(*bounds, step_db=step)
    for step in (inf, nan):
        with pytest.raises(SearchError):
            default_lattice_spec("tls", step_db=step)


def _grid_from_metrics(gammas, thetas):
    cells = []
    for i, row in enumerate(gammas):
        out = []
        for j, g in enumerate(row):
            pat = CurrentPattern(y=np.array([1e-3, -1e-3]), electrode_ids=(1, 2),
                                 active_ids=(1, 2), status="optimal",
                                 raw_objective=0.0)
            m = MetricSet(gamma=g, theta=thetas[i][j], ad_deg=10.0, max_current=1e-3)
            out.append(CandidateCell(float(i), float(j), pat, m, "ok"))
        cells.append(out)
    spec = LatticeSpec(0.0, 5.0 * len(gammas), 0.0, 5.0 * len(gammas[0]), 5.0)
    return CandidateGrid(method="tls", spec=spec, cells=cells)


def test_select_case_a_enumeration():
    grid = _grid_from_metrics([[0.05, 0.12], [0.13, 0.20]], [[9, 5], [4, 1]])
    assert select_case_a(grid, 0.11) == (0, 1)
    assert select_case_a(grid, 1.0) is None
    # exactly one above threshold wins regardless of theta
    grid = _grid_from_metrics([[0.05, 0.12], [0.01, 0.02]], [[9, 0.1], [4, 1]])
    assert select_case_a(grid, 0.11) == (0, 1)


def test_select_case_b_enumeration():
    grid = _grid_from_metrics([[0.05, 0.12], [0.13, 0.20]], [[9, 5], [4, 1]])
    assert select_case_b(grid) == (1, 1)
    # tie prefers lower alpha index
    grid = _grid_from_metrics([[0.20, 0.12], [0.13, 0.20]], [[9, 5], [4, 1]])
    assert select_case_b(grid) == (0, 0)


def test_select_case_b_all_invalid():
    grid = _grid_from_metrics([[0.1]], [[1.0]])
    grid.cells[0][0] = replace(grid.cells[0][0], status="degenerate")
    assert not grid.cells[0][0].valid
    with pytest.raises(SearchError):
        select_case_b(grid)
    assert select_case_a(grid, 0.0) is None


def test_restrict_montage_rules():
    y = np.array([1.2, -0.4, -0.5, -0.3])
    assert restrict_montage(y, 2) == (1, 3)
    assert restrict_montage(y, 4) == (1, 2, 3, 4)
    # tie at the cut keeps the lower id
    y = np.array([1.0, -0.5, -0.5, 0.0])
    assert restrict_montage(y, 2) == (1, 2)
    with pytest.raises(SearchError):
        restrict_montage(y, 1)


def test_evaluate_lattice_single_cell(rng):
    p = random_problem(rng)
    spec = LatticeSpec(-60.0, -45.0, -60.0, -45.0, step_db=15.0)
    grid = evaluate_lattice(p, "tls", spec)
    assert grid.dims == (1, 1)
    cell = grid.cell(0, 0)
    assert cell.valid
    cell.metrics.validate()


def test_lattice_failures_recorded_not_raised(rng):
    p = random_problem(rng)
    # huge alpha drives the pattern to zero: degenerate cells, never raises
    spec = LatticeSpec(100.0, 130.0, -30.0, 0.0, step_db=15.0)
    grid = evaluate_lattice(p, "l1l2", spec)
    assert any(not c.valid and c.status == "degenerate"
               for row in grid.cells for c in row)


def test_lattices_store_nothing_on_the_problem(rng):
    # a problem is immutable: serial lattices of every method leave its
    # pickle, which each worker task carries, as it was
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    size = len(pickle.dumps(p))
    spec = LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0)
    for method in ("l1l1", "l1l2", "tls"):
        grid = evaluate_lattice(p, method, spec)
        assert any(c.pattern.status == "optimal" for row in grid.cells for c in row)
        assert len(pickle.dumps(p)) == size, method
    with pytest.raises(FrozenInstanceError):
        p.R = p.R[:1]


def _pooled_lattice(p, method, spec, threads, opts=None):
    """One lattice on a pool of ``threads`` workers, joined on return."""
    with search.LatticePool(p, threads, opts) as pool:
        return evaluate_lattice(p, method, spec, pool=pool)


def test_lattice_parallel_schedule_independence(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    g1 = evaluate_lattice(p, "l1l1", spec)
    g2 = _pooled_lattice(p, "l1l1", spec, 2)
    for r1, r2 in zip(g1.cells, g2.cells):
        for c1, c2 in zip(r1, r2):
            assert np.array_equal(c1.pattern.y, c2.pattern.y)
            assert c1.metrics == c2.metrics


def _blas_calls(paths, kind, *args):
    """Call each library's known get or set thread-count symbol."""
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in search.BLAS_THREAD_SETTERS:
            fn = getattr(lib, name.replace("_set_", f"_{kind}_"), None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int] * len(args)
                fn.restype = ctypes.c_int if kind == "get" else None
                out.append(fn(*args))
                break
    return out


def test_lattice_workers_pin_blas(rng):
    # workers run every bundled OpenBLAS on one thread, the parent keeps
    # its own count, and an L1L1 lattice is byte-identical either way
    paths = search._openblas_paths()
    saved = {path: _blas_calls([path], "get") for path in paths}
    known = sum(len(counts) for counts in saved.values())
    assert known, "no OpenBLAS with a known thread-count symbol is loaded"
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    try:
        _blas_calls(paths, "set", 2)
        parent = _blas_calls(paths, "get")
        with ProcessPoolExecutor(max_workers=1, initializer=search._pin_blas) as pool:
            worker = pool.submit(_blas_calls, paths, "get").result(timeout=60)
        assert worker == [1] * known
        assert _blas_calls(paths, "get") == parent
        spec = LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0)
        g1 = evaluate_lattice(p, "l1l1", spec)
        g2 = _pooled_lattice(p, "l1l1", spec, 2)
    finally:
        for path, counts in saved.items():
            for count in counts:  # none for a library without a known symbol
                _blas_calls([path], "set", count)
    for r1, r2 in zip(g1.cells, g2.cells):
        for c1, c2 in zip(r1, r2):
            assert c1.pattern.y.tobytes() == c2.pattern.y.tobytes()
            assert (c1.pattern.status, c1.valid, c1.status) == \
                (c2.pattern.status, c2.valid, c2.status)
            assert repr(c1.metrics) == repr(c2.metrics)


def _assert_same_cells(g1, g2):
    assert g1.dims == g2.dims
    for r1, r2 in zip(g1.cells, g2.cells):
        for c1, c2 in zip(r1, r2):
            assert c1.pattern.y.tobytes() == c2.pattern.y.tobytes()
            assert (c1.alpha_db, c1.weight_db, c1.pattern.status, c1.valid, c1.status) == \
                (c2.alpha_db, c2.weight_db, c2.pattern.status, c2.valid, c2.status)
            assert repr(c1.metrics) == repr(c2.metrics)


def test_lattice_error_cells_independent_of_threads(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-60.0, -30.0, -60.0, -30.0, step_db=15.0)
    # an unknown solver option makes every cell raise, at any worker count
    opts = {"l1l2": {"bogus": 1}}
    g1 = _pooled_lattice(p, "l1l2", spec, 1, opts)
    g2 = _pooled_lattice(p, "l1l2", spec, 2, opts)
    assert g1.dims == g2.dims == (2, 2)
    for row in g1.cells:
        for c1 in row:
            assert not c1.valid
            assert c1.pattern.status == "error"
            assert np.array_equal(c1.pattern.y, np.zeros(4))
            assert c1.status.startswith("TypeError:")
    _assert_same_cells(g1, g2)

    # a run-2 lattice whose sub-problem the tasks carry to the workers,
    # next to an erroring one, on the pool of the full problem
    ids = (1, 3, 4)
    serial = evaluate_lattice(p.restrict(ids), "l1l1", spec)
    with search.LatticePool(p, 1, opts) as pool:
        serial_err = evaluate_lattice(pool.restrict(ids), "l1l2", spec, pool=pool)
    with search.LatticePool(p, 2, opts) as pool:
        pooled = evaluate_lattice(pool.restrict(ids), "l1l1", spec, pool=pool)
        pooled_err = evaluate_lattice(pool.restrict(ids), "l1l2", spec, pool=pool)
    assert all(c.valid for row in pooled.cells for c in row)
    assert all(c.pattern.status == "error" for row in pooled_err.cells for c in row)
    _assert_same_cells(serial, pooled)
    _assert_same_cells(serial_err, pooled_err)


@pytest.mark.parametrize("method", ["l1l2", "tls"])
def test_lattice_error_stays_on_its_cell(rng, monkeypatch, method):
    # an L1L2 or TLS lattice is one solver call; when it raises, the cells
    # are solved one by one, so only the raising cell becomes an error
    # cell and every other cell keeps the bytes of the lattice call
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    lanes = evaluate_lattice(p, method, spec)
    assert all(c.pattern.status != "error" for row in lanes.cells for c in row)
    solve = getattr(search.optimizers, "solve_" + method)
    bad = (db_to_linear(-60.0), db_to_linear(-90.0))

    def failing(p, alpha, eps, **kwargs):
        if bad in zip(alpha, eps):
            raise FloatingPointError("bad lane")
        return solve(p, alpha, eps, **kwargs)

    monkeypatch.setattr(search.optimizers, "solve_" + method, failing)
    grid = evaluate_lattice(p, method, spec)
    for r1, r2 in zip(lanes.cells, grid.cells):
        for c1, c2 in zip(r1, r2):
            if (c2.alpha_db, c2.weight_db) == (-60.0, -90.0):
                assert c2.pattern.status == "error" and not c2.valid
                assert c2.status == "FloatingPointError: bad lane"
            else:
                assert c1.pattern.y.tobytes() == c2.pattern.y.tobytes()
                assert (c1.pattern.status, c1.valid, c1.status) == \
                    (c2.pattern.status, c2.valid, c2.status)


def test_l1l1_lattice_error_stays_on_its_cell(rng, monkeypatch):
    # when the lane solve of an L1L1 lattice raises, the cells are solved
    # one by one, serially and in the workers' shares alike: only the cell
    # that raises becomes an error cell, the others keep their bytes
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    spec = LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0)
    lanes = evaluate_lattice(p, "l1l1", spec)
    bad = (-90.0, -30.0)
    assert (lanes.cell(1, 1).alpha_db, lanes.cell(1, 1).weight_db) == bad
    assert lanes.cell(1, 1).valid
    build = search.optimizers.build_l1l1_lp

    def failing(p, ops, alpha, eps):
        if (alpha, eps) == (db_to_linear(bad[0]), db_to_linear(bad[1])):
            raise FloatingPointError("bad lane")
        return build(p, ops, alpha, eps)

    monkeypatch.setattr(search.optimizers, "build_l1l1_lp", failing)
    for threads in (1, 2):
        grid = _pooled_lattice(p, "l1l1", spec, threads)
        for r1, r2 in zip(lanes.cells, grid.cells):
            for c1, c2 in zip(r1, r2):
                assert (c1.alpha_db, c1.weight_db) == (c2.alpha_db, c2.weight_db)
                if (c2.alpha_db, c2.weight_db) == bad:
                    assert c2.pattern.status == "error" and not c2.valid
                    assert c2.status == "FloatingPointError: bad lane"
                else:
                    assert c1.pattern.y.tobytes() == c2.pattern.y.tobytes()
                    assert (c1.pattern.status, c1.valid, c1.status) == \
                        (c2.pattern.status, c2.valid, c2.status)


# Solves one L1L1 lattice at 1000 field points (K is 3003 x 32, large
# enough for OpenBLAS to thread its products) at 1 and at 2 workers and
# writes each lattice CSV to the directory named by argv[1].
_THREADS_SCRIPT = """
import sys
import numpy as np
from tesopt import io, search
from tesopt.optimizers import StimulusProblem

rng = np.random.default_rng(11)
p = StimulusProblem.from_parts(rng.normal(size=(3, 32)), 0.5 * rng.normal(size=(3000, 32)),
                               rng.normal(size=3), 4e-3)
spec = search.LatticeSpec(-160.0, -20.0, -160.0, -20.0, 35.0)
for threads in (1, 2):
    with search.LatticePool(p, threads) as pool:
        grid = search.evaluate_lattice(p, "l1l1", spec, pool=pool)
    io.write_lattice_csv(grid, f"{sys.argv[1]}/threads{threads}.csv")
"""


def test_l1l1_lattice_csv_independent_of_threads(tmp_path):
    # at the default BLAS thread count the lattice solved in this process
    # and the one split over the pinned workers write the same bytes
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = str(Path(search.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(tmp_path)], env=env,
                   check=True, timeout=300)
    one, two = ((tmp_path / f"threads{t}.csv").read_text() for t in (1, 2))
    assert len(one.splitlines()) == 17
    assert one == two


def test_lattice_pool_starts_once_and_joins(rng, monkeypatch):
    # workers start at the first L1L1 lattice with more than one cell,
    # serve every later one, and are joined when the block exits by a raise
    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    single = LatticeSpec(-60.0, -45.0, -60.0, -45.0, step_db=15.0)
    with pytest.raises(RuntimeError, match="stop"):
        with search.LatticePool(p, 2) as pool:
            evaluate_lattice(p, "l1l1", single, pool=pool)
            # TLS and L1L2 lattices are solved in this process
            evaluate_lattice(p, "tls", spec, pool=pool)
            evaluate_lattice(p, "l1l2", spec, pool=pool)
            assert starts == []
            evaluate_lattice(p, "l1l1", spec, pool=pool)
            evaluate_lattice(pool.restrict((1, 2)), "l1l1", spec, pool=pool)
            two_run_search(p, "l1l1", "B", 3, spec, pool=pool)
            assert starts == [2]
            raise RuntimeError("stop")
    assert multiprocessing.active_children() == []
    # a pool solves a foreign problem's own lattice, but its grid memo and
    # searches serve only its own problem and the sub-problems it made
    with search.LatticePool(p) as pool:
        foreign = p.restrict((1, 2))
        _assert_same_cells(evaluate_lattice(foreign, "tls", spec, pool=pool),
                           evaluate_lattice(foreign, "tls", spec))
        with pytest.raises(SearchError, match="pool"):
            pool.grid(foreign, "tls", spec)
        with pytest.raises(SearchError, match="pool"):
            two_run_search(p.restrict((1, 2, 3)), "tls", "B", 2, spec, pool=pool)


def _pool_start_method(monkeypatch, method):
    """Make the lattice pools start their workers by ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(search, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)))


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_lattice_pool_independent_of_start_method(rng, monkeypatch, method):
    # a task carries its problem, so workers that share no memory with
    # the search process solve the full lattice and a restricted
    # re-sweep to the bytes of the serial lattices
    p = random_problem(rng, n_electrodes=8, n_nuisance=40)
    spec = LatticeSpec(-120.0, 0.0, -60.0, 0.0, 30.0)
    ids = (2, 3, 5, 8)
    serial = evaluate_lattice(p, "l1l1", spec)
    serial_sub = evaluate_lattice(p.restrict(ids), "l1l1", spec)
    _pool_start_method(monkeypatch, method)
    with search.LatticePool(p, 2) as pool:
        pooled = evaluate_lattice(p, "l1l1", spec, pool=pool)
        pooled_sub = evaluate_lattice(pool.restrict(ids), "l1l1", spec, pool=pool)
        assert pool._executor is not None
    _assert_same_cells(serial, pooled)
    _assert_same_cells(serial_sub, pooled_sub)


def test_pooled_lattice_passes_solver_options(rng, monkeypatch):
    # the workers solve with the pool's solver options: an L1L1 solver
    # that needs an option would fail every cell solved without it
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    serial = evaluate_lattice(p, "l1l1", spec)
    solve = search.optimizers.solve_l1l1

    def probed(p, alpha, eps, *, probe):
        return solve(p, alpha, eps)

    monkeypatch.setattr(search.optimizers, "solve_l1l1", probed)
    # forked workers see the patched solver
    _pool_start_method(monkeypatch, "fork")
    pooled = _pooled_lattice(p, "l1l1", spec, 2, {"l1l1": {"probe": 1}})
    assert all(c.pattern.status != "error" for row in pooled.cells for c in row)
    _assert_same_cells(serial, pooled)


def test_pool_grid_memo_serves_repeat_searches(rng, monkeypatch):
    # a search whose two lattices are both in the pool's memo solves none
    calls = []
    evaluate = search.evaluate_lattice

    def counting(p, method, spec, pool=None):
        calls.append((method, p.electrode_ids, spec))
        return evaluate(p, method, spec, pool=pool)

    monkeypatch.setattr(search, "evaluate_lattice", counting)
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    with search.LatticePool(p) as pool:
        first = two_run_search(p, "tls", "B", 2, spec, pool=pool)
        assert first.status == "ok"
        assert calls == [("tls", p.electrode_ids, spec), ("tls", first.montage, spec)]
        again = two_run_search(p, "tls", "B", 2, spec, pool=pool)
        assert len(calls) == 2
        assert again.run1_grid is first.run1_grid
        assert again.run2_grid is first.run2_grid
        assert pickle.dumps(again) == pickle.dumps(first)
        # another method or lattice is solved afresh
        pool.grid(p, "l1l2", spec)
        pool.grid(p, "tls", LatticeSpec(-90.0, -60.0, -90.0, -60.0, step_db=30.0))
        assert len(calls) == 4
        # a memo hit still serves only the pool's own problems
        with pytest.raises(SearchError, match="pool"):
            pool.grid(random_problem(rng, n_electrodes=4, n_nuisance=6), "tls", spec)


def test_pooled_lattice_measures_cells_in_workers(rng, monkeypatch):
    # pool workers solve and measure each cell; the parent only collects
    calls = []

    def counting(p, pattern):
        calls.append(pattern.status)
        return compute_metrics(p, pattern)

    monkeypatch.setattr(search, "compute_metrics", counting)
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    g2 = _pooled_lattice(p, "l1l1", spec, 2)
    assert calls == []
    g1 = evaluate_lattice(p, "l1l1", spec)
    assert len(calls) == 4
    assert g1.dims == g2.dims == (2, 2)
    for r1, r2 in zip(g1.cells, g2.cells):
        for c1, c2 in zip(r1, r2):
            assert c1.pattern.y.tobytes() == c2.pattern.y.tobytes()
            assert (c1.alpha_db, c1.weight_db, c1.pattern.status, c1.valid, c1.status) == \
                (c2.alpha_db, c2.weight_db, c2.pattern.status, c2.valid, c2.status)
            assert repr(c1.metrics) == repr(c2.metrics)


def test_two_run_search_full_montage_idempotent(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    out = two_run_search(p, "tls", "B", 4, spec)
    assert out.status == "ok"
    assert out.montage == (1, 2, 3, 4)
    assert (out.run1.alpha_db, out.run1.weight_db) == (out.run2.alpha_db, out.run2.weight_db)
    assert np.array_equal(out.run1.pattern.y, out.run2.pattern.y)


def test_two_run_search_single_cell(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-60.0, -45.0, -60.0, -45.0, step_db=15.0)
    out = two_run_search(p, "tls", "B", 2, spec)
    assert out.status == "ok"
    assert out.run1 is out.run1_grid.cell(0, 0) and out.run2 is out.run2_grid.cell(0, 0)


def test_two_run_dominant_column(rng):
    # electrode 1 dominates the target drive; brute force over all
    # k-subsets confirms the montage should contain it
    L1 = np.array([[5.0, 0.1, -0.4, 0.2],
                   [0.0, 0.05, 0.0, -0.05],
                   [0.1, 0.0, -0.1, 0.0]])
    L2 = rng.normal(size=(5, 4)) * 0.1
    x1 = np.array([1.0, 0.0, 0.0])
    p = StimulusProblem.from_parts(L1, L2, x1, 4e-3)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    out = two_run_search(p, "tls", "B", 2, spec)
    assert 1 in out.montage

    from itertools import combinations

    from tesopt.metrics import focused_density
    from oracles import tls_cell

    def best_gamma(ids):
        sub = p.restrict(ids)
        best = -math.inf
        for adb in (-90.0, -60.0, -30.0):
            for wdb in (-90.0, -60.0, -30.0):
                pat = tls_cell(sub, db_to_linear(adb), db_to_linear(wdb))
                if not pat.degenerate:
                    best = max(best, focused_density(sub, pat.y))
        return best

    scores = {ids: best_gamma(ids) for ids in combinations((1, 2, 3, 4), 2)}
    assert 1 in max(scores, key=scores.get)


def test_two_run_montage_nesting(rng):
    p = random_problem(rng, n_electrodes=6, n_nuisance=10)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    out = two_run_search(p, "tls", "B", 3, spec)
    assert out.status == "ok"
    active = set(out.run2.pattern.active_ids)
    assert active <= set(out.montage)
    assert set(out.run2.pattern.electrode_ids) == set(out.montage)


def test_two_run_deterministic_rerun(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-90.0, -30.0, -90.0, -30.0, step_db=30.0)
    a = two_run_search(p, "tls", "A", 2, spec, threshold=0.0)
    b = two_run_search(p, "tls", "A", 2, spec, threshold=0.0)
    assert pickle.dumps(a) == pickle.dumps(b)


def test_case_dominance_on_same_grid(rng):
    for _ in range(5):
        p = random_problem(rng, n_electrodes=4, n_nuisance=8)
        spec = LatticeSpec(-120.0, -30.0, -120.0, -30.0, step_db=30.0)
        grid = evaluate_lattice(p, "tls", spec)
        sb = select_case_b(grid)
        gamma_b = grid.cell(*sb).metrics.gamma
        sa = select_case_a(grid, threshold=gamma_b * 0.5)
        if sa is not None:
            assert gamma_b >= grid.cell(*sa).metrics.gamma


def test_no_feasible_candidate_outcome(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-60.0, -30.0, -60.0, -30.0, step_db=30.0)
    out = two_run_search(p, "tls", "A", 2, spec, threshold=1e9)
    assert out.status == "no-feasible-candidate"
    assert out.run2 is None


def test_deviation_window_clamped_at_boundary(rng):
    p = random_problem(rng, n_electrodes=4, n_nuisance=6)
    spec = LatticeSpec(-120.0, -30.0, -120.0, -30.0, step_db=30.0)
    out = two_run_search(p, "tls", "B", 4, spec)
    assert out.status == "ok"
    assert set(out.deviations) == {"gamma", "theta", "ad_deg", "max_current"}
    for est in out.deviations.values():
        assert est.deviation >= 0.0


def test_window_deviation_nan_when_too_few_samples():
    # a corner selection whose clamped window holds four cells without an
    # angle difference (degenerate cells): that metric's deviation is
    # unknown, and the search still reports the others
    grid = _grid_from_metrics([[0.1 * (i + j + 1) for j in range(4)] for i in range(4)],
                              [[1.0 + i * j for j in range(4)] for i in range(4)])
    for i, j in ((1, 0), (1, 1), (2, 0), (2, 1)):
        c = grid.cells[i][j]
        grid.cells[i][j] = replace(c, metrics=replace(c.metrics, ad_deg=math.nan))
    dev = _window_deviations(grid, (0, 0))
    assert math.isnan(dev["ad_deg"].deviation)
    assert dev["ad_deg"].clamped
    for name in ("gamma", "theta", "max_current"):
        assert math.isfinite(dev[name].deviation)
