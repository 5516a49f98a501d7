"""Two-stage lattice search over regularization and nuisance weight.

A candidate grid holds one solved pattern per (alpha_db, weight_db) cell.
Selection is either thresholded (keep cells with adequate focused
density, then maximize the current ratio) or a plain densest-cell
argmax.  Each search runs twice: the second run keeps only the channels
carrying the largest currents in the first run's selection.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import optimizers
from .metrics import DeviationEstimate, MetricError, MetricSet, compute_metrics, \
    deviation_estimate
from .optimizers import CurrentPattern, StimulusProblem, db_to_linear

METHODS = ("l1l1", "l1l2", "tls")
GAMMA_THRESHOLD = 0.11  # A/m^2

# dB spans per method; half-open ranges, so span/step grid points
DEFAULT_RANGES = {
    "l1l1": ((-160.0, 20.0), (-160.0, 20.0)),
    "l1l2": ((-140.0, 40.0), (-140.0, 40.0)),
    "tls": ((-240.0, -60.0), (-100.0, 80.0)),
}
DESK_STEP_DB = 15.0
FULL_STEP_DB = 5.0

# thread-count setters and getters of the OpenBLAS builds in the numpy
# and scipy wheels (64-bit and 32-bit integer interfaces)
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads")
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads")


class SearchError(RuntimeError):
    pass


@dataclass(frozen=True)
class LatticeSpec:
    alpha_db_min: float
    alpha_db_max: float
    weight_db_min: float
    weight_db_max: float
    step_db: float = FULL_STEP_DB

    def __post_init__(self):
        bounds = (self.alpha_db_min, self.alpha_db_max,
                  self.weight_db_min, self.weight_db_max, self.step_db)
        if not (all(math.isfinite(b) for b in bounds) and self.step_db > 0.0):
            raise SearchError("lattice bounds must be finite and the step positive")
        for lo, hi in ((self.alpha_db_min, self.alpha_db_max),
                       (self.weight_db_min, self.weight_db_max)):
            ratio = (hi - lo) / self.step_db
            if round(ratio) < 1:
                raise SearchError("lattice must hold at least one cell")
            if abs(ratio - round(ratio)) > 1e-9:
                raise SearchError("lattice span must be a multiple of the step")

    @property
    def alpha_values(self) -> np.ndarray:
        n = round((self.alpha_db_max - self.alpha_db_min) / self.step_db)
        return self.alpha_db_min + self.step_db * np.arange(n)

    @property
    def weight_values(self) -> np.ndarray:
        n = round((self.weight_db_max - self.weight_db_min) / self.step_db)
        return self.weight_db_min + self.step_db * np.arange(n)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.alpha_values.size, self.weight_values.size)


def default_lattice_spec(method: str, step_db: float = DESK_STEP_DB) -> LatticeSpec:
    (a_lo, a_hi), (w_lo, w_hi) = DEFAULT_RANGES[method]
    return LatticeSpec(a_lo, a_hi, w_lo, w_hi, step_db=step_db)


@dataclass(frozen=True)
class CandidateCell:
    """One solved lattice cell, as the lattice CSV and results.json write it."""

    alpha_db: float
    weight_db: float
    pattern: CurrentPattern
    metrics: MetricSet
    status: str     # "ok", the pattern's status, or "ExcType: message"

    @property
    def valid(self) -> bool:
        return self.status == "ok"


@dataclass
class CandidateGrid:
    method: str
    spec: LatticeSpec
    cells: list[list[CandidateCell]]

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.cells), len(self.cells[0]))

    def cell(self, i: int, j: int) -> CandidateCell:
        return self.cells[i][j]

    def metric_array(self, name: str) -> np.ndarray:
        return np.array([[getattr(c.metrics, name) for c in row] for row in self.cells],
                        dtype=float)


def _solver(method: str):
    """The method's lattice solver, looked up at call time, so that a
    patched ``optimizers`` attribute is the one called."""
    if method not in METHODS:
        raise SearchError(f"unknown method {method!r}")
    return getattr(optimizers, "solve_" + method)


def solve_single_cell(p: StimulusProblem, method: str, alpha_db: float,
                      weight_db: float, opts: dict) -> CurrentPattern:
    """One cell: the one-lane call of the method's solver."""
    return _solver(method)(p, [db_to_linear(alpha_db)], [db_to_linear(weight_db)],
                           **opts.get(method, {}))[0]


@functools.cache
def _openblas_paths() -> tuple[str, ...]:
    """Paths of the OpenBLAS libraries mapped into this process.

    Read once from /proc/self/maps (about 1 ms), or inherited by a forked
    worker; numpy and scipy each bundle their own copy, and both are
    loaded by this module's imports.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # no procfs: nothing to pin
        return ()
    return tuple(sorted({f[5].strip() for f in fields
                         if len(f) == 6 and "openblas" in f[5].lower()}))


@functools.cache
def _blas_thread_controls() -> tuple:
    """(getter, setter) of the thread count of each OpenBLAS mapped into
    this process.

    A library that cannot be opened or lacks a known pair is left out.
    """
    controls = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in zip(BLAS_THREAD_GETTERS, BLAS_THREAD_SETTERS):
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


def _pin_blas() -> None:
    """Run the bundled OpenBLAS libraries on one thread.

    The initializer of the pool workers, which would otherwise each start
    the default number of BLAS threads and oversubscribe the cores.
    """
    for _, setter in _blas_thread_controls():
        setter(1)


@contextlib.contextmanager
def single_thread_blas():
    """Run the bundled OpenBLAS libraries on one thread inside the block,
    as the pool workers do, and restore their thread counts on exit."""
    controls = _blas_thread_controls()
    saved = [getter() for getter, _ in controls]
    try:
        for _, setter in controls:
            setter(1)
        yield
    finally:
        for (_, setter), count in zip(controls, saved):
            setter(count)


def _candidate(p, cell, pattern, status=None) -> CandidateCell:
    if status is None:
        status = "ok" if pattern.status == "optimal" else pattern.status
    return CandidateCell(*cell, pattern, compute_metrics(p, pattern), status)


def _solve_cells(p, method, opts, cells) -> list[CandidateCell]:
    """Cells solved in this process by one call of the method's solver.

    Each cell ends bitwise as its one-cell solve, so when a call over
    several cells raises, each cell is solved again by a one-cell call;
    a one-cell call that raises gives an ``error`` cell with a zero
    pattern instead of aborting the sweep.
    """
    try:
        patterns = _solver(method)(p, [db_to_linear(a) for a, _ in cells],
                                   [db_to_linear(w) for _, w in cells],
                                   **opts.get(method, {}))
    except Exception as exc:
        if len(cells) > 1:
            return [c for cell in cells for c in _solve_cells(p, method, opts, [cell])]
        pattern = CurrentPattern(
            y=np.zeros(p.n_electrodes), electrode_ids=p.electrode_ids,
            active_ids=(), status="error", raw_objective=math.nan,
        )
        return [_candidate(p, cells[0], pattern, f"{type(exc).__name__}: {exc}")]
    return [_candidate(p, c, pattern) for c, pattern in zip(cells, patterns)]


class LatticePool:
    """Workers, solver options and solved grids of one search.

    A pool is made for one problem; ``restrict`` makes each of its
    sub-problems once, and ``grid`` keeps every lattice it solved for
    them, so the searches of one method share their first run and the
    second runs that land on one montage.  A lattice, or a worker's share
    of one, is one ``_solve_cells`` call over its cells.  An L1L1 lattice
    with more than one cell, on more than one worker, goes to the workers
    as one task each, the strided share ``cells[i::threads]`` with the
    (sub-)problem it belongs to: at 1000 field points its LP is
    compute-bound, so the split pays.  Every other lattice is solved in
    this process, with the bundled OpenBLAS on one thread as in the
    workers, so the cells do not depend on the worker count.  The workers
    start at the first L1L1 lattice that needs them.  Leaving the
    ``with`` block shuts the workers down and joins them.
    """

    def __init__(self, p: StimulusProblem, threads: int = 1,
                 solver_opts: dict | None = None):
        self.problem = p
        self.threads = threads
        self.opts = solver_opts or {}
        self._problems = {frozenset(p.electrode_ids): p}
        self._grids: dict = {}
        self._executor: ProcessPoolExecutor | None = None

    def restrict(self, ids) -> StimulusProblem:
        """The sub-problem over a channel subset, made once per pool."""
        key = frozenset(ids)
        if key not in self._problems:
            self._problems[key] = self.problem.restrict(ids)
        return self._problems[key]

    def _key(self, p: StimulusProblem) -> frozenset:
        """Channel set of ``p``, which must be a problem this pool serves."""
        key = frozenset(p.electrode_ids)
        if self._problems.get(key) is not p:
            raise SearchError("a lattice pool evaluates only its own problem "
                              "and the sub-problems it restricted")
        return key

    def grid(self, p: StimulusProblem, method: str, spec: LatticeSpec) -> CandidateGrid:
        """The lattice of ``p``, solved by ``evaluate_lattice`` once per pool."""
        key = (method, self._key(p), spec)
        if key not in self._grids:
            self._grids[key] = evaluate_lattice(p, method, spec, pool=self)
        return self._grids[key]

    def map(self, p: StimulusProblem, method: str, cells) -> list[CandidateCell]:
        """One finished cell of ``p`` per (alpha_db, weight_db) pair, in order.

        Each worker's task carries ``p``, the method, the solver options
        and its share of the cells, and runs ``_solve_cells`` on them.
        """
        if method != "l1l1" or self.threads <= 1 or len(cells) <= 1:
            with single_thread_blas():
                return _solve_cells(p, method, self.opts, cells)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.threads,
                                                 initializer=_pin_blas)
        n = min(self.threads, len(cells))
        shares = self._executor.map(_solve_cells, [p] * n, [method] * n,
                                    [self.opts] * n, [cells[i::n] for i in range(n)])
        out = [None] * len(cells)
        for i, solved in enumerate(shares):
            out[i::n] = solved
        return out

    def __enter__(self) -> "LatticePool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def evaluate_lattice(p: StimulusProblem, method: str, spec: LatticeSpec,
                     pool: LatticePool | None = None) -> CandidateGrid:
    """Solve one candidate per lattice cell; failures are recorded, not raised.

    ``pool`` serves the lattice with its workers and solver options.
    Without one the cells are solved in this process with default
    options.  The result is independent of the worker count: cells are
    pure functions of (problem, method, cell parameters) and are
    reassembled in index order.
    """
    weights = spec.weight_values.tolist()
    cells_in = [(a, w) for a in spec.alpha_values.tolist() for w in weights]
    cells = (pool or LatticePool(p)).map(p, method, cells_in)
    n = len(weights)
    rows = [cells[k:k + n] for k in range(0, len(cells), n)]
    return CandidateGrid(method=method, spec=spec, cells=rows)


def _first_max(grid: CandidateGrid, name: str, eligible) -> tuple[int, int] | None:
    """(i, j) of the largest metric ``name`` among the cells ``eligible``
    accepts, or None when it accepts none.

    Ties keep the first cell in row-major order: the lowest alpha index,
    then the lowest weight index.  A NaN metric never wins.
    """
    best, best_value = None, -math.inf
    for i, row in enumerate(grid.cells):
        for j, c in enumerate(row):
            value = getattr(c.metrics, name)
            if eligible(c) and value > best_value:
                best, best_value = (i, j), value
    return best


def select_case_a(grid: CandidateGrid, threshold: float = GAMMA_THRESHOLD):
    """Max current ratio among valid cells whose focused density clears
    the bar; None when no cell does."""
    return _first_max(grid, "theta", lambda c: c.valid and c.metrics.gamma >= threshold)


def select_case_b(grid: CandidateGrid):
    """Max focused density among valid cells; None when no cell is valid."""
    return _first_max(grid, "gamma", lambda c: c.valid)


def restrict_montage(y: np.ndarray, k: int, electrode_ids=None) -> tuple[int, ...]:
    """Ids of the k channels with the largest |current|; ties keep lower ids."""
    y = np.asarray(y, dtype=float)
    if electrode_ids is None:
        electrode_ids = tuple(range(1, y.size + 1))
    if not (2 <= k <= y.size):
        raise SearchError("montage size must be between 2 and the channel count")
    ids = np.asarray(electrode_ids)
    order = np.lexsort((ids, -np.abs(y)))
    return tuple(sorted(int(ids[i]) for i in order[:k]))


@dataclass
class SearchOutcome:
    method: str
    case: str
    channels: int
    status: str                                   # ok | no-feasible-candidate
    run1: CandidateCell | None                    # the selected cell of each run
    run2: CandidateCell | None
    montage: tuple[int, ...]
    deviations: dict[str, DeviationEstimate]
    run1_grid: CandidateGrid | None = None
    run2_grid: CandidateGrid | None = None


_METRIC_NAMES = ("gamma", "theta", "ad_deg", "max_current")


def _window_deviations(grid: CandidateGrid,
                       cell: tuple[int, int]) -> dict[str, DeviationEstimate]:
    ni, nj = grid.dims
    if ni < 3 or nj < 3:
        # grid too small for a quadratic window: flat surface, no spread
        return {name: DeviationEstimate(0.0, imputed=False, clamped=True)
                for name in _METRIC_NAMES}
    i = min(max(cell[0], 1), ni - 2)
    j = min(max(cell[1], 1), nj - 2)
    clamped = (i, j) != cell
    out = {}
    for name in _METRIC_NAMES:
        window = grid.metric_array(name)[i - 1 : i + 2, j - 1 : j + 2]
        try:
            out[name] = deviation_estimate(window, clamped=clamped)
        except MetricError:
            # too few finite samples to fit: the deviation is unknown
            out[name] = DeviationEstimate(math.nan, imputed=True, clamped=clamped)
    return out


def _selection(grid: CandidateGrid, case: str, threshold: float):
    if case == "A":
        return select_case_a(grid, threshold)
    if case == "B":
        return select_case_b(grid)
    raise SearchError(f"unknown case {case!r}")


def two_run_search(
    p: StimulusProblem,
    method: str,
    case: str,
    k: int,
    spec: LatticeSpec,
    threshold: float = GAMMA_THRESHOLD,
    pool: LatticePool | None = None,
) -> SearchOutcome:
    """Full-montage sweep, channel restriction, restricted re-sweep.

    Both lattices come from ``pool.grid``, so searches on one pool share
    each lattice they have in common; ``p`` is then the pool's problem or
    a sub-problem its ``restrict`` made.  Without a pool the search runs
    on a serial pool of its own.
    """
    if k > p.n_electrodes:
        raise SearchError("k exceeds the electrode count")
    pool = pool or LatticePool(p)
    grid1 = pool.grid(p, method, spec)
    sel1 = _selection(grid1, case, threshold)
    if sel1 is None:
        return SearchOutcome(method, case, k, "no-feasible-candidate",
                             None, None, (), {}, run1_grid=grid1)
    c1 = grid1.cell(*sel1)
    montage = restrict_montage(c1.pattern.y, k, p.electrode_ids)
    grid2 = pool.grid(pool.restrict(montage), method, spec)
    sel2 = _selection(grid2, case, threshold)
    if sel2 is None:
        return SearchOutcome(method, case, k, "no-feasible-candidate", c1, None,
                             montage, {}, run1_grid=grid1, run2_grid=grid2)
    return SearchOutcome(method, case, k, "ok", c1, grid2.cell(*sel2), montage,
                         _window_deviations(grid2, sel2), run1_grid=grid1, run2_grid=grid2)


def resolve_threads(requested: int | None = None) -> int:
    """Worker count: the request capped at the CPU count; all CPUs when None."""
    cpus = os.cpu_count() or 1
    return max(1, cpus if requested is None else min(requested, cpus))
