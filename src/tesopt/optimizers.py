"""Stimulation-pattern optimizers: L1-fit LP, L1-regularized L2 fit, and
ridge-weighted least squares, plus the shared dose post-scaling.

All solvers return a pattern that satisfies the hard constraints exactly:
the raw solution is balanced by mean subtraction and then scaled so the
total dose equals ``mu`` (which pins the per-channel maximum at mu/2 for
any balanced vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .lp import REGULARIZATION, LinearProgram, ruiz_scalings, solve_lp_lanes
from .lp import solve_lp  # not called here; bench/tracer.py wraps it by this name

DEGENERATE_FRACTION = 1e-12   # ||y||_1 below this times mu counts as no pattern

NUISANCE_BLOCK = 1024         # rows per QR step of StimulusProblem.nuisance_factor

# iterate entries (lanes x inequality rows) of one L1L1 lane solve; its
# working arrays peak at about 26 doubles per entry, about 14 MB in all
L1L1_LANE_ENTRIES = 1 << 16

L1L2_TOL = 1e-6
L1L2_MAX_ITER = 20000

_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


class OptimizerError(RuntimeError):
    pass


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, exactly: the root of the Gram matrix's top eigenvalue."""
    gram = mat.T @ mat
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def db_to_linear(d: float) -> float:
    """Amplitude decibel convention: 20 dB per decade."""
    return float(10.0 ** (d / 20.0))


@dataclass
class StimulusProblem:
    """Split lead field plus dose limits and scale factors.

    ``L1`` holds the three target rows, ``L2`` the nuisance rows.  The
    scale factors are zeta = ||L||_1, nu = ||x||_inf and sigma_scale =
    ||L||_2 of the stacked lead field.  There is no separate per-channel
    cap: a balanced pattern within the dose ``mu`` puts at most mu/2 on
    each sign, hence on any one channel.
    """

    L1: np.ndarray              # (3, L) A/m^2 per A
    L2: np.ndarray              # (M, L)
    x1: np.ndarray              # (3,) A/m^2
    mu: float                   # total dose cap (A)
    zeta: float
    nu: float
    sigma_scale: float
    electrode_ids: tuple[int, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.electrode_ids:
            self.electrode_ids = tuple(range(1, self.L1.shape[1] + 1))

    @property
    def gamma(self) -> float:
        """Per-channel cap (A) implied by balance and the dose cap."""
        return self.mu / 2.0

    @property
    def n_electrodes(self) -> int:
        return self.L1.shape[1]

    @property
    def n_nuisance(self) -> int:
        return self.L2.shape[0]

    @classmethod
    def from_parts(cls, L1, L2, x1, mu, electrode_ids=()) -> "StimulusProblem":
        """Build a problem; the one place zeta, nu and sigma_scale are derived."""
        # C-layout normalization keeps BLAS summation order (and hence
        # results) bitwise identical for column-subset copies
        L1 = np.ascontiguousarray(L1, dtype=float)
        L2 = np.ascontiguousarray(L2, dtype=float)
        x1 = np.ascontiguousarray(x1, dtype=float)
        stacked = np.vstack([L1, L2])
        return cls(
            L1=L1,
            L2=L2,
            x1=x1,
            mu=float(mu),
            zeta=float(np.abs(stacked).sum(axis=0).max()),
            nu=float(np.abs(x1).max()),
            sigma_scale=spectral_norm(stacked),
            electrode_ids=tuple(electrode_ids),
        )

    def restrict(self, ids) -> "StimulusProblem":
        """Sub-problem over a channel subset; scale factors are re-derived."""
        ids = tuple(sorted(ids))
        index = {eid: i for i, eid in enumerate(self.electrode_ids)}
        cols = [index[eid] for eid in ids]
        return StimulusProblem.from_parts(
            self.L1[:, cols], self.L2[:, cols], self.x1, self.mu, electrode_ids=ids
        )

    def nuisance_factor(self) -> np.ndarray:
        """R of L2 = QR, at most L x L: ||R y|| = ||L2 y|| for every y.

        Factored block by block, R <- qr([R; next rows]), so the working
        copy holds NUISANCE_BLOCK rows rather than all of L2.
        """
        if "r2" not in self._cache:
            R = self.L2[:0]
            for start in range(0, self.n_nuisance, NUISANCE_BLOCK):
                block = self.L2[start:start + NUISANCE_BLOCK]
                R = np.linalg.qr(np.vstack([R, block]), mode="r")
            self._cache["r2"] = R
        return self._cache["r2"]

    def target_drive(self) -> np.ndarray:
        if "l1tx" not in self._cache:
            self._cache["l1tx"] = self.L1.T @ self.x1
        return self._cache["l1tx"]


@dataclass(frozen=True)
class MethodParams:
    """Regularization and nuisance-weight levels, both in dB."""

    alpha_db: float
    weight_db: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha_db) and math.isfinite(self.weight_db)):
            raise OptimizerError("dB parameters must be finite")


@dataclass(frozen=True)
class CurrentPattern:
    """Per-electrode injected currents with solver bookkeeping."""

    y: np.ndarray
    electrode_ids: tuple[int, ...]
    active_ids: tuple[int, ...]
    status: str                 # optimal | degenerate | max_iter | infeasible | unbounded | error
    raw_objective: float

    @property
    def degenerate(self) -> bool:
        return self.status == "degenerate"

    def validate(self, mu: float, gamma: float) -> None:
        if self.degenerate:
            return
        l1 = np.abs(self.y).sum()
        if abs(self.y.sum()) > 1e-9 * max(l1, mu):
            raise OptimizerError("pattern violates current balance")
        if l1 > mu * (1.0 + 1e-9):
            raise OptimizerError("total dose exceeded")
        if np.abs(self.y).max() > gamma * (1.0 + 1e-9):
            raise OptimizerError("channel cap exceeded")


def equalize_dose(y: np.ndarray, mu: float) -> np.ndarray:
    """Scale a balanced pattern so its total absolute dose equals ``mu``."""
    y = np.asarray(y, dtype=float)
    l1 = np.abs(y).sum()
    if l1 == 0.0:
        raise OptimizerError("cannot scale an all-zero pattern")
    if abs(y.sum()) > 1e-6 * l1:
        raise OptimizerError("pattern must be balanced before dose scaling")
    return y * (mu / l1)


def _finalize(p: StimulusProblem, y_raw: np.ndarray, status: str,
              raw_objective: float) -> CurrentPattern:
    y = y_raw - y_raw.mean()
    if np.abs(y).sum() < DEGENERATE_FRACTION * p.mu:
        return CurrentPattern(
            y=np.zeros_like(y), electrode_ids=p.electrode_ids, active_ids=(),
            status="degenerate", raw_objective=raw_objective,
        )
    y = equalize_dose(y, p.mu)
    active = tuple(p.electrode_ids[i]
                   for i in np.flatnonzero(np.abs(y) > DEGENERATE_FRACTION * p.mu))
    return CurrentPattern(
        y=y, electrode_ids=p.electrode_ids, active_ids=active,
        status=status, raw_objective=raw_objective,
    )


def l1l1_objective(p: StimulusProblem, y: np.ndarray, alpha: float, eps: float) -> float:
    """L1 data fit with a nuisance dead zone and an L1 pattern penalty."""
    fit = np.abs(p.L1 @ y - p.x1).sum()
    nuisance = np.maximum(np.abs(p.L2 @ y), eps * p.nu).sum()
    return float(fit + nuisance + alpha * p.zeta * np.abs(y).sum())


def l1l2_objective(p: StimulusProblem, y: np.ndarray, alpha: float, eps: float) -> float:
    fit = np.linalg.norm(p.L1 @ y - p.x1)
    dead = eps * p.nu * np.sqrt(p.n_nuisance)
    nuisance = max(np.linalg.norm(p.L2 @ y), dead)
    return float(fit + nuisance + alpha * p.zeta * np.abs(y).sum())


def build_l1l1_lp(p: StimulusProblem, alpha: float, eps: float) -> LinearProgram:
    """Epigraph LP for the dead-zone L1 fitting problem.

    Variables are (y, t1, t2, t3); t1/t2 bound the absolute fit and
    nuisance residuals, t3 bounds |y| and carries the dose cap and the
    weighted pattern penalty.  The per-channel cap mu/2 follows from
    balance and the dose cap, so it has no rows of its own.  Only c and
    h depend on alpha and eps: the constraints are the operator
    ``L1L1Constraints``, built and equilibrated once per problem, and
    every program of ``p`` shares it.
    """
    if alpha < 0.0 or eps < 0.0:
        raise OptimizerError("alpha and eps must be non-negative")
    L = p.n_electrodes
    M = p.n_nuisance
    h = np.concatenate([
        p.x1,
        np.zeros(M),
        np.zeros(L),
        -p.x1,
        np.zeros(M),
        np.zeros(L),
        np.zeros(3),
        -eps * p.nu * np.ones(M),
        np.zeros(L),
        [p.mu],
    ])
    c = np.concatenate([
        np.zeros(L), np.ones(3), np.ones(M), alpha * p.zeta * np.ones(L)
    ])
    if "l1l1_ops" not in p._cache:
        p._cache["l1l1_ops"] = L1L1Constraints(p)
    return LinearProgram(c=c, h=h, f=np.zeros(1), ops=p._cache["l1l1_ops"])


class _L1L1Blocks:
    """Working copy of the L1L1 constraint blocks for ``ruiz_scalings``.

    Holds the signed entries of [G; E] as dense blocks: ``Ka`` and
    ``ya`` are the y entries of the rows of block A (K and -I), ``ta``
    their t entries (-I), ``tc`` the C rows (-I), ``d`` the dose row and
    ``e`` the balance row.  Block B's entries are those of A with y
    negated, so its row maxima, and hence its scalings, equal A's; it is
    not stored.  The scalings equal those of the assembled sparse [G; E]
    bit for bit, since every entry meets the same products.
    """

    def __init__(self, K: np.ndarray):
        nk, L = K.shape
        self.k = nk + L
        self.m, self.n, self.p = 3 * self.k + 1, L + self.k, 1
        self.Ka = K.copy()
        self.ya = -np.ones(L)
        self.ta = -np.ones(self.k)
        self.tc = -np.ones(self.k)
        self.d = np.ones(L)
        self.e = np.ones(L)

    def row_maxima(self):
        nk = self.Ka.shape[0]
        ra = np.abs(self.ta)
        ra[:nk] = np.maximum(np.abs(self.Ka).max(axis=1), ra[:nk])
        ra[nk:] = np.maximum(np.abs(self.ya), ra[nk:])
        g = np.concatenate([ra, ra, np.abs(self.tc), [np.abs(self.d).max()]])
        return g, np.array([np.abs(self.e).max()])

    def scale_rows(self, rg, re):
        nk, k = self.Ka.shape[0], self.k
        self.Ka *= rg[:nk, None]
        self.ya *= rg[nk:k]
        self.ta *= rg[:k]
        self.tc *= rg[2 * k:3 * k]
        self.d *= rg[3 * k]
        self.e *= re[0]

    def col_maxima(self):
        L = self.ya.size
        cy = np.maximum(np.maximum(np.abs(self.Ka).max(axis=0), np.abs(self.ya)),
                        np.abs(self.e))
        ct = np.maximum(np.abs(self.ta), np.abs(self.tc))
        ct[self.k - L:] = np.maximum(ct[self.k - L:], np.abs(self.d))
        return np.concatenate([cy, ct])

    def scale_cols(self, cc):
        L = self.ya.size
        cy, ct = cc[:L], cc[L:]
        self.Ka *= cy[None, :]
        self.ya *= cy
        self.e *= cy
        self.ta *= ct
        self.tc *= ct
        self.d *= ct[self.k - L:]


class L1L1Constraints:
    """The constraints of ``build_l1l1_lp`` as an operator for ``solve_lp``.

    With K = [L1; L2] and k = 3 + M + L rows per block, the constraints
    on v = (y, t), t = (t1, t2, t3), are

        G v = [Ky - t; -Ky - t; -t; 1't3],  Ky = [K y; -y],
        E v = 1'y,

    in blocks A, B, C plus the dose row.  Products apply these blocks
    to the equilibrated data, Gs v = G (v/dc) / dr_g and so on, with the
    Ruiz scalings computed from the blocks once, when the operator is
    built; no sparse matrix is formed.  Every method acts on a (B, .)
    stack of lanes: products with K are stacked ``np.matmul`` calls, one
    vector-matrix product per lane, and every reduction is a row sum, so
    each lane's row is computed as it would be alone.  A gemm over the
    whole stack would be faster, but its rows can round differently with
    the rows beside them.

    Newton steps are taken in electrode space, in the original scale,
    where the weights are W' = W/dr_g^2.  The t1 and t2 blocks of G'W'G
    are diagonal, and the t3 block is diagonal plus the rank-one dose
    row, so all three are eliminated (t3 by Sherman-Morrison).  That
    leaves the L x L matrix

        S = K' diag(D1, D2) K + diag(D3) + rho q q'

    with D = (4ab + (a+b)c)/(a+b+c) for the block weights a, b, c (free
    of cancellation), and q, rho the t3 coupling and the dose weight
    after Sherman-Morrison.  Each lane's S is factored by LAPACK
    ``potrf``, and the balance row is then one scalar Schur complement,
    1'S^-1 1.  S gets the same roundoff-scale relative diagonal shift as
    ``SparseConstraints``.  It keeps the Cholesky defined when the weight
    spread leaves S numerically singular, and its error is small enough
    for the one correction ``solve_lp`` may apply.  References:
    Mehrotra, SIAM J. Optim. 2 (1992); Wright, Primal-Dual Interior-Point
    Methods (SIAM 1997), ch. 11.
    """

    def __init__(self, p: StimulusProblem):
        self.L, M = p.n_electrodes, p.n_nuisance
        self.K = np.vstack([p.L1, p.L2])
        self.KT = np.ascontiguousarray(self.K.T)
        self.nk = 3 + M                         # rows of K
        self.k = self.nk + self.L               # rows per block A, B, C
        self.m, self.n, self.p = 3 * self.k + 1, self.L + self.k, 1
        self.pen = slice(self.nk, self.k)
        self.dr_g, self.dr_e, self.dc = ruiz_scalings(_L1L1Blocks(self.K))
        self.dr_g2 = self.dr_g**2

    def _K(self, x: np.ndarray) -> np.ndarray:
        """K x for each row x of a (B, L) stack."""
        return np.matmul(x[:, None, :], self.KT)[:, 0]

    def _KT(self, x: np.ndarray) -> np.ndarray:
        """K' x for each row x of a (B, nk) stack."""
        return np.matmul(x[:, None, :], self.K)[:, 0]

    def G(self, v: np.ndarray) -> np.ndarray:
        u = v / self.dc
        y, t = u[:, :self.L], u[:, self.L:]
        ky = np.concatenate([self._K(y), -y], axis=1)
        return np.concatenate([ky - t, -(ky + t), -t,
                               t[:, self.pen].sum(axis=1, keepdims=True)], axis=1) / self.dr_g

    def GT(self, z: np.ndarray) -> np.ndarray:
        k = self.k
        w = z / self.dr_g
        a, b, c = w[:, :k], w[:, k:2 * k], w[:, 2 * k:3 * k]
        ab = a - b
        gt = -(a + b + c)
        gt[:, self.pen] += w[:, 3 * k:]
        return np.concatenate([self._KT(ab[:, :self.nk]) - ab[:, self.nk:], gt],
                              axis=1) / self.dc

    def E(self, v: np.ndarray) -> np.ndarray:
        return (v[:, :self.L] / self.dc[:self.L]).sum(axis=1, keepdims=True) / self.dr_e

    def ET(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((len(y), self.n))
        out[:, :self.L] = y / self.dr_e[0]
        return out / self.dc

    def factor(self, W: np.ndarray) -> np.ndarray:
        k, L = self.k, self.L
        w = W / self.dr_g2
        a, b, c = w[:, :k], w[:, k:2 * k], w[:, 2 * k:3 * k]
        self.s = a + b + c
        d = (4.0 * a * b + (a + b) * c) / self.s
        # the (t, y) block of G'W'G is diag(e) [K; I]
        self.e = b - a
        self.e[:, self.pen] *= -1.0
        self.es = self.e / self.s
        self.inv_s3 = 1.0 / self.s[:, self.pen]
        w_dose = w[:, 3 * k]
        self.rho = w_dose / (1.0 + w_dose * self.inv_s3.sum(axis=1))
        q = self.es[:, self.pen]
        S = np.matmul(self.KT, d[:, :self.nk, None] * self.K) \
            + self.rho[:, None, None] * (q[:, :, None] * q[:, None, :])
        diag = S.reshape(len(W), -1)[:, ::L + 1]    # a strided view of each diagonal
        diag += d[:, self.pen]
        diag += REGULARIZATION * np.maximum(1.0, diag.max(axis=1))[:, None]
        # each S is symmetric, so its transpose is the Fortran-ordered S
        # that potrf factors in place
        self.chol = []
        ok = np.ones(len(W), dtype=bool)
        for lane, mat in enumerate(S):
            chol, info = _POTRF(mat.T, overwrite_a=True)
            self.chol.append(chol)
            ok[lane] = info == 0
        if ok.all():
            self.u = self._chol_solve(np.ones((len(W), L)))
            self.u_sum = self.u.sum(axis=1)
        return ok

    def _chol_solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        for lane, (chol, r) in enumerate(zip(self.chol, rhs)):
            x[lane], info = _POTRS(chol, r)
            if info != 0:
                raise ValueError(f"potrs argument {-info} is invalid")
        return x

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        # the t block is diagonal on t1 and t2; on t3 its inverse is
        # (diag(s3) + w_dose 1 1')^-1 = diag(1/s3) - rho (1/s3)(1/s3)'
        L, pen = self.L, self.pen
        g = self.dc * r1
        gy, gt = g[:, :L], g[:, L:]
        h = self.es * gt
        h[:, pen] -= (self.rho * (gt[:, pen] * self.inv_s3).sum(axis=1))[:, None] \
            * self.es[:, pen]
        w = self._chol_solve(gy - self._KT(h[:, :self.nk]) - h[:, pen])
        lam = (w.sum(axis=1) - self.dr_e[0] * r2[:, 0]) / self.u_sum
        x = w - lam[:, None] * self.u
        t = (gt - self.e * np.concatenate([self._K(x), x], axis=1)) / self.s
        t[:, pen] -= (self.rho * t[:, pen].sum(axis=1))[:, None] * self.inv_s3
        return self.dc * np.concatenate([x, t], axis=1), self.dr_e * lam[:, None]


def _l1l1_zero(p: StimulusProblem, alpha: float, eps: float) -> CurrentPattern | None:
    """The exact y = 0 certificate: its pattern, or None when it fails.

    y = 0 is optimal when some nu has |g_i - nu| <= alpha*zeta for all i,
    with g = L1' sign(x1): -g is a subgradient of the fit at 0, the
    nuisance term has 0 in its subdifferential there, the dose rows are
    slack and nu is the balance multiplier.  The test is exact when
    eps*nu > 0 and no x1_i is 0.  |g_i| <= zeta, so every alpha >= 1
    passes.
    """
    g = p.L1.T @ np.sign(p.x1)
    if 0.5 * (g.max() - g.min()) > alpha * p.zeta:
        return None
    zero = np.zeros(p.n_electrodes)
    return _finalize(p, zero, "optimal", l1l1_objective(p, zero, alpha, eps))


def _l1l1_pattern(p: StimulusProblem, sol, alpha: float, eps: float) -> CurrentPattern:
    y = sol.v[: p.n_electrodes]
    return _finalize(p, y, sol.status, l1l1_objective(p, y, alpha, eps))


def solve_l1l1(p: StimulusProblem, alpha, eps) -> list[CurrentPattern]:
    """One pattern per entry of the equal-length sequences ``alpha`` and
    ``eps``, in order.

    Cells that pass the y = 0 certificate are settled by it; the others
    are the lanes of ``solve_lp_lanes`` calls of at most
    L1L1_LANE_ENTRIES iterate entries each, and each lane is bitwise
    equal to its one-lane solve.
    """
    out = [_l1l1_zero(p, a, e) for a, e in zip(alpha, eps)]
    lanes = [b for b, pattern in enumerate(out) if pattern is None]
    lps = [build_l1l1_lp(p, alpha[b], eps[b]) for b in lanes]
    per_solve = max(1, L1L1_LANE_ENTRIES // lps[0].ops.m) if lps else 1
    for start in range(0, len(lps), per_solve):
        sols = solve_lp_lanes(lps[start:start + per_solve])
        for b, sol in zip(lanes[start:start + per_solve], sols):
            out[b] = _l1l1_pattern(p, sol, alpha[b], eps[b])
    return out


def _simplex_thresholds(w: np.ndarray, r: float) -> np.ndarray:
    """Per row of w, the t with sum((w - t)_+) = r, for r > 0 (Duchi et al.,
    ICML 2008)."""
    n = w.shape[1]
    u = np.sort(w, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - r
    # the last k with u_k * k > css_k, counted from the end
    k = n - 1 - np.argmax((u * np.arange(1, n + 1) > css)[:, ::-1], axis=1)
    return css[np.arange(w.shape[0]), k] / (k + 1.0)


def _balance(w: np.ndarray, a: np.ndarray, lam2: np.ndarray) -> np.ndarray:
    """sum((w - a)_+) - sum((a - lam2 - w)_+) for each row of w and each
    entry of the same row of a: (B, L) and (B, m) give (B, m)."""
    d = w[:, None, :] - a[:, :, None]
    above = np.maximum(d, 0.0).sum(axis=2)
    np.negative(d, out=d)
    d -= lam2[:, None, None]
    return above - np.maximum(d, 0.0, out=d).sum(axis=2)


def project_feasible(w: np.ndarray, mu: float,
                     l1_weight: float | np.ndarray = 0.0) -> np.ndarray:
    """Exact prox of l1_weight*||.||_1 over {1'x = 0, ||x||_1 <= mu}.

    The minimizer is x = (w - a)_+ - (b - w)_+.  With the dose slack,
    a - b = 2*l1_weight and a balances the two parts; the balance is
    piecewise linear and non-increasing in a, with kinks at w_i and
    w_i + 2*l1_weight, so a is interpolated on the first pair of sorted
    kinks where it turns non-positive.  That pair is found in two
    passes: on about every sqrt(2L)-th kink, then on the kinks between
    the two of those that bracket the sign change.  When that x exceeds
    the dose, each part carries exactly mu/2 and a, b are the two
    simplex thresholds.  With l1_weight = 0 this is the plain
    projection.

    ``w`` is one point (L,) or a stack of rows (B, L), each projected on
    its own; ``l1_weight`` is a scalar or one weight per row.  A row's
    result does not depend on the rows beside it.
    """
    w = np.asarray(w, dtype=float)
    rows = np.atleast_2d(w)
    lam2 = 2.0 * np.asarray(l1_weight, dtype=float)
    if lam2.ndim == 0:
        lam2 = np.full(rows.shape[0], lam2)
    live = rows.max(axis=1) - rows.min(axis=1) > lam2
    if live.all():
        return _prox_rows(rows, mu, lam2).reshape(w.shape)
    out = np.zeros_like(rows)
    if live.any():
        out[live] = _prox_rows(rows[live], mu, lam2[live])
    return out.reshape(w.shape)


def _prox_rows(w: np.ndarray, mu: float, lam2: np.ndarray) -> np.ndarray:
    """``project_feasible`` on rows whose spread exceeds their lam2."""
    m = 2 * w.shape[1]
    kinks = np.sort(np.concatenate([w, w + lam2[:, None]], axis=1), axis=1)
    # the balance is > 0 at the first kink and < 0 at the last, so the
    # coarse pass, which ends on the last kink, always finds a kink <= 0
    step = math.isqrt(m - 1) + 1
    coarse = np.minimum(np.arange(step, m - 1 + step, step), m - 1)
    first = (_balance(w, kinks[:, coarse], lam2) <= 0.0).argmax(axis=1)
    r = np.arange(w.shape[0])[:, None]
    window = kinks[r, np.minimum(step * first[:, None] + np.arange(step + 1), m - 1)]
    bal = _balance(w, window, lam2)
    # k >= 1: the window starts on the first kink or on a coarse one > 0
    k = (bal <= 0.0).argmax(axis=1)[:, None] + np.array([-1, 0])
    (lo, hi), (a_lo, a_hi) = bal[r, k].T, window[r, k].T
    a = a_lo + (a_hi - a_lo) * (lo / (lo - hi))
    pos = np.maximum(w - a[:, None], 0.0)
    neg = np.maximum((a - lam2)[:, None] - w, 0.0)
    over = pos.sum(axis=1) + neg.sum(axis=1) > mu
    if over.any():
        wo = w[over]
        t = _simplex_thresholds(np.concatenate([wo, -wo]), 0.5 * mu)[:, None]
        pos[over] = np.maximum(wo - t[:len(wo)], 0.0)
        neg[over] = np.maximum(-t[len(wo):] - wo, 0.0)
    return pos - neg


def solve_l1l2(
    p: StimulusProblem, alpha, eps,
    tol: float = L1L2_TOL, max_iter: int = L1L2_MAX_ITER,
) -> list[CurrentPattern]:
    """First-order primal-dual splitting for the L2-fit variant, one lane
    per entry of the equal-length sequences ``alpha`` and ``eps``, all
    lanes of ``p`` in lockstep; one pattern per lane, in order.

    Dual blocks handle the fit norm and the dead-zone nuisance norm; the
    primal step takes the exact prox of the weighted L1 penalty
    restricted to the dose polytope.  Step sizes come from the norm of
    the stacked matrix (``sigma_scale``), split so primal moves are on
    the dose scale and dual moves on the unit-ball scale (Chambolle &
    Pock, J. Math. Imaging Vis. 40, 2011).

    The nuisance block enters through its QR factor R (L2 = QR): the
    nuisance dual starts at 0 and only gains multiples of L2 ybar, so it
    stays in range(Q), and its norm, L2' q and both residual norms are
    the same with R in place of L2.  The dead zone keeps sqrt(M).

    Every operation acts on each lane's row alone: products are einsum
    sums over one row, never a gemm, whose rows can round differently
    with the rows beside them.  A lane therefore ends bitwise as it
    would alone, whatever the other lanes, and it leaves the loop once
    it passes the residual test or reaches ``max_iter``.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    L = p.n_electrodes
    thr = alpha * p.zeta
    # y = 0 is optimal when some nu has |g_i - nu| <= alpha*zeta for all i,
    # with g = L1' x1 / ||x1|| (g = 0 when x1 = 0): -g is the fit gradient
    # at 0, the nuisance term has 0 in its subdifferential there, the dose
    # constraint is slack and nu is the balance multiplier.  The test is
    # exact when eps*nu > 0 and x1 != 0.
    x1_norm = np.linalg.norm(p.x1)
    g = p.target_drive() / x1_norm if x1_norm > 0 else np.zeros(L)
    certified = 0.5 * (g.max() - g.min()) <= thr
    y = np.zeros((alpha.size, L))
    converged = certified.copy()
    lanes = np.flatnonzero(~certified)
    if lanes.size:
        y[lanes], converged[lanes] = _pdhg_lanes(p, thr[lanes], eps[lanes], tol, max_iter)
    return [_finalize(p, y[b], "optimal" if converged[b] else "max_iter",
                      l1l2_objective(p, y[b], alpha[b], eps[b]))
            for b in range(alpha.size)]


def _pdhg_lanes(p: StimulusProblem, thr: np.ndarray, eps: np.ndarray,
                tol: float, max_iter: int):
    """The PDHG loop of ``solve_l1l2`` on its uncertified lanes.

    Returns the final y, one row per lane, and whether each lane passed
    the residual test.
    """
    K = np.vstack([p.L1, p.nuisance_factor()])
    KT = np.ascontiguousarray(K.T)
    op_norm = max(p.sigma_scale, 1e-300)
    tau = 0.99 * p.mu / op_norm
    sigma = 0.99 / (p.mu * op_norm)
    sigma_x1 = sigma * p.x1
    p_tol = tol * (1.0 + op_norm)
    d_tol = tol * (1.0 + op_norm * p.mu)
    lam = tau * thr                                     # prox weights
    shrink = sigma * (eps * p.nu * np.sqrt(p.n_nuisance))
    y_out = np.zeros((thr.size, p.n_electrodes))
    converged = np.zeros(thr.size, dtype=bool)
    run = np.arange(thr.size)                           # lanes still iterating
    y = y_out.copy()
    ybar = y.copy()
    q = np.zeros((thr.size, K.shape[0]))
    for it in range(1, max_iter + 1):
        w = q + sigma * np.einsum("ij,bj->bi", K, ybar)
        w1 = w[:, :3] - sigma_x1
        w2 = w[:, 3:]
        n1 = np.sqrt((w1 * w1).sum(axis=1))
        n2 = np.sqrt((w2 * w2).sum(axis=1))
        keep = np.minimum(np.maximum(n2 - shrink, 0.0), 1.0)
        qn = np.concatenate([
            w1 / np.maximum(1.0, n1)[:, None],
            w2 * np.divide(keep, n2, out=np.ones_like(n2), where=n2 > 0)[:, None],
        ], axis=1)
        y_new = project_feasible(y - tau * np.einsum("ij,bj->bi", KT, qn), p.mu, lam)
        if it == 1 or it % 25 == 0:
            dq = q - qn
            dy = y - y_new
            rp = dy / tau - np.einsum("ij,bj->bi", KT, dq)
            rd = dq / sigma - np.einsum("ij,bj->bi", K, dy)
            done = ((np.sqrt((rp * rp).sum(axis=1)) <= p_tol)
                    & (np.sqrt((rd * rd).sum(axis=1)) <= d_tol))
            if done.any():
                y_out[run[done]] = y_new[done]
                converged[run[done]] = True
                live = ~done
                if not live.any():
                    return y_out, converged
                run, lam, shrink = run[live], lam[live], shrink[live]
                y, y_new, qn = y[live], y_new[live], qn[live]
        ybar = 2.0 * y_new - y
        q = qn
        y = y_new
    y_out[run] = y
    return y_out, converged


def tls_raw_solution(p: StimulusProblem, alpha: float, delta: float) -> np.ndarray:
    """Minimize ||L1 y - x1||^2 + (delta*alpha)^2 ||L2 y||^2 + (alpha*sigma)^2 ||y||^2.

    One least-squares solve of the stack K = [L1; delta*alpha*R; alpha*sigma*I],
    with R the nuisance factor (||R y|| = ||L2 y||), so K has at most 3 + 2L
    rows and its condition number is not squared as on the normal equations
    (Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996, 2.2).
    The result must still solve the normal equations K'K y = L1' x1 to
    1e-10 relative, with ||K'K||_2 the square of K's largest singular value.
    """
    if alpha <= 0.0:
        raise OptimizerError("alpha must be positive for the least-squares path")
    K = np.vstack([
        p.L1,
        (delta * alpha) * p.nuisance_factor(),
        (alpha * p.sigma_scale) * np.eye(p.n_electrodes),
    ])
    rhs = np.concatenate([p.x1, np.zeros(K.shape[0] - 3)])
    y, _, _, sv = np.linalg.lstsq(K, rhs, rcond=None)
    b = p.target_drive()
    scale = max(np.linalg.norm(b), sv[0] ** 2 * np.linalg.norm(y), 1e-300)
    if np.linalg.norm(K.T @ (K @ y) - b) > 1e-10 * scale:
        raise OptimizerError("least-squares solve fails the normal equations")
    return y


def solve_tls(p: StimulusProblem, alpha, delta) -> list[CurrentPattern]:
    """One pattern per entry of the equal-length sequences ``alpha`` and
    ``delta``, in order, each from one ``tls_raw_solution``."""
    out = []
    for a, d in zip(alpha, delta):
        y_raw = tls_raw_solution(p, a, d)
        raw = float(
            np.linalg.norm(p.L1 @ y_raw - p.x1) ** 2
            + (d * a) ** 2 * np.linalg.norm(p.nuisance_factor() @ y_raw) ** 2
            + (a * p.sigma_scale) ** 2 * np.linalg.norm(y_raw) ** 2
        )
        out.append(_finalize(p, y_raw, "optimal", raw))
    return out
