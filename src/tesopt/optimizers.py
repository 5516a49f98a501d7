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
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .lp import REGULARIZATION, LinearProgram, make_program, solve_lp

DEGENERATE_FRACTION = 1e-12   # ||y||_1 below this times mu counts as no pattern

NUISANCE_BLOCK = 1024         # rows per QR step of StimulusProblem.nuisance_factor

L1L2_TOL = 1e-6
L1L2_MAX_ITER = 20000


class OptimizerError(RuntimeError):
    pass


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
        from .fem import spectral_norm

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

    def gram_target(self) -> np.ndarray:
        if "g1" not in self._cache:
            self._cache["g1"] = self.L1.T @ self.L1
        return self._cache["g1"]

    def gram_nuisance(self) -> np.ndarray:
        if "g2" not in self._cache:
            self._cache["g2"] = self.L2.T @ self.L2
        return self._cache["g2"]

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
    status: str                 # optimal | degenerate | max_iter | infeasible | unbounded
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
    active = tuple(
        eid for eid, val in zip(p.electrode_ids, y)
        if abs(val) > DEGENERATE_FRACTION * p.mu
    )
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
    balance and the dose cap, so it has no rows of its own.
    """
    if alpha < 0.0 or eps < 0.0:
        raise OptimizerError("alpha and eps must be non-negative")
    L = p.n_electrodes
    M = p.n_nuisance
    L1 = sp.csr_matrix(p.L1)
    L2 = sp.csr_matrix(p.L2)
    I3 = sp.identity(3, format="csr")
    IM = sp.identity(M, format="csr")
    IL = sp.identity(L, format="csr")
    ones_row = sp.csr_matrix(np.ones((1, L)))

    G = sp.bmat(
        [
            [L1, -I3, None, None],
            [L2, None, -IM, None],
            [-IL, None, None, -IL],
            [-L1, -I3, None, None],
            [-L2, None, -IM, None],
            [IL, None, None, -IL],
            [None, -I3, None, None],
            [None, None, -IM, None],
            [None, None, None, -IL],
            [None, None, None, ones_row],
        ],
        format="csr",
    )
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
    E = sp.csr_matrix(
        np.concatenate([np.ones(L), np.zeros(3 + M + L)])[None, :]
    )
    return make_program(c, G, h, E, np.zeros(1))


class L1L1Newton:
    """Electrode-space Newton steps for the LP of ``build_l1l1_lp``.

    A drop-in for the sparse KKT solver of ``solve_lp``, built from the
    same equilibration scalings; the blocks themselves come from ``p``,
    so Gs and Es are not read.  It works in the original scale, where
    the weights are W' = W/dr_g^2.  Rows come in blocks A, B, C of sizes
    (3, M, L) plus the dose row.  The t1 and t2 blocks of G'W'G are
    diagonal, and the t3 block is diagonal plus the rank-one dose row,
    so all three are eliminated (t3 by Sherman-Morrison).  That leaves
    the L x L matrix

        S = L1' D1 L1 + L2' D2 L2 + diag(D3) + rho q q'

    with D = (4ab + (a+b)c)/(a+b+c) for the block weights a, b, c (free
    of cancellation), and q, rho the t3 coupling and the dose weight
    after Sherman-Morrison.  S is factored by Cholesky, and the balance
    row is then one scalar Schur complement, 1'S^-1 1.  S gets the same
    relative diagonal shift as the sparse path; ``solve_lp``'s
    refinement removes it.  References: Mehrotra, SIAM J. Optim. 2 (1992); Wright,
    Primal-Dual Interior-Point Methods (SIAM 1997), ch. 11.
    """

    def __init__(self, p: StimulusProblem, Gs, Es, dr_g, dr_e, dc):
        L, M = p.n_electrodes, p.n_nuisance
        self.L1, self.L2 = p.L1, p.L2
        self.dr_g2, self.dr_e, self.dc = dr_g**2, dr_e, dc
        self.k = 3 + M + L                      # rows per block A, B, C
        self.fit = slice(0, 3)
        self.nuis = slice(3, 3 + M)
        self.pen = slice(3 + M, 3 + M + L)
        self.ones = np.ones(L)

    def factor(self, W: np.ndarray) -> None:
        k = self.k
        w = W / self.dr_g2
        a, b, c = w[:k], w[k:2 * k], w[2 * k:3 * k]
        self.s = a + b + c
        d = (4.0 * a * b + (a + b) * c) / self.s
        # the (t, y) block of G'W'G is diag(e) [L1; L2; I]
        self.e = b - a
        self.e[self.pen] *= -1.0
        s3 = self.s[self.pen]
        self.rho = w[3 * k] / (1.0 + w[3 * k] * np.sum(1.0 / s3))
        q = self.e[self.pen] / s3
        S = self.L1.T @ (d[self.fit, None] * self.L1) \
            + self.L2.T @ (d[self.nuis, None] * self.L2) \
            + self.rho * np.outer(q, q)
        S[np.diag_indices_from(S)] += d[self.pen]
        S[np.diag_indices_from(S)] += REGULARIZATION * max(1.0, S.diagonal().max())
        self.chol = sla.cho_factor(S)
        self.u = sla.cho_solve(self.chol, self.ones)

    def _t3_inverse(self, v: np.ndarray) -> np.ndarray:
        """The t3 block's inverse (diag(s3) + w_dose 1 1')^-1 applied to v."""
        vs = v / self.s[self.pen]
        return vs - (self.rho * vs.sum()) / self.s[self.pen]

    def solve(self, r1: np.ndarray, r2: np.ndarray):
        L = self.ones.size
        g = self.dc * r1
        gy, gt = g[:L], g[L:]
        h = self.e * gt / self.s
        h[self.pen] = self.e[self.pen] * self._t3_inverse(gt[self.pen])
        rhs = gy - self.L1.T @ h[self.fit] - self.L2.T @ h[self.nuis] - h[self.pen]
        w = sla.cho_solve(self.chol, rhs)
        lam = (w.sum() - self.dr_e[0] * r2[0]) / self.u.sum()
        x = w - lam * self.u
        coupled = np.concatenate([self.L1 @ x, self.L2 @ x, x])
        t = (gt - self.e * coupled) / self.s
        t[self.pen] = self._t3_inverse(gt[self.pen] - self.e[self.pen] * x)
        return self.dc * np.concatenate([x, t]), self.dr_e * lam


def solve_l1l1_linear(
    p: StimulusProblem, alpha: float, eps: float,
    tol: float = 1e-10, max_iter: int = 200,
) -> CurrentPattern:
    # y = 0 is optimal when some nu has |g_i - nu| <= alpha*zeta for all i,
    # with g = L1' sign(x1): -g is a subgradient of the fit at 0, the
    # nuisance term has 0 in its subdifferential there, the dose rows are
    # slack and nu is the balance multiplier.  The test is exact when
    # eps*nu > 0 and no x1_i is 0.  |g_i| <= zeta, so every alpha >= 1
    # passes.
    g = p.L1.T @ np.sign(p.x1)
    if 0.5 * (g.max() - g.min()) <= alpha * p.zeta:
        zero = np.zeros(p.n_electrodes)
        return _finalize(p, zero, "optimal", l1l1_objective(p, zero, alpha, eps))
    lp = build_l1l1_lp(p, alpha, eps)
    sol = solve_lp(lp, tol=tol, max_iter=max_iter, kkt=partial(L1L1Newton, p))
    y = sol.v[: p.n_electrodes]
    raw = l1l1_objective(p, y, alpha, eps)
    return _finalize(p, y, sol.status, raw)


def solve_l1l1(p: StimulusProblem, params: MethodParams, **kwargs) -> CurrentPattern:
    from .search import db_to_linear

    return solve_l1l1_linear(
        p, db_to_linear(params.alpha_db), db_to_linear(params.weight_db), **kwargs
    )


def _simplex_threshold(w: np.ndarray, r: float) -> float:
    """The t with sum((w - t)_+) = r, for r > 0 (Duchi et al., ICML 2008)."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - r
    k = np.nonzero(u * np.arange(1, w.size + 1) > css)[0][-1]
    return float(css[k] / (k + 1.0))


def project_feasible(w: np.ndarray, mu: float, l1_weight: float = 0.0) -> np.ndarray:
    """Exact prox of l1_weight*||.||_1 over {1'x = 0, ||x||_1 <= mu}.

    The minimizer is x = (w - a)_+ - (b - w)_+.  With the dose slack,
    a - b = 2*l1_weight and a balances the two parts; the balance is
    piecewise linear in a with kinks at w_i and w_i + 2*l1_weight, so a
    is interpolated on the bracketing pair of kinks.  When that x
    exceeds the dose, each part carries exactly mu/2 and a, b are the
    two simplex thresholds.  With l1_weight = 0 this is the plain
    projection.
    """
    w = np.asarray(w, dtype=float)
    lam2 = 2.0 * l1_weight
    if w.max() - w.min() <= lam2:
        return np.zeros_like(w)
    kinks = np.sort(np.concatenate([w, w + lam2]))
    d = w[None, :] - kinks[:, None]
    balance = np.maximum(d, 0.0).sum(axis=1) - np.maximum(-d - lam2, 0.0).sum(axis=1)
    k = int(np.argmax(balance <= 0.0))   # balance(kinks[0]) > 0 here
    lo, hi = balance[k - 1], balance[k]
    a = kinks[k - 1] + (kinks[k] - kinks[k - 1]) * (lo / (lo - hi))
    b = a - lam2
    pos = np.maximum(w - a, 0.0)
    neg = np.maximum(b - w, 0.0)
    if pos.sum() + neg.sum() > mu:
        pos = np.maximum(w - _simplex_threshold(w, 0.5 * mu), 0.0)
        neg = np.maximum(-_simplex_threshold(-w, 0.5 * mu) - w, 0.0)
    return pos - neg


def solve_l1l2_linear(
    p: StimulusProblem, alpha: float, eps: float,
    tol: float = L1L2_TOL, max_iter: int = L1L2_MAX_ITER,
) -> CurrentPattern:
    """First-order primal-dual splitting for the L2-fit variant.

    Dual blocks handle the fit norm and the dead-zone nuisance norm; the
    primal step takes the exact prox of the weighted L1 penalty
    restricted to the dose polytope.  Step sizes come from the norm of
    the stacked matrix (``sigma_scale``), split so primal moves are on
    the dose scale and dual moves on the unit-ball scale.

    The nuisance block enters through its QR factor R (L2 = QR): the
    nuisance dual starts at 0 and only gains multiples of L2 ybar, so it
    stays in range(Q), and its norm, L2' q and both residual norms are
    the same with R in place of L2.  The dead zone keeps sqrt(M).
    """
    # y = 0 is optimal when some nu has |g_i - nu| <= alpha*zeta for all i,
    # with g = L1' x1 / ||x1|| (g = 0 when x1 = 0): -g is the fit gradient
    # at 0, the nuisance term has 0 in its subdifferential there, the dose
    # constraint is slack and nu is the balance multiplier.  The test is
    # exact when eps*nu > 0 and x1 != 0.
    L = p.n_electrodes
    x1_norm = np.linalg.norm(p.x1)
    g = p.target_drive() / x1_norm if x1_norm > 0 else np.zeros(L)
    if 0.5 * (g.max() - g.min()) <= alpha * p.zeta:
        zero = np.zeros(L)
        return _finalize(p, zero, "optimal", l1l2_objective(p, zero, alpha, eps))
    K = np.vstack([p.L1, p.nuisance_factor()])
    op_norm = max(p.sigma_scale, 1e-300)
    tau = 0.99 * p.mu / op_norm
    sigma = 0.99 / (p.mu * op_norm)

    dead = eps * p.nu * np.sqrt(p.n_nuisance)
    thr = alpha * p.zeta
    y = np.zeros(L)
    ybar = y.copy()
    q = np.zeros(K.shape[0])
    status = "max_iter"
    p_scale = 1.0 + op_norm
    d_scale = 1.0 + op_norm * p.mu
    for it in range(1, max_iter + 1):
        w = q + sigma * (K @ ybar)
        w1 = w[:3] - sigma * p.x1
        w2 = w[3:]
        qn = np.empty_like(q)
        qn[:3] = w1 / max(1.0, np.linalg.norm(w1))
        n2 = np.linalg.norm(w2)
        qn[3:] = w2 * (min(max(n2 - sigma * dead, 0.0), 1.0) / n2) if n2 > 0 else w2
        y_new = project_feasible(y - tau * (K.T @ qn), p.mu, l1_weight=tau * thr)
        if it == 1 or it % 25 == 0:
            dq = q - qn
            dy = y - y_new
            p_res = np.linalg.norm(dy / tau - K.T @ dq)
            d_res = np.linalg.norm(dq / sigma - K @ dy)
            if p_res <= tol * p_scale and d_res <= tol * d_scale:
                q = qn
                y = y_new
                status = "optimal"
                break
        ybar = 2.0 * y_new - y
        q = qn
        y = y_new
    raw = l1l2_objective(p, y, alpha, eps)
    return _finalize(p, y, status, raw)


def solve_l1l2(p: StimulusProblem, params: MethodParams, **kwargs) -> CurrentPattern:
    from .search import db_to_linear

    return solve_l1l2_linear(
        p, db_to_linear(params.alpha_db), db_to_linear(params.weight_db), **kwargs
    )


def tls_raw_solution(p: StimulusProblem, alpha: float, delta: float) -> np.ndarray:
    """Solve the ridge normal equations for the weighted least squares fit.

    Dense Cholesky on the normal equations; when the regularization is
    too small for the Gram matrix to stay positive definite in doubles,
    falls back to a QR least-squares solve of the stacked system.
    """
    if alpha <= 0.0:
        raise OptimizerError("alpha must be positive for the least-squares path")
    A = (
        p.gram_target()
        + (delta * alpha) ** 2 * p.gram_nuisance()
        + (alpha * p.sigma_scale) ** 2 * np.eye(p.n_electrodes)
    )
    b = p.target_drive()
    try:
        y = sla.cho_solve(sla.cho_factor(A), b)
    except np.linalg.LinAlgError:
        stacked = np.vstack([
            p.L1,
            (delta * alpha) * p.L2,
            (alpha * p.sigma_scale) * np.eye(p.n_electrodes),
        ])
        rhs = np.concatenate([p.x1, np.zeros(stacked.shape[0] - 3)])
        y = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    scale = max(np.linalg.norm(b), np.linalg.norm(A, ord=2) * np.linalg.norm(y), 1e-300)
    if np.linalg.norm(A @ y - b) > 1e-10 * scale:
        raise OptimizerError("normal equations solve lost accuracy")
    return y


def solve_tls_linear(p: StimulusProblem, alpha: float, delta: float) -> CurrentPattern:
    y_raw = tls_raw_solution(p, alpha, delta)
    raw = float(
        np.linalg.norm(p.L1 @ y_raw - p.x1) ** 2
        + (delta * alpha) ** 2 * np.linalg.norm(p.L2 @ y_raw) ** 2
        + (alpha * p.sigma_scale) ** 2 * np.linalg.norm(y_raw) ** 2
    )
    return _finalize(p, y_raw, "optimal", raw)


def solve_tls(p: StimulusProblem, params: MethodParams) -> CurrentPattern:
    from .search import db_to_linear

    return solve_tls_linear(
        p, db_to_linear(params.alpha_db), db_to_linear(params.weight_db)
    )


@dataclass
class TlsDiagnostics:
    """Zero-weight ridge solution and utilities for expansion checks."""

    y_tilde: np.ndarray
    gamma_tilde: float
    alpha: float
    _eigvecs: np.ndarray = field(repr=False, compare=False, default=None)
    _eigvals: np.ndarray = field(repr=False, compare=False, default=None)

    def w_norm_sq(self, vec: np.ndarray) -> float:
        """Quadratic form of the ridge inverse: vec' W vec."""
        proj = self._eigvecs.T @ vec
        return float(proj @ (proj / self._eigvals))

    def ridge_inverse(self) -> np.ndarray:
        return (self._eigvecs / self._eigvals) @ self._eigvecs.T


def tls_diagnostics(p: StimulusProblem, alpha: float) -> TlsDiagnostics:
    """Zero-weight solution via the eigendecomposition of the target Gram.

    The Gram matrix has rank at most three, so a Cholesky factorization is
    not viable for small ridge levels; the eigen path is stable for any
    positive alpha.
    """
    from .metrics import focused_density

    if alpha <= 0.0:
        raise OptimizerError("alpha must be positive")
    lam, Q = np.linalg.eigh(p.gram_target())
    lam = np.maximum(lam, 0.0) + (alpha * p.sigma_scale) ** 2
    b = p.target_drive()
    y_tilde = (Q / lam) @ (Q.T @ b)
    gamma_tilde = focused_density(p, y_tilde) if p.x1.any() else 0.0
    return TlsDiagnostics(
        y_tilde=y_tilde,
        gamma_tilde=gamma_tilde,
        alpha=alpha,
        _eigvecs=Q,
        _eigvals=lam,
    )
