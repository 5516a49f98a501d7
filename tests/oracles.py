"""Independent reference computations used to pin expected test values.

These deliberately avoid the library's own code paths: vertex
enumeration for LPs, the assembled sparse constraint matrix of the
L1L1 LP, dense grid search on the balanced-current subspace for the
convex solvers, finite differences for element matrices, scipy's
``splu`` for the CEM solves (``cem_reference``, ``forward_reference`` on
the ``block_matrix``), and an eigendecomposition for the zero-weight
TLS ridge solution (``ridge_reference``).  ``l1l1_cell``, ``l1l2_cell``
and ``tls_cell`` are not references: they are the one-cell calls of the
library's solvers at linear weights, as the tests write them.
"""

from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tesopt.lp import make_program
from tesopt.optimizers import build_l1l1_lp, solve_l1l1, solve_l1l2, solve_tls


def lp_vertex_minimum(c, G, h, E=None, f=None, feas_tol=1e-9):
    """Optimal LP objective by enumerating basic feasible points."""
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    E = np.zeros((0, c.size)) if E is None else np.asarray(E, dtype=float)
    f = np.zeros(0) if f is None else np.asarray(f, dtype=float)
    n, p = c.size, E.shape[0]
    best = np.inf
    for rows in combinations(range(G.shape[0]), n - p):
        A = np.vstack([E, G[list(rows)]])
        b = np.concatenate([f, h[list(rows)]])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        v = np.linalg.solve(A, b)
        if np.all(G @ v <= h + feas_tol) and (
            p == 0 or np.max(np.abs(E @ v - f)) <= feas_tol
        ):
            best = min(best, float(c @ v))
    return best


def random_bounded_lp(rng):
    """Feasible bounded LP with integer-ish coefficients (n<=3, m<=10)."""
    n = int(rng.integers(2, 4))
    m_extra = int(rng.integers(1, 5))
    G = np.vstack([np.eye(n), -np.eye(n), rng.integers(-3, 4, size=(m_extra, n))])
    x0 = rng.uniform(-1, 1, n)
    h = G @ x0 + rng.uniform(0.5, 2.0, G.shape[0])
    c = rng.integers(-5, 6, n).astype(float)
    while not c.any():
        c = rng.integers(-5, 6, n).astype(float)
    if rng.random() < 0.4 and n > 2:
        E = np.ones((1, n))
        f = np.array([x0.sum()])
    else:
        E, f = None, None
    return c, G, h, E, f


def assembled_l1l1_lp(p, alpha, eps):
    """The LP of ``build_l1l1_lp`` with G and E assembled as CSR matrices,
    for the generic sparse path of ``solve_lp``."""
    L, M = p.n_electrodes, p.n_nuisance
    L1, L2 = sp.csr_matrix(p.L1), sp.csr_matrix(p.L2)
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
    E = sp.csr_matrix(np.concatenate([np.ones(L), np.zeros(3 + M + L)])[None, :])
    lp = build_l1l1_lp(p, alpha, eps)
    return make_program(lp.c, G, lp.h, E, lp.f), G, E


def balanced_grid_minimum(p, objective, alpha, eps, step_frac=1e-3):
    """Dense grid search over the 2D zero-sum subspace of a 3-channel problem.

    ``objective`` is "l1" for the absolute-deviation form with the
    per-entry dead zone, or "l2" for the norm form with the aggregate
    dead zone.  Step is ``step_frac`` times the dose cap.
    """
    assert p.n_electrodes == 3
    basis = np.linalg.svd(np.ones((1, 3)))[2][1:].T  # (3, 2), orthonormal, sums to 0
    step = step_frac * p.mu
    u = np.arange(-p.mu, p.mu + step / 2, step)
    best = np.inf
    for chunk in np.array_split(u, 16):
        U = np.stack(np.meshgrid(chunk, u, indexing="ij"), axis=-1).reshape(-1, 2)
        Y = U @ basis.T
        feas = (np.abs(Y).sum(axis=1) <= p.mu) & (np.abs(Y).max(axis=1) <= p.gamma)
        Y = Y[feas]
        if not Y.size:
            continue
        fit_resid = Y @ p.L1.T - p.x1
        if objective == "l1":
            fit = np.abs(fit_resid).sum(axis=1)
            nuis = np.maximum(np.abs(Y @ p.L2.T), eps * p.nu).sum(axis=1)
        else:
            fit = np.linalg.norm(fit_resid, axis=1)
            nuis = np.maximum(
                np.linalg.norm(Y @ p.L2.T, axis=1),
                eps * p.nu * np.sqrt(p.n_nuisance),
            )
        obj = fit + nuis + alpha * p.zeta * np.abs(Y).sum(axis=1)
        best = min(best, float(obj.min()))
    return best


def hat_gradient_fd(verts, local, point, h=1e-7):
    """Finite-difference gradient of a P1 hat function on one tetrahedron."""

    def hat(x):
        A = np.vstack([np.ones(4), verts.T])
        b = np.concatenate([[1.0], x])
        return np.linalg.solve(A, b)[local]

    g = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        g[k] = (hat(point + e) - hat(point - e)) / (2 * h)
    return g


def tet_stiffness_fd(verts, sigma=1.0):
    """Single-tet stiffness by finite-difference gradients and exact volume."""
    vol = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    centroid = verts.mean(axis=0)
    grads = np.array([hat_gradient_fd(verts, i, centroid) for i in range(4)])
    return sigma * vol * grads @ grads.T


def mesh_from_cubes_reference(origins, cell_size):
    """Kuhn-split cubes with corners deduplicated by ``np.unique(axis=0)``.

    Returns (nodes, tets) in lexicographic node order, the canonical
    numbering the mesh generator promises.
    """
    from tesopt.meshgen import _UNIT_TETS

    corners = origins[:, None, None, :] + np.rint(_UNIT_TETS).astype(np.int64)
    uniq, inverse = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)
    return uniq.astype(float) * cell_size, inverse.reshape(-1, 4)


def boundary_faces_reference(mesh):
    """Faces of exactly one tet, sorted rows found by ``np.unique(axis=0)``."""
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    faces = np.sort(mesh.tets[:, local].reshape(-1, 3), axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return uniq[counts == 1]


def tet_gradients_inverse(mesh):
    """Basis-function gradients and volumes per tet from the inverse edge matrix."""
    p = mesh.nodes[mesh.tets]
    e = p[:, 1:] - p[:, :1]
    g = np.linalg.inv(e).transpose(0, 2, 1)
    return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1), np.linalg.det(e) / 6.0


def cem_reference(system):
    """Schur complement and resistivity matrix from ``splu`` of A in its
    default column ordering, with the gauge deflation of ``fem``."""
    X = spla.splu(system.A.tocsc()).solve(system.B.toarray())
    S = np.diag(system.c_diag) - system.B.T @ X
    Ss = 0.5 * (S + S.T)
    L = S.shape[0]
    shift = (np.trace(Ss) / L) * np.ones((L, L)) / L
    return S, X @ np.linalg.inv(Ss + shift)


def block_matrix(system):
    """The CEM block matrix [[A, -B], [-B^T, C]] of ``fem``'s docstring."""
    return sp.bmat([[system.A, -system.B], [-system.B.T, sp.diags(system.c_diag)]], format="csr")


def forward_reference(system, y, tol=1e-10):
    """Potentials z and electrode voltages w for balanced patterns y, (L,) or (L, k): one
    SuperLU factor of the block matrix and gauge row sum(w) = 0, in ``system.order``."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y.sum(axis=0)) > 1e-12 * np.abs(y).sum(axis=0)):
        raise ValueError("current pattern violates Kirchhoff balance")
    n, L, M = system.n_nodes, system.n_electrodes, block_matrix(system)
    gauge = sp.csr_matrix(np.r_[np.zeros(n), np.ones(L)][:, None])
    perm = np.r_[system.order, n:n + L + 1]
    aug = sp.bmat([[M, gauge], [gauge.T, None]], format="csr")[perm][:, perm]
    rhs = np.zeros((n + L + 1,) + y.shape[1:])
    rhs[n:n + L] = y
    zw = spla.splu(aug.tocsc(), permc_spec="NATURAL").solve(rhs[perm])[np.argsort(perm)]
    resid = np.linalg.norm(M @ zw[:-1] - rhs[:-1], axis=0)
    if np.any(resid > tol * np.linalg.norm(y, axis=0)):
        raise ValueError("forward solve misses its residual tolerance")
    return zw[:n], zw[n:-1]


def ridge_reference(p, alpha):
    """y_tilde = W L1'x1 and W = (L1'L1 + (alpha sigma)^2 I)^-1 from the
    eigenpairs of L1'L1, whose rank of at most three rules out Cholesky."""
    lam, Q = np.linalg.eigh(p.L1.T @ p.L1)
    Qs = Q / (np.maximum(lam, 0.0) + (alpha * p.sigma_scale) ** 2)
    return Qs @ (Q.T @ p.target_drive()), Qs @ Q.T


def l1l1_cell(p, alpha, eps):
    return solve_l1l1(p, [alpha], [eps])[0]


def l1l2_cell(p, alpha, eps, **kwargs):
    return solve_l1l2(p, [alpha], [eps], **kwargs)[0]


def tls_cell(p, alpha, delta):
    return solve_tls(p, [alpha], [delta])[0]
