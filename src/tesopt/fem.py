"""Complete-electrode-model FEM: assembly, forward solve, lead field.

Linear (P1) nodal elements on tetrahedra with constant conductivity per
element.  Electrodes enter through contact-impedance boundary terms; the
block system

    ( A  -B ) (z)   (0)
    (-B^T C ) (w) = (y)

is symmetric positive semidefinite with the constant vector in its
kernel.  The gauge is fixed by requiring the electrode voltages ``w`` to
sum to zero.

The stiffness matrix A, symmetric positive definite, is factored by a
multifrontal Cholesky (Duff & Reid 1983; Liu 1992) in a nested-dissection
order of the mesh nodes (George 1973; Lipton, Rose & Tarjan 1979),
computed once by ``assemble``; its dense fronts are the leaves and
separators of the dissection.  The dissection is defined recursively but
computed level by level: all parts of one level of the tree are cut
together, by segmented reductions over their nodes and one pass over the
edges of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .meshgen import ElectrodeLayout, FieldPointSet, HeadMesh, TargetSpec, boundary_faces
from .optimizers import StimulusProblem


class FemError(RuntimeError):
    """Raised on assembly or solver failures."""


# parts of at most this many nodes are not bisected further
_DISSECTION_LEAF = 32


@dataclass
class CemSystem:
    """Assembled FEM blocks of the electrode-driven conduction problem."""

    A: sp.csr_matrix            # (N, N) stiffness + electrode surface mass
    B: sp.csr_matrix            # (N, L)
    c_diag: np.ndarray          # (L,) entries 1/Z_l
    n_nodes: int
    n_electrodes: int
    order: np.ndarray           # (N,) fill-reducing node order of A
    front_bounds: np.ndarray    # (F+1,) Cholesky fronts, contiguous in ``order``


@dataclass
class LeadField:
    """Dense map from electrode currents to volume current density.

    Rows are grouped by Cartesian component: row ``k * P + p`` holds the
    k-th density component at field point ``p`` per unit current.
    """

    matrix: np.ndarray                 # (3P, L) A/m^2 per A
    electrode_ids: tuple[int, ...]
    target_point: int | None = None

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0] // 3

    @property
    def n_electrodes(self) -> int:
        return self.matrix.shape[1]

    def target_rows(self) -> np.ndarray:
        if self.target_point is None:
            raise FemError("lead field has no target point attached")
        p = self.n_points
        return np.array([self.target_point, p + self.target_point, 2 * p + self.target_point])

    def split_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Target rows L1 and nuisance rows L2, each in matrix order.

        Both are new read-only arrays, so a ``StimulusProblem`` built from
        them takes them without a copy.
        """
        rows = self.target_rows()
        mask = np.ones(self.matrix.shape[0], dtype=bool)
        mask[rows] = False
        L1, L2 = self.matrix[rows], self.matrix[mask]
        L1.flags.writeable = L2.flags.writeable = False
        return L1, L2


def _tet_gradients(mesh: HeadMesh, tet_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the four barycentric basis functions, per tet.

    The gradient of lambda_k (k = 1..3) is the cross product of the two
    other edge vectors from vertex 0 over their triple product.
    Returns (grads, volumes) with grads of shape (T, 4, 3).
    """
    p = mesh.nodes[mesh.tets[tet_ids]]
    e1, e2, e3 = (p[:, k] - p[:, 0] for k in (1, 2, 3))
    g = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
    det = np.einsum("ti,ti->t", e1, g[:, 0])
    vol = det / 6.0
    if np.any(vol <= 0.0):
        bad = int(tet_ids[np.argmin(vol)])
        raise FemError(f"degenerate tet {bad}")
    g /= det[:, None, None]
    g0 = -g.sum(axis=1, keepdims=True)
    return np.concatenate([g0, g], axis=1), vol


def _nested_dissection(nodes: np.ndarray, A: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Fill-reducing elimination order of the graph of ``A``, and its fronts.

    Each part of more than ``_DISSECTION_LEAF`` nodes, not all at one
    point, is cut at the median coordinate of its longest axis; the
    lower-side nodes with a neighbour on the upper side form the
    separator.  A part is emitted as its lower side, its upper side, then
    its separator, each side ordered the same way recursively, and the
    nodes of a leaf or separator by id: the order of the recursive
    definition kept as ``nested_dissection_reference`` in the tests'
    oracles.  Here the parts of one level of the tree are cut together,
    by segmented reductions over the nodes and one masked pass over the
    edges of A that join two nodes of one part.  Each node carries the
    rank of its part in the final order; a cut turns rank r into the
    ranks of 3r, 3r + 1 and 3r + 2 (lower side, upper side, separator)
    among the keys in use, so ranks stay below n at any depth.  Returns
    the order and the bounds of the non-empty leaves and separators,
    which are contiguous in it.
    """
    n = A.shape[0]
    part = np.zeros(n, dtype=np.intp)
    uncut = np.ones(min(n, 1), dtype=bool)      # per part: may still be cut
    cols = A.indices
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(A.indptr))
    side = np.full(n, -1, dtype=np.int8)        # 0 lower, 1 upper, in a part cut now
    while uncut.any():
        live = np.flatnonzero(uncut[part])
        live = live[np.argsort(part[live], kind="stable")]
        new = np.r_[True, part[live[1:]] != part[live[:-1]]]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        x = nodes[live]
        extent = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
        size = np.diff(np.r_[starts, live.size])
        cut = (size > _DISSECTION_LEAF) & extent.any(axis=1)
        seg_part = part[live[starts]]
        uncut[seg_part[~cut]] = False
        if not cut.any():
            break
        keep = cut[seg]
        live, x, seg = live[keep], x[keep], (np.cumsum(cut) - 1)[seg[keep]]
        seg_part, extent, size = seg_part[cut], extent[cut], size[cut]
        c = x[np.arange(live.size), extent.argmax(axis=1)[seg]]
        first = np.r_[0, np.cumsum(size)[:-1]]
        ranked = c[np.lexsort((c, seg))]
        med = ((ranked[first + (size - 1) // 2] + ranked[first + size // 2]) / 2)[seg]
        lower = c <= med
        whole = np.add.reduceat(lower, first) == size
        lower = np.where(whole[seg], c < med, lower)
        side[live] = ~lower
        from_side, to_side = side[rows], side[cols]
        sep = np.zeros(n, dtype=bool)
        sep[rows[(from_side == 0) & (to_side == 1)]] = True
        side[live] = -1
        # an edge stays while its ends are on one side of a part cut now;
        # one that reaches a new separator node goes at the next level
        inner = (from_side == to_side) & (from_side >= 0)
        rows, cols = rows[inner], cols[inner]
        key = 3 * part
        key[live] += np.where(lower, 2 * sep[live], 1)
        used = np.zeros(3 * uncut.size, dtype=bool)
        used[key] = True
        part = (np.cumsum(used) - 1)[key]
        uncut = np.zeros(used.size, dtype=bool)
        uncut[3 * seg_part] = uncut[3 * seg_part + 1] = True
        uncut = uncut[used]
    return np.argsort(part, kind="stable"), np.r_[0, np.cumsum(np.bincount(part))]


def assemble(mesh: HeadMesh, layout: ElectrodeLayout) -> CemSystem:
    """Assemble the stiffness/electrode blocks of the CEM system."""
    n = mesh.n_nodes
    L = layout.n_electrodes
    grads, vols = _tet_gradients(mesh, np.arange(mesh.n_tets))
    sigma = mesh.conductivity_per_tet()

    # volume term: sigma * V * grad_i . grad_j
    k_local = np.einsum("t,tik,tjk->tij", sigma * vols, grads, grads)
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    A = sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(n, n))

    faces = boundary_faces(mesh)
    fp = mesh.nodes[faces]
    face_area = 0.5 * np.linalg.norm(
        np.cross(fp[:, 1] - fp[:, 0], fp[:, 2] - fp[:, 0]), axis=1
    )
    mass_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0

    srows, scols, svals = [], [], []
    brows, bcols, bvals = [], [], []
    for e in range(L):
        fid = np.asarray(layout.face_ids[e], dtype=int)
        if np.any((fid < 0) | (fid >= len(faces))):
            raise FemError(f"electrode {layout.electrode_ids[e]} has a face id outside "
                           f"the {len(faces)} boundary faces")
        area = layout.areas[e]
        if area <= 0.0:
            raise FemError(f"electrode {layout.electrode_ids[e]} has zero area")
        scale = 1.0 / (layout.impedances[e] * area)
        tri = faces[fid]                       # (Fe, 3)
        a = face_area[fid]
        # surface mass sum_f (area_f/12) * (1 + delta_ij), scaled by 1/(Z|e|)
        m = scale * a[:, None, None] * mass_pattern[None, :, :]
        srows.append(np.repeat(tri, 3, axis=1).ravel())
        scols.append(np.tile(tri, (1, 3)).ravel())
        svals.append(m.ravel())
        # b_{i,l} = (1/(Z|e|)) * integral of psi_i over the electrode
        brows.append(tri.ravel())
        bcols.append(np.full(tri.size, e))
        bvals.append(np.repeat(scale * a / 3.0, 3))

    A = A + sp.coo_matrix(
        (np.concatenate(svals), (np.concatenate(srows), np.concatenate(scols))),
        shape=(n, n),
    )
    B = sp.coo_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n, L),
    )
    c_diag = 1.0 / layout.impedances
    A = A.tocsr()
    A = (A + A.T) * 0.5  # exact symmetrization against summation-order roundoff
    order, bounds = _nested_dissection(mesh.nodes, A)
    return CemSystem(A=A, B=B.tocsr(), c_diag=c_diag, n_nodes=n, n_electrodes=L,
                     order=order, front_bounds=bounds)


# (start, stop, rows, L11, L21): the factor columns start:stop of the
# ordered A, with ``rows`` the global indices of the rows of L21
_Front = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def _cholesky_fronts(sys: CemSystem) -> list[_Front]:
    """Multifrontal Cholesky of A[order][:, order] on ``sys.front_bounds``.

    Front ``start:stop`` gathers its lower-triangle columns of the ordered
    A plus its children's update matrices (extend-add), factors its pivot
    block, and sends the Schur update on its off-diagonal rows to the front
    that owns the smallest of those rows.  Only lower triangles are
    computed and nothing is symmetrized.  A symbolic pass finds every
    front's rows first, so that all of L lives in one buffer and LAPACK
    works on it in place: factor blocks allocated one by one, between the
    short-lived update matrices, raised the peak resident size of a
    process that builds many lead fields.
    """
    o, bounds = sys.order, sys.front_bounds
    low = sp.tril(sys.A[o][:, o], format="csc")
    spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    owner = np.repeat(np.arange(len(spans)), np.diff(bounds))
    rows_of: list[np.ndarray] = []
    children: list[list[int]] = [[] for _ in spans]
    for f, (start, stop) in enumerate(spans):
        a_rows = low.indices[low.indptr[start]:low.indptr[stop]]
        rows = np.unique(np.concatenate([a_rows] + [rows_of[c] for c in children[f]]))
        rows = rows[np.searchsorted(rows, stop):]
        if rows.size:
            children[owner[rows[0]]].append(f)
        rows_of.append(rows)

    store = np.zeros(sum((stop - start) * (stop - start + rows.size)
                         for (start, stop), rows in zip(spans, rows_of)))
    local = np.empty(sys.n_nodes, dtype=np.intp)   # place in L11, or in L21 and U
    updates: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(spans)
    fronts = []
    off = 0
    for f, ((start, stop), rows) in enumerate(zip(spans, rows_of)):
        k, m = stop - start, rows.size
        l11 = store[off:off + k * k]
        l21 = store[off + k * k:off + k * (k + m)]
        off += k * (k + m)
        u = np.zeros(m * m)
        local[start:stop] = np.arange(k)
        local[rows] = np.arange(m)
        lo, hi = low.indptr[start], low.indptr[stop]
        a_rows = low.indices[lo:hi]
        col = np.repeat(np.arange(k), np.diff(low.indptr[start:stop + 1]))
        piv = a_rows < stop
        l11[local[a_rows[piv]] + k * col[piv]] = low.data[lo:hi][piv]
        l21[local[a_rows[~piv]] + m * col[~piv]] = low.data[lo:hi][~piv]
        for c in children[f]:
            g, U = updates[c]
            updates[c] = None
            split = np.searchsorted(g, stop)
            p, q = local[g[:split]], local[g[split:]]
            l11[p + k * p[:, None]] += U[:split, :split].T
            l21[q + m * p[:, None]] += U[split:, :split].T
            u[q + m * q[:, None]] += U[split:, split:].T
        L11, info = lapack.dpotrf(l11.reshape(k, k, order="F"), lower=1, clean=0,
                                  overwrite_a=1)
        if info != 0:
            raise FemError("stiffness factorization failed: "
                           f"non-positive pivot at node {o[start + info - 1]}")
        L21 = l21.reshape(m, k, order="F")
        if m:
            L21 = blas.dtrsm(1.0, L11, L21, side=1, lower=1, trans_a=1, overwrite_b=1)
            updates[f] = (rows, blas.dsyrk(-1.0, L21, beta=1.0, c=u.reshape(m, m, order="F"),
                                           lower=1, overwrite_c=1))
        fronts.append((start, stop, rows, L11, L21))
    return fronts


def _stiffness_solve(sys: CemSystem) -> np.ndarray:
    """A^{-1} B as a dense (N, L) array.

    Factors A, then makes a forward and a back pass over the fronts.
    Every dense product goes through scipy's BLAS, as in the factor:
    numpy bundles its own BLAS, and alternating calls between the two
    libraries' thread pools made this solve 7x slower at 2 BLAS threads
    on a 2-core machine.
    """
    fronts = _cholesky_fronts(sys)
    X = sys.B.toarray()[sys.order]
    for start, stop, rows, L11, L21 in fronts:
        xs = blas.dtrsm(1.0, L11, X[start:stop], lower=1)
        X[start:stop] = xs
        if rows.size:
            X[rows] = blas.dgemm(-1.0, L21, xs, beta=1.0, c=X[rows])
    for start, stop, rows, L11, L21 in reversed(fronts):
        xs = X[start:stop]
        if rows.size:
            xs = blas.dgemm(-1.0, L21, X[rows], beta=1.0, c=xs, trans_a=1)
        X[start:stop] = blas.dtrsm(1.0, L11, xs, lower=1, trans_a=1)
    return X[np.argsort(sys.order)]            # rows back in node order


def schur_complement(sys: CemSystem, X: np.ndarray | None = None) -> np.ndarray:
    """Electrode-space Schur complement C - B^T A^{-1} B (not deflated),
    from the solve X = A^{-1} B when it is given."""
    X = _stiffness_solve(sys) if X is None else X
    return np.diag(sys.c_diag) - sys.B.T @ X


def resistivity_matrix(sys: CemSystem) -> np.ndarray:
    """Dense (N, L) map from balanced current patterns to nodal potentials.

    Computed as A^{-1} B S^{-1} with the electrode-space Schur complement
    S = C - B^T A^{-1} B, both from one solve with A; the constant null
    vector of S is deflated to match the mean-zero electrode-voltage gauge.
    """
    X = _stiffness_solve(sys)
    S = schur_complement(sys, X)
    S = 0.5 * (S + S.T)
    L = sys.n_electrodes
    shift = (np.trace(S) / L) * np.ones((L, L)) / L
    Sinv = np.linalg.solve(S + shift, np.eye(L))
    return X @ Sinv


def lead_field(
    sys: CemSystem,
    mesh: HeadMesh,
    points: FieldPointSet,
    target_point: int | None = None,
) -> LeadField:
    """Evaluate -sigma * grad(u) at the field points per unit current column."""
    tet_ids = points.tet_index
    if np.any((tet_ids < 0) | (tet_ids >= mesh.n_tets)):
        raise FemError(f"field-point tet_index outside the {mesh.n_tets} tets")
    R = resistivity_matrix(sys)
    grads, _ = _tet_gradients(mesh, tet_ids)          # (P, 4, 3)
    sigma = mesh.conductivity_per_tet()[tet_ids]      # (P,)
    nodes = mesh.tets[tet_ids]                        # (P, 4)
    Rn = R[nodes]                                     # (P, 4, L)
    blocks = [
        np.einsum("p,pi,pil->pl", -sigma, grads[:, :, k], Rn) for k in range(3)
    ]
    mat = np.concatenate(blocks, axis=0)
    return LeadField(
        matrix=mat,
        electrode_ids=tuple(range(1, sys.n_electrodes + 1)),
        target_point=target_point,
    )


def split_problem(lf: LeadField, target: TargetSpec, mu: float):
    """Split the lead field into target / nuisance rows and scale factors."""
    if not 0 <= target.point_index < lf.n_points:
        raise FemError("target point is not part of the lead field")
    lf.target_point = target.point_index
    L1, L2 = lf.split_rows()
    return StimulusProblem.from_parts(
        L1, L2, target.d_target * target.orientation, mu, electrode_ids=lf.electrode_ids
    )
