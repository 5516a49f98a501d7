"""Synthetic multi-compartment head meshes, electrode layouts and targets.

The domain is a layered ball voxelized into cubes and split into
tetrahedra (six per cube, Kuhn split, so neighbouring cubes share
conforming faces).  Everything here is a pure function of its inputs
plus an explicit RNG seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# Kuhn split of the unit cube: walk from (0,0,0) to (1,1,1) adding one
# axis at a time; one tetrahedron per axis permutation.
_AXIS_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


class MeshError(ValueError):
    """Raised for degenerate or unresolvable mesh geometry."""


@dataclass(frozen=True)
class HeadMesh:
    """Tetrahedral volume mesh with per-tet compartment labels.

    nodes are in meters, conductivities in S/m.  Labels are 1-based
    compartment ids mapping into ``conductivities``.
    """

    nodes: np.ndarray          # (N, 3) float
    tets: np.ndarray           # (T, 4) int, positively oriented
    labels: np.ndarray         # (T,) int
    conductivities: dict[int, float]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    def tet_volumes(self) -> np.ndarray:
        p = self.nodes[self.tets]
        e = p[:, 1:] - p[:, :1]
        return np.linalg.det(e) / 6.0

    def conductivity_per_tet(self) -> np.ndarray:
        table = np.zeros(max(self.conductivities) + 1)
        for lab, sig in self.conductivities.items():
            table[lab] = sig
        return table[self.labels]

    def validate(self) -> None:
        if self.tets.min() < 0 or self.tets.max() >= self.n_nodes:
            raise MeshError("tet index out of range")
        vols = self.tet_volumes()
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise MeshError(f"non-positive tet volume at element {bad}")
        missing = set(np.unique(self.labels)) - set(self.conductivities)
        if missing:
            raise MeshError(f"labels without conductivity: {sorted(missing)}")
        if any(s <= 0.0 for s in self.conductivities.values()):
            raise MeshError("conductivities must be positive")
        _check_closed_boundary(boundary_faces(self))


@dataclass(frozen=True)
class ElectrodeLayout:
    """Surface electrodes given as disjoint sets of boundary-face indices."""

    face_ids: tuple[tuple[int, ...], ...]   # per electrode, indices into boundary_faces(mesh)
    impedances: np.ndarray                  # (L,) Ohm
    areas: np.ndarray                       # (L,) m^2
    electrode_ids: tuple[int, ...]          # 1-based

    @property
    def n_electrodes(self) -> int:
        return len(self.face_ids)

    def validate(self) -> None:
        if self.n_electrodes < 2:
            raise MeshError("need at least two electrodes")
        seen: set[int] = set()
        for faces in self.face_ids:
            if not faces:
                raise MeshError("empty electrode")
            if seen.intersection(faces):
                raise MeshError("electrode face sets overlap")
            seen.update(faces)
        if np.any(self.areas <= 0.0) or np.any(self.impedances <= 0.0):
            raise MeshError("areas and impedances must be positive")


@dataclass(frozen=True)
class FieldPointSet:
    """Sampled evaluation points inside one compartment."""

    points: np.ndarray      # (P, 3)
    tet_index: np.ndarray   # (P,)
    seed: int
    compartment: int

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class TargetSpec:
    """Dipolar stimulation target: position, unit orientation, density."""

    position: np.ndarray     # (3,)
    orientation: np.ndarray  # (3,) unit
    d_target: float          # A/m^2
    point_index: int         # index into the FieldPointSet


def _unit_cube_tets() -> np.ndarray:
    """Vertex offsets (6, 4, 3) of the Kuhn split, positively oriented."""
    tets = []
    for perm in _AXIS_PERMS:
        v = np.zeros((4, 3))
        v[1, perm[0]] = 1.0
        v[2, perm[0]] = 1.0
        v[2, perm[1]] = 1.0
        v[3] = 1.0
        if np.linalg.det(v[1:] - v[0]) < 0.0:
            v[[1, 2]] = v[[2, 1]]
        tets.append(v)
    return np.array(tets)


_UNIT_TETS = _unit_cube_tets()

_KEY_LIMIT = 2**63  # integer keys below this fit in int64


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(rows, axis=0, return_counts=True)`` returns, for integer rows.

    Each row becomes one int64 key: the column minimum is subtracted and
    the columns are combined in mixed radix by their spans, so key order
    is lexicographic row order and a 1-D sort replaces the row-wise one.
    With no rows, or spans whose product does not fit in int64, it is
    ``np.unique(axis=0)`` itself.
    """
    fits = False
    if rows.shape[0]:
        lo = rows.min(axis=0)
        spans = [int(b) - int(a) + 1 for a, b in zip(lo, rows.max(axis=0))]
        fits = math.prod(spans) < _KEY_LIMIT
    if not fits:
        return np.unique(rows, axis=0, return_counts=True)
    key = np.zeros(rows.shape[0], dtype=np.int64)
    for col, span in zip((rows - lo).T, spans):
        key *= span
        key += col
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return rows[first], counts


def _mesh_from_cubes(origins: np.ndarray, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Split each cube (given by integer lattice origin) into 6 tets.

    Returns (nodes, tets) with nodes numbered on the integer corner
    lattice, so coordinates are exact multiples of ``cell_size``: the used
    corners are marked in a boolean array over their bounding box, whose C
    order is lexicographic (x, y, z) order, and take their ids from its
    cumulative sum.
    """
    corner_offsets = np.rint(_UNIT_TETS).astype(np.int64)  # (6, 4, 3) in {0,1}
    lo = origins.min(axis=0)
    shape = tuple(int(s) + 2 for s in origins.max(axis=0) - lo)
    # flat box index of every tet corner, (C, 6, 4) raveled
    cell = np.ravel_multi_index((origins - lo).T, shape)
    corner = np.ravel_multi_index(corner_offsets.reshape(-1, 3).T, shape)
    flat = (cell[:, None] + corner[None, :]).ravel()
    used = np.zeros(math.prod(shape), dtype=bool)
    used[flat] = True
    ids = np.cumsum(used) - 1
    nodes = np.column_stack(np.unravel_index(np.flatnonzero(used), shape)) + lo
    return nodes.astype(float) * cell_size, ids[flat].reshape(-1, 4)


def generate_ball_mesh(
    layer_radii: list[float] | tuple[float, ...],
    layer_conductivities: list[float] | tuple[float, ...],
    cell_size: float,
) -> HeadMesh:
    """Voxelize a layered ball into a tetrahedral mesh.

    Cubes whose center lies inside the outer ball are kept and split
    into six tets each.  A tet is labelled by the innermost layer whose
    radius covers its centroid (boundary tets whose centroid pokes past
    the outer radius keep the outermost label).
    """
    radii = np.asarray(layer_radii, dtype=float)
    sigmas = np.asarray(layer_conductivities, dtype=float)
    if radii.ndim != 1 or radii.size < 1:
        raise MeshError("need at least one layer radius")
    if radii.size != sigmas.size:
        raise MeshError("one conductivity per layer required")
    if np.any(np.diff(radii) >= 0.0):
        raise MeshError("layer radii must be strictly descending")
    # shell thicknesses r1-r2, ..., r_{K-1}-r_K, plus the innermost radius
    thickness = np.concatenate([-np.diff(radii), radii[-1:]])
    if cell_size <= 0.0:
        raise MeshError("cell_size must be positive")
    if cell_size > thickness.min() + 1e-15:
        raise MeshError(
            f"cell_size {cell_size} cannot resolve the thinnest layer "
            f"({thickness.min():.6g} m)"
        )

    r_outer = radii[0]
    n = int(np.ceil(r_outer / cell_size)) + 1
    idx = np.arange(-n, n)
    gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
    origins = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    centers = (origins + 0.5) * cell_size
    keep = np.einsum("ij,ij->i", centers, centers) <= r_outer**2
    origins = origins[keep]
    if origins.shape[0] == 0:
        raise MeshError("cell_size too large: no cube centers inside the ball")

    nodes, tets = _mesh_from_cubes(origins, cell_size)

    centroids = nodes[tets].mean(axis=1)
    rho = np.linalg.norm(centroids, axis=1)
    # innermost layer containing the centroid; clamp overshoot to layer 1
    labels = np.ones(rho.shape, dtype=np.int64)
    for i, r in enumerate(radii):
        labels[rho <= r + 1e-15] = i + 1

    conductivities = {i + 1: float(s) for i, s in enumerate(sigmas)}
    mesh = HeadMesh(nodes=nodes, tets=tets, labels=labels, conductivities=conductivities)
    present = set(np.unique(labels))
    absent = [i + 1 for i in range(radii.size) if i + 1 not in present]
    if absent:
        raise MeshError(
            f"cell_size {cell_size} too large to resolve layer(s) {absent}"
        )
    return mesh


def generate_box_mesh(
    lengths: tuple[float, float, float],
    divisions: tuple[int, int, int],
    conductivity: float,
) -> HeadMesh:
    """Uniform box mesh (single compartment), used for analytic checks."""
    nx, ny, nz = divisions
    if min(divisions) < 1:
        raise MeshError("divisions must be >= 1")
    hx, hy, hz = (lengths[0] / nx, lengths[1] / ny, lengths[2] / nz)
    if not np.allclose([hx, hy], [hz, hz], rtol=1e-9):
        raise MeshError("box cells must be cubes; pick matching divisions")
    gx, gy, gz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    origins = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    nodes, tets = _mesh_from_cubes(origins, hx)
    labels = np.ones(tets.shape[0], dtype=np.int64)
    return HeadMesh(nodes=nodes, tets=tets, labels=labels,
                    conductivities={1: float(conductivity)})


_FACE_LOCAL = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def boundary_faces(mesh: HeadMesh) -> np.ndarray:
    """Faces belonging to exactly one tet, as (F, 3) node triples.

    The list is sorted lexicographically by sorted node triple, which
    makes face indices reproducible across runs and processes.  Each
    sorted triple (a, b, c) becomes the int64 key (a n + b) n + c, n one
    past the largest node id, whose order is that of the triples; after
    one sort of the keys, a boundary face is a key that differs from both
    of its neighbours, since an interior face appears twice.  When n^3
    does not fit in int64 the triples are counted by ``_unique_rows``.
    """
    # the faces of a tet with sorted nodes are sorted triples
    faces = np.sort(mesh.tets, axis=1)[:, _FACE_LOCAL].astype(np.int64, copy=False)
    n = int(faces[:, 0, 2].max()) + 1 if faces.size else 0
    if n**3 >= _KEY_LIMIT:
        uniq, counts = _unique_rows(faces.reshape(-1, 3))
        return uniq[counts == 1].astype(mesh.tets.dtype, copy=False)
    key = faces[..., 0] * n
    key += faces[..., 1]
    key *= n
    key += faces[..., 2]
    key = np.sort(key, axis=None)
    differs = key[1:] != key[:-1]
    single = np.ones(key.size, dtype=bool)
    single[1:] = differs
    single[:-1] &= differs
    key = key[single]
    triples = np.column_stack([key // (n * n), key // n % n, key % n])
    return triples.astype(mesh.tets.dtype, copy=False)


def _check_closed_boundary(faces: np.ndarray) -> None:
    edges = faces[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
    _, counts = _unique_rows(edges)
    if faces.size and np.any(counts != 2):
        raise MeshError("boundary surface is not closed")


def _face_geometry(mesh: HeadMesh, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = mesh.nodes[faces]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    centroids = p.mean(axis=1)
    return areas, centroids


def fibonacci_directions(count: int) -> np.ndarray:
    """Quasi-uniform unit directions; poles included so count=2 is antipodal."""
    if count < 2:
        raise MeshError("need at least two directions")
    i = np.arange(count)
    z = 1.0 - 2.0 * i / (count - 1)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    az = i * GOLDEN_ANGLE
    return np.column_stack([r * np.cos(az), r * np.sin(az), z])


def place_electrodes(mesh: HeadMesh, count: int, impedance: float) -> ElectrodeLayout:
    """Place ``count`` disjoint cap electrodes on the outer surface.

    Boundary faces are assigned to the cap (around a Fibonacci-sphere
    direction) that contains their centroid direction.  If a face falls
    into two caps the cap radius is shrunk and placement retried.
    """
    if count < 2:
        raise MeshError("electrode count must be at least 2")
    if impedance <= 0.0:
        raise MeshError("impedance must be positive")
    faces = boundary_faces(mesh)
    if faces.shape[0] == 0:
        raise MeshError("mesh has no boundary")
    areas, centroids = _face_geometry(mesh, faces)
    dirs = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    targets = fibonacci_directions(count)

    cos_cap = 1.0 - 1.0 / count  # caps jointly cover ~half the sphere
    cap = np.arccos(np.clip(cos_cap, -1.0, 1.0))
    cos_angles = dirs @ targets.T  # (F, count)
    for _ in range(80):
        inside = cos_angles >= np.cos(cap)
        hits = inside.sum(axis=1)
        if np.any(hits > 1):
            cap *= 0.8
            continue
        members = [np.nonzero(inside[:, e])[0] for e in range(count)]
        if any(m.size == 0 for m in members):
            raise MeshError(
                f"electrode ended empty at count={count}; refine the mesh"
            )
        el_areas = np.array([areas[m].sum() for m in members])
        return ElectrodeLayout(
            face_ids=tuple(tuple(int(i) for i in m) for m in members),
            impedances=np.full(count, float(impedance)),
            areas=el_areas,
            electrode_ids=tuple(range(1, count + 1)),
        )
    raise MeshError("could not separate electrode caps")


def electrodes_from_face_sets(
    mesh: HeadMesh,
    face_sets: list[np.ndarray],
    impedance: float,
) -> ElectrodeLayout:
    """Build a layout from explicit boundary-face index sets (tests, bars)."""
    faces = boundary_faces(mesh)
    areas, _ = _face_geometry(mesh, faces)
    el_areas = np.array([areas[np.asarray(s, dtype=int)].sum() for s in face_sets])
    layout = ElectrodeLayout(
        face_ids=tuple(tuple(int(i) for i in s) for s in face_sets),
        impedances=np.full(len(face_sets), float(impedance)),
        areas=el_areas,
        electrode_ids=tuple(range(1, len(face_sets) + 1)),
    )
    layout.validate()
    return layout


def sample_field_points(
    mesh: HeadMesh, compartment: int, n: int, seed: int
) -> FieldPointSet:
    """Sample ``n`` points uniformly (by volume) inside one compartment."""
    in_comp = np.nonzero(mesh.labels == compartment)[0]
    if in_comp.size == 0:
        raise MeshError(f"compartment {compartment} has no tets")
    if n < 0:
        raise MeshError("n must be non-negative")
    rng = np.random.default_rng(seed)
    vols = mesh.tet_volumes()[in_comp]
    probs = vols / vols.sum()
    if n == 0:
        return FieldPointSet(points=np.zeros((0, 3)), tet_index=np.zeros(0, dtype=int),
                             seed=seed, compartment=compartment)
    chosen = rng.choice(in_comp, size=n, p=probs)
    u = np.sort(rng.random((n, 3)), axis=1)
    bary = np.column_stack([u[:, 0], u[:, 1] - u[:, 0], u[:, 2] - u[:, 1], 1.0 - u[:, 2]])
    pts = np.einsum("pi,pij->pj", bary, mesh.nodes[mesh.tets[chosen]])
    return FieldPointSet(points=pts, tet_index=chosen, seed=seed, compartment=compartment)


def place_target(
    mesh: HeadMesh,
    field_points: FieldPointSet,
    direction_hint: np.ndarray,
    d_target: float,
) -> TargetSpec:
    """Pick the field point farthest along ``direction_hint``.

    The orientation is the outward radial direction at that point,
    which is the surface normal on the ball model.
    """
    hint = np.asarray(direction_hint, dtype=float)
    norm = np.linalg.norm(hint)
    if norm == 0.0:
        raise MeshError("direction_hint must be nonzero")
    if field_points.n_points == 0:
        raise MeshError("no field points to choose from")
    proj = field_points.points @ (hint / norm)
    idx = int(np.argmax(proj))
    pos = field_points.points[idx]
    r = np.linalg.norm(pos)
    if r == 0.0:
        raise MeshError("target coincides with the mesh center")
    orientation = pos / r
    orientation = orientation / np.linalg.norm(orientation)
    return TargetSpec(position=pos.copy(), orientation=orientation,
                      d_target=float(d_target), point_index=idx)
