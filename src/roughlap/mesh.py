"""Closed oriented triangle meshes of the model surfaces.

Two generators: an icosphere (subdivided icosahedron projected to the
sphere) and a flat torus on a periodic rectangular lattice.  The torus is
metrically *intrinsic*: every edge carries its flat length (lx/nx, ly/ny, or
the cell diagonal), and stored positions are the chart coordinates (u, v, 0),
periodic in ``period``.  That keeps the metric exactly flat, so parallel
1-forms exist exactly and the analytic spectra apply without embedding
distortion.

Connectivity uses one half-edge numbering: half-edge ``h = 3*f + s`` is side
``s`` of face ``f`` and runs ``faces[f, s] -> faces[f, (s+1) % 3]``.  Its
face (``h // 3``), tail vertex (``faces.ravel()[h]``), next and previous
half-edges in the face, and undirected edge (``face_edges.ravel()[h]``) are
index arithmetic; only ``twin``, the half-edge running the other way along
the same edge, is stored.  Per-side quantities are (F, 3) arrays read the
same way.

All derived geometry -- corner angles, face areas, vertex areas, angle defects,
cotan weights -- comes from edge lengths alone (Kahan's sorted Heron factors), so
embedded and intrinsic meshes go through one code path.  Validation enforces
closed manifold (every edge in exactly two faces), consistent orientation (each
directed edge appears once), connectivity, non-degeneracy and a normal scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "MeshError",
    "TriangleMesh",
    "FlatTorus",
    "IcoSphere",
    "ProductSpec",
    "generate_flat_torus",
    "generate_icosphere",
    "build_mesh",
    "euler_characteristic",
    "graph_diameter",
    "curvature_lp_norm",
]

DEGENERACY_FLOOR = 1e-14  # faces below this fraction of the mean area are rejected
# Angle defects at most this (rad) are roundoff and count as flat: a flat
# torus carries defects of at most 2.7e-15, while the smallest true defect of
# an icosphere is 2.7e-4 (subdivision 6).
FLAT_DEFECT_TOL = 1e-12


class MeshError(ValueError):
    """Raised when mesh data violates the closed-oriented-surface contract."""


class TriangleMesh:
    """Closed oriented triangle mesh with an intrinsic edge-length metric.

    Parameters
    ----------
    vertices : (V, 3) float array
        Positions.  For intrinsic meshes these are chart coordinates.
    faces : (F, 3) int array
        Consistently oriented triangles.
    edge_lengths : (F, 3) float array, optional
        Intrinsic length of every face side, entry [f, s] for half-edge
        3f+s; the two sides of one edge must have the same length.  When
        omitted, lengths come from the embedding.
    period : (lx, ly), optional
        Periods of a flat torus whose chart is ``vertices[:, :2]``; chart
        differences are taken modulo them.  None for embedded meshes.

    Attributes
    ----------
    edges : (E, 2) int array
        Undirected edges as sorted pairs (a < b), in lexicographic order.
    face_edges : (F, 3) int array
        Edge index of each side; ``face_edges.ravel()[h]`` for half-edge h.
    twin : (3F,) int array
        The opposite half-edge of every half-edge.
    edge_lengths : (E,) float array
        Length per edge, aligned with ``edges``.
    corner_angles : (F, 3) float array
        Angle at the tail of each half-edge, between it and the previous
        half-edge of its face.
    cotan_weights : (E,) float array
        w_e = (cot(alpha) + cot(beta)) / 2 over the two corners opposite
        edge e, the edge weight of every cotan-type Laplacian.
    """

    def __init__(self, vertices, faces, edge_lengths=None, period=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be (F, 3)")
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= len(self.vertices):
            raise MeshError("face index out of range")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise MeshError(f"vertex {bad[0]} is not finite: {self.vertices[bad[0]].tolist()}")
        self.period = period

        self._build_edges()
        self._build_metric(edge_lengths)
        self._validate()
        # corner m is opposite side (m + 1) % 3; each edge sums its two corners
        self.cotan_weights = np.bincount(self.face_edges[:, [1, 2, 0]].ravel(),
                                         weights=0.5 / np.tan(self.corner_angles).ravel(),
                                         minlength=len(self.edges))

    # -- construction ------------------------------------------------------

    def _build_edges(self) -> None:
        n_v = len(self.vertices)
        tails = self.faces.ravel()                  # half-edge h = 3f + s
        heads = self.faces[:, [1, 2, 0]].ravel()
        # an undirected edge is keyed a*V + b with a < b, so keys sort like pairs
        keys, inverse, counts = np.unique(
            np.minimum(tails, heads) * n_v + np.maximum(tails, heads),
            return_inverse=True, return_counts=True)
        self.edges = np.stack([keys // n_v, keys % n_v], axis=1)
        if not np.all(counts == 2):
            bad = self.edges[counts != 2][:5]
            raise MeshError(f"mesh not closed: edges with face count != 2, e.g. {bad.tolist()}")
        # directed edges must be unique for a consistent orientation
        if len(np.unique(tails * n_v + heads)) != len(tails):
            raise MeshError("orientation inconsistent: repeated directed edge")
        self.face_edges = inverse.reshape(-1, 3)
        # the two half-edges of every edge, paired through their edge index
        pairs = np.argsort(inverse, kind="stable").reshape(-1, 2)
        self.twin = np.empty(len(tails), dtype=np.int64)
        self.twin[pairs[:, 0]] = pairs[:, 1]
        self.twin[pairs[:, 1]] = pairs[:, 0]

    def _build_metric(self, edge_lengths) -> None:
        if edge_lengths is None:
            diff = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
            # lengths of any double size: the squares are taken of diff / 2^e, 2^e
            # near its largest entry, which is exact where they neither under- nor
            # overflow; an overflowing length is left to _validate to locate
            unit = 2.0 ** math.frexp(float(np.abs(diff).max(initial=0.0)))[1]
            diff /= unit
            with np.errstate(over="ignore"):
                self.edge_lengths = np.linalg.norm(diff, axis=1) * unit
        else:
            side = np.asarray(edge_lengths, dtype=float)
            if side.shape != self.faces.shape:
                raise MeshError(f"edge_lengths must be (F, 3) per-side lengths, got {side.shape}")
            side = side.ravel()
            bad = np.flatnonzero(side != side[self.twin])
            if len(bad):
                h = bad[0]
                a, b = self.edges[self.face_edges.ravel()[h]]
                raise MeshError(f"edge ({a}, {b}) has two side lengths, "
                                f"{side[h]!r} and {side[self.twin[h]]!r}")
            self.edge_lengths = np.empty(len(self.edges))
            self.edge_lengths[self.face_edges.ravel()] = side
        if np.any(self.edge_lengths <= 0):
            raise MeshError("nonpositive edge length")

        # per-face side lengths: side s opposite corner (s+2) % 3
        side = self.edge_lengths[self.face_edges]  # (F, 3)
        # Heron's factors 2s and h = 2(s - side) free of cancellation: sides sorted a >= b >= c
        # as in Kahan's needle formula (2014); overflowing areas are left to _validate
        order = np.argsort(-side, axis=1)
        a, b, c = np.take_along_axis(side, order, axis=1).T
        with np.errstate(over="ignore", invalid="ignore"):
            s2 = a + (b + c)
            x, y, z = c - (a - b), c + (a - b), a + (b - c)
            prod = (s2 * x) * (y * z)  # (4 area)^2
            h = np.take_along_axis(np.stack([x, y, z], axis=1), np.argsort(order, axis=1), axis=1)
            # half-angle formula: corner c is between sides c and (c+2)%3, opposite (c+1)%3
            self.corner_angles = 2.0 * np.arctan2(  # (F, 3), corner m at vertex faces[f, m]
                np.sqrt(h * h[:, [2, 0, 1]]), np.sqrt(s2[:, None] * h[:, [1, 2, 0]]))
        if np.any(prod < 0):
            raise MeshError("triangle inequality violated by intrinsic lengths")
        self.face_areas = 0.25 * np.sqrt(prod)

        v = len(self.vertices)
        self.vertex_areas = np.zeros(v)
        np.add.at(self.vertex_areas, self.faces.ravel(),
                  np.repeat(self.face_areas / 3.0, 3))
        angle_sums = np.zeros(v)
        np.add.at(angle_sums, self.faces.ravel(), self.corner_angles.ravel())
        self.angle_defects = 2.0 * math.pi - angle_sums
        self.total_area = float(self.face_areas.sum())

    def _validate(self) -> None:
        mean_area = float(self.face_areas.mean())
        if not sys.float_info.min <= mean_area < math.inf:
            raise MeshError(f"mean face area {mean_area!r} is not a positive normal double: "
                            "the mesh scale is out of range")
        if np.any(self.face_areas <= DEGENERACY_FLOOR * mean_area):
            raise MeshError("degenerate face (area below 1e-14 of mean)")
        # below sqrt(smallest normal) an area comes from a subnormal (4 area)^2, and an angle C
        # may come from a subnormal 2(s - a) 2(s - b) = 4 area tan(C/2): both lost digits
        floor = math.sqrt(sys.float_info.min)
        small = (self.face_areas < floor) | (self.corner_angles.min(axis=1) < floor)
        if np.any(small):
            f = int(np.argmax(small))
            raise MeshError(f"face {f} has area {self.face_areas[f]} and smallest angle "
                            f"{self.corner_angles[f].min()}: the mesh scale is out of range")
        if np.any(self.vertex_areas <= 0):
            raise MeshError("isolated vertex (zero dual area)")
        n_comp, _ = connected_components(self.adjacency(), directed=False)
        if n_comp != 1:
            raise MeshError(f"mesh not connected ({n_comp} components)")

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def adjacency(self) -> coo_matrix:
        """Symmetric edge-length-weighted adjacency matrix."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.edge_lengths
        n = self.n_vertices
        return coo_matrix((np.concatenate([w, w]),
                           (np.concatenate([i, j]), np.concatenate([j, i]))),
                          shape=(n, n))


# -- model manifolds -------------------------------------------------------

@dataclass(frozen=True)
class FlatTorus:
    lx: float
    ly: float
    nx: int
    ny: int


@dataclass(frozen=True)
class IcoSphere:
    radius: float
    subdivisions: int


@dataclass(frozen=True)
class ProductSpec:
    """Product of two model surfaces; spectral composition only, no 4-d mesh."""

    factors: tuple

    def __post_init__(self) -> None:
        if len(self.factors) != 2:
            raise ValueError(f"factors: expected exactly two, got {len(self.factors)}")
        for i, factor in enumerate(self.factors):
            if not isinstance(factor, (FlatTorus, IcoSphere)):
                raise ValueError(f"factors[{i}]: expected a flat torus or an icosphere, "
                                 f"got {type(factor).__name__}")


def build_mesh(manifold) -> TriangleMesh:
    if isinstance(manifold, FlatTorus):
        return generate_flat_torus(manifold.lx, manifold.ly, manifold.nx, manifold.ny)
    if isinstance(manifold, IcoSphere):
        return generate_icosphere(manifold.radius, manifold.subdivisions)
    if isinstance(manifold, ProductSpec):
        raise MeshError("product manifolds are spectral-only; no mesh is built")
    raise TypeError(f"not a model manifold: {manifold!r}")


def generate_flat_torus(lx: float, ly: float, nx: int, ny: int) -> TriangleMesh:
    """Triangulated flat torus with periodic lattice connectivity.

    Each lattice cell splits along a diagonal, alternating the diagonal
    direction checkerboard-fashion so that shortest edge paths exist along
    both diagonal directions (a single fixed direction inflates the graph
    diameter of anti-diagonal vertex pairs by ~8%).  Edges carry intrinsic
    lengths lx/nx (horizontal), ly/ny (vertical), and the cell diagonal;
    angle defects vanish identically and the total area is lx*ly.
    """
    if nx < 3 or ny < 3:
        raise MeshError(f"torus needs nx, ny >= 3, got {nx}, {ny}")
    for name, value in (("lx", lx), ("ly", ly)):
        if not 0 < value < math.inf:
            raise MeshError(f"torus side {name} must be positive and finite, got {value!r}")
    dx, dy = lx / nx, ly / ny
    diag = math.hypot(dx, dy)
    i = np.tile(np.arange(nx), ny)   # vertex id j*nx + i sits at (i*dx, j*dy)
    j = np.repeat(np.arange(ny), nx)
    verts = np.zeros((nx * ny, 3))
    verts[:, 0] = i * dx
    verts[:, 1] = j * dy

    # cell j*nx + i has corners a SW, b SE, c NE, d NW and makes the two
    # faces 2*(j*nx + i) and 2*(j*nx + i) + 1
    a = j * nx + i
    b = j * nx + (i + 1) % nx
    c = (j + 1) % ny * nx + (i + 1) % nx
    d = (j + 1) % ny * nx + i
    up_right = ((i + j) % 2 == 0)[:, None]  # else the up-left diagonal b-d
    first = np.where(up_right, np.stack([a, b, c], axis=1), np.stack([a, b, d], axis=1))
    second = np.where(up_right, np.stack([a, c, d], axis=1), np.stack([b, c, d], axis=1))
    first_len = np.where(up_right, [dx, dy, diag], [dx, diag, dy])
    second_len = np.where(up_right, [diag, dx, dy], [dy, dx, diag])
    faces = np.stack([first, second], axis=1).reshape(-1, 3)
    lengths = np.stack([first_len, second_len], axis=1).reshape(-1, 3)
    return TriangleMesh(verts, faces, edge_lengths=lengths, period=(lx, ly))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """The unit-sphere icosahedron."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts *= 1.0 / np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)  # outward: positive signed volume
    return verts, faces


def generate_icosphere(radius: float, subdivisions: int) -> TriangleMesh:
    """Icosahedron, 4-to-1 subdivided s times, vertices projected to radius."""
    if not 0 < radius < math.inf:
        raise MeshError(f"radius must be positive and finite, got {radius!r}")
    if subdivisions < 0:
        raise MeshError(f"subdivisions must be >= 0, got {subdivisions}")
    # built on the unit sphere and scaled once, so no midpoint's norm under- or
    # overflows; a radius outside the geometry's range is TriangleMesh's scale error
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        n_v = len(verts)
        tails = faces.ravel()
        heads = faces[:, [1, 2, 0]].ravel()
        # one midpoint per edge, numbered in order of first appearance along
        # the half-edges h = 3f + s
        _, first, inverse = np.unique(np.minimum(tails, heads) * n_v + np.maximum(tails, heads),
                                      return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        ij, jk, ki = (n_v + rank[inverse]).reshape(-1, 3).T
        h = np.sort(first)
        p = 0.5 * (verts[tails[h]] + verts[heads[h]])
        p *= (1.0 / np.sqrt(np.vecdot(p, p)))[:, None]
        verts = np.vstack([verts, p])
        i, j, k = faces.T
        faces = np.stack([i, ij, ki, ij, j, jk, ki, jk, k, ij, jk, ki], axis=1).reshape(-1, 3)
    return TriangleMesh(verts * radius, faces)


# -- measurements ----------------------------------------------------------

def euler_characteristic(mesh: TriangleMesh) -> int:
    return mesh.n_vertices - mesh.n_edges + mesh.n_faces


def graph_diameter(mesh: TriangleMesh) -> float:
    """Largest edge-path distance from 64 evenly spread source vertices.

    Exact when V <= 64 (every vertex is a source); above that a realized
    edge-path length, so a lower bound for the graph diameter.  Edge paths
    stretch geodesics: on the model meshes the value still reaches the smooth
    diameter (pi sqrt 2 on 2 pi flat tori, about 1.06 pi on unit icospheres).
    """
    sources = np.unique(np.linspace(0, mesh.n_vertices - 1, 64).astype(int))
    # finite: meshes are connected; directed: the adjacency is symmetric
    return float(dijkstra(mesh.adjacency().tocsr(), directed=True, indices=sources).max())


def curvature_lp_norm(mesh: TriangleMesh, p: float) -> float:
    """Normalized L^p norm of the pointwise curvature-tensor magnitude.

    The vertex Gauss curvature K is angle defect / dual area; on a surface
    it determines the full curvature tensor, whose squared-component norm
    is |Riem| = 2|K|.  The norm is (sum_v area_v |2 K_v|^p / total_area)^(1/p),
    with defects up to ``FLAT_DEFECT_TOL`` counted as 0.  Densities are
    divided by their largest, so no power over- or underflows at any scale.
    """
    if not 1 <= p <= math.inf:  # p = inf is the sup norm
        raise ValueError(f"p must be >= 1, got {p}")
    defects = np.abs(mesh.angle_defects)
    density = np.where(defects > FLAT_DEFECT_TOL, defects, 0.0) / mesh.vertex_areas * 2.0
    m = density.max() or 1.0  # a flat mesh: every density is 0
    weights = mesh.vertex_areas / mesh.total_area
    return float(m * (weights @ (density / m) ** p) ** (1.0 / p))

