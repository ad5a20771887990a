"""Discrete Laplacians on triangle meshes: functions, 1-forms, Hodge.

The function Laplacian is the classical cotan stiffness matrix with lumped
(barycentric) vertex-area mass.  For 1-forms the tangent bundle of an
oriented surface is treated as a complex line bundle: one complex unknown
per vertex encodes a tangent vector in a local frame, parallel transport
along an edge is a unit complex rotation obtained by intrinsic unfolding,
and the connection Laplacian is the cotan stiffness with its off-diagonal
weights rotated by those transports.  The Hodge 1-form Laplacian is the
standard discrete-exterior-calculus operator on edge values,
``*1 g *0^-1 g^T *1 + d1^T *2 d1`` against the diagonal edge mass ``*1``,
where ``g`` is the vertex-to-edge difference matrix.  All three vertex
operators -- cotan, connection and the Hodge pencil's exact block -- are
one edge-weighted assembly, ``_laplacian``.

Since ``d1 g = 0``, the discrete Hodge decomposition splits that pencil
exactly into exact forms (the cotan Laplacian on vertices), coexact forms
(the dual-cell Laplacian ``d1 *1^-1 d1^T`` against cell areas) and ``b1``
harmonic zeros.  On right-triangulated flat tori every cell diagonal has
zero circumcentric weight (its opposite angles are right angles); such a
null edge carries no L^2 mass and glues its two faces into one cell.

Per-vertex frames use length-normalized angle coordinates: the corner
angles around each vertex are rescaled to sum to 2*pi.  With that choice
the transport rotations around any face compose to exactly the face's share
of curvature, distributing each angle defect over its incident corners, and
the per-face holonomies sum to 2*pi*chi (checked at build time).  Tangent
fields are encoded in these same frames (``encode_tangent_field``).

Everything is computed on the mesh's half-edge numbering (half-edge
``h = 3*f + s`` runs ``faces[f, s] -> faces[f, (s+1) % 3]``, opposite
half-edge ``mesh.twin[h]``): the next outgoing half-edge around the tail of
``h`` is ``twin[prev(h)]``, so all one-rings are walked at once, one ring
position per step.  Transport angles are stored once per edge, aligned with
``mesh.edges``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from roughlap import eigen
from roughlap.mesh import MeshError, TriangleMesh, euler_characteristic

__all__ = [
    "SparseHermitianOperator",
    "ConnectionData",
    "cotan_laplacian",
    "build_connection",
    "connection_laplacian_1forms",
    "hodge_laplacian_1forms",
    "hodge_eigenvalues",
    "weitzenboeck_eigen_check",
    "rayleigh_quotient",
    "edge_cotan_weights",
    "encode_tangent_field",
    "rotation_field",
    "constant_chart_field",
    "face_gradient_magnitudes",
]

HOLONOMY_TOL = 1e-8
NULL_WEIGHT_TOL = 1e-12  # edges below this fraction of max(w) glue their faces into one cell


@dataclass
class SparseHermitianOperator:
    """Sparse matrix, exactly Hermitian as assembled."""

    matrix: sp.csr_matrix


@dataclass
class ConnectionData:
    """Per-edge parallel transport on the tangent line bundle.

    rho : (E,) array aligned with ``mesh.edges``; for edge (a, b), a < b,
        rho[e] in (-pi, pi] is the frame rotation a vector picks up moving
        from the frame at a to the frame at b.  The transport b -> a is
        -rho[e], wrapped into (-pi, pi].
    scales : (V,) array, 2*pi / (total corner angle at v).
    phi : (3F,) array, the angle of half-edge h in the frame at its tail:
        the corner angles swept from the frame's zero direction (the edge
        to the lowest-numbered neighbour), rescaled by ``scales``.  Tangent
        fields are encoded in these frames (``encode_tangent_field``).
    face_curvatures : (F,) array, the holonomy of each face (its share of
        the angle defects).
    """

    rho: np.ndarray
    scales: np.ndarray
    phi: np.ndarray = field(repr=False)
    face_curvatures: np.ndarray = field(repr=False)


def edge_cotan_weights(mesh: TriangleMesh) -> np.ndarray:
    """w_e = (cot(alpha) + cot(beta))/2 over the two corners opposite edge e."""
    w = np.zeros(mesh.n_edges)
    cot = 1.0 / np.tan(mesh.corner_angles)  # corner m; its opposite side is (m+1)%3
    for m in range(3):
        opposite_side = (m + 1) % 3
        np.add.at(w, mesh.face_edges[:, opposite_side], 0.5 * cot[:, m])
    return w


def _laplacian(mesh: TriangleMesh, w: np.ndarray, off: np.ndarray) -> sp.csr_matrix:
    """Vertex stiffness of the quadratic form sum_e w_e |z_a - t_e z_b|^2.

    For edge e = (a, b), a < b, entry (a, b) is ``off[e]`` = -w_e t_e, with
    t_e the transport b -> a, and entry (b, a) its conjugate, so the matrix
    is exactly Hermitian; the diagonal sums the weights ``w`` of each
    vertex's edges.  The cotan matrix is the case t = 1.
    """
    i, j = mesh.edges.T
    a = sp.csr_matrix((np.concatenate([off, np.conj(off), w, w]),
                       (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
                      shape=(mesh.n_vertices,) * 2)
    a.sum_duplicates()
    return a.copy()  # compact: sum_duplicates leaves views of the 4E-entry input buffers


def cotan_laplacian(mesh: TriangleMesh) -> tuple[SparseHermitianOperator, np.ndarray]:
    """Cotan stiffness with lumped vertex-area mass.

    Row sums vanish, so constants span the kernel on a connected mesh; the
    matrix is PSD (it is the Galerkin stiffness of linear elements).
    """
    w = edge_cotan_weights(mesh)
    return SparseHermitianOperator(_laplacian(mesh, w, -w)), mesh.vertex_areas.copy()


def build_connection(mesh: TriangleMesh) -> ConnectionData:
    """Levi-Civita transport angles from intrinsic unfolding.

    Walks the one-ring of every vertex in orientation order, starting at the
    lowest-numbered neighbour, accumulates corner angles rescaled to total
    2*pi, and sets the transport along a->b so that the direction "a to b"
    at a maps to "a to b" (= opposite of b->a) at b.  Build-time checks:
    each one-ring is a single closed fan, and the transport composition
    around every face equals that face's curvature share (sum of rescaled
    corner angles minus pi) to within 1e-8.
    """
    n_v = mesh.n_vertices
    tails = mesh.faces.ravel()                  # half-edge h = 3f + s
    heads = mesh.faces[:, [1, 2, 0]].ravel()
    half_edges = np.arange(len(tails))
    # next outgoing half-edge around the tail, in orientation order: the
    # twin of the face's previous half-edge; the corner angle at the tail of
    # a half-edge lies between the two
    rotate = mesh.twin[half_edges - half_edges % 3 + (half_edges + 2) % 3]
    corner = mesh.corner_angles.ravel()

    by_tail = np.lexsort((heads, tails))
    start = by_tail[np.searchsorted(tails[by_tail], np.arange(n_v))]
    cumulative = np.full(len(tails), np.nan)  # corner angle swept before h
    total = np.zeros(n_v)
    ring, h = np.arange(n_v), start
    while len(ring):  # one step per ring position: at most the maximum degree
        cumulative[h] = total[ring]
        total[ring] += corner[h]
        h = rotate[h]
        still_open = h != start[ring]
        ring, h = ring[still_open], h[still_open]
    missed = np.flatnonzero(np.isnan(cumulative))
    if len(missed):
        raise MeshError(f"one-ring walk at vertex {tails[missed[0]]} does not close "
                        "over all its edges (non-manifold vertex)")
    scales = 2.0 * math.pi / total
    phi = scales[tails] * cumulative          # angle of h in the frame at its tail

    along = np.flatnonzero(tails < heads)     # the half-edge a -> b of each edge
    forward = np.empty(mesh.n_edges, dtype=np.int64)
    forward[mesh.face_edges.ravel()[along]] = along
    rho = _wrap_angle(phi[mesh.twin[forward]] + math.pi - phi[forward])

    # holonomy consistency: transport around face (i,j,k) composes to the
    # face curvature sum_c (scale_c * angle_c) - pi
    shares = scales[mesh.faces] * mesh.corner_angles
    face_curv = shares[:, 0] + shares[:, 1] + shares[:, 2] - math.pi
    holonomy = _face_incidence(mesh) @ rho    # signed transports around each face
    mismatch = np.abs(_wrap_angle(holonomy - face_curv))
    if np.any(mismatch > HOLONOMY_TOL):
        f = int(np.argmax(mismatch))
        raise MeshError(f"holonomy inconsistency on face {f}: {holonomy[f]} vs {face_curv[f]}")
    return ConnectionData(rho=rho, scales=scales, phi=phi, face_curvatures=face_curv)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap elementwise to (-pi, pi]."""
    a = np.fmod(a, 2.0 * math.pi)
    return np.where(a <= -math.pi, a + 2.0 * math.pi,
                    np.where(a > math.pi, a - 2.0 * math.pi, a))


def connection_laplacian_1forms(mesh: TriangleMesh, conn: ConnectionData
                                ) -> tuple[SparseHermitianOperator, np.ndarray]:
    """Connection Laplacian on tangent fields / 1-forms (metric duality).

    Complex Hermitian cotan matrix: entry (a, b) is -w_ab * exp(i rho[b->a]),
    so the quadratic form is sum_e w_e |z_a - transport(z_b)|^2; mass is the
    lumped vertex area.  Kernel = parallel fields (2 real dimensions on a
    flat torus, none on a sphere).
    """
    w = edge_cotan_weights(mesh)
    off = -w * np.exp(1j * _wrap_angle(-conn.rho))   # row a, col b: transport b -> a
    return SparseHermitianOperator(_laplacian(mesh, w, off)), mesh.vertex_areas.copy()


def _face_incidence(mesh: TriangleMesh) -> sp.csr_matrix:
    """d1: 1-cochains -> 2-cochains (F x E), +1 where a face's side runs along its edge."""
    heads = mesh.faces[:, [1, 2, 0]]  # side s runs faces[:, s] -> heads[:, s]
    along = (mesh.edges[mesh.face_edges, 1] == heads)
    return sp.coo_matrix((np.where(along, 1.0, -1.0).ravel(),
                          (np.repeat(np.arange(mesh.n_faces), 3), mesh.face_edges.ravel())),
                         shape=(mesh.n_faces, mesh.n_edges)).tocsr()


def hodge_laplacian_1forms(mesh: TriangleMesh) -> tuple[SparseHermitianOperator, np.ndarray]:
    """DEC Hodge Laplacian on 1-forms, split by the discrete Hodge decomposition.

    The edge pencil *1 g *0^-1 g^T *1 + d1^T *2 d1 against *1 is returned
    as the block-diagonal pencil diag(g^T *1 g, dc *1^-1 dc^T) against
    diag(*0, cell areas).  The first block is the cotan matrix (exact
    forms g f); the second is the dual-cell Laplacian (coexact forms
    *1^-1 dc^T u), where faces glued across an edge of weight at most
    ``NULL_WEIGHT_TOL * max(w)`` form one cell and dc sums their rows of d1.
    Without null edges each face is its own cell.

    The nonzero spectrum of this pencil is exactly the Hodge spectrum.  Its
    kernel is the two constants (one per block) where the Hodge pencil has
    the b1 = 2 - chi harmonic forms; ``hodge_eigenvalues`` swaps them.
    Negative weights (non-Delaunay meshes) are rejected, and so are null
    edges that close a loop of faces, where the cells would not count the
    harmonic forms.
    """
    w = edge_cotan_weights(mesh)
    w_max = np.abs(w).max()
    negative = np.flatnonzero(w < -NULL_WEIGHT_TOL * w_max)
    if len(negative):
        e = negative[0]
        a, b = mesh.edges[e]
        raise MeshError(f"edge ({a}, {b}) has negative circumcentric weight {float(w[e])!r}: "
                        "mesh is not Delaunay")
    null = w <= NULL_WEIGHT_TOL * w_max
    d1 = _face_incidence(mesh)
    glued = abs(d1[:, null])
    n_cells, cell = connected_components(glued @ glued.T, directed=False)
    if n_cells != mesh.n_faces - np.count_nonzero(null):
        raise MeshError(f"{np.count_nonzero(null)} null edges glue {mesh.n_faces} faces "
                        f"into {n_cells} cells: they close a loop of faces")
    cells = sp.coo_matrix((np.ones(mesh.n_faces), (cell, np.arange(mesh.n_faces))),
                          shape=(n_cells, mesh.n_faces))
    d1_cells = (cells @ d1)[:, ~null]
    coexact = (d1_cells @ sp.diags(1.0 / w[~null]) @ d1_cells.T).tocsr()
    matrix = sp.block_diag((_laplacian(mesh, w, -w), (coexact + coexact.T) * 0.5),
                           format="csr")
    cell_areas = np.bincount(cell, weights=mesh.face_areas)
    return SparseHermitianOperator(matrix), np.concatenate([mesh.vertex_areas, cell_areas])


def hodge_eigenvalues(mesh: TriangleMesh, values: np.ndarray) -> np.ndarray:
    """Hodge spectrum from the ascending pairs of ``hodge_laplacian_1forms``.

    Drops the two smallest entries (the two constants of the block pencil)
    and prepends b1 = 2 - chi zeros for the harmonic forms, which are exact
    by topology.  Any per-pair array in the same order maps the same way:
    applied to the residuals it gives the harmonic zeros residual 0.
    """
    b1 = 2 - euler_characteristic(mesh)
    return np.concatenate([np.zeros(b1), np.asarray(values, dtype=float)[2:]])


def rayleigh_quotient(L, M, x: np.ndarray) -> float:
    """(x^H L x) / (x^H M x) for the generalized pencil; real and nonnegative:
    its imaginary part is at most 1e-9 of |x|^H |L| |x|, which scales with L and x."""
    a = L.matrix if isinstance(L, SparseHermitianOperator) else L
    m = np.asarray(M)
    x = np.asarray(x)
    denom = np.real(np.vdot(x, m * x))
    if denom <= 0.0:
        raise ValueError("Rayleigh quotient needs x with positive mass norm")
    num = np.vdot(x, a @ x)
    if abs(num.imag) > 1e-9 * np.vdot(abs(x), abs(a) @ abs(x)):
        raise ValueError(f"quadratic form not real: {num}")
    return float(num.real / denom)


def weitzenboeck_eigen_check(mesh: TriangleMesh, k: int, solver_config=None,
                             conn_eigen=None) -> np.ndarray:
    """Pair Hodge and connection-Laplacian eigenvalues through the curvature shift.

    On a surface the Hodge Laplacian on 1-forms equals the connection
    Laplacian plus the Gauss curvature, so for (near-)constant curvature the
    k smallest eigenvalues satisfy mu_i = lambda_i + K.  K is estimated
    intrinsically as total curvature / area = 2*pi*chi / area.  Connection
    eigenvalues are complex-multiplicity values and are doubled to match the
    real Hodge count.  ``conn_eigen`` is the mesh's connection solve
    (an ``EigenResult``); without it one is solved here at ``solver_config``
    (default ``SolverConfig()``).  Its first ceil(k/2) values are used, and
    it must hold that many.  Returns a (k, 4) array of rows
    (mu_i, lambda_i, K, relative mismatch).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return np.empty((0, 4))
    shift = 2.0 * math.pi * euler_characteristic(mesh) / mesh.total_area
    config = solver_config or eigen.SolverConfig()

    k_complex = (k + 1) // 2
    if conn_eigen is None:
        conn_eigen = eigen.smallest_eigenpairs(
            *connection_laplacian_1forms(mesh, build_connection(mesh)), config)
    if len(conn_eigen.values) < k_complex:
        raise ValueError(f"k={k} needs {k_complex} connection pairs, got {len(conn_eigen.values)}")
    rough = np.repeat(conn_eigen.values[:k_complex], 2)[:k]

    res_hodge = eigen.smallest_eigenpairs(*hodge_laplacian_1forms(mesh), replace(config, k=k + 2))
    hodge = hodge_eigenvalues(mesh, res_hodge.values)[:k]

    # spec'd relative mismatch |mu - (lam+K)| / mu; kernel pairs (mu in the
    # connection solve's kernel band) are fractions of its operator scale
    scale = conn_eigen.scale
    denom = np.where(np.abs(hodge) > eigen.KERNEL_TOL * scale, np.abs(hodge), scale)
    return np.column_stack([hodge, rough, np.full(k, shift), np.abs(hodge - rough - shift) / denom])


# -- tangent-field sampling --------------------------------------------------

def encode_tangent_field(mesh: TriangleMesh, conn: ConnectionData,
                         vectors: np.ndarray) -> np.ndarray:
    """Encode a 3D vector field per vertex in the connection's own frames.

    The field is projected to the tangent plane of the area-weighted vertex
    normal; its magnitude is kept.  Its direction is lifted along that
    normal into the plane of every incident corner, and the corner whose
    wedge contains it most deeply gives the angle: the in-face angle from
    the corner's first half-edge h, rescaled by ``conn.scales``, plus the
    frame angle ``conn.phi[h]``.  Across the edge between two corners both
    give the same angle, so the encoding is continuous around every
    one-ring, and Rayleigh quotients are free of scale and of vertex labels.
    Flat tori (``mesh.period`` set) read half-edges as chart differences
    wrapped by the periods.
    """
    tails = mesh.faces.ravel()
    d = mesh.vertices[mesh.faces[:, [1, 2, 0]].ravel()] - mesh.vertices[tails]
    if mesh.period is not None:
        period = np.array(mesh.period)
        d[:, :2] -= period * np.round(d[:, :2] / period)
    doubled = np.cross(d[0::3], -d[2::3])       # face normal times twice the area
    normal = np.zeros((mesh.n_vertices, 3))
    np.add.at(normal, tails, np.repeat(doubled, 3, axis=0))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    v = np.asarray(vectors, dtype=float)
    tangential = v - np.vecdot(v, normal)[:, None] * normal
    n_face = np.repeat(doubled / (2.0 * mesh.face_areas)[:, None], 3, axis=0)
    t, n_vert = tangential[tails], normal[tails]
    lifted = t - (np.vecdot(t, n_face) / np.vecdot(n_vert, n_face))[:, None] * n_vert
    theta = np.arctan2(np.vecdot(lifted, np.cross(n_face, d)), np.vecdot(lifted, d))
    depth = np.maximum(-theta, theta - mesh.corner_angles.ravel())  # < 0 inside the corner
    best = np.lexsort((depth, tails))
    h = best[np.searchsorted(tails[best], np.arange(mesh.n_vertices))]
    magnitude = np.sqrt(np.vecdot(tangential, tangential))
    return magnitude * np.exp(1j * (conn.phi[h] + conn.scales * theta[h]))


def rotation_field(mesh: TriangleMesh) -> np.ndarray:
    """Velocity field of the rotation about the z axis: e_z x position."""
    return np.cross(np.array([0.0, 0.0, 1.0]), mesh.vertices)


def constant_chart_field(mesh: TriangleMesh, direction=(1.0, 0.0)) -> np.ndarray:
    """Constant field in the flat parameter chart (translation generator)."""
    if mesh.period is None:
        raise MeshError("constant chart fields need an intrinsic chart (flat torus)")
    d = np.zeros((mesh.n_vertices, 3))
    d[:, 0] = direction[0]
    d[:, 1] = direction[1]
    return d


def face_gradient_magnitudes(mesh: TriangleMesh, values: np.ndarray) -> np.ndarray:
    """|grad f| per face for a vertex-sampled function, from intrinsic lengths.

    Each face is laid out isometrically in the plane and the gradient of the
    linear interpolant is read off; works unchanged for intrinsic (torus)
    metrics.
    """
    f = np.asarray(values, dtype=float)
    if len(f) != mesh.n_vertices:
        raise ValueError("values must be sampled per vertex")
    side = mesh.edge_lengths[mesh.face_edges]     # side s = faces[:,s] -> faces[:,(s+1)%3]
    l01, l12, l20 = side[:, 0], side[:, 1], side[:, 2]
    x2 = (l01 ** 2 + l20 ** 2 - l12 ** 2) / (2.0 * l01)
    y2 = 2.0 * mesh.face_areas / l01
    f0 = f[mesh.faces[:, 0]]
    f1 = f[mesh.faces[:, 1]]
    f2 = f[mesh.faces[:, 2]]
    # planar layout p0=(0,0), p1=(l01,0), p2=(x2,y2); grad = sum f_i perp(e_i)/(2A)
    gx = (f0 * (-(y2 - 0.0)) + f1 * y2) / (2.0 * mesh.face_areas)
    gy = (f0 * (x2 - l01) + f1 * (-x2) + f2 * l01) / (2.0 * mesh.face_areas)
    return np.hypot(gx, gy)
