"""Discrete operators: structure, kernels, spectra against analytic oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

from roughlap import eigen
from roughlap import mesh as M
from roughlap import operators as O
from roughlap.eigen import SolverConfig, smallest_eigenpairs

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def torus(torus16):
    return torus16


@pytest.fixture(scope="module")
def torus_conn(torus16):
    return O.build_connection(torus16)


@pytest.fixture(scope="module")
def sphere_conn(sphere_s2):
    return O.build_connection(sphere_s2)


def smallest(op, mass, k):
    return smallest_eigenpairs(op, mass, SolverConfig(k=k))


def hermiticity_defect(op) -> float:
    d = op.matrix - op.matrix.getH()
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def one_norm(op) -> float:
    return float(sp.linalg.norm(op.matrix, 1))


def block_to_hodge(mesh, values):
    # the block pencil's two constants give way to the b1 = 2 - chi harmonic zeros
    return np.concatenate([np.zeros(2 - M.euler_characteristic(mesh)), values[2:]])


# -- structural invariants ------------------------------------------------------

def test_cotan_hermitian_and_kernel(torus):
    op, mass = O.cotan_laplacian(torus)
    assert hermiticity_defect(op) == 0.0
    const = np.ones(torus.n_vertices)
    assert np.abs(op.matrix @ const).max() < 1e-12
    assert mass.sum() == pytest.approx(torus.total_area, rel=1e-12)


def test_connection_hermitian(torus, torus_conn):
    op, _ = O.connection_laplacian_1forms(torus, torus_conn)
    assert hermiticity_defect(op) == 0.0


def test_cotan_connection_and_hodge_vertex_block_share_one_assembly(sphere_s2):
    # without transport the connection matrix is the cotan matrix, and the
    # Hodge pencil's exact (vertex) block is the cotan matrix too
    torus = M.generate_flat_torus(TWO_PI, TWO_PI, 9, 7)
    conn = O.build_connection(torus)
    flat = replace(conn, rho=np.zeros_like(conn.rho))
    cotan = O.cotan_laplacian(torus)[0].matrix.toarray()
    assert np.array_equal(O.connection_laplacian_1forms(torus, flat)[0].matrix.toarray(), cotan)
    for mesh in (sphere_s2, torus):
        v = mesh.n_vertices
        hodge = O.hodge_laplacian_1forms(mesh)[0].matrix
        assert np.array_equal(hodge[:v, :v].toarray(),
                              O.cotan_laplacian(mesh)[0].matrix.toarray())


def test_psd_smallest_ritz(sphere_s2, sphere_conn, monkeypatch):
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    for op, mass in (O.cotan_laplacian(sphere_s2),
                     O.connection_laplacian_1forms(sphere_s2, sphere_conn),
                     O.hodge_laplacian_1forms(sphere_s2)):
        res = smallest(op, mass, 2)
        assert res.iterations == 0
        assert res.values[0] >= -1e-9 * one_norm(op)


def test_mass_matrix_rejects_nonpositive(torus):
    op, mass = O.cotan_laplacian(torus)
    for bad in (0.0, -1.0):
        broken = mass.copy()
        broken[3] = bad
        with pytest.raises(ValueError, match="mass must be positive"):
            smallest(op, broken, 2)


SURFACES = st.one_of(
    st.sampled_from([1, 2]).map(lambda s: M.generate_icosphere(1.0, s)),
    st.builds(lambda aspect, nx, ny: M.generate_flat_torus(TWO_PI, TWO_PI * aspect, nx, ny),
              st.floats(0.5, 2.0), st.integers(6, 12), st.integers(6, 12)))


@settings(max_examples=8, deadline=None)
@given(mesh=SURFACES)
def test_pencils_are_hermitian_psd_with_topological_kernels(mesh):
    chi = M.euler_characteristic(mesh)
    pencils = [(O.cotan_laplacian(mesh), 1, 1),              # constants
               (O.connection_laplacian_1forms(mesh, O.build_connection(mesh)),
                1, 1 if chi == 0 else 0),                   # one complex parallel field
               (O.hodge_laplacian_1forms(mesh), 2, 2)]      # the two block constants
    for (op, mass), area_multiple, kernel in pencils:
        assert type(mass) is np.ndarray and mass.dtype == np.float64
        assert mass.shape == (op.matrix.shape[0],) and mass.min() > 0.0
        assert mass.sum() == pytest.approx(area_multiple * mesh.total_area, rel=1e-12)
        assert hermiticity_defect(op) == 0.0
        res = smallest(op, mass, 4)
        assert res.values[0] >= -1e-9 * res.scale
        assert np.count_nonzero(res.values < 1e-9 * res.scale) == kernel
    hodge = O.hodge_spectrum(mesh, 2, SolverConfig(k=1))[0]   # the solve of res, mapped
    assert np.array_equal(hodge, block_to_hodge(mesh, res.values)[:2])
    assert np.count_nonzero(hodge == 0.0) == 2 - chi          # b1 harmonic forms


def _jittered_icosphere(subdivisions, amplitude, seed):
    # every vertex moves by up to amplitude * sqrt(3) of the shortest edge
    sphere = M.generate_icosphere(1.0, subdivisions)
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, sphere.vertices.shape)
    return M.TriangleMesh(sphere.vertices + amplitude * sphere.edge_lengths.min() * shift,
                          sphere.faces)


@settings(max_examples=20, deadline=None)
@given(mesh=st.builds(_jittered_icosphere, st.integers(0, 2), st.floats(0.0, 0.15),
                      st.integers(0, 2 ** 32 - 1)))
def test_jittered_icospheres_keep_gauss_bonnet(mesh):
    # on any closed polyhedron the angle defects and the face holonomies of
    # the transport both total 2 pi chi
    total = TWO_PI * M.euler_characteristic(mesh)
    assert mesh.angle_defects.sum() == pytest.approx(total, abs=1e-9)
    assert O.build_connection(mesh).face_curvatures.sum() == pytest.approx(total, abs=1e-9)


def test_transport_antisymmetry(torus_conn, torus):
    # entry (b, a) of the operator carries the transport a -> b and entry
    # (a, b) the transport b -> a; the two must be inverse rotations
    op, _ = O.connection_laplacian_1forms(torus, torus_conn)
    w = torus.cotan_weights
    for e in np.flatnonzero(w > 1e-8)[:50]:
        a, b = torus.edges[e]
        r_ab = np.angle(-op.matrix[b, a] / w[e])
        r_ba = np.angle(-op.matrix[a, b] / w[e])
        assert math.remainder(r_ab - torus_conn.rho[e], TWO_PI) == pytest.approx(0.0, abs=1e-12)
        assert math.remainder(r_ab + r_ba, TWO_PI) == pytest.approx(0.0, abs=1e-12)


def test_torus_connection_is_flat(torus_conn):
    assert np.abs(torus_conn.face_curvatures).max() < 1e-12


def test_sphere_holonomy_totals_4pi(sphere_conn):
    assert sphere_conn.face_curvatures.sum() == pytest.approx(4 * math.pi, abs=1e-9)


@pytest.mark.parametrize("make", [lambda: M.generate_icosphere(1.0, 2),
                                  lambda: M.generate_flat_torus(TWO_PI, TWO_PI, 9, 7)],
                         ids=["ico2", "torus9x7"])
def test_relabelling_invariance(make):
    # a vertex permutation changes the zero direction of every vertex frame
    # but no spectrum, total curvature, kernel or Killing quotient
    mesh = make()
    perm = np.random.default_rng(5).permutation(mesh.n_vertices)  # new v is old perm[v]
    relabelled = M.TriangleMesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces],
                                edge_lengths=mesh.edge_lengths[mesh.face_edges])
    conn = O.build_connection(relabelled)
    chi = M.euler_characteristic(mesh)
    assert conn.face_curvatures.sum() == pytest.approx(TWO_PI * chi, abs=1e-9)
    conn_op, conn_mass = O.connection_laplacian_1forms(relabelled, conn)
    pencils = [(O.cotan_laplacian(mesh), O.cotan_laplacian(relabelled)),
               (O.connection_laplacian_1forms(mesh, O.build_connection(mesh)),
                (conn_op, conn_mass)),
               (O.hodge_laplacian_1forms(mesh), O.hodge_laplacian_1forms(relabelled))]
    for before, after in pencils:
        ref = smallest(*before, 6)
        got = smallest(*after, 6)
        assert np.abs(got.values - ref.values).max() < 1e-10 * ref.scale
    if chi == 2:
        before_conn = O.build_connection(mesh)
        before_op, before_mass = O.connection_laplacian_1forms(mesh, before_conn)
        rq = O.rayleigh_quotient(before_op, before_mass, O.encode_tangent_field(
            mesh, before_conn, O.rotation_field(mesh)))
        got = O.rayleigh_quotient(conn_op, conn_mass, O.encode_tangent_field(
            relabelled, conn, O.rotation_field(relabelled)))
        assert got == pytest.approx(rq, rel=1e-12)
    if chi == 0:
        res = smallest(conn_op, conn_mass, 2)
        assert abs(res.values[0]) < 1e-9 * res.scale   # one complex = two real dims
        assert res.values[1] > 0.5


def test_nonmanifold_vertex_rejected():
    # two icosahedra sharing one vertex: a closed, oriented, connected mesh
    # whose one-ring at the shared vertex is two fans
    ico = M.generate_icosphere(1.0, 0)
    other = np.concatenate([[0], np.arange(ico.n_vertices, 2 * ico.n_vertices - 1)])
    verts = np.vstack([ico.vertices, 2.0 * ico.vertices[0] - ico.vertices[1:]])
    faces = np.vstack([ico.faces, other[ico.faces]])
    with pytest.raises(M.MeshError, match="vertex 0"):
        O.build_connection(M.TriangleMesh(verts, faces))


# -- spectra against analytic oracles ---------------------------------------------

def test_cotan_torus_first_positive(torus):
    op, mass = O.cotan_laplacian(torus)
    res = smallest(op, mass, 6)
    assert abs(res.values[0]) < 1e-10
    # (1,0) modes of the 2pi-torus: eigenvalue 1, discretized at 16x16
    assert res.values[1] == pytest.approx(1.0, rel=0.02)
    assert np.allclose(res.values[1:5], res.values[1], rtol=1e-9)


def test_cotan_sphere_first_cluster(sphere_s2):
    op, mass = O.cotan_laplacian(sphere_s2)
    res = smallest(op, mass, 5)
    assert abs(res.values[0]) < 1e-10
    assert np.allclose(res.values[1:4], 2.0, rtol=0.02)


def test_connection_torus_kernel_and_cluster(torus, torus_conn):
    op, mass = O.connection_laplacian_1forms(torus, torus_conn)
    res = smallest(op, mass, 6)
    assert abs(res.values[0]) < 1e-9          # one complex zero = two real dims
    assert res.values[1] > 0.9                # next cluster near 1
    assert np.allclose(res.values[1:5], res.values[1], rtol=1e-9)


def test_connection_sphere_cluster(sphere_s2, sphere_conn):
    op, mass = O.connection_laplacian_1forms(sphere_s2, sphere_conn)
    res = smallest(op, mass, 4)
    assert np.allclose(res.values[:3], 1.0, rtol=0.02)
    assert res.values[3] > 3.0                # spectral gap to the l=2 band


def test_hodge_torus_harmonic_dimension(torus):
    # every square's null diagonal glues its two faces into one cell
    op, mass = O.hodge_laplacian_1forms(torus)
    assert op.matrix.shape[0] == torus.n_vertices + torus.n_faces // 2
    hodge, residuals, res = O.hodge_spectrum(torus, 4, SolverConfig())
    assert np.abs(res.values[:2]).max() < 1e-9 * one_norm(op)  # the two constants
    assert res.values[2] > 0.9
    assert np.array_equal(hodge[:2], [0.0, 0.0])                 # b1 = 2
    assert np.array_equal(residuals[:2], [0.0, 0.0])
    assert hodge[2] > 0.9


def test_hodge_sphere_no_kernel(sphere_s2):
    # all-acute mesh: no null edge, each face is its own cell
    op, mass = O.hodge_laplacian_1forms(sphere_s2)
    assert op.matrix.shape[0] == sphere_s2.n_vertices + sphere_s2.n_faces
    hodge, _, res = O.hodge_spectrum(sphere_s2, 4, SolverConfig())
    assert np.array_equal(hodge, res.values[2:])                 # b1 = 0
    assert np.allclose(hodge[:3], 2.0, rtol=0.02)
    assert hodge[0] > 1.0


def test_hodge_split_matches_assembled_edge_pencil(sphere_s2):
    # dense oracle: the edge pencil *1 g *0^-1 g^T *1 + d1^T *2 d1 against
    # *1, with g the vertex-to-edge difference, assembled here from the
    # mesh's edges and faces
    mesh = sphere_s2
    n_e = mesh.n_edges
    g = sp.coo_matrix((np.tile([-1.0, 1.0], n_e),
                       (np.repeat(np.arange(n_e), 2), mesh.edges.ravel())),
                      shape=(n_e, mesh.n_vertices)).toarray()
    # side s of face f runs faces[f, s] -> faces[f, (s+1) % 3]
    signs = np.where(mesh.edges[mesh.face_edges, 0] == mesh.faces, 1.0, -1.0)
    d1 = np.zeros((mesh.n_faces, n_e))
    np.add.at(d1, (np.repeat(np.arange(mesh.n_faces), 3), mesh.face_edges.ravel()),
              signs.ravel())
    assert np.abs(d1 @ g).max() == 0.0
    w = mesh.cotan_weights
    assert w.min() > 0.0
    full = (w[:, None] * g / mesh.vertex_areas) @ (g.T * w)
    full += d1.T @ (d1 / mesh.face_areas[:, None])
    oracle = eigh((full + full.T) / 2, np.diag(w), eigvals_only=True)[:6]
    got, _, res = O.hodge_spectrum(mesh, 6, SolverConfig())
    assert np.abs(got - oracle).max() < 1e-10 * res.scale


@pytest.mark.parametrize("make, k", [
    (lambda: M.generate_icosphere(1.0, 0), 29),   # the largest k: 31 of the 32 pairs
    (lambda: M.generate_icosphere(1.0, 2), 4),    # sparse path
    (lambda: M.generate_flat_torus(TWO_PI, TWO_PI, 12, 12), 4),
], ids=["ico0_k29", "ico2_k4", "torus12_k4"])
def test_hodge_spectrum_is_the_block_solve_with_constants_swapped(make, k):
    mesh = make()
    config = SolverConfig(k=1, seed=3)
    values, residuals, result = O.hodge_spectrum(mesh, k, config)
    block = smallest_eigenpairs(*O.hodge_laplacian_1forms(mesh), replace(config, k=k + 2))
    assert np.array_equal(result.values, block.values)
    assert np.array_equal(values, block_to_hodge(mesh, block.values)[:k])
    assert np.array_equal(residuals, block_to_hodge(mesh, block.residuals)[:k])


def test_hodge_spectrum_rejects_k_above_its_limit():
    with pytest.raises(ValueError, match="^k=30: the Hodge spectrum of this mesh allows "
                                         "k up to 29$"):
        O.hodge_spectrum(M.generate_icosphere(1.0, 0), 30, SolverConfig())


def test_hodge_null_edges_sharing_faces():
    # a regular hexagon doubled into a closed surface: the top is fanned from
    # vertex 0, the bottom from vertex 1; all six diagonals are null (their
    # triangles share the hexagon's circumcircle) and share faces, so each
    # side is one cell and the coexact spectrum is one value,
    # 2 * sum_e 1/w_e / area = 2 * 6/sqrt(3) / (3 sqrt(3)/2) = 8/3
    angles = np.arange(6) * math.pi / 3
    vertices = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(6)])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5],
                      [1, 3, 2], [1, 4, 3], [1, 5, 4], [1, 0, 5]])
    mesh = M.TriangleMesh(vertices, faces)
    op, mass = O.hodge_laplacian_1forms(mesh)
    assert op.matrix.shape[0] == mesh.n_vertices + 2
    hodge = block_to_hodge(mesh, eigh(op.matrix.toarray(), np.diag(mass), eigvals_only=True))
    assert len(hodge) == mesh.n_edges - 6     # one dof per non-null edge
    assert hodge.min() > 1.0                  # b1 = 0: no zero
    coexact = np.flatnonzero(np.isclose(hodge, 8.0 / 3.0, rtol=1e-12))
    assert len(coexact) == 1
    cot_op, cot_mass = O.cotan_laplacian(mesh)
    cotan = eigh(cot_op.matrix.toarray(), np.diag(cot_mass), eigvals_only=True)
    assert np.allclose(np.delete(hodge, coexact), cotan[1:], rtol=1e-12)


def test_hodge_rejects_null_edge_loop():
    # null spokes all around one vertex would glue its star into an annulus,
    # where the cell count no longer gives the harmonic dimension
    ico = M.generate_icosphere(1.0, 0)
    ico.cotan_weights[np.any(ico.edges == 0, axis=1)] = 0.0
    with pytest.raises(M.MeshError, match="loop of faces"):
        O.hodge_laplacian_1forms(ico)


@pytest.mark.parametrize("s", [2, 3])
def test_hodge_rejects_non_delaunay_naming_the_edge(s):
    # an icosphere squashed in z to half its height has obtuse pairs of corners
    ico = M.generate_icosphere(1.0, s)
    squashed = M.TriangleMesh(ico.vertices * [1.0, 1.0, 0.5], ico.faces)
    with pytest.raises(M.MeshError, match=r"^edge \(\d+, \d+\) has negative circumcentric "
                                          r"weight -[\d.e-]+: mesh is not Delaunay$"):
        O.hodge_laplacian_1forms(squashed)


def test_hodge_assembles_a_mildly_squashed_icosphere():
    # the positive control: at 0.7 of its height the s=2 icosphere is Delaunay
    ico = M.generate_icosphere(1.0, 2)
    squashed = M.TriangleMesh(ico.vertices * [1.0, 1.0, 0.7], ico.faces)
    op, mass = O.hodge_laplacian_1forms(squashed)
    assert op.matrix.shape[0] == squashed.n_vertices + squashed.n_faces


def test_connection_sphere_refinement_convergence():
    # s=2 -> s=3 crosses the analytic value (error sign flip); decay is
    # monotone from s=3 on
    errors = []
    for s in (3, 4):
        mesh = M.generate_icosphere(1.0, s)
        op, mass = O.connection_laplacian_1forms(mesh, O.build_connection(mesh))
        res = smallest(op, mass, 3)
        errors.append(abs(res.values[0] - 1.0))
    assert errors[1] < errors[0]
    assert errors[1] < 2e-6


def test_dense_oracle_agreement(torus, torus_conn, monkeypatch):
    op, mass = O.connection_laplacian_1forms(torus, torus_conn)
    dense = smallest(op, mass, 5)
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    sparse = smallest(op, mass, 5)
    assert dense.iterations == 0 and sparse.iterations > 0
    scale = dense.scale
    assert np.abs(dense.values - sparse.values).max() < 1e-8 * scale


# -- Weitzenboeck and Rayleigh quotients -------------------------------------------

def test_weitzenboeck_torus(torus):
    rows = O.weitzenboeck_eigen_check(torus, 6)
    assert len(rows) == 6
    assert rows[0][2] == 0.0                  # flat: zero curvature shift
    assert max(r[3] for r in rows) < 0.05


def test_weitzenboeck_sphere(sphere_s2):
    rows = O.weitzenboeck_eigen_check(sphere_s2, 6)
    assert rows[0][2] == pytest.approx(1.0, rel=0.03)
    assert max(r[3] for r in rows) < 0.03


def test_weitzenboeck_mismatch_is_scale_free():
    # mismatches are relative to mu, or to the operator scale on kernel pairs,
    # never to an absolute floor: radius 1e20 reads what radius 1 reads
    worst = [max(r[3] for r in O.weitzenboeck_eigen_check(M.generate_icosphere(radius, 2), 6))
             for radius in (1.0, 1e20)]
    assert worst[1] == pytest.approx(worst[0], abs=1e-9)
    assert worst[0] > 0.01


@pytest.mark.parametrize("k", [1, 2])
def test_weitzenboeck_kernel_pairs_alone(k):
    # every row is a kernel pair of the flat torus: its roundoff is measured
    # against the operator scale, not against itself
    rows = O.weitzenboeck_eigen_check(M.generate_flat_torus(2 * math.pi, 2 * math.pi, 8, 8), k)
    assert len(rows) == k
    assert max(r[3] for r in rows) <= 1e-12


def test_weitzenboeck_empty():
    t = M.generate_flat_torus(1.0, 1.0, 4, 4)
    assert O.weitzenboeck_eigen_check(t, 0).shape == (0, 4)


def test_weitzenboeck_rejects_a_connection_solve_with_too_few_pairs(torus, torus_conn):
    two_pairs = smallest_eigenpairs(*O.connection_laplacian_1forms(torus, torus_conn),
                                    SolverConfig(k=2))
    assert len(O.weitzenboeck_eigen_check(torus, 4, None, two_pairs)) == 4
    with pytest.raises(ValueError, match=r"^k=6 needs 3 connection pairs, got 2$"):
        O.weitzenboeck_eigen_check(torus, 6, None, two_pairs)


def test_rayleigh_eigenvector_recovers_eigenvalue(torus, torus_conn):
    op, mass = O.connection_laplacian_1forms(torus, torus_conn)
    res = smallest(op, mass, 3)
    for idx in range(3):
        rq = O.rayleigh_quotient(op, mass, res.vectors[:, idx])
        assert rq == pytest.approx(res.values[idx], abs=1e-9 * res.scale)


def test_rayleigh_scale_invariant(torus, torus_conn):
    op, mass = O.connection_laplacian_1forms(torus, torus_conn)
    rng = np.random.default_rng(7)
    n = op.matrix.shape[0]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = O.rayleigh_quotient(op, mass, x)
    assert O.rayleigh_quotient(op, mass, (2.5 - 1j) * x) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        O.rayleigh_quotient(op, mass, np.zeros(n, dtype=complex))


@pytest.mark.parametrize("radius", [1.0, 1e-6])
def test_rayleigh_rejects_a_non_hermitian_form_at_any_scale(radius):
    # op + i I is not Hermitian; its imaginary part is judged against a
    # magnitude that shrinks with the form, not against an absolute floor
    mesh = M.generate_icosphere(radius, 2)
    conn = O.build_connection(mesh)
    op, mass = O.connection_laplacian_1forms(mesh, conn)
    z = O.encode_tangent_field(mesh, conn, O.rotation_field(mesh))
    assert radius ** 2 * O.rayleigh_quotient(op, mass, z) == pytest.approx(1.0, abs=1e-3)
    skew = op.matrix + 1j * sp.identity(op.matrix.shape[0], format="csr")
    with pytest.raises(ValueError, match="quadratic form not real"):
        O.rayleigh_quotient(skew, mass, z)


def test_killing_rotation_quotient(sphere_s3):
    conn = O.build_connection(sphere_s3)
    op, mass = O.connection_laplacian_1forms(sphere_s3, conn)
    z = O.encode_tangent_field(sphere_s3, conn, O.rotation_field(sphere_s3))
    assert O.rayleigh_quotient(op, mass, z) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_killing_quotient_is_scale_free(s):
    # r^2 RQ of the rotation field: the encoding has no branch cut to cross
    # as rounding moves with the radius
    scaled = []
    for r in (1.0, 1e-3, 1e6):
        mesh = M.generate_icosphere(r, s)
        conn = O.build_connection(mesh)
        op, mass = O.connection_laplacian_1forms(mesh, conn)
        z = O.encode_tangent_field(mesh, conn, O.rotation_field(mesh))
        scaled.append(r * r * O.rayleigh_quotient(op, mass, z))
    assert scaled[1] == pytest.approx(scaled[0], rel=1e-12)
    assert scaled[2] == pytest.approx(scaled[0], rel=1e-12)


def test_translation_field_is_parallel(torus, torus_conn):
    op, mass = O.connection_laplacian_1forms(torus, torus_conn)
    along_x = np.tile([1.0, 0.0, 0.0], (torus.n_vertices, 1))
    assert np.array_equal(O.constant_chart_field(torus), along_x)
    for direction in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, -0.8, 0.0)):
        field = np.tile(direction, (torus.n_vertices, 1))
        z = O.encode_tangent_field(torus, torus_conn, field)
        assert O.rayleigh_quotient(op, mass, z) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=8, deadline=None)
@given(mesh=SURFACES, seed=st.integers(0, 2 ** 32 - 1))
def test_unit_transports_give_the_diamagnetic_inequality(mesh, seed):
    # Kato's inequality |d|z|| <= |dz| holds edge by edge: with a unit
    # transport t, ||z_a| - |z_b|| <= |z_a - t z_b| (reverse triangle
    # inequality).  Summed against the cotan weights (nonnegative here, up to
    # roundoff on the tori's diagonals) it is <|z|, L_cot |z|> <= <z, L_conn z>.
    # Random fields keep a wide margin; a positive multiple of a torus's
    # parallel field meets it with equality, so a longer transport fails there
    cot = O.cotan_laplacian(mesh)[0].matrix
    conn_data = O.build_connection(mesh)
    conn = O.connection_laplacian_1forms(mesh, conn_data)[0].matrix
    assert abs(abs(conn) - abs(cot)).max() <= 1e-15 * abs(cot).max()
    rng = np.random.default_rng(seed)
    n = mesh.n_vertices
    fields = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(20)]
    if mesh.period is not None:
        parallel = O.encode_tangent_field(mesh, conn_data, O.constant_chart_field(mesh))
        fields += [np.exp(rng.standard_normal(n)) * parallel for _ in range(5)]
    for z in fields:
        a = np.abs(z)
        assert a @ (cot @ a) <= (z.conj() @ (conn @ z)).real + 1e-12 * (a @ (abs(cot) @ a))


# -- face gradients ------------------------------------------------------------------

def test_face_gradient_bounded_for_unit_slope(torus):
    # sin(u) is periodic, so vertex values are consistent across the wrap;
    # the interpolant's slope never exceeds the true sup |cos| = 1
    grads = O.face_gradient_magnitudes(torus, np.sin(torus.vertices[:, 0]))
    assert grads.max() <= 1.0 + 1e-9
    assert grads.max() > 0.9


def test_face_gradient_on_sphere_coordinate(sphere_s3):
    grads = O.face_gradient_magnitudes(sphere_s3, sphere_s3.vertices[:, 2])
    assert grads.max() <= 1.0 + 1e-9
    assert grads.max() > 0.95


def _planar_layout_gradients(mesh, f):
    """|grad f| from each face laid out in the plane: p0 = (0, 0), p1 = (l01, 0),
    p2 = (x2, y2), and grad = sum f_i perp(e_i) / (2A)."""
    l01, l12, l20 = mesh.edge_lengths[mesh.face_edges].T
    x2 = (l01 ** 2 + l20 ** 2 - l12 ** 2) / (2.0 * l01)
    y2 = 2.0 * mesh.face_areas / l01
    f0, f1, f2 = f[mesh.faces].T
    gx = (f1 - f0) * y2 / (2.0 * mesh.face_areas)
    gy = (f0 * (x2 - l01) - f1 * x2 + f2 * l01) / (2.0 * mesh.face_areas)
    return np.hypot(gx, gy)


@pytest.mark.parametrize("make", [lambda: M.generate_icosphere(1.0, 2),
                                  lambda: M.generate_flat_torus(TWO_PI, TWO_PI, 8, 8)],
                         ids=["ico2", "torus8"])
def test_face_gradient_cotan_identity_matches_planar_layout(make):
    mesh = make()
    rng = np.random.default_rng(5)
    for f in (mesh.vertices[:, 0], rng.standard_normal(mesh.n_vertices)):
        reference = _planar_layout_gradients(mesh, f)
        assert np.abs(O.face_gradient_magnitudes(mesh, f) / reference - 1.0).max() <= 1e-12
