"""Mesh generators, validation, and measured geometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from roughlap import mesh as M

TWO_PI = 2 * math.pi


def test_torus_counts():
    t = M.generate_flat_torus(TWO_PI, TWO_PI, 4, 4)
    assert (t.n_vertices, t.n_edges, t.n_faces) == (16, 48, 32)
    assert M.euler_characteristic(t) == 0


def test_torus_flat_and_area():
    t = M.generate_flat_torus(TWO_PI, 1.0, 8, 5)
    assert np.abs(t.angle_defects).max() < 1e-12
    assert t.total_area == pytest.approx(TWO_PI * 1.0, rel=1e-12)


def test_torus_rejects_small_counts():
    with pytest.raises(M.MeshError):
        M.generate_flat_torus(1.0, 1.0, 2, 4)
    with pytest.raises(M.MeshError):
        M.generate_flat_torus(1.0, -1.0, 4, 4)


def test_icosphere_counts():
    s0 = M.generate_icosphere(1.0, 0)
    assert (s0.n_vertices, s0.n_edges, s0.n_faces) == (12, 30, 20)
    assert M.euler_characteristic(s0) == 2
    for s in range(4):
        sphere = M.generate_icosphere(1.0, s)
        assert sphere.n_vertices == 10 * 4 ** s + 2
        assert sphere.n_edges == 30 * 4 ** s
        assert sphere.n_faces == 20 * 4 ** s


@pytest.mark.parametrize("s", [0, 1, 2])
def test_icosphere_is_outward(s):
    # positive signed volume: faces run counterclockwise seen from outside
    sphere = M.generate_icosphere(1.0, s)
    a, b, c = (sphere.vertices[sphere.faces[:, m]] for m in range(3))
    assert np.vecdot(a, np.cross(b, c)).sum() / 6.0 > 0.0


def test_icosphere_rejects_bad_args():
    with pytest.raises(M.MeshError):
        M.generate_icosphere(0.0, 1)
    with pytest.raises(M.MeshError):
        M.generate_icosphere(1.0, -1)


def test_gauss_bonnet(sphere_s3, torus16):
    assert abs(sphere_s3.angle_defects.sum() - 4 * math.pi) < 1e-9
    assert abs(torus16.angle_defects.sum()) < 1e-9


def test_vertex_areas_partition_total(sphere_s2, torus16):
    for mesh in (sphere_s2, torus16):
        assert mesh.vertex_areas.sum() == pytest.approx(mesh.total_area, rel=1e-12)


def test_torus_graph_diameter_half_diagonal():
    t = M.generate_flat_torus(TWO_PI, TWO_PI, 32, 32)
    d = M.graph_diameter(t)
    target = math.pi * math.sqrt(2.0)
    assert target - 1e-9 <= d <= 1.05 * target


def test_graph_diameter_scaling():
    small = M.generate_flat_torus(1.0, 1.0, 8, 8)
    big = M.generate_flat_torus(3.0, 3.0, 8, 8)
    assert M.graph_diameter(big) == pytest.approx(3.0 * M.graph_diameter(small), rel=1e-12)


def test_sphere_graph_diameter_above_geodesic(sphere_s2, sphere_s3):
    # edge paths over-estimate the geodesic pi; the stretch stays below 7%
    for mesh in (sphere_s2, sphere_s3):
        d = M.graph_diameter(mesh)
        assert math.pi <= d <= 1.07 * math.pi


def _all_pairs_diameter(mesh):
    """Exact graph diameter, from Dijkstra on every vertex in 256-row blocks."""
    g = mesh.adjacency().tocsr()
    return max(float(dijkstra(g, directed=False, indices=block).max())
               for block in np.array_split(np.arange(mesh.n_vertices),
                                           -(-mesh.n_vertices // 256)))


@pytest.mark.parametrize("make", [
    lambda: M.generate_icosphere(1.0, 2),
    lambda: M.generate_icosphere(1.0, 3),
    lambda: M.generate_flat_torus(TWO_PI, TWO_PI, 32, 32),
    lambda: M.generate_flat_torus(TWO_PI, TWO_PI, 64, 64),
], ids=["ico2", "ico3", "torus32", "torus64"])
def test_graph_diameter_against_all_pairs(make):
    mesh = make()
    exact = _all_pairs_diameter(mesh)
    d = M.graph_diameter(mesh)
    assert d <= exact
    if mesh.n_vertices <= 1024:
        assert d == exact


@pytest.mark.parametrize("make", [
    lambda: M.generate_icosphere(1.0, 3),
    lambda: M.generate_flat_torus(TWO_PI, 3.0, 9, 7),
], ids=["ico3", "torus9x7"])
def test_graph_diameter_directed_search_reads_the_undirected_distances(make):
    # the adjacency is symmetric, so a directed search finds the same paths
    mesh = make()
    g = mesh.adjacency().tocsr()
    sources = np.unique(np.linspace(0, mesh.n_vertices - 1, 64).astype(int))
    undirected = dijkstra(g, directed=False, indices=sources)
    assert np.array_equal(dijkstra(g, directed=True, indices=sources), undirected)
    assert M.graph_diameter(mesh) == undirected.max()


def test_curvature_norm_torus_vanishes(torus16):
    # angle defects are pure roundoff on the intrinsically flat metric
    assert M.curvature_lp_norm(torus16, 2.0) < 1e-10


def test_curvature_norm_sphere(sphere_s3):
    got = M.curvature_lp_norm(sphere_s3, 2.0)
    assert got == pytest.approx(2.0, rel=0.03)


def test_curvature_norm_power_mean_monotone(sphere_s2):
    norms = [M.curvature_lp_norm(sphere_s2, p) for p in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_curvature_norm_refinement_convergence():
    errors = []
    for s in (2, 3, 4):
        sphere = M.generate_icosphere(1.0, s)
        errors.append(abs(M.curvature_lp_norm(sphere, 2.0) - 2.0))
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


@pytest.mark.parametrize("p", [2.0, 8.0])
def test_curvature_norm_is_scale_free(p):
    # |Riem| scales as r^-2; no power of it may overflow or underflow on the
    # way, at any radius the mesh accepts
    base = M.curvature_lp_norm(M.generate_icosphere(1.0, 3), p)
    for r in (1e-30, 1e-15, 1e-3, 1e6, 1e15, 1e30):
        got = r * r * M.curvature_lp_norm(M.generate_icosphere(r, 3), p)
        assert got == pytest.approx(base, rel=1e-12)
    assert M.curvature_lp_norm(M.generate_flat_torus(1e-30, 1e-30, 8, 8), p) == 0.0


def test_curvature_norm_domain(torus16):
    with pytest.raises(ValueError):
        M.curvature_lp_norm(torus16, 0.5)


# -- validation ---------------------------------------------------------------

def test_open_mesh_rejected():
    # single triangle: every edge has one face
    with pytest.raises(M.MeshError):
        M.TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))


def test_inconsistent_orientation_rejected():
    # two triangles sharing an edge traversed the same way twice
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    faces = np.array([[0, 1, 2], [1, 2, 3]])  # edge (1,2) repeated forward
    with pytest.raises(M.MeshError):
        M.TriangleMesh(verts, faces)


def test_disjoint_union_rejected():
    a = M.generate_icosphere(1.0, 0)
    verts = np.vstack([a.vertices, a.vertices + 10.0])
    faces = np.vstack([a.faces, a.faces + a.n_vertices])
    with pytest.raises(M.MeshError):
        M.TriangleMesh(verts, faces)


def test_degenerate_face_rejected():
    t = M.generate_icosphere(1.0, 1)
    verts = t.vertices.copy()
    # collapse one vertex onto a neighbor: zero-area faces appear
    a, b = t.edges[0]
    verts[b] = verts[a]
    with pytest.raises(M.MeshError):
        M.TriangleMesh(verts, t.faces)


def test_thin_corner_angles_are_exact():
    # a 1 x ly torus's thinnest corner is atan2(dx, dy); an angle read from its
    # cosine cancels there (4.4e-5 relative at ly = 1e6, 0 from ly = 1e8)
    for ly in np.logspace(1, 14, 131):
        exact = math.atan2(1 / 8, ly / 8)
        thinnest = M.generate_flat_torus(1.0, ly, 8, 8).corner_angles.min()
        assert abs(thinnest - exact) <= 1e-8 * exact


def _heron_sides(log_scale, log_factors, order):
    """Sides (y + z, z + x, x + y) of Heron factors x, y, z: needles when one is tiny."""
    x, y, z = 10.0 ** np.asarray(log_factors) * 10.0 ** log_scale
    return [[y + z, z + x, x + y][i] for i in order]


@settings(max_examples=300, deadline=None)
@given(sides=st.builds(_heron_sides, st.floats(-160.0, 160.0),
                       st.lists(st.floats(-20.0, 0.0), min_size=3, max_size=3),
                       st.permutations(range(3))))
@example(sides=[1.0, 1e9, 1e9 + 1e-3])  # the thin angle's cosine rounds to 1
def test_accepted_pillow_angles_are_positive_and_sum_to_pi(sides):
    # two faces glued along all three edges: a closed mesh with any triangle's sides
    a, b, c = sides
    try:
        pillow = M.TriangleMesh(np.zeros((3, 3)), [[0, 1, 2], [0, 2, 1]],
                                edge_lengths=[[a, b, c], [c, b, a]])
    except M.MeshError as exc:  # only the area may reject a pillow
        assert re.search("scale is out of range|degenerate face|triangle inequality", str(exc))
        return
    assert np.all(pillow.corner_angles > 0)
    assert np.abs(pillow.corner_angles.sum(axis=1) - math.pi).max() <= 4 * math.ulp(math.pi)


def test_unequal_side_lengths_rejected():
    t = M.generate_flat_torus(1.0, 1.0, 4, 4)
    sides = t.edge_lengths[t.face_edges].copy()
    sides[5, 1] *= 1.5
    a, b = t.edges[t.face_edges[5, 1]]
    with pytest.raises(M.MeshError, match=rf"edge \({a}, {b}\)"):
        M.TriangleMesh(t.vertices, t.faces, edge_lengths=sides)


def test_build_mesh_dispatch():
    assert M.build_mesh(M.IcoSphere(1.0, 0)).n_vertices == 12
    assert M.build_mesh(M.FlatTorus(1.0, 1.0, 3, 3)).n_vertices == 9
    with pytest.raises(M.MeshError):
        M.build_mesh(M.ProductSpec(factors=(M.IcoSphere(1.0, 0), M.FlatTorus(1.0, 1.0, 3, 3))))
