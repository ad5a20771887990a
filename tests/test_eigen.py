"""Eigensolver contract: certification, determinism, clustering."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from roughlap import eigen
from roughlap.eigen import (RESIDUAL_TOL, EigenConvergenceError, EigenResult, SolverConfig,
                            cluster_multiplicities, first_positive,
                            smallest_eigenpairs)
from roughlap.mesh import generate_flat_torus, generate_icosphere
from roughlap.operators import (build_connection, connection_laplacian_1forms,
                                cotan_laplacian, hodge_laplacian_1forms)


def test_diagonal_case():
    L = sp.diags([0.0, 1.0, 2.0]).tocsr()
    M = np.ones(3)
    res = smallest_eigenpairs(L, M, SolverConfig(k=2))
    assert np.allclose(res.values, [0.0, 1.0], atol=1e-12)
    assert np.all(res.residuals <= 1e-8)


def test_mass_scales_spectrum():
    L = sp.diags([2.0, 4.0, 8.0, 16.0]).tocsr()
    M = np.full(4, 2.0)
    res = smallest_eigenpairs(L, M, SolverConfig(k=3))
    assert np.allclose(res.values, [1.0, 2.0, 4.0], atol=1e-12)


def test_vectors_mass_orthonormal():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30))
    L = sp.csr_matrix(a @ a.T)
    M = rng.uniform(0.5, 2.0, 30)
    res = smallest_eigenpairs(L, M, SolverConfig(k=5))
    gram = res.vectors.T.conj() @ (M[:, None] * res.vectors)
    assert np.abs(gram - np.eye(5)).max() < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SolverConfig(seed=-1)
    L = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        smallest_eigenpairs(L, np.ones(3), SolverConfig(k=3))  # k >= dim
    with pytest.raises(ValueError):
        smallest_eigenpairs(L, np.ones(2), SolverConfig(k=1))  # dim mismatch
    with pytest.raises(ValueError):
        smallest_eigenpairs(L, np.array([1.0, -1.0, 1.0]), SolverConfig(k=1))
    with pytest.raises(ValueError, match="mass must be positive"):
        smallest_eigenpairs(L, np.array([1.0, 0.0, 1.0]), SolverConfig(k=1))


@pytest.mark.parametrize("route", ["dense", "sparse"])
@pytest.mark.parametrize("where", ["L", "M"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_pencils_are_rejected_at_their_index(sphere_s2, monkeypatch,
                                                        route, where, bad):
    # an infinite mass once gave a spurious kernel value on the sphere, and a
    # NaN reached LAPACK or SuperLU unlocated
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6 if route == "dense" else 0)
    op, mass = connection_laplacian_1forms(sphere_s2, build_connection(sphere_s2))
    a = op.matrix.copy()
    if where == "M":
        mass = mass.copy()
        mass[5] = bad
        located = rf"^mass must be positive and finite: entry 5 is {bad}$"
    else:
        col = a.indices[a.indptr[3] + 1]
        a[3, col] = bad
        located = rf"^operator entries must be finite: entry \(3, {col}\) is "
    with pytest.raises(ValueError, match=located):
        smallest_eigenpairs(a, mass, SolverConfig(k=4))


def _torus_pencil(torus16):
    conn = build_connection(torus16)
    return connection_laplacian_1forms(torus16, conn)


def test_dense_sparse_oracle(torus16, monkeypatch):
    op, mass = _torus_pencil(torus16)
    dense = smallest_eigenpairs(op, mass, SolverConfig(k=6))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    sparse = smallest_eigenpairs(op, mass, SolverConfig(k=6))
    assert dense.iterations == dense.fill == 0 and sparse.iterations > 0 and sparse.fill > 0
    assert np.abs(dense.values - sparse.values).max() < 1e-8 * dense.scale


def _sphere_connection_pencil():
    sphere = generate_icosphere(1.0, 2)
    return connection_laplacian_1forms(sphere, build_connection(sphere))


def _torus_hodge_pencil():
    return hodge_laplacian_1forms(generate_flat_torus(2 * np.pi, 2 * np.pi, 16, 16))


@pytest.mark.parametrize("pencil, k, head", [
    # k=5 cuts the 5-fold cluster after 2 of its copies (3 + 2)
    (_sphere_connection_pencil, 5, [3, 5]),
    (_torus_hodge_pencil, 8, None),
], ids=["ico2_connection_k5", "torus16_hodge_k8"])
def test_dense_path_against_full_spectrum(pencil, k, head, monkeypatch):
    op, mass = pencil()
    config = SolverConfig(k=k)
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    res = smallest_eigenpairs(op, mass, config)
    # oracle: every eigenpair of the whitened pencil, computed here
    w = 1.0 / np.sqrt(mass)
    b = (sp.diags(w) @ op.matrix @ sp.diags(w)).toarray()
    full_vals, full_vecs = scipy.linalg.eigh((b + b.conj().T) / 2)
    assert res.iterations == 0
    assert np.abs(res.values - full_vals[:k]).max() <= 1e-12 * res.scale
    gram = res.vectors.conj().T @ (mass[:, None] * res.vectors)
    assert np.abs(gram - np.eye(k)).max() < 1e-12
    # residuals are |B y - lambda y| / scale of the unit whitened vectors
    y = np.sqrt(mass)[:, None] * res.vectors
    expected = np.linalg.norm(b @ y - y * res.values, axis=0) / res.scale
    np.testing.assert_allclose(res.residuals, expected, rtol=0.0, atol=1e-15)
    assert np.all(res.residuals <= RESIDUAL_TOL)
    if head is not None:
        assert [c for _, c in cluster_multiplicities(full_vals[:sum(head)])] == head
        # each returned vector lies in the eigenspace of the clusters it meets
        span = full_vecs[:, :sum(head)]
        y = res.vectors / w[:, None]
        assert np.linalg.norm(span.conj().T @ y, axis=0) == pytest.approx(1.0, abs=1e-10)


def _torus32_connection_pencil():
    torus = generate_flat_torus(2 * np.pi, 2 * np.pi, 32, 32)
    return connection_laplacian_1forms(torus, build_connection(torus))


def _ico4_hodge_pencil():
    return hodge_laplacian_1forms(generate_icosphere(1.0, 4))


@pytest.mark.parametrize("pencil", [_torus32_connection_pencil, _ico4_hodge_pencil],
                         ids=["torus32_connection", "ico4_hodge"])
def test_sparse_factorization_fill_beats_default_ordering(pencil):
    op, mass = pencil()
    res = smallest_eigenpairs(op, mass, SolverConfig(k=8))
    # oracle: SuperLU's default ordering and pivoting on the same shifted matrix
    w = 1.0 / np.sqrt(mass)
    b = sp.diags(w) @ op.matrix @ sp.diags(w)
    sigma = -1e-5 * res.scale
    default = splu((b - sigma * sp.identity(b.shape[0], format="csc")).tocsc())
    assert res.iterations > 0
    assert 0 < res.fill <= 0.75 * default.nnz


def test_sparse_path_is_relabelling_invariant():
    sphere = generate_icosphere(1.0, 4)
    op, mass = connection_laplacian_1forms(sphere, build_connection(sphere))
    q = np.random.default_rng(7).permutation(len(mass))
    config = SolverConfig(k=8)
    plain = smallest_eigenpairs(op, mass, config)
    relabelled = smallest_eigenpairs(op.matrix[q][:, q], mass[q], config)
    assert plain.iterations > 0 and relabelled.iterations > 0
    assert [c for _, c in cluster_multiplicities(plain.values)] == [3, 5]
    assert np.abs(plain.values - relabelled.values).max() <= 1e-12 * plain.scale
    for res, m in ((plain, mass), (relabelled, mass[q])):
        gram = res.vectors.conj().T @ (m[:, None] * res.vectors)
        assert np.abs(gram - np.eye(8)).max() <= 1e-12
    # k = 3 + 5 closes both clusters: every vector mapped back lies in their span
    root = np.sqrt(mass)[:, None]
    span = root * plain.vectors
    y = np.empty_like(relabelled.vectors)
    y[q] = relabelled.vectors
    proj = span.conj().T @ (root * y)
    assert np.linalg.norm(proj, axis=0) == pytest.approx(1.0, abs=1e-8)


def _ico3_connection_pencil():
    sphere = generate_icosphere(1.0, 3)
    return connection_laplacian_1forms(sphere, build_connection(sphere))


def _ico2_hodge_pencil():
    return hodge_laplacian_1forms(generate_icosphere(1.0, 2))


@pytest.mark.parametrize("k", [5, 8])
@pytest.mark.parametrize("pencil", [_ico3_connection_pencil, _ico2_hodge_pencil,
                                    _torus_hodge_pencil],
                         ids=["ico3_connection", "ico2_hodge", "torus16_hodge"])
def test_sparse_path_returns_the_dense_pairs_at_every_seed(pencil, k, monkeypatch):
    # pencils just above the dense cutoff: the route they take may change the
    # time, not the pairs
    op, mass = pencil()
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    dense = smallest_eigenpairs(op, mass, SolverConfig(k=k))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    for seed in range(5):
        sparse = smallest_eigenpairs(op, mass, SolverConfig(k=k, seed=seed))
        assert sparse.iterations > 0
        assert np.abs(sparse.values - dense.values).max() <= 1e-12 * np.abs(dense.values).max()
        gram = sparse.vectors.conj().T @ (mass[:, None] * sparse.vectors)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12


def test_monotone_under_k(torus16):
    op, mass = _torus_pencil(torus16)
    small = smallest_eigenpairs(op, mass, SolverConfig(k=3))
    large = smallest_eigenpairs(op, mass, SolverConfig(k=7))
    assert np.abs(small.values - large.values[:3]).max() < 1e-8 * small.scale


@pytest.mark.parametrize("pencil, seed", [
    # the first Lanczos run returns 7 of the 8 copies of 4.932 and 7.862 as
    # 21st value; the inertia count below 7.862 sees the missed copy
    (cotan_laplacian, 2),
    # the first run misses copies whose found siblings are not orthogonal
    # (complex path): the re-solve deflates an orthonormal basis of them
    (_torus_pencil, 17),
], ids=["torus32_cotan_k21_seed2", "torus32_connection_k21_seed17"])
def test_sparse_path_finds_every_copy_of_a_cluster(pencil, seed, monkeypatch):
    op, mass = pencil(generate_flat_torus(2 * np.pi, 2 * np.pi, 32, 32))
    sparse = smallest_eigenpairs(op, mass, SolverConfig(k=21, seed=seed))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    dense = smallest_eigenpairs(op, mass, SolverConfig(k=21, seed=seed))
    assert sparse.iterations > 0 and dense.iterations == 0
    assert np.abs(dense.values - sparse.values).max() < 1e-8 * dense.scale


def _whitened(op, mass):
    w = 1.0 / np.sqrt(mass)
    b = sp.diags(w) @ op.matrix @ sp.diags(w)
    return ((b + b.getH()) * 0.5).tocsr()


def _torus16_cotan_pencil():
    return cotan_laplacian(generate_flat_torus(2 * np.pi, 2 * np.pi, 16, 16))


def _torus16_connection_pencil():
    return _torus_pencil(generate_flat_torus(2 * np.pi, 2 * np.pi, 16, 16))


def _torus24_hodge_pencil():
    return hodge_laplacian_1forms(generate_flat_torus(2 * np.pi, 2 * np.pi, 24, 24))


def _results_equal(a, b):
    return (a.iterations == b.iterations and a.fill == b.fill
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("values", "vectors", "residuals")))


@pytest.mark.parametrize("pencil, seed", [
    (_torus16_connection_pencil, 42),
    # complex pencil: eigs takes the generator, eigsh would drop it
    (_torus16_connection_pencil, 3),
    (_torus24_hodge_pencil, 8),
], ids=["torus16_connection_seed42", "torus16_connection_seed3", "torus24_hodge_seed8"])
def test_sparse_solves_repeat_bitwise(pencil, seed, monkeypatch):
    # seeds 3 and 8 once drew ARPACK restart vectors from an unseeded generator
    op, mass = pencil()
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    config = SolverConfig(k=5, seed=seed)
    a = smallest_eigenpairs(op, mass, config)
    for _ in range(3):
        np.random.default_rng(seed).standard_normal(10 ** 5)  # an allocation between solves
        assert _results_equal(a, smallest_eigenpairs(op, mass, config))


class _CountingGenerator(np.random.Generator):
    draws = 0

    def uniform(self, *args, **kwargs):
        _CountingGenerator.draws += 1
        return super().uniform(*args, **kwargs)


def test_restart_vectors_come_from_the_seed(monkeypatch):
    # ARPACK draws a restart vector when a Lanczos run closes an invariant
    # subspace; the counting generator shares the solver's bit stream, so the
    # draws are the solver's own
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    runs = [0]

    def counted(solver):
        def run(*args, rng, **kwargs):
            runs[0] += 1
            return solver(*args, rng=_CountingGenerator(rng.bit_generator), **kwargs)
        return run

    monkeypatch.setattr(eigen, "eigs", counted(eigen.eigs))
    monkeypatch.setattr(eigen, "eigsh", counted(eigen.eigsh))

    def draws_per_run(op, mass, seed):
        _CountingGenerator.draws, runs[0] = 0, 0
        a = smallest_eigenpairs(op, mass, SolverConfig(k=5, seed=seed))
        np.random.default_rng(seed).standard_normal(10 ** 5)
        assert _results_equal(a, smallest_eigenpairs(op, mass, SolverConfig(k=5, seed=seed)))
        return _CountingGenerator.draws / runs[0]

    # a run that only draws its start vector, and one that also restarts
    start_only = draws_per_run(*_torus24_hodge_pencil(), seed=8)
    assert draws_per_run(*_torus_hodge_pencil(), seed=24) > start_only


@pytest.mark.parametrize("pencil", [_torus16_connection_pencil, _torus_hodge_pencil],
                         ids=["torus16_connection", "torus16_hodge"])
def test_sparse_residuals_keep_headroom_over_a_kernel(pencil, monkeypatch):
    # both pencils have a kernel, so the shift sits next to their smallest
    # values; a shift too close to 0 starves the certificate (2e-12 on the
    # Hodge pencil at -1e-7 * scale) long before RESIDUAL_TOL
    op, mass = pencil()
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    for seed in range(5):
        res = smallest_eigenpairs(op, mass, SolverConfig(k=8, seed=seed))
        assert first_positive(res) is not None and res.values[0] <= eigen.KERNEL_TOL * res.scale
        assert res.residuals.max() <= 1e-13


@pytest.mark.parametrize("pencil", [
    _torus16_cotan_pencil, _torus16_connection_pencil, _torus_hodge_pencil,
    _sphere_connection_pencil, _ico2_hodge_pencil,
], ids=["torus16_cotan", "torus16_connection", "torus16_hodge", "ico2_connection",
        "ico2_hodge"])
def test_inertia_count_matches_dense_count(pencil):
    b = _whitened(*pencil())
    vals = scipy.linalg.eigvalsh(b.toarray())
    eye = sp.identity(b.shape[0], dtype=b.dtype, format="csr")
    # the count shifts of the sparse path, just under each of the first
    # clusters, and midway between neighbouring clusters
    tops = [v for v in vals[:30] if v > eigen.KERNEL_TOL * abs(vals).max()]
    shifts = [v * (1 - eigen.INERTIA_GAP) for v in tops]
    shifts += [(u + v) / 2 for u, v in zip(tops[:-1], tops[1:]) if v - u > 1e-6 * v]
    for shift in shifts:
        assert eigen._count_below(b - shift * eye) == np.count_nonzero(vals < shift)


def test_a_dropped_copy_is_found_again(monkeypatch):
    op, mass = cotan_laplacian(generate_flat_torus(2 * np.pi, 2 * np.pi, 32, 32))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    dense = smallest_eigenpairs(op, mass, SolverConfig(k=9))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    real, calls = eigen.eigsh, []

    def drop_a_copy(a, k, **kwargs):
        # the first run loses one of the 4 copies of 0.996 and returns 3.940
        calls.append(k)
        if len(calls) > 1:
            return real(a, k=k, **kwargs)
        vals, vecs = real(a, k=k + 1, **kwargs)
        keep = np.delete(np.argsort(vals), 2)
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigen, "eigsh", drop_a_copy)
    res = smallest_eigenpairs(op, mass, SolverConfig(k=9))
    assert calls == [9, 1]
    assert [c for _, c in cluster_multiplicities(res.values)] == [1, 4, 4]
    assert np.abs(dense.values - res.values).max() < 1e-8 * dense.scale
    assert np.all(res.residuals <= RESIDUAL_TOL)


def test_a_pair_missed_at_every_re_solve_raises(monkeypatch):
    op, mass = cotan_laplacian(generate_flat_torus(2 * np.pi, 2 * np.pi, 32, 32))
    real = eigen.eigsh

    def drop_the_smallest(a, k, **kwargs):
        vals, vecs = real(a, k=k + 1, **kwargs)
        keep = np.argsort(vals)[1:]
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigen, "eigsh", drop_the_smallest)
    with pytest.raises(EigenConvergenceError, match="still missing after") as exc:
        smallest_eigenpairs(op, mass, SolverConfig(k=9))
    # the values carried are in the units of lambda: the torus's first one is 1
    assert exc.value.values.min() == pytest.approx(1.0, rel=0.01)


def test_residual_certificate_is_scale_free():
    # residuals are fractions of the operator scale: scaling the metric scales
    # L and lambda alike and leaves them where they were
    scaled = []
    for radius in (1e-3, 1.0, 1e6):
        mesh = generate_icosphere(radius, 3)
        res = smallest_eigenpairs(*connection_laplacian_1forms(mesh, build_connection(mesh)),
                                  SolverConfig(k=8))
        assert np.all(res.residuals <= RESIDUAL_TOL)
        scaled.append(radius ** 2 * res.values)
    np.testing.assert_allclose(scaled[0], scaled[1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scaled[2], scaled[1], rtol=1e-12, atol=0.0)


def _ico_pencil(kind, subdivisions, radius):
    mesh = generate_icosphere(radius, subdivisions)
    if kind == "hodge":
        return hodge_laplacian_1forms(mesh)
    return connection_laplacian_1forms(mesh, build_connection(mesh))


@pytest.mark.parametrize("kind, subdivisions, radius", [
    ("hodge", 2, 1e-10), ("hodge", 2, 1e-15), ("hodge", 2, 1e-20), ("connection", 3, 1e-20)])
def test_sparse_path_is_certified_at_a_small_radius(kind, subdivisions, radius):
    # the solve runs on B over the power of two nearest its scale, so ARPACK's
    # absolute convergence floor does not depend on the radius; values and
    # scale stay in the units of lambda
    ref = smallest_eigenpairs(*_ico_pencil(kind, subdivisions, 1.0), SolverConfig(k=8))
    op, mass = _ico_pencil(kind, subdivisions, radius)
    for seed in range(4):
        res = smallest_eigenpairs(op, mass, SolverConfig(k=8, seed=seed))
        assert np.all(res.residuals <= RESIDUAL_TOL)
        assert res.scale * radius ** 2 == pytest.approx(ref.scale, rel=1e-12)
        assert np.abs(res.values * radius ** 2 - ref.values).max() <= 1e-10 * ref.scale


def test_nonconvergence_raises(torus16, monkeypatch):
    op, mass = _torus_pencil(torus16)
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    monkeypatch.setattr(eigen, "MAX_ITER", 1)
    with pytest.raises(EigenConvergenceError):
        smallest_eigenpairs(op, mass, SolverConfig(k=5))


@pytest.mark.parametrize("n", [200, 400], ids=["dense", "sparse"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_zero_pencil_returns_exact_zeros(n, dtype):
    # the operator scale is 0: the residuals and the shift fall back to a unit
    # yardstick instead of dividing by it (pytest turns a RuntimeWarning into an error)
    res = smallest_eigenpairs(sp.csr_matrix((n, n), dtype=dtype), np.ones(n), SolverConfig(k=5))
    assert res.scale == 0.0
    assert np.array_equal(res.values, np.zeros(5))
    assert np.array_equal(res.residuals, np.zeros(5))


def test_cluster_multiplicities_example():
    got = cluster_multiplicities([0.99, 1.00, 1.01, 2.0])
    assert got == [(pytest.approx(1.0), 3), (2.0, 1)]


def test_cluster_multiplicities_empty_and_single():
    assert cluster_multiplicities([]) == []
    assert cluster_multiplicities([3.5]) == [(3.5, 1)]


def test_first_positive_threshold():
    res = EigenResult(values=np.array([1e-12, 0.5, 1.0]),
                      vectors=np.eye(3), residuals=np.zeros(3),
                      iterations=0, scale=1.0)
    assert first_positive(res) == 0.5
    all_zero = EigenResult(values=np.array([1e-12, 1e-11]),
                           vectors=np.eye(2), residuals=np.zeros(2),
                           iterations=0, scale=1.0)
    assert first_positive(all_zero) is None
