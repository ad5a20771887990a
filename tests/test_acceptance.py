"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints its measured numbers next to the asserted bound, so a run
with ``pytest -v -s tests/test_acceptance.py`` is a readable record.
Expensive discrete objects (icosphere at subdivision 5, the 64x64 torus)
are built once per session.
"""

import json
import math
import time

import numpy as np
import pytest

from roughlap import constants as con
from roughlap import eigen
from roughlap import mesh as M
from roughlap import operators as O
from roughlap import spectra as S
from roughlap import verify as V
from roughlap.constants import AbstractConstants, GeometryBudget
from roughlap.eigen import SolverConfig, cluster_multiplicities, smallest_eigenpairs

TWO_PI = 2 * math.pi
PI_SQRT2 = math.pi * math.sqrt(2.0)


@pytest.fixture(scope="module")
def sphere5_bundle():
    t0 = time.perf_counter()
    mesh = M.generate_icosphere(1.0, 5)
    conn = O.build_connection(mesh)
    op, mass = O.connection_laplacian_1forms(mesh, conn)
    result = smallest_eigenpairs(op, mass, SolverConfig(k=8))
    elapsed = time.perf_counter() - t0
    return {"mesh": mesh, "conn": conn, "op": op, "mass": mass,
            "result": result, "seconds": elapsed}


@pytest.fixture(scope="module")
def torus64_bundle():
    mesh = M.generate_flat_torus(TWO_PI, TWO_PI, 64, 64)
    conn = O.build_connection(mesh)
    op, mass = O.connection_laplacian_1forms(mesh, conn)
    result = smallest_eigenpairs(op, mass, SolverConfig(k=8))
    return {"mesh": mesh, "conn": conn, "op": op, "mass": mass, "result": result}


def test_criterion_01_sphere_first_cluster(sphere5_bundle):
    """Unit icosphere s=5: first cluster within 2% of 1, complex multiplicity 3."""
    result = sphere5_bundle["result"]
    clusters = cluster_multiplicities(result.values)
    head, count = clusters[0]
    print(f"\ncriterion 1: cluster head {head!r} (x{count}), "
          f"runtime {sphere5_bundle['seconds']:.2f}s")
    assert abs(head - 1.0) <= 0.02
    assert count == 3
    assert sphere5_bundle["seconds"] < 60.0


def test_criterion_01_dense_oracle_subdiv3(monkeypatch):
    """Sparse path against a dense eigensolve on the s=3 instance."""
    mesh = M.generate_icosphere(1.0, 3)
    conn = O.build_connection(mesh)
    op, mass = O.connection_laplacian_1forms(mesh, conn)
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 10 ** 6)
    dense = smallest_eigenpairs(op, mass, SolverConfig(k=6))
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", 0)
    sparse = smallest_eigenpairs(op, mass, SolverConfig(k=6))
    assert dense.iterations == 0 and sparse.iterations > 0
    drift = np.abs(dense.values - sparse.values).max()
    print(f"\ncriterion 1 oracle: dense-vs-sparse drift {drift:.3e}")
    assert drift < 1e-8 * dense.scale
    analytic = S.sphere_oneform_rough_spectrum(1.0, 6.0)
    # complex eigenvalues double against the real-multiplicity spectrum
    assert np.allclose(np.repeat(dense.values, 2)[:6], analytic.values()[:6],
                       rtol=0.02)


def test_criterion_02_torus_zero_modes_and_cluster(torus64_bundle):
    """64x64 torus: zero modes of real dimension 2, next cluster 1% from 1."""
    result = torus64_bundle["result"]
    zeros = int(np.sum(result.values <= eigen.KERNEL_TOL * result.scale))
    positive = result.values[zeros:]
    clusters = cluster_multiplicities(positive)
    head, count = clusters[0]
    print(f"\ncriterion 2: zero modes {2 * zeros} real, cluster {head!r} x{2 * count} real")
    assert 2 * zeros == 2
    assert abs(head - 1.0) <= 0.01
    assert 2 * count == 8


@pytest.fixture(scope="module")
def weitz_rows():
    rows = {}
    for label, mesh in (
        ("sphere4", M.generate_icosphere(1.0, 4)),
        ("sphere5", M.generate_icosphere(1.0, 5)),
        ("torus32", M.generate_flat_torus(TWO_PI, TWO_PI, 32, 32)),
        ("torus64", M.generate_flat_torus(TWO_PI, TWO_PI, 64, 64)),
    ):
        rows[label] = O.weitzenboeck_eigen_check(mesh, 6)
    return rows


def test_criterion_03_weitzenboeck_sphere(weitz_rows):
    """Hodge = rough + K within 3% on the s=5 sphere, improving from s=4."""
    worst5 = max(r[3] for r in weitz_rows["sphere5"])
    worst4 = max(r[3] for r in weitz_rows["sphere4"])
    print(f"\ncriterion 3 (sphere): worst mismatch s5={worst5:.3e}, s4={worst4:.3e}")
    assert worst5 < 0.03
    assert worst5 < worst4


def test_criterion_03_weitzenboeck_torus(weitz_rows):
    """Same pairing within 5% on the 64x64 torus, improving from 32x32.

    On the flat torus the Hodge spectrum (the exact and coexact blocks plus
    the two harmonic zeros) reproduces the connection spectrum exactly, so
    both levels sit at the roundoff floor and the decrease clause is vacuous
    below 1e-12.
    """
    worst64 = max(r[3] for r in weitz_rows["torus64"])
    worst32 = max(r[3] for r in weitz_rows["torus32"])
    print(f"\ncriterion 3 (torus): worst mismatch 64={worst64:.3e}, 32={worst32:.3e}")
    assert worst64 < 0.05
    if worst32 > 1e-12:
        assert worst64 < worst32
    else:
        assert worst64 <= 1e-12


def test_criterion_04_root_sandwich_grid():
    """n in 2..8, 50 log-spaced lam in [1e-2, 10]: residuals and sandwich."""
    out = V.check_root_sandwich_grid()
    print(f"\ncriterion 4: {out.measured['points']} grid points, "
          f"margins {out.measured['worst_margin_to_lower']:.3e} / "
          f"{out.measured['worst_margin_to_upper']:.3e}")
    assert out.status == "pass"
    assert out.measured["points"] == 350


@pytest.mark.xfail(strict=True, reason=(
    "the root equation forces lam*C(lam) -> (n*w_n+1)^(1/n) - 1 = sqrt(5)-1 "
    "~ 1.2361 for n=2 (the x*sinh term contributes at leading order because "
    "the root scales like 1/lam), so the asserted value 2.0 is unattainable"))
def test_criterion_04_small_lambda_value():
    """lam*C(lam) at lam=1e-4, n=2 within 0.1% of 2 (as stated)."""
    got = 1e-4 * con.comparison_root(2, 1e-4)
    print(f"\ncriterion 4 (small-lam clause): measured {got!r}")
    assert abs(got - 2.0) <= 0.001 * 2.0


def test_criterion_05_moser_product_grid():
    """All 16 (t, gamma) combinations: converged product below the bound."""
    out = V.check_moser_product_grid()
    print(f"\ncriterion 5: min bound/product "
          f"{out.measured['min_bound_over_product']!r}")
    assert out.status == "pass"
    assert out.measured["points"] == 16


def test_criterion_06_killing_quotients(sphere5_bundle):
    """Rotation Killing dual: quotient in [0.98, 1.02] at s=5; radius 2 scales."""
    mesh, conn = sphere5_bundle["mesh"], sphere5_bundle["conn"]
    op, mass = sphere5_bundle["op"], sphere5_bundle["mass"]
    z = O.encode_tangent_field(mesh, conn, O.rotation_field(mesh))
    rq = O.rayleigh_quotient(op, mass, z)
    print(f"\ncriterion 6: unit-sphere quotient {rq!r}")
    assert 0.98 <= rq <= 1.02
    assert rq <= 1.02 * 1.0  # sup Ric = 1

    mesh2 = M.generate_icosphere(2.0, 4)
    conn2 = O.build_connection(mesh2)
    op2, mass2 = O.connection_laplacian_1forms(mesh2, conn2)
    z2 = O.encode_tangent_field(mesh2, conn2, O.rotation_field(mesh2))
    rq2 = O.rayleigh_quotient(op2, mass2, z2)
    print(f"criterion 6: radius-2 quotient {rq2!r}")
    assert 0.245 <= rq2 <= 0.255


def test_criterion_07_torus_kernel_branch(torus64_bundle):
    """Disjunction fires through the parallel kernel, real dimension exactly 2."""
    ctx = V.ExperimentContext(M.FlatTorus(TWO_PI, TWO_PI, 64, 64), 0,
                              {"dim": 4, "kappa": 0.0, "p_exponent": 4.0},
                              AbstractConstants())
    ctx._cache["mesh"] = torus64_bundle["mesh"]
    ctx._cache["conn"] = torus64_bundle["conn"]
    ctx._cache["conn_ops"] = (torus64_bundle["op"], torus64_bundle["mass"])
    ctx._cache["conn_eig"] = torus64_bundle["result"]
    out = V.check_harmonic_alternative(ctx)
    print(f"\ncriterion 7: branch={out.measured['branch']}, "
          f"kernel real dim {out.measured['kernel_dim_real']}")
    assert out.status == "pass"
    assert out.measured["branch"] == "parallel_kernel"
    assert out.measured["kernel_dim_real"] == 2


def test_criterion_08_gap_bound_evaluator():
    """Reference value 1/(4e); monotone rays; branch-switch continuity."""
    budget = GeometryBudget(dim=4, kappa=0.0, diameter=1.0, p_exponent=4.0)
    rhs = con.oneform_gap_lower_bound(budget)
    expected = 1.0 / (4.0 * math.e)
    print(f"\ncriterion 8: rhs {rhs!r} vs 1/(4e) = {expected!r}")
    assert abs(rhs - expected) <= 1e-6

    vals = [con.oneform_gap_lower_bound(
        GeometryBudget(4, k, 1.0, 4.0)) for k in np.linspace(0.0, 10.0, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    vals = [con.oneform_gap_lower_bound(
        GeometryBudget(4, 0.0, 1.0, 4.0, riem_2p=r)) for r in np.linspace(0, 10, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    # kappa = 0, D = 1: branch1 = (Ct/(1+s))^8 crosses branch2 = 1 at s* = Ct - 1,
    # with Ct = (4 c_np)^(-1/8) e^(-c_n/8) / c0_np > 1 from a small bootstrap constant
    consts = AbstractConstants(c0_np=0.3)
    ct = 4.0 ** (-1.0 / 8.0) * math.exp(-1.0 / 8.0) / consts.c0_np
    riem_star = (ct - 1.0) ** 2
    lo, hi = (con.oneform_gap_lower_bound(GeometryBudget(4, 0.0, 1.0, 4.0, riem_2p=r), consts)
              for r in (riem_star * (1 - 1e-11), riem_star * (1 + 1e-11)))
    jump = abs(hi - lo)
    print(f"criterion 8: branch-switch jump {jump:.3e}")
    assert jump < 1e-9


def test_criterion_09_gauss_bonnet():
    """Total angle defect equals 2 pi chi to 1e-9 on every generated mesh."""
    meshes = {
        "torus4": M.generate_flat_torus(TWO_PI, TWO_PI, 4, 4),
        "torus32": M.generate_flat_torus(TWO_PI, 1.0, 32, 16),
        "sphere0": M.generate_icosphere(1.0, 0),
        "sphere3": M.generate_icosphere(0.5, 3),
        "sphere5": M.generate_icosphere(1.0, 5),
    }
    print()
    for name, mesh in meshes.items():
        chi = M.euler_characteristic(mesh)
        defect = mesh.angle_defects.sum()
        print(f"criterion 9: {name} chi={chi} |defect-2pi*chi|="
              f"{abs(defect - 2 * math.pi * chi):.2e}")
        assert abs(defect - 2.0 * math.pi * chi) < 1e-9
        assert chi == (0 if name.startswith("torus") else 2)


def test_criterion_10_torus_diameter(torus64_bundle):
    """64x64 flat 2pi-torus: graph diameter in [pi sqrt2, 1.05 pi sqrt2]."""
    d = M.graph_diameter(torus64_bundle["mesh"])
    print(f"\ncriterion 10 (torus): diameter {d!r}, target {PI_SQRT2!r}")
    assert PI_SQRT2 - 1e-9 <= d <= 1.05 * PI_SQRT2


@pytest.mark.xfail(strict=True, reason=(
    "edge-path metrics on the subdivided icosahedron keep a direction-"
    "dependent stretch; the graph diameter converges to ~1.06*pi (measured "
    "1.0619*pi at s=4), above the stated 1.05*pi ceiling"))
def test_criterion_10_sphere_diameter():
    """Unit icosphere s=4: graph diameter in [pi, 1.05 pi] (as stated)."""
    d = M.graph_diameter(M.generate_icosphere(1.0, 4))
    print(f"\ncriterion 10 (sphere): diameter {d!r} = {d / math.pi:.4f} pi")
    assert math.pi <= d <= 1.05 * math.pi


def test_criterion_11_lipschitz_battery():
    """Oscillation bound with 5% slack on all shipped test functions."""
    for manifold in (M.FlatTorus(TWO_PI, TWO_PI, 32, 32), M.IcoSphere(1.0, 4)):
        ctx = V.ExperimentContext(manifold, 0,
                                  {"dim": 4, "p_exponent": 4.0},
                                  AbstractConstants())
        out = V.check_lipschitz(ctx)
        print(f"\ncriterion 11: {manifold} -> {out.status}")
        assert out.status == "pass"


def test_criterion_12_report_determinism(tmp_path):
    """Two runs of the default spec agree modulo the timestamp."""
    a = V.run_suite("specs/default.json")
    b = V.run_suite("specs/default.json")
    da, db = a.as_dict(), b.as_dict()
    created_a = da.pop("created")
    db.pop("created")
    assert json.dumps(da) == json.dumps(db)
    assert a.failures() == []
    path = tmp_path / "r.json"
    a.write_json(path)
    assert V.Report.from_json(path).created == created_a
    print(f"\ncriterion 12: {len(a.outcomes)} outcomes identical across runs")


def test_criterion_13_product_spectra():
    """S2 x S2 first positive eigenvalue exactly 1, multiplicity 12; commutes."""
    fn = S.sphere_function_spectrum(1.0, 10.0)
    one = S.sphere_oneform_rough_spectrum(1.0, 10.0)
    ab = S.product_oneform_spectrum(fn, one, fn, one, 9.0)
    print(f"\ncriterion 13: first entries {ab.entries[:2]}")
    assert ab.first_positive() == 1.0
    assert ab.entries[0] == (1.0, 12)
    tfn = S.torus_function_spectrum(TWO_PI, TWO_PI, 10.0)
    tone = S.torus_oneform_rough_spectrum(TWO_PI, TWO_PI, 10.0)
    xy = S.product_oneform_spectrum(fn, one, tfn, tone, 9.0)
    yx = S.product_oneform_spectrum(tfn, tone, fn, one, 9.0)
    assert xy.entries == yx.entries
