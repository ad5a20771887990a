"""Verification checks and the suite driver."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from roughlap import constants as con
from roughlap.constants import AbstractConstants
from roughlap.mesh import FlatTorus, IcoSphere, ProductSpec
from roughlap import eigen
from roughlap import operators as O
from roughlap import verify as V

TWO_PI = 2 * math.pi


def make_ctx(manifold, budget=None, consts=None):
    return V.ExperimentContext(manifold, 0,
                               budget or {"dim": 4, "kappa": 0.0, "p_exponent": 4.0},
                               consts or AbstractConstants())


@pytest.fixture(scope="module")
def torus_ctx():
    return make_ctx(FlatTorus(TWO_PI, TWO_PI, 16, 16))


@pytest.fixture(scope="module")
def sphere_ctx():
    return make_ctx(IcoSphere(1.0, 2))


# -- grid checks ----------------------------------------------------------------

def test_moser_product_grid_default():
    out = V.check_moser_product_grid()
    assert out.status == "pass"
    assert out.measured["points"] == 16
    assert out.measured["min_bound_over_product"] > 1.0
    assert out.bounds["tail_tol"] == con.MOSER_TAIL_TOL == 1e-12


# -- mesh checks -----------------------------------------------------------------

def test_weitzenboeck_check_torus(torus_ctx):
    # flat tori: both levels sit at roundoff, where the check asks for a
    # mismatch <= 1e-12 instead of a decrease between two roundoff numbers
    out = V.check_weitzenboeck(torus_ctx)
    assert out.status == "pass"
    assert out.tolerance == 0.05
    assert out.measured["max_residual_coarse"] <= 1e-12
    assert out.measured["max_residual"] <= 1e-12


def test_weitzenboeck_check_sphere_refines(sphere_ctx):
    # curved surface: the mismatch is discretization error, and it must
    # strictly decrease from ico s=1 to s=2
    out = V.check_weitzenboeck(sphere_ctx)
    assert out.status == "pass"
    assert out.tolerance == 0.03
    assert out.measured["max_residual_coarse"] > 1e-12
    assert out.measured["max_residual"] < out.measured["max_residual_coarse"]


def test_weitzenboeck_check_coarsest_torus_has_no_coarser_level():
    # halving a 3x3 torus gives the 3x3 torus again, which is no coarser level
    ctx = make_ctx(FlatTorus(TWO_PI, TWO_PI, 3, 3))
    assert ctx.coarser() is None
    out = V.check_weitzenboeck(ctx)
    assert "max_residual_coarse" not in out.measured
    assert "refinement" not in out.notes


@pytest.mark.parametrize("manifold, coarse", [
    (FlatTorus(TWO_PI, 3.0, 9, 7), FlatTorus(TWO_PI, 3.0, 4, 3)),
    (FlatTorus(TWO_PI, TWO_PI, 3, 8), FlatTorus(TWO_PI, TWO_PI, 3, 4)),
    (IcoSphere(2.0, 2), IcoSphere(2.0, 1)),
    (IcoSphere(2.0, 0), None),
    (None, None),
    (ProductSpec((IcoSphere(1.0, 1), IcoSphere(1.0, 1))), None),
])
def test_coarser_is_the_next_model_level(manifold, coarse):
    ctx = V.ExperimentContext(manifold, 7, {"kappa": 0.5}, AbstractConstants(c_n=2.0))
    level = ctx.coarser()
    if coarse is None:
        assert level is None
        return
    assert level is ctx.coarser()  # cached
    assert level.manifold == coarse
    assert level.solver == ctx.solver
    assert level.budget_spec == ctx.budget_spec and level.consts is ctx.consts


def test_weitzenboeck_check_uses_the_context_connection(monkeypatch):
    ctx = make_ctx(FlatTorus(TWO_PI, TWO_PI, 8, 8))
    ctx.connection()
    built, solved = [], []
    build, solve = V.build_connection, eigen.smallest_eigenpairs

    def recording_solve(L, M, config):
        solved.append((L.matrix.dtype.kind, L.matrix.shape[0]))  # "c": connection pencil
        return solve(L, M, config)

    monkeypatch.setattr(V, "build_connection", lambda mesh: built.append(mesh) or build(mesh))
    monkeypatch.setattr(eigen, "smallest_eigenpairs", recording_solve)
    monkeypatch.setattr(V, "smallest_eigenpairs", recording_solve)
    for _ in range(2):
        assert V.check_weitzenboeck(ctx).status == "pass"
    # only the coarser level (torus 4x4) builds a connection, and once
    assert [mesh.n_vertices for mesh in built] == [16]
    # one connection solve and one Hodge solve per level, whatever the call count
    assert sorted(c for c in solved if c[0] == "c") == [("c", 16), ("c", 64)]
    assert sorted(c for c in solved if c[0] == "f") == [("f", 32), ("f", 128)]
    ctx.connection_eigen()
    ctx.coarser().connection_eigen()
    assert len(solved) == 4


@pytest.mark.parametrize("cutoff", [0, 10 ** 6], ids=["sparse", "dense"])
@pytest.mark.parametrize("manifold", [FlatTorus(TWO_PI, TWO_PI, 8, 8), IcoSphere(1.0, 1)],
                         ids=["torus8", "ico1"])
def test_weitzenboeck_check_matches_a_standalone_solve(monkeypatch, manifold, cutoff):
    # the check reads the context's connection solve; the standalone
    # function solves the same pencil itself at the same config
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", cutoff)
    ctx = make_ctx(manifold)
    shared = V.check_weitzenboeck(ctx).measured["pairs"]
    alone = O.weitzenboeck_eigen_check(ctx.require_mesh(), 6, ctx.solver)
    assert shared == [list(row) for row in alone]


def test_harmonic_alternative_torus(torus_ctx):
    out = V.check_harmonic_alternative(torus_ctx)
    assert out.status == "pass"
    assert out.measured["branch"] == "parallel_kernel"
    assert out.measured["kernel_dim_real"] == 2
    assert out.measured["b1"] == 2


def test_harmonic_alternative_sphere_not_applicable(sphere_ctx):
    out = V.check_harmonic_alternative(sphere_ctx)
    assert out.status == "reported"
    assert out.measured["b1"] == 0


def test_harmonic_alternative_stretched_torus():
    ctx = make_ctx(FlatTorus(TWO_PI, 4.0, 16, 12))
    out = V.check_harmonic_alternative(ctx)
    assert out.status == "pass"
    assert out.measured["kernel_dim_real"] == 2


def test_killing_alternative_sphere_coarse(sphere_ctx, monkeypatch):
    # s=2 discretization bias ~2.4%: widen the band; the 2% band holds from s=3
    monkeypatch.setattr(V, "KILLING_RQ_TOL", 0.05)
    out = V.check_killing_alternative(sphere_ctx)
    assert out.status == "pass"
    assert out.measured["rayleigh_quotient"] == pytest.approx(1.0, abs=0.05)
    assert out.measured["sup_ric"] == 1.0


def test_killing_alternative_sphere_default_tolerance():
    ctx = make_ctx(IcoSphere(1.0, 3))
    out = V.check_killing_alternative(ctx)
    assert out.status == "pass"
    assert out.measured["rayleigh_quotient"] == pytest.approx(1.0, abs=0.02)


def test_killing_alternative_torus_boundary(torus_ctx):
    out = V.check_killing_alternative(torus_ctx)
    assert out.status == "pass"
    assert abs(out.measured["rayleigh_quotient"]) < 1e-10
    assert out.measured["sup_ric"] == 0.0


def test_pinching_torus_asserts(torus_ctx):
    out = V.check_pinching(torus_ctx)
    assert out.status == "pass"
    assert out.measured["eps"] < 0.5
    assert out.measured["rho"] > 0.999999
    assert out.measured["multiplicity"] == 1  # the parallel field


def test_pinching_sphere_reported(sphere_ctx):
    out = V.check_pinching(sphere_ctx)
    assert out.status == "reported"
    assert out.measured["eps"] >= 0.5
    assert out.measured["rho"] < 0.1  # rotation duals vanish at the poles
    # rho reads one vector of the 3-fold first cluster: the report says so
    assert out.measured["multiplicity"] == 3
    assert "depend on its basis" in out.notes


@pytest.mark.parametrize("level", ["torus_ctx", "sphere_ctx"])
def test_pinching_measures_rho_and_the_threshold(request, level):
    out = V.check_pinching(request.getfixturevalue(level))
    assert set(out.measured) == {"rho", "eps", "lambda", "sobolev_cs", "multiplicity"}


def test_gap_lower_bound_outcomes(torus_ctx):
    out = V.check_gap_lower_bound(torus_ctx)
    assert out.status == "reported"
    assert out.measured["lambda1"] == pytest.approx(1.0, rel=0.02)
    assert out.measured["rhs"] == min(out.measured["branch1"], out.measured["branch2"])


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_gap_lower_bound_reports_a_huge_diameter(kappa):
    ctx = make_ctx(IcoSphere(1.0, 1), budget={"dim": 4, "kappa": kappa, "p_exponent": 4.0,
                                              "diameter": 1e200})
    out = V.check_gap_lower_bound(ctx)
    assert out.status == "reported"
    assert out.measured["diameter"] == 1e200
    assert out.measured["rhs"] == con.oneform_gap_lower_bound(ctx.budget())
    json.dumps(out.as_dict(), allow_nan=False)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_pinching_reports_nulls_at_a_huge_diameter(kappa):
    # C_s = c_n D exp(3 sqrt(kappa) D) overflows for kappa > 0; eps overflows
    # in both cases
    ctx = make_ctx(IcoSphere(1.0, 1), budget={"dim": 4, "kappa": kappa, "p_exponent": 4.0,
                                              "diameter": 1e200})
    out = V.check_pinching(ctx)
    assert out.status == "reported"
    assert out.measured["eps"] is None
    assert out.measured["sobolev_cs"] == (None if kappa else 1e200)
    json.dumps(out.as_dict(), allow_nan=False)


def test_gap_lower_bound_product_testbed():
    # lambda_1 and D are measured on the factor meshes: the unit S2 x S2's lambda_1
    # is the ico s=0 connection value, D the hypot of the two graph diameters
    ctx = make_ctx(ProductSpec((IcoSphere(1.0, 0), IcoSphere(1.0, 0))),
                   budget={"dim": 4, "kappa": 0.0, "p_exponent": 4.0,
                           "riem_2p": 2.0 * math.sqrt(2.0)})
    out = V.check_gap_lower_bound(ctx)
    factor = make_ctx(IcoSphere(1.0, 0))
    assert out.measured["lambda1"] == eigen.first_positive(factor.connection_eigen())
    assert out.measured["lambda1"] == pytest.approx(1.0, abs=1e-12)
    assert out.measured["diameter"] == math.hypot(factor.measured_diameter(),
                                                  factor.measured_diameter())
    assert out.measured["diameter"] == pytest.approx(4.46097641352221, rel=1e-14)


def test_identical_factors_share_one_context(monkeypatch):
    ctx = make_ctx(ProductSpec((IcoSphere(1.0, 1), IcoSphere(1.0, 1))), budget={"riem_2p": 1.0})
    solved = []
    solve = V.smallest_eigenpairs
    record = lambda L, M, config: solved.append(L.matrix.dtype.kind) or solve(L, M, config)
    monkeypatch.setattr(V, "smallest_eigenpairs", record)
    V.check_gap_lower_bound(ctx)
    V.check_gap_lower_bound(ctx)
    first, second = ctx.factors()
    assert first is second and first.mesh_where == "experiment.manifold.factors[0]"
    assert sorted(solved) == ["c", "f"]  # one connection and one cotan solve


def _assembled_product_pencil(ctx):
    """The product's 1-form pencil as one matrix: the block diagonal of
    L1_0 (x) M_1 + M_0 (x) L0_1 and L0_0 (x) M_1 + M_0 (x) L1_1 against M_0 (x) M_1 twice."""
    (c0, m0), (c1, m1) = (O.cotan_laplacian(f.require_mesh()) for f in ctx.factors())
    r0, r1 = (f.connection_operator()[0] for f in ctx.factors())
    pulled0 = sp.kron(r0.matrix, sp.diags(m1)) + sp.kron(sp.diags(m0), c1.matrix)
    pulled1 = sp.kron(c0.matrix, sp.diags(m1)) + sp.kron(sp.diags(m0), r1.matrix)
    mass = np.kron(m0, m1)
    return sp.block_diag([pulled0, pulled1], format="csr"), np.concatenate([mass, mass])


@pytest.mark.parametrize("factors, n", [
    ((IcoSphere(1.0, 1), IcoSphere(1.0, 1)), 3528),
    ((FlatTorus(TWO_PI, TWO_PI, 6, 6), IcoSphere(1.0, 0)), 864),
], ids=["ico1_x_ico1", "torus6_x_ico0"])
def test_product_gap_matches_the_assembled_product_pencil(factors, n):
    # an independent oracle of spectra's product rule on measured factor spectra:
    # the Kronecker sums of the factor pencils, assembled and solved as one
    ctx = make_ctx(ProductSpec(factors), budget={"riem_2p": 1.0})
    op, mass = _assembled_product_pencil(ctx)
    assert op.shape == (n, n)
    result = eigen.smallest_eigenpairs(op, mass, eigen.SolverConfig(k=8))
    assert abs(eigen.first_positive(result) - ctx.first_positive_oneform()) <= 1e-12 * result.scale


def test_unit_s2xs2_gap_converges_to_one():
    # the product's lambda_1 is its factor's first connection value, and it tends
    # to the smooth value 1 at least as fast as the mesh width squared
    for s in range(1, 5):
        sphere = IcoSphere(1.0, s)
        ctx = make_ctx(ProductSpec((sphere, sphere)), budget={"riem_2p": 1.0})
        lam1 = ctx.first_positive_oneform()
        assert lam1 == eigen.first_positive(ctx.factors()[0].connection_eigen())
        assert abs(lam1 - 1.0) <= 1e-3 / 4 ** (s - 1)


@pytest.mark.parametrize("radius", [0.1, 1.0, 1e3, 1e7])
def test_product_gap_is_scale_free(radius):
    # the factors' measured spectra and their kernel bands scale with the metric,
    # and spectra's product rule merges equal values relatively
    sphere = IcoSphere(radius, 0)
    ctx = make_ctx(ProductSpec((sphere, sphere)), budget={"riem_2p": 1.0})
    assert ctx.first_positive_oneform() * radius ** 2 == pytest.approx(1.0, rel=1e-12)


def test_product_requires_explicit_riem():
    ctx = make_ctx(ProductSpec((IcoSphere(1.0, 0), IcoSphere(1.0, 0))))
    with pytest.raises(V.SpecError):
        V.check_gap_lower_bound(ctx)


def test_lipschitz_check(torus_ctx, sphere_ctx):
    for ctx in (torus_ctx, sphere_ctx):
        out = V.check_lipschitz(ctx)
        assert out.status == "pass"
        for row in out.measured["functions"].values():
            assert row["oscillation"] <= row["bound"]


def test_lipschitz_constant_function(sphere_ctx):
    # constant functions oscillate zero against any bound
    from roughlap.operators import face_gradient_magnitudes
    mesh = sphere_ctx.require_mesh()
    grads = face_gradient_magnitudes(mesh, np.ones(mesh.n_vertices))
    assert grads.max() < 1e-12


# -- rigidity logic table ----------------------------------------------------------

def test_rigidity_contradiction_detected():
    out = V.rigidity_implication(lambda1=1.0, diameter=1.0, kappa=0.0, c=1.0,
                                 dim=4, has_nonparallel_harmonic=True)
    assert out.status == "fail"


def test_rigidity_flag_false_always_passes():
    for kappa in (0.0, 0.1, 100.0):
        out = V.rigidity_implication(1.0, 1.0, kappa, 1.0, 4, False)
        assert out.status == "pass"


def test_rigidity_large_curvature_voids_condition():
    # kappa D^2 large: threshold < (dim-1) kappa D^2, so no contradiction
    out = V.rigidity_implication(lambda1=100.0, diameter=1.0, kappa=50.0,
                                 c=1.0, dim=4, has_nonparallel_harmonic=True)
    assert out.status == "pass"
    assert out.measured["threshold"] < out.measured["curvature_term"]


# -- suite driver -----------------------------------------------------------------

def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


SMALL_SUITE = {
    "seed": 0,
    "experiments": [
        {"label": "grids",
         "checks": ["root_sandwich_grid", "moser_product_grid"]},
        {"label": "t", "manifold": {"type": "flat_torus", "lx": TWO_PI,
                                    "ly": TWO_PI, "nx": 12, "ny": 12},
         "budget": {"dim": 4, "kappa": 0.0, "p_exponent": 4.0},
         "checks": ["harmonic_alternative", "pinching", "lipschitz"]},
    ],
}


def test_run_suite_and_report(tmp_path):
    path = write_spec(tmp_path, SMALL_SUITE)
    report = V.run_suite(path)
    assert report.failures() == []
    names = [o.name for o in report.outcomes]
    assert "grids:root_sandwich_grid" in names
    assert "t:pinching" in names

    out = tmp_path / "report.json"
    report.write_json(out)
    back = V.Report.from_json(out)
    assert [o.as_dict() for o in back.outcomes] == [o.as_dict() for o in report.outcomes]
    report.write_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text().startswith("check,status")
    report.write_markdown(tmp_path / "report.md")
    assert "| check |" in (tmp_path / "report.md").read_text()


def test_run_suite_deterministic(tmp_path):
    path = write_spec(tmp_path, SMALL_SUITE)
    a = V.run_suite(path).as_dict()
    b = V.run_suite(path).as_dict()
    a.pop("created")
    b.pop("created")
    assert a == b


def test_default_spec_repeats_at_seed_112(tmp_path):
    # at seed 112 the report once changed on every pass: ARPACK drew its
    # restart vectors from a generator the seed did not reach
    with open("specs/default.json") as f:
        spec = json.load(f)
    path = write_spec(tmp_path, {**spec, "seed": 112})
    reports = [V.run_suite(path).as_dict() for _ in range(3)]
    for report in reports:
        report.pop("created")
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_run_suite_single_experiment_form(tmp_path):
    path = write_spec(tmp_path, {
        "label": "solo", "checks": ["moser_product_grid"]})
    report = V.run_suite(path)
    assert len(report.outcomes) == 1
    assert report.outcomes[0].name == "solo:moser_product_grid"


def test_run_suite_empty_checks(tmp_path):
    path = write_spec(tmp_path, {"label": "none", "checks": []})
    report = V.run_suite(path)
    assert report.outcomes == []
    assert report.failures() == []


def test_run_suite_unknown_check(tmp_path):
    path = write_spec(tmp_path, {"label": "x", "checks": ["nonsense"]})
    with pytest.raises(V.SpecError, match=r"checks\[0\].*nonsense"):
        V.run_suite(path)


def test_run_suite_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    with pytest.raises(V.SpecError, match="line 1"):
        V.run_suite(path)


def test_run_suite_missing_file(tmp_path):
    with pytest.raises(V.SpecError, match="cannot read"):
        V.run_suite(tmp_path / "nope.json")
    with pytest.raises(V.SpecError, match="cannot read"):
        V.Report.from_json(tmp_path / "nope.json")


def test_run_suite_bad_manifold(tmp_path):
    path = write_spec(tmp_path, {"label": "x",
                                 "manifold": {"type": "klein_bottle"},
                                 "checks": []})
    with pytest.raises(V.SpecError, match="klein_bottle"):
        V.run_suite(path)


def test_run_suite_unknown_solver_setting(tmp_path):
    # an experiment has no solver settings: the connection solve's pair count
    # is verify.CONNECTION_K and its seed the spec's top-level seed
    path = write_spec(tmp_path, {"label": "x", "solver": {"shift": -0.1}, "checks": []})
    with pytest.raises(V.SpecError, match=r"^experiments\[0\]: unknown field 'solver'$"):
        V.run_suite(path)


ICO1 = {"type": "icosphere", "radius": 1.0, "subdivisions": 1}
TORUS8 = {"type": "flat_torus", "lx": TWO_PI, "ly": TWO_PI, "nx": 8, "ny": 8}
RIGIDITY = {"name": "rigidity_implication", "lambda1": 1.0, "diameter": 1.0, "kappa": 0.0,
            "c": 1.0, "dim": 4, "has_nonparallel_harmonic": False}
# an experiment's old solver object, whatever it holds, is one unknown field
NO_SOLVER = r": unknown field 'solver'$"
# checks that never build the budget
NO_BUDGET_CHECKS = ["weitzenboeck", "lipschitz", "killing_alternative"]


@pytest.mark.parametrize("experiment, where", [
    ({"checks": [{"name": "root_sandwich_grid", "bogus": 1}]},
     r"checks\[0\].*root_sandwich_grid.*bogus"),
    ({"manifold": ICO1, "checks": [{"name": "lipschitz", "slack": 0.1}]},
     r"checks\[0\].*lipschitz.*slack"),
    ({"manifold": ICO1, "checks": [{"name": "gap_lower_bound", "kappa_ray_step": 1.0}]},
     r"checks\[0\].*gap_lower_bound.*kappa_ray_step"),
    ({"checks": [{"name": "rigidity_implication", "lambda1": 1.0}]},
     r"checks\[0\].*rigidity_implication.*missing"),
    ({"solver": [1, 2], "checks": []}, NO_SOLVER),
    ({"manifold": ICO1, "budget": {"p_exponent": "four"}, "checks": ["gap_lower_bound"]},
     r"budget.*four"),
    ({"manifold": dict(ICO1, radius=-1.0), "checks": ["lipschitz"]},
     r"manifold: radius must be positive"),
    ({"manifold": dict(ICO1, radius="one"), "checks": []}, r"manifold.*one"),
    ({"manifold": TORUS8, "budget": {"kappa": "x"}, "checks": ["harmonic_alternative"]},
     r"budget\.kappa: .*'x'"),
    ({"checks": [dict(RIGIDITY, dim="six")]},
     r"checks\[0\]\.dim: check 'rigidity_implication' expects int, got 'six'$"),
    ({"checks": [{"name": "rigidity_implication", "lambda1": 1.0, "diameter": 1.0,
                  "kappa": 0.0, "c": 1.0, "dim": 4, "has_nonparallel_harmonic": 0}]},
     r"checks\[0\]\.has_nonparallel_harmonic: .*expects bool, got 0"),
    ({"manifold": TORUS8, "budget": [0.0], "checks": []}, r"budget: expected an object"),
    ({"manifold": TORUS8, "solver": {"k": 64}, "checks": ["killing_alternative"]}, NO_SOLVER),
    ({"manifold": ICO1, "budget": {"dim": 4.7}, "checks": ["gap_lower_bound"]},
     r"budget\.dim: expected an integer, got 4\.7"),
    ({"manifold": dict(TORUS8, nx=8.7), "checks": ["lipschitz"]},
     r"manifold\.nx: expected an integer, got 8\.7$"),
    ({"manifold": dict(ICO1, subdivisions=1.5), "checks": ["lipschitz"]},
     r"manifold\.subdivisions: expected an integer, got 1\.5$"),
    ({"manifold": dict(ICO1, radius=True), "checks": []},
     r"manifold\.radius: expected float, got True$"),
    ({"manifold": dict(ICO1, radius="1"), "checks": []},
     r"manifold\.radius: expected float, got '1'$"),
    ({"manifold": {"type": "icosphere", "radius": 1.0, "subdivsions": 1}, "checks": []},
     r"manifold: unknown field 'subdivsions'$"),
    ({"manifold": {"type": "icosphere", "radius": 1.0}, "checks": []},
     r"manifold: missing field 'subdivisions'$"),
    ({"manifold": {"type": "product", "factors": [ICO1, dict(ICO1, radius="x")]}, "checks": []},
     r"manifold\.factors\[1\]\.radius: expected float, got 'x'$"),
    ({"manifold": {"type": "product", "factors": [ICO1, ICO1, ICO1]},
      "checks": ["gap_lower_bound"]},
     r"manifold: factors: expected exactly two, got 3$"),
    ({"manifold": {"type": "product", "factors": [{"type": "product", "factors": [ICO1, ICO1]},
                                                  ICO1]},
      "checks": ["gap_lower_bound"]},
     r"manifold: factors\[0\]: expected a flat torus or an icosphere, got ProductSpec$"),
    ({"manifold": {"type": "product", "factors": []}, "checks": ["gap_lower_bound"]},
     r"manifold: factors: expected exactly two, got 0$"),
    ({"manifold": {"type": "product", "factors": 3}, "checks": ["gap_lower_bound"]},
     r"manifold\.factors: expected a list of two manifold objects, got 3$"),
    ({"manifold": ICO1, "solver": {"k": True}, "checks": ["killing_alternative"]}, NO_SOLVER),
    ({"manifold": ICO1, "solver": {"k": 6.5}, "checks": ["killing_alternative"]}, NO_SOLVER),
    ({"manifold": ICO1, "solver": {"seed": 1.5}, "checks": ["killing_alternative"]}, NO_SOLVER),
    ({"manifold": TORUS8, "budget": {"kappa": True}, "checks": ["harmonic_alternative"]},
     r"budget\.kappa: expected float, got True$"),
    ({"manifold": ICO1, "budget": {"diamter": 100}, "checks": ["gap_lower_bound"]},
     r"budget: unknown field 'diamter'$"),
    ({"manifold": ICO1, "budget": {"diameter": math.nan}, "checks": ["gap_lower_bound"]},
     r"budget\.diameter: expected float, got nan$"),
    ({"manifold": ICO1, "budget": {"riem_2p": math.inf}, "checks": ["gap_lower_bound"]},
     r"budget\.riem_2p: expected float, got inf$"),
    ({"manifold": ICO1, "budget": {"diameter": None}, "checks": ["gap_lower_bound"]},
     r"budget\.diameter: expected float, got None$"),
    ({"manifold": ICO1, "budget": {"p_exponent": 0.25}, "checks": ["gap_lower_bound"]},
     r"budget\.p_exponent: p must be >= 1, got 0\.5$"),
    ({"manifold": ICO1, "budget": {"kappa": -1.0}, "checks": ["gap_lower_bound"]},
     r"budget: kappa must be >= 0 and finite, got -1\.0$"),
    ({"manifold": ICO1, "constants": {"c_n": True}, "checks": ["gap_lower_bound"]},
     r"constants\.c_n: expected float, got True$"),
    ({"manifold": ICO1, "constants": {"c0_np": 1e-300}, "checks": ["gap_lower_bound"]},
     r"checks\[0\]: check 'gap_lower_bound': c0_np 1e-300 and c_np 1\.0 give the gap "
     r"constant Ct=.*overflows$"),
    ({"checks": [dict(RIGIDITY, dim=6.5)]},
     r"checks\[0\]\.dim: check 'rigidity_implication' expects an integer, got 6\.5$"),
    ({"checks": [dict(RIGIDITY, lambda1=math.nan)]},
     r"checks\[0\]\.lambda1: check 'rigidity_implication' expects float, got nan$"),
    ({"manifold": ICO1, "checks": [{"name": "pinching", "ctx": 1}]},
     r"checks\[0\]: check 'pinching': unknown field 'ctx'$"),
    ({"solver": {"tol": 1e-8}, "checks": []}, NO_SOLVER),
    ({"solver": {"max_iter": 4000}, "checks": []}, NO_SOLVER),
    ({"solver": {"dense_cutoff": 0}, "checks": []}, NO_SOLVER),
    ({"manifold": TORUS8, "solver": {"k": 2}, "checks": ["weitzenboeck"]}, NO_SOLVER),
    ({"manifold": ICO1, "budget": {"ric_minus_p": 0.0}, "checks": ["gap_lower_bound"]},
     r"budget: unknown field 'ric_minus_p'$"),
    # the stated budget is range-checked when the experiment is read, whatever
    # checks it lists and whatever b1 is
    ({"manifold": TORUS8, "budget": {"kappa": -1.0}, "checks": ["harmonic_alternative"]},
     r"budget: kappa must be >= 0 and finite, got -1\.0$"),
    ({"manifold": ICO1, "budget": {"kappa": -1.0}, "checks": ["harmonic_alternative"]},
     r"budget: kappa must be >= 0 and finite, got -1\.0$"),
    ({"manifold": ICO1, "budget": {"kappa": -1}, "checks": NO_BUDGET_CHECKS},
     r"budget: kappa must be >= 0 and finite, got -1\.0$"),
    ({"manifold": ICO1, "budget": {"dim": 1}, "checks": NO_BUDGET_CHECKS},
     r"budget: dim must be >= 2, got 1$"),
    ({"manifold": ICO1, "budget": {"diameter": -3}, "checks": NO_BUDGET_CHECKS},
     r"budget: diameter must be positive and finite, got -3\.0$"),
    ({"manifold": ICO1, "budget": {"p_exponent": 0}, "checks": NO_BUDGET_CHECKS},
     r"budget: p_exponent must be positive and finite, got 0\.0$"),
    ({"manifold": ICO1, "budget": {"p_exponent": 0}, "checks": []},
     r"budget: p_exponent must be positive and finite, got 0\.0$"),
    # rigidity hypotheses outside the contract, even with a form that would contradict them
    ({"checks": [dict(RIGIDITY, diameter=-1.0, has_nonparallel_harmonic=True)]},
     r"checks\[0\]: check 'rigidity_implication': diameter must be positive and finite, "
     r"got -1\.0$"),
    ({"checks": [dict(RIGIDITY, lambda1=-1.0, has_nonparallel_harmonic=True)]},
     r"checks\[0\]: check 'rigidity_implication': lambda1 must be nonnegative and finite, "
     r"got -1\.0$"),
    ({"checks": [dict(RIGIDITY, kappa=-1.0, has_nonparallel_harmonic=True)]},
     r"checks\[0\]: check 'rigidity_implication': kappa must be >= 0 and finite, got -1\.0$"),
    ({"checks": [dict(RIGIDITY, dim=1, has_nonparallel_harmonic=True)]},
     r"checks\[0\]: check 'rigidity_implication': dim must be >= 2, got 1$"),
], ids=["unknown_param", "deleted_slack", "deleted_ray_step", "missing_param",
        "solver_list", "budget_text", "negative_radius", "radius_text",
        "budget_kappa_text", "param_k_text", "param_bool_as_int", "budget_list",
        "solver_k_too_large", "budget_dim_fraction", "nx_fraction", "subdivisions_fraction",
        "radius_bool", "radius_numeric_text", "manifold_typo", "manifold_missing_field",
        "product_factor_text", "product_three_factors", "product_nested",
        "product_no_factors", "product_factors_not_a_list", "solver_k_bool",
        "solver_k_fraction", "solver_seed_fraction",
        "budget_kappa_bool", "budget_typo", "budget_diameter_nan", "budget_riem_inf",
        "budget_diameter_null", "budget_p_below_half", "budget_negative_kappa",
        "constants_bool", "gap_overflow", "param_k_fraction", "param_nan",
        "param_ctx", "solver_tol", "solver_max_iter", "solver_dense_cutoff",
        "weitzenboeck_k_above_twice_solver_k", "budget_ric_minus_p",
        "harmonic_negative_kappa_torus", "harmonic_negative_kappa_b1_zero",
        "unread_budget_negative_kappa", "unread_budget_dim_one", "unread_budget_negative_diameter",
        "unread_budget_zero_p", "no_checks_zero_p",
        "rigidity_negative_diameter", "rigidity_negative_lambda1", "rigidity_negative_kappa",
        "rigidity_dim_one"])
def test_run_suite_locates_bad_input(tmp_path, experiment, where):
    # a location opening with ":" is the experiment itself, not one of its fields
    at = where if where.startswith(":") else r"\." + where
    path = write_spec(tmp_path, {"experiments": [{"label": "x"}, dict(experiment, label="y")]})
    with pytest.raises(V.SpecError, match=r"^experiments\[1\]" + at):
        V.run_suite(path)


@pytest.mark.parametrize("check, key", [
    ("root_sandwich_grid", "n_values"), ("root_sandwich_grid", "lambda_grid"),
    ("moser_product_grid", "t_grid"), ("moser_product_grid", "gamma_grid"),
    ("moser_product_grid", "tail_tol"), ("weitzenboeck", "k"), ("weitzenboeck", "tolerance"),
    ("weitzenboeck", "compare_coarser"), ("harmonic_alternative", "kappa"),
    ("killing_alternative", "rq_tolerance")])
def test_run_suite_rejects_a_check_setting(tmp_path, check, key):
    # the checks' grids, pair count and tolerances are constants of verify
    path = write_spec(tmp_path, {"label": "x", "manifold": TORUS8,
                                 "checks": [{"name": check, key: None}]})
    with pytest.raises(V.SpecError,
                       match=rf"^experiments\[0\]\.checks\[0\]: check '{check}': "
                             rf"unknown field '{key}'$"):
        V.run_suite(path)


@pytest.mark.parametrize("spec, located", [
    ({"experiments": [{"label": "x", "chekcs": ["moser_product_grid"]}]},
     r"^experiments\[0\]: unknown field 'chekcs'$"),
    ({"label": "x", "chekcs": ["moser_product_grid"]},
     r"^experiments\[0\]: unknown field 'chekcs'$"),
    ({"experiments": [{"label": "x", "seed": 1, "checks": []}]},
     r"^experiments\[0\]: unknown field 'seed'$"),
    ({"seed": "7", "experiments": [{"checks": ["moser_product_grid"]}]},
     r"^seed: expected int, got '7'$"),
    ({"seed": [1], "experiments": [{"checks": ["moser_product_grid"]}]},
     r"^seed: expected int, got \[1\]$"),
    ({"seed": 1.5, "label": "x", "checks": []}, r"^seed: expected an integer, got 1\.5$"),
    ({"experiments": [], "sede": 1}, r"^unknown field 'sede'$"),
    ({"experiments": {"label": "x"}}, r"^experiments: expected list, got \{'label': 'x'\}$"),
    # the solver route, dense at ico s=2 and sparse at s=3, changes only the time
    ({"seed": -1, "label": "x", "manifold": dict(ICO1, subdivisions=2), "checks": ["pinching"]},
     r"^seed must be >= 0, got -1$"),
    ({"seed": -1, "experiments": [{"manifold": dict(ICO1, subdivisions=3),
                                   "checks": ["pinching"]}]}, r"^seed must be >= 0, got -1$"),
], ids=["experiment_typo", "single_form_typo", "seed_inside_experiment", "seed_text",
        "seed_list", "seed_fraction", "top_level_typo", "experiments_object",
        "seed_negative_dense", "seed_negative_sparse"])
def test_run_suite_locates_bad_top_level(tmp_path, spec, located):
    with pytest.raises(V.SpecError, match=located):
        V.run_suite(write_spec(tmp_path, spec))


def test_integral_numbers_fit_int_fields(tmp_path):
    reports = []
    for seed, nx, dim in ((3, 8, 4), (3.0, 8.0, 4.0)):
        path = write_spec(tmp_path, {
            "seed": seed, "label": "t", "manifold": dict(TORUS8, nx=nx),
            "checks": ["weitzenboeck", "killing_alternative", dict(RIGIDITY, dim=dim)]})
        report = V.run_suite(path).as_dict()
        del report["created"], report["suite"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["seed"] == 3 and len(reports[0]["outcomes"]) == 3


def test_budget_accepts_integral_dim(tmp_path):
    rhs = []
    for budget in ({"dim": 4}, {"dim": 4.0}, {}):
        path = write_spec(tmp_path, {"label": "x", "manifold": ICO1, "budget": budget,
                                     "checks": ["gap_lower_bound"]})
        rhs.append(V.run_suite(path).outcomes[0].measured["rhs"])
    assert rhs[0] == rhs[1] == rhs[2]


def test_run_suite_solves_each_pencil_once(tmp_path, monkeypatch):
    # every check that needs connection values reads the one context solve,
    # whatever the check order; the coarser Weitzenboeck level is a context
    # of its own, with its own cached connection solve
    solves = collections.Counter()
    solve = eigen.smallest_eigenpairs

    def counting_solve(L, M, config):
        a = L.matrix
        pencil = a.data.tobytes() + a.indices.tobytes() + np.asarray(M).tobytes()
        solves[hashlib.sha256(pencil).hexdigest()] += 1
        return solve(L, M, config)

    monkeypatch.setattr(eigen, "smallest_eigenpairs", counting_solve)
    monkeypatch.setattr(V, "smallest_eigenpairs", counting_solve)
    checks = ["weitzenboeck", "harmonic_alternative", "killing_alternative", "pinching",
              "lipschitz", "gap_lower_bound"]
    path = write_spec(tmp_path, {"experiments": [
        {"label": "t", "manifold": TORUS8, "checks": checks},
        {"label": "s", "manifold": ICO1, "checks": checks[::-1]}]})
    V.run_suite(path)
    # per experiment: connection and Hodge pencils, at this level and the coarser one
    assert sorted(solves.values()) == [1] * 8


def test_default_suite_solves_and_measures_once_per_level(monkeypatch):
    # 8 solves for the two mesh experiments (connection and Hodge, each at two
    # levels) and 2 for S2 x S2, whose identical factors share one context; the
    # budget, and so its curvature norm, is built once per mesh experiment
    solved, norms = [], []
    solve, norm = eigen.smallest_eigenpairs, V.curvature_lp_norm
    record = lambda L, M, config: solved.append(L.matrix.shape[0]) or solve(L, M, config)
    monkeypatch.setattr(eigen, "smallest_eigenpairs", record)
    monkeypatch.setattr(V, "smallest_eigenpairs", record)
    monkeypatch.setattr(V, "curvature_lp_norm", lambda mesh, p: norms.append(p) or norm(mesh, p))
    V.run_suite("specs/default.json")
    assert len(solved) == 10 and solved.count(12) == 2
    assert norms == [8.0, 8.0]


def test_connection_k_fits_the_smallest_meshes(tmp_path, monkeypatch):
    # CONNECTION_K pairs fit the 9-vertex torus and the 12-vertex ico s=0, and
    # cover the connection pairs the Weitzenboeck check reads
    assert V.CONNECTION_K >= V.WEITZENBOECK_K // 2
    contexts = []

    class RecordingContext(V.ExperimentContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(V, "ExperimentContext", RecordingContext)
    checks = ["weitzenboeck", "harmonic_alternative", "killing_alternative", "pinching",
              "lipschitz", "gap_lower_bound"]
    path = write_spec(tmp_path, {"experiments": [
        {"label": "t", "manifold": dict(TORUS8, nx=3, ny=3), "checks": checks},
        {"label": "s", "manifold": dict(ICO1, subdivisions=0), "checks": checks}]})
    report = V.run_suite(path)
    assert len(report.outcomes) == 2 * len(checks)
    assert [len(ctx.connection_eigen().values) for ctx in contexts] == [V.CONNECTION_K] * 2


@pytest.mark.parametrize("base, s", [
    ({"type": "icosphere", "radius": 1.0, "subdivisions": 2}, 3.0),
    ({"type": "flat_torus", "lx": TWO_PI, "ly": 4.0, "nx": 12, "ny": 10}, 2.5),
    ({"type": "icosphere", "radius": 1.0, "subdivisions": 3}, 1e-3),
    ({"type": "icosphere", "radius": 1.0, "subdivisions": 3}, 1e6),
], ids=["ico2", "torus12x10", "ico3_1e-3", "ico3_1e6"])
def test_run_suite_is_scale_free(tmp_path, base, s):
    # scaling the metric by s scales eigenvalues by 1/s^2 and the diameter by s
    lengths = ("radius",) if "radius" in base else ("lx", "ly")
    scaled = dict(base, **{key: s * base[key] for key in lengths})
    checks = ["gap_lower_bound", "killing_alternative"]
    path = write_spec(tmp_path, {"experiments": [
        {"label": label, "manifold": manifold, "checks": checks}
        for label, manifold in (("a", base), ("b", scaled))]})
    m = {o.name: o.measured for o in V.run_suite(path).outcomes}
    a, b = m["a:gap_lower_bound"], m["b:gap_lower_bound"]
    assert b["lambda1"] * s * s == pytest.approx(a["lambda1"], rel=1e-12)
    assert b["sqrt_lambda1_times_D"] == pytest.approx(a["sqrt_lambda1_times_D"], rel=1e-12)
    # sqrt(riem_2p) * D is scale-free; on the torus both are exactly 0
    assert b["rhs"] == pytest.approx(a["rhs"], rel=1e-12)
    # the torus quotient is zero: compared absolutely
    rq_a = m["a:killing_alternative"]["rayleigh_quotient"]
    rq_b = m["b:killing_alternative"]["rayleigh_quotient"]
    assert rq_b * s * s == pytest.approx(rq_a, rel=1e-12, abs=1e-12)


def test_grid_check_rejects_mesh_requirement(tmp_path):
    path = write_spec(tmp_path, {"label": "x", "checks": ["lipschitz"]})
    with pytest.raises(V.SpecError, match="meshable"):
        V.run_suite(path)


_MESH_CHECKS = ["weitzenboeck", "harmonic_alternative", "killing_alternative", "pinching",
                "lipschitz", "gap_lower_bound"]
_PRODUCT = {"type": "product", "factors": [dict(ICO1, subdivisions=0)] * 2}


@pytest.mark.parametrize("manifold, check", [
    *((None, check) for check in _MESH_CHECKS),
    # a product's gap bound is its closed-form testbed and needs no mesh
    *((_PRODUCT, check) for check in _MESH_CHECKS if check != "gap_lower_bound")])
def test_mesh_requirement_names_the_check(tmp_path, manifold, check):
    path = write_spec(tmp_path, {"label": "x", "manifold": manifold,
                                 "budget": {"riem_2p": 1.0}, "checks": [check]})
    with pytest.raises(V.SpecError, match=rf"^experiments\[0\]\.checks\[0\]: check '{check}': "
                                          r"needs a meshable manifold"):
        V.run_suite(path)


def test_reported_outcomes_do_not_fail_suite(tmp_path):
    path = write_spec(tmp_path, {
        "label": "s", "manifold": {"type": "icosphere", "radius": 1.0,
                                   "subdivisions": 1},
        "budget": {"dim": 4, "kappa": 0.0, "p_exponent": 4.0},
        "checks": ["harmonic_alternative", "pinching"]})
    report = V.run_suite(path)
    statuses = {o.name: o.status for o in report.outcomes}
    assert statuses["s:harmonic_alternative"] == "reported"
    assert statuses["s:pinching"] == "reported"
    assert report.failures() == []
