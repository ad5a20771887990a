"""Verification checks and the suite driver."""

import collections
import hashlib
import json
import math

import numpy as np
import pytest

from roughlap.constants import AbstractConstants
from roughlap.eigen import SolverConfig
from roughlap.mesh import FlatTorus, IcoSphere, ProductSpec
from roughlap import eigen
from roughlap import operators as O
from roughlap import verify as V

TWO_PI = 2 * math.pi


def make_ctx(manifold, budget=None, k=8, consts=None):
    return V.ExperimentContext(manifold, SolverConfig(k=k),
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


def test_weitzenboeck_check_uses_the_context_connection(monkeypatch):
    ctx = make_ctx(FlatTorus(TWO_PI, TWO_PI, 8, 8))
    ctx.connection()
    built, solved = [], []
    build, solve = O.build_connection, eigen.smallest_eigenpairs

    def recording_solve(L, M, config):
        solved.append(L.matrix.dtype.kind)  # "c": the complex connection pencil
        return solve(L, M, config)

    monkeypatch.setattr(O, "build_connection", lambda mesh: built.append(mesh) or build(mesh))
    monkeypatch.setattr(eigen, "smallest_eigenpairs", recording_solve)
    monkeypatch.setattr(V, "smallest_eigenpairs", recording_solve)
    out = V.check_weitzenboeck(ctx)
    assert out.status == "pass"
    # only the coarser level (torus 4x4) builds its own connection
    assert [mesh.n_vertices for mesh in built] == [16]
    # connection and Hodge solves, at this level (the context's) and the coarser one
    assert sorted(solved) == ["c", "c", "f", "f"]
    ctx.connection_eigen()
    assert len(solved) == 4


@pytest.mark.parametrize("cutoff", [0, 10 ** 6], ids=["sparse", "dense"])
@pytest.mark.parametrize("manifold", [FlatTorus(TWO_PI, TWO_PI, 8, 8), IcoSphere(1.0, 1)],
                         ids=["torus8", "ico1"])
def test_weitzenboeck_check_matches_a_standalone_solve(monkeypatch, manifold, cutoff):
    # the check reads the context's k=8 connection solve; the standalone
    # function solves the connection pencil itself at k=5
    monkeypatch.setattr(eigen, "DENSE_CUTOFF", cutoff)
    ctx = make_ctx(manifold)
    shared = np.array(V.check_weitzenboeck(ctx).measured["pairs"])
    alone = np.array(O.weitzenboeck_eigen_check(ctx.require_mesh("test"), 6, ctx.solver))
    assert np.array_equal(shared[:, 0], alone[:, 0])
    assert np.array_equal(shared[:, 2], alone[:, 2])
    scale = np.abs(alone[:, 1]).max()
    np.testing.assert_allclose(shared[:, 1], alone[:, 1], rtol=0, atol=1e-12 * scale)


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


def test_gap_lower_bound_outcomes(torus_ctx):
    reported, structure = V.check_gap_lower_bound(torus_ctx)
    assert reported.status == "reported"
    assert reported.measured["lambda1"] == pytest.approx(1.0, rel=0.02)
    assert structure.status == "pass"
    assert structure.measured["branch_switch_jump"] < 1e-9
    rhs_kappa = structure.measured["rhs_along_kappa"]
    assert all(b <= a + 1e-12 for a, b in zip(rhs_kappa, rhs_kappa[1:]))


@pytest.mark.parametrize("diameter", [1.0, 40.0, 1e6, 1e100])
def test_branch_crossing_probe_is_scale_free(diameter):
    # the probe steps riem_2p relative to the crossing (1/D)^2, so the jump
    # does not grow with D
    ctx = make_ctx(IcoSphere(1.0, 1), budget={"dim": 4, "kappa": 0.0, "p_exponent": 4.0,
                                              "diameter": diameter})
    _, structure = V.check_gap_lower_bound(ctx)
    assert structure.status == "pass"
    assert structure.measured["branch_switch_jump"] == pytest.approx(2e-12, rel=0.01)


def test_branch_crossing_probe_locates_an_unmeasurable_crossing():
    # the bound exp(-3 sqrt(kappa) D) at the crossing underflows (kappa = 0,
    # where (1/D)^2 underflows, is a CLI test)
    ctx = make_ctx(IcoSphere(1.0, 1), budget={"dim": 4, "kappa": 0.5, "p_exponent": 4.0,
                                              "diameter": 1e200})
    with pytest.raises(ValueError, match=r"^budget\.diameter 1e\+200 is too large"):
        V.check_gap_lower_bound(ctx)


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
    ctx = make_ctx(ProductSpec((IcoSphere(1.0, 0), IcoSphere(1.0, 0))),
                   budget={"dim": 4, "kappa": 0.0, "p_exponent": 4.0,
                           "riem_2p": 2.0 * math.sqrt(2.0)})
    reported, structure = V.check_gap_lower_bound(ctx)
    assert reported.measured["lambda1"] == 1.0
    assert reported.measured["diameter"] == pytest.approx(math.pi * math.sqrt(2.0))
    assert structure.status == "pass"


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
    mesh = sphere_ctx.require_mesh("test")
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
         "solver": {"k": 6},
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
    # the shift-invert target is always the automatic one
    path = write_spec(tmp_path, {"label": "x", "solver": {"shift": -0.1}, "checks": []})
    with pytest.raises(V.SpecError, match=r"experiments\[0\]\.solver.*shift"):
        V.run_suite(path)


ICO1 = {"type": "icosphere", "radius": 1.0, "subdivisions": 1}
TORUS8 = {"type": "flat_torus", "lx": TWO_PI, "ly": TWO_PI, "nx": 8, "ny": 8}
RIGIDITY = {"name": "rigidity_implication", "lambda1": 1.0, "diameter": 1.0, "kappa": 0.0,
            "c": 1.0, "dim": 4, "has_nonparallel_harmonic": False}


@pytest.mark.parametrize("experiment, where", [
    ({"checks": [{"name": "root_sandwich_grid", "bogus": 1}]},
     r"checks\[0\].*root_sandwich_grid.*bogus"),
    ({"manifold": ICO1, "checks": [{"name": "lipschitz", "slack": 0.1}]},
     r"checks\[0\].*lipschitz.*slack"),
    ({"manifold": ICO1, "checks": [{"name": "gap_lower_bound", "kappa_ray_step": 1.0}]},
     r"checks\[0\].*gap_lower_bound.*kappa_ray_step"),
    ({"checks": [{"name": "rigidity_implication", "lambda1": 1.0}]},
     r"checks\[0\].*rigidity_implication.*missing"),
    ({"solver": [1, 2], "checks": []}, r"solver: expected an object"),
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
    ({"manifold": TORUS8, "solver": {"k": 64}, "checks": ["killing_alternative"]},
     r"checks\[0\]: check 'killing_alternative': k=64 must be below the dimension 64"),
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
    ({"manifold": ICO1, "solver": {"k": True}, "checks": ["killing_alternative"]},
     r"solver\.k: expected int, got True$"),
    ({"manifold": ICO1, "solver": {"k": 6.5}, "checks": ["killing_alternative"]},
     r"solver\.k: expected an integer, got 6\.5$"),
    ({"manifold": ICO1, "solver": {"seed": 1.5}, "checks": ["killing_alternative"]},
     r"solver\.seed: expected an integer, got 1\.5$"),
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
    ({"solver": {"tol": 1e-8}, "checks": []}, r"solver: unknown field 'tol'$"),
    ({"solver": {"max_iter": 4000}, "checks": []}, r"solver: unknown field 'max_iter'$"),
    ({"solver": {"dense_cutoff": 0}, "checks": []}, r"solver: unknown field 'dense_cutoff'$"),
    ({"manifold": TORUS8, "solver": {"k": 2}, "checks": ["weitzenboeck"]},
     r"checks\[0\]: check 'weitzenboeck': solver\.k=2 is below 3: "),
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
        "weitzenboeck_k_above_twice_solver_k"])
def test_run_suite_locates_bad_input(tmp_path, experiment, where):
    path = write_spec(tmp_path, {"experiments": [{"label": "x"}, dict(experiment, label="y")]})
    with pytest.raises(V.SpecError, match=r"^experiments\[1\]\." + where):
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
], ids=["experiment_typo", "single_form_typo", "seed_inside_experiment", "seed_text",
        "seed_list", "seed_fraction", "top_level_typo", "experiments_object"])
def test_run_suite_locates_bad_top_level(tmp_path, spec, located):
    with pytest.raises(V.SpecError, match=located):
        V.run_suite(write_spec(tmp_path, spec))


def test_integral_numbers_fit_int_fields(tmp_path):
    reports = []
    for seed, nx, k, dim in ((3, 8, 8, 4), (3.0, 8.0, 8.0, 4.0)):
        path = write_spec(tmp_path, {
            "seed": seed, "label": "t", "manifold": dict(TORUS8, nx=nx), "solver": {"k": k},
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
    # whatever the check order; the coarser Weitzenboeck level has its own
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


_BRANCH_CUT = (
    "operators.encode_tangent_field rescales the frame angle arctan2(w, u) in (-pi, pi], "
    "so it jumps by 2 pi (scale - 1) where a field points against the reference edge: "
    "on ico s=3 two such vertices of the rotation field flip sign with the rounding of "
    "the radius, and the Killing quotient r^2 RQ reads 1.00580235 at radius 1 against "
    "1.00573445 at 1e-3 and 1e6 (gap_lower_bound and both statuses agree)")


@pytest.mark.parametrize("base, s", [
    ({"type": "icosphere", "radius": 1.0, "subdivisions": 2}, 3.0),
    ({"type": "flat_torus", "lx": TWO_PI, "ly": 4.0, "nx": 12, "ny": 10}, 2.5),
    *(pytest.param({"type": "icosphere", "radius": 1.0, "subdivisions": 3}, s,
                   marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_BRANCH_CUT))
      for s in (1e-3, 1e6)),
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


def test_reported_outcomes_do_not_fail_suite(tmp_path):
    path = write_spec(tmp_path, {
        "label": "s", "manifold": {"type": "icosphere", "radius": 1.0,
                                   "subdivisions": 1},
        "solver": {"k": 6},
        "budget": {"dim": 4, "kappa": 0.0, "p_exponent": 4.0},
        "checks": ["harmonic_alternative", "pinching"]})
    report = V.run_suite(path)
    statuses = {o.name: o.status for o in report.outcomes}
    assert statuses["s:harmonic_alternative"] == "reported"
    assert statuses["s:pinching"] == "reported"
    assert report.failures() == []
