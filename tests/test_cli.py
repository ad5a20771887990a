"""CLI subcommands, run in process."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import roughlap
from roughlap import constants as con
from roughlap.cli import main
from roughlap.constants import GeometryBudget
from roughlap.verify import WEITZENBOECK_K

TWO_PI = 2 * math.pi


def test_constants_table(capsys):
    assert main(["constants", "--n", "2", "--lambda-grid", "0.5", "1.0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("n lambda")
    assert len(lines) == 3
    # full double precision: sine integral for n=2 prints as 2.0...
    assert "2.0" in lines[1]


def test_bound_reference_value(capsys):
    assert main(["bound", "--dim", "4", "--kappa", "0", "--diameter", "1",
                 "--riem2p", "0", "--p", "4"]) == 0
    out = capsys.readouterr().out
    rhs = float(out.splitlines()[2].split()[1])
    assert rhs == pytest.approx(1.0 / (4.0 * math.e), abs=1e-12)
    assert "active branch1" in out


@pytest.mark.parametrize("argv, budget", [
    ([], GeometryBudget(4, 0.0, 1.0, 4.0)),
    (["--kappa", "0.3", "--riem2p", "2"], GeometryBudget(4, 0.3, 1.0, 4.0, riem_2p=2.0)),
    (["--dim", "6", "--p", "4"], GeometryBudget(6, 0.0, 1.0, 4.0))],
    ids=["default", "kappa_riem", "dim6"])
def test_bound_prints_the_library_bound(capsys, argv, budget):
    assert main(["bound", *argv]) == 0
    rhs = capsys.readouterr().out.splitlines()[2]
    assert rhs == f"rhs {con.oneform_gap_lower_bound(budget)!r}"


# the bound has one formula, and its budget only the estimate's hypotheses (no |Ric^-|_p)
@pytest.mark.parametrize("argv", [["--delta-branch", "secondary"], ["--corollary-variant"],
                                  ["--ric-minus-p", "0"]],
                         ids=["delta_branch", "corollary_variant", "ric_minus_p"])
def test_bound_has_no_variant_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_spectrum_torus(capsys):
    assert main(["spectrum", "--manifold", "flat_torus", "--nx", "12", "--ny", "12",
                 "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "flat_torus" in out
    values = [float(ln.split()[0]) for ln in out.splitlines()
              if ln and not ln.startswith("#")]
    assert abs(values[0]) < 1e-9


def test_spectrum_has_no_csv_flag(capsys, tmp_path):
    # stdout prints every value and residual in full (repr)
    with pytest.raises(SystemExit) as exit_:
        main(["spectrum", "--manifold", "flat_torus", "--nx", "12", "--ny", "12",
              "--csv", str(tmp_path / "x")])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spectrum_names_the_solver(capsys):
    assert main(["spectrum", "--manifold", "icosphere", "--subdiv", "2"]) == 0
    assert "# solver: dense\n" in capsys.readouterr().out
    argv = ["spectrum", "--manifold", "icosphere", "--subdiv", "4", "--k", "8"]
    lines = []
    for _ in range(2):
        assert main(argv) == 0
        lines.append([ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith("# solver:")])
    assert lines[0] == lines[1]   # deterministic
    assert re.fullmatch(r"# solver: shift-invert solves=[1-9]\d* fill=[1-9]\d*", lines[0][0])


def test_spectrum_sphere_function(capsys):
    assert main(["spectrum", "--manifold", "icosphere", "--subdiv", "2",
                 "--operator", "function", "--k", "4"]) == 0
    out = capsys.readouterr().out
    values = [float(ln.split()[0]) for ln in out.splitlines()
              if ln and not ln.startswith("#")]
    assert values[1] == pytest.approx(2.0, rel=0.02)


def test_verify_and_report(capsys, tmp_path):
    spec = {
        "seed": 0,
        "experiments": [{"label": "g",
                         "checks": ["moser_product_grid"]}],
    }
    spec_path = tmp_path / "suite.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "out.json"
    assert main(["verify", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "g:moser_product_grid" in printed
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == 1
    assert report["outcomes"][0]["status"] == "pass"

    md = tmp_path / "render.md"
    assert main(["report", "--input", str(out_path),
                 "--format", "markdown", "--out", str(md)]) == 0
    assert "| g:moser_product_grid | pass |" in md.read_text()


def test_verify_spec_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "checks": ["nope"]}))
    assert main(["verify", "--spec", str(bad)]) == 2
    assert "spec error" in capsys.readouterr().err


ICO1 = {"type": "icosphere", "radius": 1.0, "subdivisions": 1}


def test_verify_reports_a_null_ratio_when_the_bound_underflows(capsys, tmp_path):
    # sqrt(K) * D = 1e150 * D drives branch1 below the smallest double
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"manifold": ICO1, "checks": ["gap_lower_bound"],
                                "budget": {"dim": 4, "kappa": 0.0, "p_exponent": 4.0,
                                           "riem_2p": 1e300}}))
    out = tmp_path / "huge.report.json"
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    [reported] = json.loads(out.read_text())["outcomes"]
    assert reported["measured"]["rhs"] == 0.0
    assert reported["measured"]["ratio"] is None


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_verify_reports_the_gap_bound_at_a_huge_diameter(capsys, tmp_path, kappa):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"manifold": ICO1, "checks": ["gap_lower_bound"],
                                "budget": {"dim": 4, "kappa": kappa, "p_exponent": 4.0,
                                           "diameter": 1e200}}))
    out = tmp_path / "huge.report.json"
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    [reported] = json.loads(out.read_text())["outcomes"]
    m = reported["measured"]
    assert reported["status"] == "reported"
    assert m["diameter"] == 1e200
    # sqrt(riem_2p) * D = 1e200 * sqrt(riem_2p) drives branch1 to 0
    assert m["rhs"] == m["branch1"] == 0.0
    assert m["ratio"] is None


@pytest.mark.parametrize("kappa, status, code", [(0.5, "pass", 0), (0.0, "fail", 1)])
def test_verify_rigidity_at_a_huge_diameter(capsys, tmp_path, kappa, status, code):
    # kappa D^2 overflows a double at kappa > 0 and is reported as null; at
    # kappa = 0 the threshold is c = 1 > 0 and the stated form contradicts it
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"checks": [{
        "name": "rigidity_implication", "lambda1": 1.0, "diameter": 1e200, "kappa": kappa,
        "c": 1.0, "dim": 4, "has_nonparallel_harmonic": True}]}))
    out = tmp_path / "huge.report.json"
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == code

    def no_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    (outcome,) = json.loads(out.read_text(), parse_constant=no_constant)["outcomes"]
    assert outcome["status"] == status
    assert outcome["measured"]["li_yau_predicate"] is True
    assert outcome["measured"]["threshold"] == (0.0 if kappa else 1.0)
    assert outcome["measured"]["curvature_term"] == (None if kappa else 0.0)


def test_report_rejects_json_that_is_not_a_report(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert main(["report", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "spec error" in err and "empty.json" in err and "'outcomes'" in err


def test_report_rerenders_the_csv_verify_wrote(capsys, tmp_path):
    spec = tmp_path / "w.json"
    spec.write_text(json.dumps({"label": "w", "manifold": dict(ICO1, subdivisions=2),
                                "checks": ["weitzenboeck"]}))
    out = tmp_path / "w.report.json"
    assert main(["verify", "--spec", str(spec), "--out", str(out)]) == 0
    table = out.with_suffix(".csv")
    written = table.read_text()
    table.unlink()
    assert main(["report", "--input", str(out), "--format", "csv"]) == 0
    assert table.read_text() == written
    # list fields are one cell, their entries joined by ';'
    [pairs] = [row for row in csv.DictReader(written.splitlines()) if row["field"] == "pairs"]
    assert len(pairs["value"].split(";")) == WEITZENBOECK_K

    not_json = tmp_path / "notes.txt"
    not_json.write_text("no report here\n")
    capsys.readouterr()
    assert main(["report", "--input", str(not_json)]) == 2
    err = capsys.readouterr().err
    assert "spec error" in err and "not a JSON report" in err


def _printed_values(out):
    return [float(ln.split()[0]) for ln in out.splitlines()
            if ln and not ln.startswith("#")]


def test_spectrum_sphere_hodge(capsys):
    assert main(["spectrum", "--manifold", "icosphere", "--subdiv", "2",
                 "--operator", "hodge", "--k", "4"]) == 0
    values = _printed_values(capsys.readouterr().out)
    assert len(values) == 4
    assert min(values) > 1.0                  # b1 = 0: no zero
    assert values[0] == pytest.approx(2.0, rel=0.02)


def test_spectrum_hodge_runs_at_the_largest_k(capsys):
    # the bound that `--k 30` is refused with: ico s=0 gives 29 Hodge values
    assert main(["spectrum", "--manifold", "icosphere", "--subdiv", "0",
                 "--operator", "hodge", "--k", "29"]) == 0
    assert len(_printed_values(capsys.readouterr().out)) == 29


def test_spectrum_torus_hodge(capsys):
    assert main(["spectrum", "--manifold", "flat_torus", "--nx", "12", "--ny", "12",
                 "--operator", "hodge", "--k", "4"]) == 0
    out = capsys.readouterr().out
    values = _printed_values(out)
    assert len(values) == 4
    assert values[:2] == [0.0, 0.0] and min(values[2:]) > 0.5   # b1 = 2
    assert out.splitlines().count("0.0 residual=0.0") == 2   # exact by topology


@pytest.mark.parametrize("argv, located", [
    (["constants", "--lambda-grid", "0"], "--lambda-grid 0.0: lam must be positive"),
    (["constants", "--n", "1"], "--n 1: n must be an integer >= 2"),
    (["constants", "--n", "9", "--lambda-grid", "90"],
     "--lambda-grid 90.0: cosh(lam)^(n-1) overflows at n=9, lam=90.0"),
    (["bound", "--dim", "3"], "--dim: dim must be even and >= 4"),
    (["bound", "--diameter", "-1"], "--diameter: diameter must be positive"),
    (["bound", "--p", "1"], "--p: p_exponent must exceed the half-dimension 2"),
    (["bound", "--c0-np", "0"], "--c0-np: c0_np must be strictly positive"),
    (["bound", "--diameter", "nan"], "--diameter: diameter must be positive and finite, got nan"),
    (["bound", "--diameter", "inf"], "--diameter: diameter must be positive and finite, got inf"),
    (["bound", "--kappa", "nan"], "--kappa: kappa must be >= 0 and finite, got nan"),
    (["bound", "--c-n", "nan"], "--c-n: c_n must be strictly positive and finite, got nan"),
    (["bound", "--c0-np", "1e-300"],
     "--c0-np: c0_np 1e-300 and c_np 1.0 give the gap constant Ct=7.42"),
], ids=["lambda_zero", "n_one", "root_overflow", "odd_dim", "negative_diameter",
        "small_p", "zero_c0", "nan_diameter", "inf_diameter", "nan_kappa",
        "nan_c_n", "gap_overflow"])
def test_constants_and_bound_locate_bad_flags(capsys, argv, located):
    assert main(argv) == 2
    assert f"spec error: {located}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, located", [
    (["--manifold", "icosphere", "--subdiv", "1", "--k", "100"],
     "k=100 must be below the dimension 42"),
    (["--manifold", "icosphere", "--subdiv", "1", "--k", "0"], "k must be >= 1, got 0"),
    (["--manifold", "icosphere", "--subdiv", "1", "--operator", "hodge", "--k", "0"],
     "k must be >= 1, got 0"),
    (["--manifold", "icosphere", "--subdiv", "1", "--operator", "hodge", "--k", "-1"],
     "k must be >= 1, got -1"),
    (["--manifold", "icosphere", "--subdiv", "-1"], "subdivisions must be >= 0, got -1"),
    (["--manifold", "flat_torus", "--nx", "2"], "torus needs nx, ny >= 3, got 2, 32"),
    # the Hodge pencil of ico s=0 has dimension 32, two of its pairs are constants
    (["--manifold", "icosphere", "--subdiv", "0", "--operator", "hodge", "--k", "31"],
     "k=31: the Hodge spectrum of this mesh allows k up to 29\n"),
    (["--manifold", "icosphere", "--subdiv", "0", "--operator", "hodge", "--k", "30"],
     "k=30: the Hodge spectrum of this mesh allows k up to 29\n"),
    # the seed is checked before the solver route (dense at s=1, sparse at s=4) is taken
    (["--manifold", "icosphere", "--subdiv", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["--manifold", "icosphere", "--subdiv", "4", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["k_above_dimension", "k_zero", "hodge_k_zero", "hodge_k_negative", "negative_subdiv",
        "torus_nx_two", "hodge_k_above_dimension", "hodge_k_one_above", "seed_negative_dense",
        "seed_negative_sparse"])
def test_spectrum_locates_bad_flags(capsys, argv, located):
    assert main(["spectrum", *argv]) == 2
    assert f"spec error: {located}" in capsys.readouterr().err


@pytest.mark.parametrize("given, located", [
    ({"type": "icosphere", "radius": 1e-200, "subdivisions": 1},
     "experiments[0].manifold: mean face area 0.0 is not a positive normal double: "
     "the mesh scale is out of range"),
    ({"type": "icosphere", "radius": 1e-150, "subdivisions": 1},
     "experiments[0].manifold: mean face area 0.0 is not a positive normal double: "
     "the mesh scale is out of range"),
    ({"type": "flat_torus", "lx": 1e300, "ly": 1e300, "nx": 8, "ny": 8},
     "experiments[0].manifold: mean face area inf is not a positive normal double"),
    (["--manifold", "icosphere", "--subdiv", "1", "--radius", "nan"],
     "radius must be positive and finite, got nan"),
    (["--manifold", "flat_torus", "--lx", "nan"],
     "torus side lx must be positive and finite, got nan"),
], ids=["radius_1e-200", "radius_1e-150", "torus_1e300", "radius_nan", "lx_nan"])
def test_extreme_mesh_sizes_exit_2_located(capsys, tmp_path, given, located):
    # underflow, overflow and NaN sizes are located, not run into NaN values, and
    # numpy warns of none of them
    if isinstance(given, dict):
        spec = tmp_path / "extreme.json"
        spec.write_text(json.dumps({"manifold": given, "checks": ["lipschitz"]}))
        argv = ["verify", "--spec", str(spec)]
    else:
        argv = ["spectrum", *given]
    assert main(argv) == 2
    assert f"spec error: {located}" in capsys.readouterr().err
    assert not list(tmp_path.glob("extreme.report.*"))


@pytest.mark.parametrize("radius", [1e-200, 1e200])
def test_extreme_product_factor_exits_2_located(capsys, tmp_path, radius):
    # a product meshes its factors, and a factor's mesh error names the factor
    spec = tmp_path / "extreme.json"
    factors = [dict(ICO1, radius=radius), ICO1]
    spec.write_text(json.dumps({"manifold": {"type": "product", "factors": factors},
                                "budget": {"riem_2p": 1.0}, "checks": ["gap_lower_bound"]}))
    assert main(["verify", "--spec", str(spec)]) == 2
    assert "spec error: experiments[0].manifold.factors[0]: " in capsys.readouterr().err
    assert not list(tmp_path.glob("extreme.report.*"))


@pytest.mark.parametrize("as_factor", [False, True], ids=["alone", "factor"])
@pytest.mark.parametrize("subdivisions", [0, 1, 2])
@pytest.mark.parametrize("radius", [1e-200, 1e200])
def test_extreme_icosphere_radius_is_one_scale_error(capsys, tmp_path, radius, subdivisions,
                                                     as_factor):
    # the sphere is built at radius 1 and scaled once: at every level a radius
    # whose face areas under- or overflow gets the torus's one scale message
    sphere = {"type": "icosphere", "radius": radius, "subdivisions": subdivisions}
    manifold, where = sphere, "experiments[0].manifold"
    checks = ["lipschitz"]
    if as_factor:
        manifold = {"type": "product", "factors": [sphere, ICO1]}
        where, checks = f"{where}.factors[0]", ["gap_lower_bound"]
    spec = tmp_path / "extreme.json"
    spec.write_text(json.dumps({"manifold": manifold, "budget": {"riem_2p": 1.0},
                                "checks": checks}))
    assert main(["verify", "--spec", str(spec)]) == 2
    area = "0.0" if radius < 1 else "inf"
    assert (f"spec error: {where}: mean face area {area} is not a positive normal double: "
            "the mesh scale is out of range\n") == capsys.readouterr().err
    assert not list(tmp_path.glob("extreme.report.*"))


def test_spectrum_has_no_tolerance_flag(capsys):
    # the residual certificate's tolerance is fixed (eigen.RESIDUAL_TOL)
    with pytest.raises(SystemExit) as exit_:
        main(["spectrum", "--manifold", "icosphere", "--subdiv", "1", "--tol", "1e-8"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_bound_at_a_huge_diameter(capsys):
    # sqrt(kappa D^2) and sqrt(K D^2) are formed without squaring D
    assert main(["bound", "--diameter", "1e200", "--kappa", "1", "--riem2p", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["branch1 0.0", "branch2 0.0", "rhs 0.0"]


def test_cli_imports_only_the_scipy_it_runs():
    code = ("import sys, roughlap.cli; print(sorted(m for m in sys.modules if m in "
            "{'scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.io'}))")
    src = str(Path(roughlap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
