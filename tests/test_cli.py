"""CLI subcommands, run in process."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import roughlap
from roughlap.cli import main

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


def test_bound_corollary_variant(capsys):
    assert main(["bound", "--corollary-variant"]) == 0
    b2 = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert b2 == pytest.approx(4.0 ** (-1.0 / 8.0) * math.exp(-1.0 / 8.0), rel=1e-12)


def test_spectrum_torus(capsys, tmp_path):
    csv = tmp_path / "eig.csv"
    assert main(["spectrum", "--manifold", "flat_torus", "--nx", "12", "--ny", "12",
                 "--k", "4", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "flat_torus" in out
    values = [float(ln.split()[0]) for ln in out.splitlines()
              if ln and not ln.startswith("#")]
    assert abs(values[0]) < 1e-9
    assert csv.read_text().startswith("eigenvalue,residual")


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
    reported, structure = json.loads(out.read_text())["outcomes"]
    assert reported["measured"]["rhs"] == 0.0
    assert reported["measured"]["ratio"] is None
    assert structure["status"] == "pass"


def test_verify_locates_a_diameter_too_large_for_the_crossing_probe(capsys, tmp_path):
    # the bound and its rays evaluate at D = 1e200; the branch crossing of the
    # probe, riem_2p = (1/D)^2, underflows to 0
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({"manifold": ICO1, "checks": ["gap_lower_bound"],
                                "budget": {"dim": 4, "kappa": 0.0, "p_exponent": 4.0,
                                           "diameter": 1e200}}))
    assert main(["verify", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(
        "spec error: experiments[0].checks[0]: check 'gap_lower_bound': "
        "budget.diameter 1e+200 is too large for the branch-crossing probe")


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
    (["bound", "--ric-minus-p", "-1"], "--ric-minus-p: ric_minus_p must be nonnegative"),
    (["bound", "--c0-np", "0"], "--c0-np: c0_np must be strictly positive"),
    (["bound", "--diameter", "nan"], "--diameter: diameter must be positive and finite, got nan"),
    (["bound", "--diameter", "inf"], "--diameter: diameter must be positive and finite, got inf"),
    (["bound", "--kappa", "nan"], "--kappa: kappa must be >= 0 and finite, got nan"),
    (["bound", "--c-n", "nan"], "--c-n: c_n must be strictly positive and finite, got nan"),
    (["bound", "--c0-np", "1e-300"],
     "--c0-np: c0_np 1e-300 and c_np 1.0 give the gap constant Ct=7.42"),
], ids=["lambda_zero", "n_one", "root_overflow", "odd_dim", "negative_diameter",
        "small_p", "negative_ric", "zero_c0", "nan_diameter", "inf_diameter", "nan_kappa",
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
], ids=["k_above_dimension", "k_zero", "hodge_k_zero", "hodge_k_negative", "negative_subdiv",
        "torus_nx_two"])
def test_spectrum_locates_bad_flags(capsys, argv, located):
    assert main(["spectrum", *argv]) == 2
    assert f"spec error: {located}" in capsys.readouterr().err


@pytest.mark.parametrize("given, located", [
    ({"type": "icosphere", "radius": 1e-200, "subdivisions": 1},
     "experiments[0].manifold: vertex 12 is not finite"),
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
@pytest.mark.filterwarnings("error::RuntimeWarning")
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
