"""The three benchmark workloads and the checks on their outputs.

Each workload has three parts:

* ``setup(root, seed, workdir)`` makes the inputs from the seed and computes
  the closed-form reference values (before any tracing is installed, so the
  benchmark's own oracle calls never count as the program's work);
* ``run_pass(inputs)`` is one timed pass through roughlap's public API; an
  operation that raises ``EigenConvergenceError``, ``MeshError`` or
  ``SpecError`` yields the exception as its output instead of stopping the
  pass;
* ``check(inputs, outputs, state)`` checks every output of the pass and
  returns one ``OpResult`` per operation.

Why these workloads:

* ``verify_default`` is the shipped user path, ``roughlap verify`` on
  ``specs/default.json``, and the only one that runs the verify context
  cache, the report writers and the constants grids.
* ``connection_ladder`` builds meshes, connections and connection
  Laplacians of growing size and solves them; its rungs sit on both sides
  of the 800-dof dense-solver cutoff and of the 5,000-vertex exact-diameter
  cutoff.  No Hodge operator is built, so a Hodge change should not move it.
* ``hodge_ladder`` is dominated by real sparse Hodge solves; the sphere
  rungs take the uncondensed path and the torus rungs the Schur-condensed
  one.  Mesh builds are a few percent of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# roughlap's functions are called through their modules, so that the span
# recorder, which rebinds module attributes, sees the benchmark's calls too
from roughlap import cli, constants, eigen, mesh, operators, spectra, verify
from roughlap.constants import GeometryBudget
from roughlap.eigen import EigenConvergenceError, SolverConfig
from roughlap.mesh import FlatTorus, IcoSphere, MeshError
from roughlap.verify import SpecError

OP_ERRORS = (EigenConvergenceError, MeshError, SpecError)

REL_TOL = 0.02          # first positive cluster vs closed form
CLUSTER_GAP = 0.02      # relative gap that separates two clusters
KERNEL_TOL = 1e-8       # kernel band, relative to the operator scale
HODGE_KERNEL_TOL = 1e-6  # Weitzenboeck rows carry no scale: relative to the largest value
WEITZ_TOL = {"sphere": 0.03, "torus": 0.05}   # as in check_weitzenboeck
TWO_PI = 2.0 * math.pi

CONNECTION_RUNGS = (IcoSphere(1.0, 3), IcoSphere(1.0, 4), IcoSphere(1.0, 5),
                    FlatTorus(TWO_PI, TWO_PI, 32, 32))
HODGE_RUNGS = (IcoSphere(1.0, 3), IcoSphere(1.0, 4), FlatTorus(TWO_PI, TWO_PI, 64, 64))
CONNECTION_K = 8
HODGE_K = 6
CURVATURE_P = 4.0


@dataclass(frozen=True)
class ClosedForm:
    """First positive eigenvalue of the connection Laplacian on 1-forms, its
    real multiplicity and the real kernel dimension, from roughlap.spectra."""

    kind: str
    first_positive: float
    multiplicity: int
    kernel: int


@dataclass
class OpResult:
    failed: bool
    gap_rel_err: float | None = None
    message: str = ""


def closed_form(manifold) -> ClosedForm:
    if isinstance(manifold, IcoSphere):
        spec = spectra.sphere_oneform_rough_spectrum(
            manifold.radius, 4.0 / manifold.radius ** 2)
        kind = "sphere"
    elif isinstance(manifold, FlatTorus):
        spec = spectra.torus_oneform_rough_spectrum(
            manifold.lx, manifold.ly, 4.0 * (TWO_PI / min(manifold.lx, manifold.ly)) ** 2)
        kind = "torus"
    else:
        raise ValueError(f"no closed form for {manifold!r}")
    first = spec.first_positive()
    mult = next(m for v, m in spec.entries if v == first)
    return ClosedForm(kind, first, mult, spec.zero_multiplicity())


def check_first_cluster(values, zero_tol: float, expected: ClosedForm) -> OpResult:
    """Kernel dimension, first positive cluster and its multiplicity.

    ``values`` are ascending and counted with real multiplicity.  When the
    cluster runs to the end of ``values`` it may be cut short by the number
    of pairs requested, so its count must then not exceed the closed form.
    """
    values = np.asarray(values, dtype=float)
    kernel = int(np.sum(values <= zero_tol))
    if kernel != expected.kernel:
        return OpResult(True, None, f"kernel dimension {kernel}, expected {expected.kernel}")
    rest = values[kernel:]
    if len(rest) == 0:
        return OpResult(True, None, "no positive eigenvalue computed")
    count = 1
    while (count < len(rest) and (rest[count] - rest[count - 1])
           < CLUSTER_GAP * max(abs(rest[count]), abs(rest[count - 1]))):
        count += 1
    cluster = rest[:count]
    err = float(np.max(np.abs(cluster - expected.first_positive))) / expected.first_positive
    if err > REL_TOL:
        return OpResult(True, err, f"first positive cluster {cluster.tolist()} is "
                                   f"{err:.3g} from {expected.first_positive!r}")
    complete = count < len(rest)
    if expected.kind == "sphere" and (count > expected.multiplicity
                                      or (complete and count != expected.multiplicity)):
        return OpResult(True, err, f"cluster multiplicity {count}, "
                                   f"expected {expected.multiplicity}")
    return OpResult(False, err)


def check_gap_value(value: float, expected: ClosedForm) -> OpResult:
    err = abs(value - expected.first_positive) / expected.first_positive
    if err > REL_TOL:
        return OpResult(True, err, f"first positive {value!r} is {err:.3g} "
                                   f"from {expected.first_positive!r}")
    return OpResult(False, err)


# -- verify_default -----------------------------------------------------------

def setup_verify(root: Path, seed: int, workdir: Path) -> dict:
    spec = json.loads((root / "specs" / "default.json").read_text())
    spec["seed"] = seed
    spec_path = workdir / "default.seeded.json"
    spec_path.write_text(json.dumps(spec, indent=2))
    expected = {}
    for e_idx, experiment in enumerate(spec["experiments"]):
        manifold = verify.parse_manifold(experiment.get("manifold"))
        if isinstance(manifold, (IcoSphere, FlatTorus)):
            expected[experiment.get("label", f"experiment{e_idx}")] = closed_form(manifold)
    return {"argv": ["verify", "--spec", str(spec_path),
                     "--out", str(workdir / "report.json")],
            "report": workdir / "report.json", "expected": expected}


def run_verify(inputs: dict):
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(inputs["argv"])]


def check_verify(inputs: dict, outputs: list, state: dict) -> list[OpResult]:
    (status,) = outputs
    if status != 0:
        return [OpResult(True, None, f"roughlap verify exited with {status}")]
    report = json.loads(inputs["report"].read_text())
    report.pop("created")
    outcomes = [(o["name"], o["status"]) for o in report["outcomes"]]
    first = state.setdefault("report", report)
    if outcomes != [(o["name"], o["status"]) for o in first["outcomes"]]:
        return [OpResult(True, None, "outcome names or statuses changed between passes")]
    if report != first:
        return [OpResult(True, None, "report changed between passes")]
    measured = {o["name"]: o["measured"] for o in report["outcomes"]}
    worst = OpResult(False, 0.0)
    for label, expected in inputs["expected"].items():
        lam1 = measured[f"{label}:gap_lower_bound"]["lambda1"]
        result = check_gap_value(lam1, expected)
        if result.failed:
            return [result]
        if result.gap_rel_err > worst.gap_rel_err:
            worst = result
    return [worst]


# -- connection_ladder --------------------------------------------------------

def setup_connection(root: Path, seed: int, workdir: Path) -> dict:
    return {"rungs": [(m, closed_form(m)) for m in CONNECTION_RUNGS],
            "config": SolverConfig(k=CONNECTION_K, seed=seed)}


def run_connection(inputs: dict) -> list:
    outputs = []
    for manifold, _ in inputs["rungs"]:
        try:
            surface = mesh.build_mesh(manifold)
            conn = operators.build_connection(surface)
            op, mass = operators.connection_laplacian_1forms(surface, conn)
            result = eigen.smallest_eigenpairs(op, mass, inputs["config"])
            diameter = mesh.graph_diameter(surface)
            riem = mesh.curvature_lp_norm(surface, 2.0 * CURVATURE_P)
            bound = constants.oneform_gap_lower_bound(GeometryBudget(
                dim=4, kappa=0.0, diameter=diameter, p_exponent=CURVATURE_P,
                riem_2p=riem))
        except OP_ERRORS as exc:
            outputs.append(exc)
            continue
        outputs.append({"values": result.values, "scale": result.scale,
                        "diameter": diameter, "bound": bound})
    return outputs


def check_connection(inputs: dict, outputs: list, state: dict) -> list[OpResult]:
    results = []
    for (manifold, expected), out in zip(inputs["rungs"], outputs):
        if isinstance(out, Exception):
            results.append(OpResult(True, None, f"{manifold}: {type(out).__name__}: {out}"))
            continue
        result = check_first_cluster(np.repeat(out["values"], 2),
                                     KERNEL_TOL * out["scale"], expected)
        if not (math.isfinite(out["diameter"]) and out["diameter"] > 0):
            result = OpResult(True, result.gap_rel_err, f"diameter {out['diameter']!r}")
        elif not 0.0 < out["bound"] <= 1.0:
            result = OpResult(True, result.gap_rel_err, f"gap bound {out['bound']!r}")
        if result.message:
            result.message = f"{manifold}: {result.message}"
        results.append(result)
    return results


# -- hodge_ladder -------------------------------------------------------------

def setup_hodge(root: Path, seed: int, workdir: Path) -> dict:
    return {"rungs": [(m, closed_form(m)) for m in HODGE_RUNGS],
            "config": SolverConfig(seed=seed)}


def run_hodge(inputs: dict) -> list:
    outputs = []
    for manifold, _ in inputs["rungs"]:
        try:
            outputs.append(operators.weitzenboeck_eigen_check(
                mesh.build_mesh(manifold), HODGE_K, inputs["config"]))
        except OP_ERRORS as exc:
            outputs.append(exc)
    return outputs


def check_hodge(inputs: dict, outputs: list, state: dict) -> list[OpResult]:
    results = []
    for (manifold, expected), rows in zip(inputs["rungs"], outputs):
        if isinstance(rows, Exception):
            results.append(OpResult(True, None, f"{manifold}: {type(rows).__name__}: {rows}"))
            continue
        hodge = np.array([r[0] for r in rows])
        rough = np.array([r[1] for r in rows])
        worst = max(r[3] for r in rows)
        result = check_first_cluster(rough, HODGE_KERNEL_TOL * np.abs(rough).max(), expected)
        hodge_kernel = int(np.sum(np.abs(hodge) <= HODGE_KERNEL_TOL * np.abs(hodge).max()))
        if worst > WEITZ_TOL[expected.kind]:
            result = OpResult(True, result.gap_rel_err,
                              f"Weitzenboeck mismatch {worst!r} above "
                              f"{WEITZ_TOL[expected.kind]}")
        elif hodge_kernel != expected.kernel:
            result = OpResult(True, result.gap_rel_err,
                              f"Hodge kernel dimension {hodge_kernel}, "
                              f"expected {expected.kernel}")
        if result.message:
            result.message = f"{manifold}: {result.message}"
        results.append(result)
    return results


WORKLOADS = {
    "verify_default": (setup_verify, run_verify, check_verify),
    "connection_ladder": (setup_connection, run_connection, check_connection),
    "hodge_ladder": (setup_hodge, run_hodge, check_hodge),
}
