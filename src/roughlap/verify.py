"""Named verification checks with structured pass/fail/reported outcomes.

Each check measures quantities (discretely or in closed form), compares
them against whatever is genuinely assertable, and returns
:class:`CheckOutcome` records whose raw numbers make the verdict
re-derivable.  Quantities that depend on the explicitly-unspecified
dimensional constants are *reported*, never asserted, so the suite cannot
manufacture confidence the estimates do not provide.  ``run_suite`` drives
a JSON experiment file through the check registry and writes a
schema-versioned JSON report plus CSV/markdown renderings; reports are
deterministic for a fixed seed, up to the timestamp.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from roughlap import constants as con
from roughlap import spectra
from roughlap.constants import AbstractConstants, GeometryBudget
from roughlap.eigen import (KERNEL_TOL, EigenResult, SolverConfig,
                            cluster_multiplicities, first_positive, smallest_eigenpairs)
from roughlap.mesh import (FlatTorus, IcoSphere, MeshError, ProductSpec, TriangleMesh,
                           build_mesh, curvature_lp_norm, euler_characteristic,
                           graph_diameter)
from roughlap.operators import (build_connection, connection_laplacian_1forms,
                                constant_chart_field, encode_tangent_field,
                                face_gradient_magnitudes, kato_fraction,
                                rayleigh_quotient, rotation_field,
                                weitzenboeck_eigen_check)

__all__ = [
    "SpecError",
    "CheckOutcome",
    "Report",
    "ExperimentContext",
    "check_root_sandwich_grid",
    "check_moser_product_grid",
    "check_weitzenboeck",
    "check_harmonic_alternative",
    "check_killing_alternative",
    "check_pinching",
    "check_gap_lower_bound",
    "check_lipschitz",
    "rigidity_implication",
    "parse_manifold",
    "run_suite",
    "CHECK_REGISTRY",
]

SCHEMA_VERSION = 1
# the checks' grids and tolerances; no spec sets them
ROOT_N = range(2, 9)
ROOT_LAMBDAS = np.geomspace(1e-2, 10.0, 50)
MOSER_T = (0.1, 1.0, 10.0, 100.0)
MOSER_GAMMA = (1.1, 1.5, 2.0, 4.0)
MOSER_TAIL_TOL = 1e-12
WEITZENBOECK_K = 6  # real pairs: needs solver.k >= 3 complex ones
KILLING_RQ_TOL = 0.02
LIPSCHITZ_SLACK = 0.05
# pinching's rho reads one computed eigenvector, whose error is about its
# residual over the spectral gap; the bound on rho allows this much for it
PINCHING_RHO_SLACK = 1e-6
BUDGET_DEFAULTS = {"dim": 4, "kappa": 0.0, "p_exponent": 4.0}  # unstated budget fields


class SpecError(ValueError):
    """Malformed experiment spec; the message carries the JSON location."""


@dataclass
class CheckOutcome:
    """One named check: status plus the numbers that justify it.

    status is 'pass' or 'fail' only when an assertable inequality exists;
    measured quantities with no ground truth are 'reported' and never count
    toward the suite exit status.
    """

    name: str
    status: str
    measured: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    tolerance: float | None = None
    notes: str = ""

    def as_dict(self) -> dict:
        return _jsonable(asdict(self))


@dataclass
class Report:
    outcomes: list[CheckOutcome]
    suite: dict
    seed: int
    created: str
    schema_version: int = SCHEMA_VERSION

    def failures(self) -> list[str]:
        return [o.name for o in self.outcomes if o.status == "fail"]

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "created": self.created,
            "seed": self.seed,
            "suite": _jsonable(self.suite),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")

    def write_csv(self, path: str | Path) -> None:
        """Long-format table: one row per recorded number."""
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "status", "kind", "field", "value"])
            for o in self.outcomes:
                writer.writerow([o.name, o.status, "tolerance", "",
                                 "" if o.tolerance is None else repr(o.tolerance)])
                for kind, record in (("measured", o.measured), ("bound", o.bounds)):
                    for key, value in _jsonable(record).items():
                        writer.writerow([o.name, o.status, kind, key, _csv_cell(value)])

    def write_markdown(self, path: str | Path) -> None:
        lines = ["| check | status | tolerance | notes |", "| --- | --- | --- | --- |"]
        for o in self.outcomes:
            tol = "" if o.tolerance is None else repr(o.tolerance)
            lines.append(f"| {o.name} | {o.status} | {tol} | {o.notes} |")
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def from_json(path: str | Path) -> "Report":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise SpecError(f"cannot read report file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not a JSON report: {exc.msg}") from None
        try:  # the report's fields are the JSON object's keys
            return Report(**{**data, "outcomes": [CheckOutcome(**o) for o in data["outcomes"]]})
        except (KeyError, TypeError) as exc:
            raise SpecError(f"{path}: not a report ({type(exc).__name__}: {exc})") from None


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return value


# -- experiment context ------------------------------------------------------

def _convert(value, hint):
    """``value`` as the spec typing rule makes it for ``hint``, or ValueError.

    A JSON number fits ``float``; an integral one (4 or 4.0) fits ``int`` and
    is passed as an int; a boolean, NaN and +-Infinity are not numbers.
    """
    if hint in (int, float):
        if type(value) is bool or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError
        if hint is int and value != int(value):
            raise ValueError("an integer")
        return hint(value)
    if isinstance(value, hint):
        return value
    raise ValueError


def _head(where: str, subject: str) -> str:
    return "".join(f"{part}: " for part in (where, subject) if part)


def _fields(target, data, where: str, skip: int = 0, subject: str = "") -> dict:
    """The spec object ``data`` (null: empty) as keyword arguments of ``target``:
    keys name parameters after the first ``skip``, values are converted by the
    type hints, and a misfit is a SpecError located at ``where``."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected an object, got {data!r}")
    params = dict(list(inspect.signature(target).parameters.items())[skip:])
    hints = typing.get_type_hints(target)
    kwargs = {}
    for key, value in data.items():
        if key not in params:
            raise SpecError(f"{_head(where, subject)}unknown field {key!r}")
        try:
            kwargs[key] = _convert(value, hints[key])
        except ValueError as exc:
            wanted = exc.args[0] if exc.args else params[key].annotation
            expects = f"{subject} expects" if subject else "expected"
            at = f"{where}.{key}" if where else key
            raise SpecError(f"{at}: {expects} {wanted}, got {value!r}") from None
    return kwargs


def _bind(target, data, where: str, *args, subject: str = "", **defaults):
    """``target(*args, **defaults, **data)`` for one spec object checked by
    :func:`_fields`; a missing required field, or a ValueError from the call,
    is a SpecError at ``where``.  ``subject`` names the target in messages."""
    kwargs = {**defaults, **_fields(target, data, where, len(args), subject)}
    head = _head(where, subject)
    for name, param in list(inspect.signature(target).parameters.items())[len(args):]:
        if param.default is param.empty and name not in kwargs:
            raise SpecError(f"{head}missing field {name!r}")
    try:
        return target(*args, **kwargs)
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{head}{exc}") from None


_MANIFOLDS = {"flat_torus": FlatTorus, "icosphere": IcoSphere, "product": ProductSpec}


def parse_manifold(data: dict | None, where: str = "manifold"):
    """The model manifold a spec object names by its ``type``; None for null."""
    if data is None:
        return None
    if not isinstance(data, dict) or "type" not in data:
        raise SpecError(f"{where}: expected an object with a 'type' field")
    kind = data["type"]
    if not (isinstance(kind, str) and kind in _MANIFOLDS):
        raise SpecError(f"{where}: unknown manifold type {kind!r}")
    fields = {k: v for k, v in data.items() if k != "type"}
    if kind == "product" and "factors" in fields:
        factors = fields["factors"]
        if not isinstance(factors, list):
            raise SpecError(f"{where}.factors: expected a list of two manifold objects, "
                            f"got {factors!r}")
        fields["factors"] = tuple(parse_manifold(f, f"{where}.factors[{i}]")
                                  for i, f in enumerate(factors))
    return _bind(_MANIFOLDS[kind], fields, where)


def _analytic_diameter(manifold) -> float:
    if isinstance(manifold, IcoSphere):
        return math.pi * manifold.radius
    if isinstance(manifold, FlatTorus):
        return 0.5 * math.hypot(manifold.lx, manifold.ly)
    if isinstance(manifold, ProductSpec):
        return math.hypot(*(_analytic_diameter(f) for f in manifold.factors))
    raise SpecError(f"no analytic diameter for {manifold!r}")


def _factor_spectra(manifold, cutoff: float):
    if isinstance(manifold, IcoSphere):
        return (spectra.sphere_function_spectrum(manifold.radius, cutoff),
                spectra.sphere_oneform_rough_spectrum(manifold.radius, cutoff))
    return (spectra.torus_function_spectrum(manifold.lx, manifold.ly, cutoff),
            spectra.torus_oneform_rough_spectrum(manifold.lx, manifold.ly, cutoff))


class ExperimentContext:
    """Caches the mesh, connection operators, and eigensolve per experiment.

    ``connection_eigen`` is the experiment's one connection solve, of
    ``solver.k`` pairs whatever the check order; every check that needs
    connection values reads it."""

    def __init__(self, manifold, solver: SolverConfig,
                 budget_spec: dict | None, consts: AbstractConstants,
                 where: str = "experiment"):
        self.manifold = manifold
        self.solver = solver
        self.budget_spec = _fields(GeometryBudget, budget_spec, f"{where}.budget")
        self.consts = consts
        self.where = where  # spec location named by errors in lazy steps
        self._cache: dict = {}

    def _cached(self, key: str, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def require_mesh(self, check: str) -> TriangleMesh:
        if self.manifold is None or isinstance(self.manifold, ProductSpec):
            raise SpecError(f"{self.where}: check '{check}' needs a meshable manifold")
        try:
            return self._cached("mesh", lambda: build_mesh(self.manifold))
        except MeshError as exc:
            raise SpecError(f"{self.where}.manifold: {exc}") from None

    def connection(self):
        return self._cached("conn", lambda: build_connection(self.require_mesh("connection")))

    def connection_operator(self):
        return self._cached("conn_ops", lambda: connection_laplacian_1forms(
            self.require_mesh("connection"), self.connection()))

    def connection_eigen(self) -> EigenResult:
        return self._cached("conn_eig", lambda: smallest_eigenpairs(
            *self.connection_operator(), self.solver))

    def first_positive_oneform(self) -> float:
        if isinstance(self.manifold, ProductSpec):
            cutoff = 30.0  # closed-form spectra up to this eigenvalue
            (a0, a1), (b0, b1) = (_factor_spectra(f, cutoff) for f in self.manifold.factors)
            value = spectra.product_oneform_spectrum(a0, a1, b0, b1, cutoff).first_positive()
        else:
            value = first_positive(self.connection_eigen())
        if value is None:
            raise SpecError("no positive eigenvalue found; increase solver.k")
        return value

    def measured_diameter(self) -> float:
        if isinstance(self.manifold, ProductSpec):
            return _analytic_diameter(self.manifold)
        return self._cached("diameter", lambda: graph_diameter(self.require_mesh("diameter")))

    def budget(self) -> GeometryBudget:
        """Budget with unstated diameter / curvature norm filled by measurement."""
        where = f"{self.where}.budget"
        stated = {**BUDGET_DEFAULTS, **self.budget_spec}
        if "diameter" not in stated:
            stated["diameter"] = self.measured_diameter()
        if "riem_2p" not in stated:
            if isinstance(self.manifold, ProductSpec):
                raise SpecError(f"{where}: product experiments must state riem_2p")
            mesh = self.require_mesh("budget")
            try:
                stated["riem_2p"] = curvature_lp_norm(mesh, 2.0 * stated["p_exponent"])
            except ValueError as exc:
                raise SpecError(f"{where}.p_exponent: {exc}") from None
        return _bind(GeometryBudget, stated, where)


# -- grid checks (no manifold) ----------------------------------------------

def check_root_sandwich_grid() -> CheckOutcome:
    """Exponential floor <= lam*C(lam) <= sine integral on the ROOT_N x ROOT_LAMBDAS
    grid, with the worst margins; comparison_root certifies each root to 1e-10."""
    worst_upper = math.inf
    worst_lower = math.inf
    points = 0
    for n in ROOT_N:
        w = con.sin_power_integral(n)
        floor_coef = con.root_floor_coefficient(n)
        for lam in ROOT_LAMBDAS:
            lam_c = lam * con.comparison_root(n, lam)
            lower = floor_coef * math.exp(-(n - 1) * lam)
            worst_upper = min(worst_upper, w - lam_c)
            worst_lower = min(worst_lower, lam_c - lower)
            points += 1
    ok = worst_upper >= 0 and worst_lower >= 0
    return CheckOutcome(
        name="root_sandwich_grid",
        status="pass" if ok else "fail",
        measured={"points": points,
                  "worst_margin_to_upper": worst_upper,
                  "worst_margin_to_lower": worst_lower},
        bounds={"residual_rel": 1e-10},
        notes="floor*exp(-(n-1)lam) <= lam*C(lam) <= sin integral; roots certified")


def check_moser_product_grid() -> CheckOutcome:
    """Converged iteration product stays below its closed-form majorant on
    the MOSER_T x MOSER_GAMMA grid."""
    min_slack = math.inf
    points = 0
    for t in MOSER_T:
        for g in MOSER_GAMMA:
            value, _ = con.moser_product_converged(t, g, MOSER_TAIL_TOL)
            bound = con.moser_product_bound(t, g)
            min_slack = min(min_slack, bound / value)
            if value > bound:
                return CheckOutcome(
                    name="moser_product_grid", status="fail",
                    measured={"t": t, "gamma": g, "product": value, "bound": bound},
                    notes="converged product exceeded the closed-form bound")
            points += 1
    return CheckOutcome(
        name="moser_product_grid", status="pass",
        measured={"points": points, "min_bound_over_product": min_slack},
        bounds={"tail_tol": MOSER_TAIL_TOL},
        notes="partial products converged to tail below tolerance")


# -- mesh checks --------------------------------------------------------------

def _coarser(manifold):
    if isinstance(manifold, FlatTorus):
        return FlatTorus(manifold.lx, manifold.ly,
                         max(manifold.nx // 2, 3), max(manifold.ny // 2, 3))
    if isinstance(manifold, IcoSphere):
        if manifold.subdivisions < 1:
            return None
        return IcoSphere(manifold.radius, manifold.subdivisions - 1)
    return None


def check_weitzenboeck(ctx: ExperimentContext) -> CheckOutcome:
    """Hodge = connection + curvature on the WEITZENBOECK_K smallest pairs, within
    3% on spheres and 5% on tori, the worst mismatch below the next-coarser level's.
    Connection values come from ``ctx.connection_eigen()``; the coarser level
    solves its own pencils."""
    mesh = ctx.require_mesh("weitzenboeck")
    tolerance = 0.03 if isinstance(ctx.manifold, IcoSphere) else 0.05
    if 2 * ctx.solver.k < WEITZENBOECK_K:
        raise ValueError(f"solver.k={ctx.solver.k} is below {WEITZENBOECK_K // 2}: the check "
                         f"compares {WEITZENBOECK_K} real pairs from the connection solve")
    rows = weitzenboeck_eigen_check(mesh, WEITZENBOECK_K, ctx.solver, ctx.connection_eigen())
    worst = max(r[3] for r in rows)
    ok = worst <= tolerance
    measured = {"pairs": _jsonable(rows), "max_residual": worst}
    notes = f"curvature shift {rows[0][2]!r}"
    coarse = _coarser(ctx.manifold)
    if coarse is not None:
        coarse_rows = weitzenboeck_eigen_check(build_mesh(coarse), WEITZENBOECK_K, ctx.solver)
        coarse_worst = max(r[3] for r in coarse_rows)
        measured["max_residual_coarse"] = coarse_worst
        # flat tori: both discretizations coincide spectrally, so both
        # levels sit at roundoff and "decrease" is vacuous there
        if coarse_worst > 1e-12:
            ok = ok and worst < coarse_worst
        else:
            ok = ok and worst <= 1e-12
        notes += "; refinement must reduce the worst mismatch"
    return CheckOutcome(name="weitzenboeck", status="pass" if ok else "fail",
                        measured=measured, tolerance=tolerance, notes=notes)


def check_harmonic_alternative(ctx: ExperimentContext) -> CheckOutcome:
    """With b1 > 0 and Ric >= -kappa (the budget's): parallel forms exist or the
    gap is <= kappa.  Flat tori take the first branch; b1 = 0 is not applicable."""
    mesh = ctx.require_mesh("harmonic_alternative")
    b1 = 2 - euler_characteristic(mesh)
    if b1 <= 0:
        return CheckOutcome(name="harmonic_alternative", status="reported",
                            measured={"b1": b1},
                            notes="not applicable: first Betti number is zero")
    kappa = ctx.budget_spec.get("kappa", BUDGET_DEFAULTS["kappa"])
    result = ctx.connection_eigen()
    zero_dim_real = 2 * int(np.sum(result.values <= KERNEL_TOL * result.scale))
    fp = first_positive(result)
    kernel_branch = zero_dim_real > 0
    gap_branch = fp is not None and fp <= kappa * (1.0 + 1e-6) + KERNEL_TOL * result.scale
    ok = kernel_branch or gap_branch
    return CheckOutcome(
        name="harmonic_alternative",
        status="pass" if ok else "fail",
        measured={"b1": b1, "kernel_dim_real": zero_dim_real,
                  "first_positive": fp,
                  "branch": "parallel_kernel" if kernel_branch else
                            ("gap_below_kappa" if gap_branch else "none")},
        bounds={"kappa": kappa},
        notes="disjunction: nonzero parallel kernel OR first eigenvalue <= kappa")


def check_killing_alternative(ctx: ExperimentContext) -> CheckOutcome:
    """Killing-dual Rayleigh quotient <= sup Ric and >= the smallest eigenvalue
    (min-max), within KILLING_RQ_TOL.  Spheres: rotation about z, sup Ric =
    1/r^2; flat tori: a translation, sup Ric = 0 (absolute slack)."""
    mesh = ctx.require_mesh("killing_alternative")
    conn = ctx.connection()
    op, mass = ctx.connection_operator()
    if isinstance(ctx.manifold, IcoSphere):
        field3d = rotation_field(mesh)
        sup_ric = 1.0 / ctx.manifold.radius ** 2
    else:
        field3d = constant_chart_field(mesh)
        sup_ric = 0.0
    z = encode_tangent_field(mesh, conn, field3d)
    rq = rayleigh_quotient(op, mass, z)
    result = ctx.connection_eigen()
    lambda_min = float(result.values[0])
    abs_slack = KERNEL_TOL * result.scale
    ok_ricci = rq <= sup_ric * (1.0 + KILLING_RQ_TOL) + abs_slack
    ok_minmax = lambda_min <= rq + KILLING_RQ_TOL * max(rq, abs_slack) + abs_slack
    return CheckOutcome(
        name="killing_alternative",
        status="pass" if (ok_ricci and ok_minmax) else "fail",
        measured={"rayleigh_quotient": rq, "lambda_min": lambda_min,
                  "sup_ric": sup_ric},
        bounds={"rq_max": sup_ric * (1.0 + KILLING_RQ_TOL) + abs_slack},
        tolerance=KILLING_RQ_TOL,
        notes="Killing dual quotient <= sup Ricci; min-max consistency")


def check_pinching(ctx: ExperimentContext) -> CheckOutcome:
    """If the pinching threshold is below 1/2, the first eigenform is pinched.

    Measures rho = inf|theta|^2 / sup|theta|^2 of the first eigenform and
    the threshold eps built from the budget and the abstract constants.
    The implication is asserted only when eps < 1/2; otherwise both numbers
    are reported (on spheres eigenforms vanish somewhere, so rho ~ 0 and
    consistency requires eps >= 1/2 at honest constants).  C_s or eps
    beyond the largest double (a huge budget diameter) is reported as null.
    rho and the Kato fraction read one vector of the first cluster, whose
    multiplicity is reported: above 1 they depend on the basis the solver
    returns for that cluster.
    """
    result = ctx.connection_eigen()
    z = result.vectors[:, 0]
    lam = max(float(result.values[0]), 0.0)
    mesh = ctx.require_mesh("pinching")
    budget = ctx.budget()
    cs = eps = math.inf  # unless they fit in a double
    try:
        cs = con.sobolev_cs(budget, ctx.consts)
        eps = con.epsilon_threshold(budget, lam, cs, ctx.consts)
    except OverflowError:
        pass
    mag2 = np.abs(z) ** 2
    rho = float(mag2.min() / mag2.max())
    kato = kato_fraction(mesh, ctx.connection(), z)
    measured = {"rho": rho, "eps": eps if eps < math.inf else None, "lambda": lam,
                "kato_fraction": kato, "sobolev_cs": cs if cs < math.inf else None,
                "multiplicity": cluster_multiplicities(result.values)[0][1]}
    basis = ("; rho and kato_fraction read one vector of the first cluster, "
             "so they depend on its basis when its multiplicity exceeds 1")
    if eps < 0.5:
        rho_min = 1.0 - 2.0 * eps - PINCHING_RHO_SLACK
        return CheckOutcome(name="pinching", status="pass" if rho >= rho_min else "fail",
                            measured=measured,
                            bounds={"rho_min": rho_min},
                            notes="eps < 1/2: pinching implication asserted" + basis)
    return CheckOutcome(name="pinching", status="reported", measured=measured,
                        notes=("eps >= 1/2: implication vacuous, values reported"
                               if eps < math.inf else
                               "C_s or eps overflows a double: values reported") + basis)


def check_gap_lower_bound(ctx: ExperimentContext) -> list[CheckOutcome]:
    """Report the gap bound against the measured gap; assert its structure.

    First outcome (reported): sqrt(lambda_1) * D, the bound, their ratio and
    the active branch -- not assertable, the constants are abstract.
    Second outcome (pass/fail): the bound is monotone non-increasing along
    10-point rays of step 0.5/D^2 in kappa and in the curvature norm, and
    continuous across the branch switch (jump below 1e-9 at a crossing
    constructed with a rescaled bootstrap constant).
    """
    budget = ctx.budget()
    consts = ctx.consts
    lam1 = ctx.first_positive_oneform()
    d = budget.diameter
    lhs = math.sqrt(lam1) * d
    b1, b2 = con.oneform_gap_branches(budget, consts)
    rhs = min(b1, b2)
    reported = CheckOutcome(
        name="gap_lower_bound", status="reported",
        measured={"sqrt_lambda1_times_D": lhs, "rhs": rhs,
                  "ratio": lhs / rhs if rhs > 0 else None,
                  "branch1": b1, "branch2": b2,
                  "active_branch": "branch1" if b1 <= b2 else "branch2",
                  "lambda1": lam1, "diameter": d, "riem_2p": budget.riem_2p},
        notes="bound evaluated at abstract constants; comparison not assertable")

    slack = 1e-12
    rhs_kappa = [con.oneform_gap_lower_bound(
        replace(budget, kappa=budget.kappa + i * 0.5 / d / d), consts) for i in range(10)]
    mono_kappa = all(b <= a + slack for a, b in zip(rhs_kappa, rhs_kappa[1:]))
    rhs_riem = [con.oneform_gap_lower_bound(
        replace(budget, riem_2p=budget.riem_2p + i * 0.5 / d / d), consts) for i in range(10)]
    mono_riem = all(b <= a + slack for a, b in zip(rhs_riem, rhs_riem[1:]))

    jump = _branch_switch_jump(budget, consts)
    continuous = jump < 1e-9
    structure = CheckOutcome(
        name="gap_lower_bound_structure",
        status="pass" if (mono_kappa and mono_riem and continuous) else "fail",
        measured={"rhs_along_kappa": rhs_kappa, "rhs_along_riem": rhs_riem,
                  "branch_switch_jump": jump},
        bounds={"jump_max": 1e-9},
        notes="monotone non-increasing rays; continuity across the branch min")
    return [reported, structure]


def _branch_switch_jump(budget: GeometryBudget, consts: AbstractConstants) -> float:
    """Evaluate the bound just left and right of a constructed branch crossing.

    branch1 = (Ct/(1+s) e^-a)^q crosses branch2 = e^-a at
    s* = Ct exp(-a (q-1)/q) - 1; a crossing with s* > 0 is forced by
    rescaling the bootstrap constant so Ct = 2 exp(a (q-1)/q).  The probe
    steps riem_2p by 1e-12 relative to riem* = (s*/D)^2, so s moves by the
    same D-free amount at every diameter.  Where riem* or the bound value
    exp(-a) at the crossing is not a normal double, the jump is not
    measurable and a ValueError names budget.diameter.
    """
    n = budget.dim // 2
    p = budget.p_exponent
    q = 2.0 * p * n / (p - n)
    d = budget.diameter
    a = (2 * n - 1) * math.sqrt(budget.kappa) * d
    riem_star = (1.0 / d) ** 2  # s* = 1 by construction
    if not (riem_star >= sys.float_info.min and math.exp(-a) >= sys.float_info.min):
        raise ValueError(f"budget.diameter {d!r} is too large for the branch-crossing "
                         f"probe: its riem_2p = 1/D^2 = {riem_star!r} and its bound "
                         f"exp(-(2n-1) sqrt(kappa) D) = {math.exp(-a)!r} (kappa "
                         f"{budget.kappa!r}) must be normal doubles")
    ct_target = 2.0 * math.exp(a * (q - 1.0) / q)
    ct_unit = con.gap_constant(n, p, "main", replace(consts, c0_np=1.0))
    probe = replace(consts, c0_np=ct_unit / ct_target)
    eps = 1e-12 * riem_star
    return abs(con.oneform_gap_lower_bound(replace(budget, riem_2p=riem_star - eps), probe)
               - con.oneform_gap_lower_bound(replace(budget, riem_2p=riem_star + eps), probe))


_SPHERE_TEST_FUNCTIONS = (
    ("coord_x", lambda pos: pos[:, 0]),
    ("coord_y", lambda pos: pos[:, 1]),
    ("coord_z", lambda pos: pos[:, 2]),
)

# a torus's positions are its chart (u, v, 0)
_TORUS_TEST_FUNCTIONS = (
    ("cos_u", lambda pos: np.cos(pos[:, 0])),
    ("sin_u", lambda pos: np.sin(pos[:, 0])),
    ("cos_v", lambda pos: np.cos(pos[:, 1])),
    ("cos_u_cos_v", lambda pos: np.cos(pos[:, 0]) * np.cos(pos[:, 1])),
)


def check_lipschitz(ctx: ExperimentContext) -> CheckOutcome:
    """Oscillation of smooth test functions against gradient sup times diameter.

    For each test function: max |f_p - f_q| <= (1 + LIPSCHITZ_SLACK) * max
    per-face gradient magnitude * graph diameter.
    """
    mesh = ctx.require_mesh("lipschitz")
    diameter = ctx.measured_diameter()
    battery = (_TORUS_TEST_FUNCTIONS if isinstance(ctx.manifold, FlatTorus)
               else _SPHERE_TEST_FUNCTIONS)
    rows = {}
    ok = True
    for name, fn in battery:
        values = np.asarray(fn(mesh.vertices), dtype=float)
        osc = float(values.max() - values.min())
        grad_sup = float(face_gradient_magnitudes(mesh, values).max())
        bound = (1.0 + LIPSCHITZ_SLACK) * grad_sup * diameter
        rows[name] = {"oscillation": osc, "grad_sup": grad_sup, "bound": bound}
        ok = ok and osc <= bound
    return CheckOutcome(name="lipschitz", status="pass" if ok else "fail",
                        measured={"diameter": diameter, "functions": rows},
                        tolerance=LIPSCHITZ_SLACK,
                        notes="oscillation <= (1+slack) * |grad f|_inf * diameter")


def rigidity_implication(lambda1: float, diameter: float, kappa: float,
                         c: float, dim: int,
                         has_nonparallel_harmonic: bool) -> CheckOutcome:
    """Consistency gate: a strong gap plus small curvature radius forbids
    harmonic 1-forms that are not parallel.

    If the Li-Yau predicate holds and c*exp(-c sqrt(kappa) D) exceeds
    (dim-1) kappa D^2, a harmonic non-parallel 1-form is contradictory;
    reporting one under those conditions fails the gate.  A curvature term
    beyond the largest double is reported as null.
    """
    predicate = con.li_yau_predicate(lambda1, diameter, kappa, c)
    threshold = con.li_yau_threshold(diameter, kappa, c)
    curvature = (dim - 1) * kappa * diameter * diameter
    contradiction = predicate and threshold > curvature and has_nonparallel_harmonic
    return CheckOutcome(
        name="rigidity_implication",
        status="fail" if contradiction else "pass",
        measured={"li_yau_predicate": predicate,
                  "threshold": threshold,
                  "curvature_term": curvature if curvature < math.inf else None,
                  "has_nonparallel_harmonic": has_nonparallel_harmonic},
        notes="contradiction detected" if contradiction else
              "no contradiction under the stated conditions")


# -- suite driver -------------------------------------------------------------

_CHECKS = (check_root_sandwich_grid, check_moser_product_grid, check_weitzenboeck,
           check_harmonic_alternative, check_killing_alternative, check_pinching,
           check_gap_lower_bound, check_lipschitz, rigidity_implication)
_CTX = inspect.Parameter("ctx", inspect.Parameter.POSITIONAL_ONLY)


def _registry_entry(check):
    """``check`` as ``entry(ctx, **params)``, looked up by name when called (so
    a rebound module attribute, e.g. a tracer's, runs); the entry carries the
    check's signature and hints, with a leading ``ctx`` where it takes none."""
    name, signature = check.__name__, inspect.signature(check)
    takes_ctx = "ctx" in signature.parameters

    def entry(ctx, **params):
        function = globals()[name]
        return function(ctx, **params) if takes_ctx else function(**params)

    functools.update_wrapper(entry, check)
    entry.__signature__ = signature.replace(
        parameters=[_CTX, *(p for p in signature.parameters.values() if p.name != "ctx")])
    return entry


CHECK_REGISTRY = {check.__name__.removeprefix("check_"): _registry_entry(check)
                  for check in _CHECKS}

_EXPERIMENT_FIELDS = ("label", "manifold", "solver", "budget", "constants", "checks")


def _suite(experiments: list, seed: int = 0) -> tuple[list, int]:
    """The top level of a spec: its experiments and the solver seed."""
    return experiments, seed


def run_suite(spec_path: str | Path) -> Report:
    """Execute a JSON experiment spec and aggregate the outcomes.

    The file holds either one experiment object or {"experiments": [...]};
    each experiment names a manifold (or null for grid-only checks), solver
    settings, a geometry budget (missing diameter / curvature norms are
    measured from the mesh), abstract constants, and the checks to run.
    """
    spec_path = Path(spec_path)
    try:
        text = spec_path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{spec_path}: invalid JSON at line {exc.lineno}, "
                        f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise SpecError(f"{spec_path}: top level must be an object")
    single = "experiments" not in data  # one experiment, which may carry the seed
    experiments, seed = _bind(_suite, {"experiments": [data], "seed": data.get("seed", 0)}
                              if single else data, "")

    outcomes: list[CheckOutcome] = []
    for e_idx, experiment in enumerate(experiments):
        where = f"experiments[{e_idx}]"
        if not isinstance(experiment, dict):
            raise SpecError(f"{where}: expected an object")
        for key in experiment:
            if key not in _EXPERIMENT_FIELDS + ("seed",) * single:
                raise SpecError(f"{where}: unknown field {key!r}")
        label = experiment.get("label", f"experiment{e_idx}")
        manifold = parse_manifold(experiment.get("manifold"), f"{where}.manifold")
        solver = _bind(SolverConfig, experiment.get("solver"), f"{where}.solver", seed=seed)
        consts = _bind(AbstractConstants, experiment.get("constants"), f"{where}.constants")
        ctx = ExperimentContext(manifold, solver, experiment.get("budget"), consts, where)
        checks = experiment.get("checks", [])
        if not isinstance(checks, list):
            raise SpecError(f"{where}.checks: expected a list")
        for c_idx, entry in enumerate(checks):
            c_where = f"{where}.checks[{c_idx}]"
            entry = {"name": entry} if isinstance(entry, str) else entry
            name = entry.get("name", entry) if isinstance(entry, dict) else entry
            if not (isinstance(name, str) and name in CHECK_REGISTRY):
                raise SpecError(f"{c_where}: unknown check {name!r}")
            params = {k: v for k, v in entry.items() if k != "name"}
            result = _bind(CHECK_REGISTRY[name], params, c_where, ctx,
                           subject=f"check {name!r}")
            for outcome in result if isinstance(result, list) else [result]:
                outcome.name = f"{label}:{outcome.name}"
                outcomes.append(outcome)

    return Report(outcomes=outcomes, suite=data, seed=seed,
                  created=datetime.now(timezone.utc).isoformat())
