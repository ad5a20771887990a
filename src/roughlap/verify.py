"""Named verification checks with structured pass/fail/reported outcomes.

Each check measures quantities (discretely or in closed form), compares
them against whatever is genuinely assertable, and returns one
:class:`CheckOutcome` whose raw numbers make the verdict re-derivable.
Quantities that depend on the explicitly-unspecified dimensional constants
are *reported*, never asserted, so the suite cannot manufacture confidence
the estimates do not provide.  ``run_suite`` drives a JSON experiment file
through the check registry and writes a schema-versioned JSON report plus
CSV/markdown renderings; reports are deterministic for a fixed seed, up to
the timestamp.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import typing
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from roughlap import constants as con
from roughlap import spectra
from roughlap.constants import AbstractConstants, GeometryBudget
from roughlap.eigen import (KERNEL_TOL, EigenResult, SolverConfig,
                            cluster_multiplicities, smallest_eigenpairs)
from roughlap.mesh import (FlatTorus, IcoSphere, MeshError, ProductSpec, TriangleMesh,
                           build_mesh, curvature_lp_norm, euler_characteristic,
                           graph_diameter)
from roughlap.operators import (build_connection, connection_laplacian_1forms, cotan_laplacian,
                                constant_chart_field, encode_tangent_field,
                                face_gradient_magnitudes, rayleigh_quotient,
                                rotation_field, weitzenboeck_eigen_check)

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
WEITZENBOECK_K = 6  # real pairs, read from WEITZENBOECK_K // 2 connection pairs
CONNECTION_K = 8  # complex pairs of each experiment's connection solve
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
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):  # numpy scalars: float, int, bool
        return obj.item()
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


@functools.cache
def _parameters(target) -> tuple[list, dict]:
    """``target``'s parameters in order and their type hints, read once per target."""
    return list(inspect.signature(target).parameters.items()), typing.get_type_hints(target)


def _fields(target, data, where: str, skip: int = 0, subject: str = "") -> dict:
    """The spec object ``data`` (null: empty) as keyword arguments of ``target``:
    keys name parameters after the first ``skip``, values are converted by the
    type hints, and a misfit is a SpecError located at ``where``."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected an object, got {data!r}")
    params, hints = _parameters(target)
    params = dict(params[skip:])
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


def _bind(target, data, where: str, *args, subject: str = ""):
    """``target(*args, **data)`` for one spec object checked by :func:`_fields`;
    a missing required field, or a ValueError from the call, is a SpecError
    at ``where``.  ``subject`` names the target in messages."""
    kwargs = _fields(target, data, where, len(args), subject)
    head = _head(where, subject)
    for name, param in _parameters(target)[0][len(args):]:
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


class ExperimentContext:
    """Caches the mesh, connection operators, and eigensolves per mesh level.

    ``connection_eigen`` is the level's one connection solve, of CONNECTION_K
    pairs at the spec's ``seed`` whatever the check order; checks read its raw
    pairs and scale there, and lambda_min, lambda_1 and the kernel from
    ``oneform_spectrum()``.  ``coarser()`` is the next-coarser level's context,
    ``factors()`` a product's factor contexts."""

    def __init__(self, manifold, seed: int,
                 budget_spec: dict | None, consts: AbstractConstants,
                 where: str = "experiment", mesh_where: str | None = None):
        self.manifold = manifold
        self.solver = SolverConfig(k=CONNECTION_K, seed=seed)
        self.stated_budget = {**BUDGET_DEFAULTS,
                              **_fields(GeometryBudget, budget_spec, f"{where}.budget")}
        _bind(GeometryBudget, {"diameter": 1.0, **self.stated_budget},
              f"{where}.budget")  # the stated ranges; 1.0 stands in for a measured diameter
        self.consts = consts
        self.where = where  # spec locations named by errors in lazy steps
        self.mesh_where = mesh_where or f"{where}.manifold"
        self._cache: dict = {}

    def _cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def require_mesh(self) -> TriangleMesh:
        """The experiment's mesh; a null or product manifold is a ValueError."""
        if self.manifold is None or isinstance(self.manifold, ProductSpec):
            raise ValueError("needs a meshable manifold (an icosphere or a flat torus)")
        try:
            return self._cached("mesh", lambda: build_mesh(self.manifold))
        except MeshError as exc:
            raise SpecError(f"{self.mesh_where}: {exc}") from None

    def connection(self):
        return self._cached("conn", lambda: build_connection(self.require_mesh()))

    def connection_operator(self):
        return self._cached("conn_ops", lambda: connection_laplacian_1forms(
            self.require_mesh(), self.connection()))

    def connection_eigen(self) -> EigenResult:
        return self._cached("conn_eig", lambda: smallest_eigenpairs(
            *self.connection_operator(), self.solver))

    def cotan_eigen(self) -> EigenResult:
        return self._cached("cotan_eig", lambda: smallest_eigenpairs(
            *cotan_laplacian(self.require_mesh()), self.solver))

    def coarser(self) -> ExperimentContext | None:
        """The next-coarser model level, or None where this one is the coarsest
        (ico s=0, and the 3x3 torus, which halves to itself)."""
        m = coarse = self.manifold
        if isinstance(m, FlatTorus):
            coarse = FlatTorus(m.lx, m.ly, max(m.nx // 2, 3), max(m.ny // 2, 3))
        elif isinstance(m, IcoSphere) and m.subdivisions >= 1:
            coarse = IcoSphere(m.radius, m.subdivisions - 1)
        return None if coarse == m else self._cached("coarser", lambda: ExperimentContext(
            coarse, self.solver.seed, self.stated_budget, self.consts, self.where, self.mesh_where))

    def factors(self) -> list[ExperimentContext]:
        """A product's factor contexts; identical factors share one, so none is solved twice."""
        return [self._cached(("factor", f), lambda: ExperimentContext(
            f, self.solver.seed, None, self.consts, self.where,
            f"{self.mesh_where}.factors[{i}]")) for i, f in enumerate(self.manifold.factors)]

    def oneform_spectrum(self) -> spectra.AnalyticSpectrum:
        """The measured 1-form spectrum, complete below its certified top.  A mesh's is
        its connection solve; a product's is ``spectra.product_oneform_spectrum`` of its
        factors' cotan and 1-form spectra."""
        if isinstance(self.manifold, ProductSpec):
            parts = [s for f in self.factors()
                     for s in (_measured(f.cotan_eigen(), 0, f.manifold), f.oneform_spectrum())]
            return spectra.product_oneform_spectrum(*parts, min(s.cutoff for s in parts))
        return _measured(self.connection_eigen(), 1, self.manifold)

    def measured_diameter(self) -> float:
        if isinstance(self.manifold, ProductSpec):
            return math.hypot(*(f.measured_diameter() for f in self.factors()))
        return self._cached("diameter", lambda: graph_diameter(self.require_mesh()))

    def budget(self) -> GeometryBudget:
        """Budget with unstated diameter / curvature norm measured, built once per level."""
        def measure():
            where = f"{self.where}.budget"
            values = dict(self.stated_budget)
            if "diameter" not in values:
                values["diameter"] = self.measured_diameter()
            if "riem_2p" not in values:
                if isinstance(self.manifold, ProductSpec):
                    raise SpecError(f"{where}: product experiments must state riem_2p")
                mesh = self.require_mesh()
                try:
                    values["riem_2p"] = curvature_lp_norm(mesh, 2.0 * values["p_exponent"])
                except ValueError as exc:
                    raise SpecError(f"{where}.p_exponent: {exc}") from None
            return _bind(GeometryBudget, values, where)
        return self._cached("budget", measure)


def _measured(result: EigenResult, degree: int, manifold) -> spectra.AnalyticSpectrum:
    """A solve's values as a spectrum: kernel-band values are 0.0, and a complex 1-form
    value counts twice; one entry per value, complete below the top one."""
    values = np.where(result.values <= KERNEL_TOL * result.scale, 0.0, result.values)
    return spectra.AnalyticSpectrum(values, np.full(values.size, 1 + degree),
                                    degree, repr(manifold), float(values[-1]))


# -- grid checks (no manifold) ----------------------------------------------

def check_root_sandwich_grid() -> CheckOutcome:
    """Exponential floor <= lam*C(lam) <= sine integral on the ROOT_N x ROOT_LAMBDAS
    grid, with the worst margins; comparison_root certifies each root to 1e-10,
    one array solve per n."""
    worst_upper = worst_lower = math.inf
    for n in ROOT_N:
        lam_c = ROOT_LAMBDAS * con.comparison_root(n, ROOT_LAMBDAS)
        lower = con.root_floor_coefficient(n) * np.exp(-(n - 1) * ROOT_LAMBDAS)
        worst_upper = min(worst_upper, float((con.sin_power_integral(n) - lam_c).min()))
        worst_lower = min(worst_lower, float((lam_c - lower).min()))
    ok = worst_upper >= 0 and worst_lower >= 0
    return CheckOutcome(
        name="root_sandwich_grid",
        status="pass" if ok else "fail",
        measured={"points": len(ROOT_N) * len(ROOT_LAMBDAS),
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
            value, _ = con.moser_product_converged(t, g)
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
        bounds={"tail_tol": con.MOSER_TAIL_TOL},
        notes="partial products converged to tail below tolerance")


# -- mesh checks --------------------------------------------------------------

def _weitzenboeck_rows(level: ExperimentContext) -> np.ndarray:
    return level._cached("weitzenboeck", lambda: weitzenboeck_eigen_check(
        level.require_mesh(), WEITZENBOECK_K, level.solver, level.connection_eigen()))


def check_weitzenboeck(ctx: ExperimentContext) -> CheckOutcome:
    """Hodge = connection + curvature on the WEITZENBOECK_K smallest pairs, within
    3% on spheres and 5% on tori, the worst mismatch below the next-coarser level's.
    Each level's rows are computed once and cached in its context (``ctx.coarser()``)."""
    tolerance = 0.03 if isinstance(ctx.manifold, IcoSphere) else 0.05
    rows = _weitzenboeck_rows(ctx)
    worst = float(rows[:, 3].max())
    ok = worst <= tolerance
    measured = {"pairs": _jsonable(rows), "max_residual": worst}
    notes = f"curvature shift {float(rows[0, 2])!r}"
    coarse = ctx.coarser()
    if coarse is not None:
        coarse_worst = float(_weitzenboeck_rows(coarse)[:, 3].max())
        measured["max_residual_coarse"] = coarse_worst
        # flat tori: both discretizations coincide spectrally, so both
        # levels sit at roundoff and "decrease" is vacuous there
        ok = ok and (worst < coarse_worst or worst <= 1e-12)
        notes += "; refinement must reduce the worst mismatch"
    return CheckOutcome(name="weitzenboeck", status="pass" if ok else "fail",
                        measured=measured, tolerance=tolerance, notes=notes)


def check_harmonic_alternative(ctx: ExperimentContext) -> CheckOutcome:
    """With b1 > 0 and Ric >= -kappa (kappa as stated, or its default; it is never
    measured): parallel forms exist or the gap is <= kappa.  Flat tori take the
    first branch; b1 = 0 is not applicable, and nothing else is measured for it."""
    b1 = 2 - euler_characteristic(ctx.require_mesh())
    if b1 <= 0:
        return CheckOutcome(name="harmonic_alternative", status="reported",
                            measured={"b1": b1},
                            notes="not applicable: first Betti number is zero")
    kappa = ctx.stated_budget["kappa"]
    spectrum = ctx.oneform_spectrum()
    zero_dim_real = spectrum.zero_multiplicity()
    fp = spectrum.first_positive()
    kernel_branch = zero_dim_real > 0
    slack = KERNEL_TOL * ctx.connection_eigen().scale
    gap_branch = fp is not None and fp <= kappa * (1.0 + 1e-6) + slack
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
    mesh = ctx.require_mesh()
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
    lambda_min = float(ctx.oneform_spectrum().eigenvalues[0])
    abs_slack = KERNEL_TOL * ctx.connection_eigen().scale
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
    rho reads one vector of the first cluster: when its reported multiplicity
    exceeds 1, rho depends on the basis the solver returns.
    """
    result = ctx.connection_eigen()
    z = result.vectors[:, 0]
    lam = float(ctx.oneform_spectrum().eigenvalues[0])
    budget = ctx.budget()
    cs = eps = math.inf  # unless they fit in a double
    try:
        cs = con.sobolev_cs(budget, ctx.consts)
        eps = con.epsilon_threshold(budget, lam, ctx.consts)
    except OverflowError:
        pass
    mag2 = np.abs(z) ** 2
    rho = float(mag2.min() / mag2.max())
    measured = {"rho": rho, "eps": eps if eps < math.inf else None, "lambda": lam,
                "sobolev_cs": cs if cs < math.inf else None,
                "multiplicity": cluster_multiplicities(result.values)[0][1]}
    basis = ("; rho reads one vector of the first cluster, "
             "so it may depend on its basis when its multiplicity exceeds 1")
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


def check_gap_lower_bound(ctx: ExperimentContext) -> CheckOutcome:
    """Report the gap bound against the measured gap: sqrt(lambda_1) * D, the
    bound, their ratio and the active branch -- not assertable, the constants
    are abstract.  The bound's shape (monotone in kappa and in the curvature
    norm, continuous where its branches cross) is a property of
    :func:`constants.oneform_gap_lower_bound`, tested with it."""
    budget = ctx.budget()
    lam1 = ctx.oneform_spectrum().first_positive()
    if lam1 is None:
        raise ValueError(f"no positive value in the CONNECTION_K={CONNECTION_K} pairs")
    d = budget.diameter
    lhs = math.sqrt(lam1) * d
    b1, b2 = con.oneform_gap_branches(budget, ctx.consts)
    rhs = min(b1, b2)
    return CheckOutcome(
        name="gap_lower_bound", status="reported",
        measured={"sqrt_lambda1_times_D": lhs, "rhs": rhs,
                  "ratio": lhs / rhs if rhs > 0 else None,
                  "branch1": b1, "branch2": b2,
                  "active_branch": "branch1" if b1 <= b2 else "branch2",
                  "lambda1": lam1, "diameter": d, "riem_2p": budget.riem_2p},
        notes="bound evaluated at abstract constants; comparison not assertable")


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
    mesh = ctx.require_mesh()
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
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
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

_EXPERIMENT_FIELDS = ("label", "manifold", "budget", "constants", "checks")


def _suite(experiments: list, seed: int = 0) -> tuple[list, int]:
    """The top level of a spec: its experiments and the solver seed."""
    SolverConfig(seed=seed)  # the solver's seed rule, applied before any solve
    return experiments, seed


def run_suite(spec_path: str | Path) -> Report:
    """Execute a JSON experiment spec and aggregate the outcomes.

    The file holds either one experiment object or {"experiments": [...]};
    each experiment names a manifold (or null for grid-only checks), a
    geometry budget (missing diameter / curvature norms are measured from the
    mesh), abstract constants, and the checks to run.
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
        consts = _bind(AbstractConstants, experiment.get("constants"), f"{where}.constants")
        ctx = ExperimentContext(manifold, seed, experiment.get("budget"), consts, where)
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
            outcome = _bind(CHECK_REGISTRY[name], params, c_where, ctx,
                            subject=f"check {name!r}")
            outcome.name = f"{label}:{outcome.name}"
            outcomes.append(outcome)

    return Report(outcomes=outcomes, suite=data, seed=seed,
                  created=datetime.now(timezone.utc).isoformat())
