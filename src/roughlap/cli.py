"""Command-line front end.

Subcommands:

* ``constants`` -- tables of the comparison root and its sandwich bounds;
* ``bound``     -- evaluate the 1-form gap lower bound for a budget;
* ``spectrum``  -- mesh a model manifold and print smallest eigenvalues;
* ``verify``    -- run a JSON experiment spec, write the report;
* ``report``    -- re-render a JSON report as CSV or markdown.

All numeric output is full double precision (repr).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from roughlap import constants as con
from roughlap.constants import AbstractConstants, GeometryBudget
from roughlap.eigen import CLUSTER_GAP, SolverConfig, cluster_multiplicities, smallest_eigenpairs
from roughlap.mesh import FlatTorus, IcoSphere, build_mesh
from roughlap.operators import (build_connection, connection_laplacian_1forms,
                                cotan_laplacian, hodge_spectrum)
from roughlap.verify import Report, SpecError, run_suite


def _cmd_constants(args) -> int:
    print("n lambda omega floor_coef root lam_root lower_bound upper_bound")
    for n in args.n:
        try:
            w = con.sin_power_integral(n)
        except ValueError as exc:
            raise SpecError(f"--n {n}: {exc}") from None
        coef = con.root_floor_coefficient(n)
        for lam in args.lambda_grid:
            try:
                root = con.comparison_root(n, lam)
            except ValueError as exc:
                raise SpecError(f"--lambda-grid {lam!r}: {exc}") from None
            lower = coef * math.exp(-(n - 1) * lam)
            print(f"{n} {lam!r} {w!r} {coef!r} {root!r} {lam * root!r} {lower!r} {w!r}")
    return 0


# The `bound` flag that sets each GeometryBudget and AbstractConstants field;
# their range errors open with the name of the field they reject.
_BOUND_FLAGS = {"dim": "--dim", "kappa": "--kappa", "diameter": "--diameter",
                "p_exponent": "--p", "riem_2p": "--riem2p",
                "c_n": "--c-n", "c_np": "--c-np", "c0_np": "--c0-np"}


def _cmd_bound(args) -> int:
    try:
        budget = GeometryBudget(dim=args.dim, kappa=args.kappa, diameter=args.diameter,
                                p_exponent=args.p, riem_2p=args.riem2p)
        consts = AbstractConstants(c_n=args.c_n, c_np=args.c_np, c0_np=args.c0_np)
        b1, b2 = con.oneform_gap_branches(budget, consts)
    except ValueError as exc:
        flag = _BOUND_FLAGS.get(str(exc).split()[0], "bound")
        raise SpecError(f"{flag}: {exc}") from None
    rhs = min(b1, b2)
    print(f"branch1 {b1!r}")
    print(f"branch2 {b2!r}")
    print(f"rhs {rhs!r}")
    print(f"active {'branch1' if b1 <= b2 else 'branch2'}")
    return 0


def _cmd_spectrum(args) -> int:
    if args.manifold == "icosphere":
        manifold = IcoSphere(radius=args.radius, subdivisions=args.subdiv)
    else:
        manifold = FlatTorus(lx=args.lx, ly=args.ly, nx=args.nx, ny=args.ny)
    try:  # MeshError and out-of-range solver settings are ValueErrors
        config = SolverConfig(k=args.k, seed=args.seed)
        mesh = build_mesh(manifold)
        if args.operator == "hodge":
            values, residuals, result = hodge_spectrum(mesh, args.k, config)
        else:
            pencil = (cotan_laplacian(mesh) if args.operator == "function" else
                      connection_laplacian_1forms(mesh, build_connection(mesh)))
            result = smallest_eigenpairs(*pencil, config)
            values, residuals = result.values, result.residuals
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    print(f"# {args.manifold} operator={args.operator} "
          f"V={mesh.n_vertices} E={mesh.n_edges} F={mesh.n_faces}")
    print("# solver: " + (f"shift-invert solves={result.iterations} fill={result.fill}"
                          if result.iterations else "dense"))
    for value, residual in zip(values, residuals):
        print(f"{float(value)!r} residual={float(residual)!r}")
    print(f"# clusters (rel gap {CLUSTER_GAP}):",
          [(v, c) for v, c in cluster_multiplicities(values)])
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.spec)
    out = Path(args.out) if args.out else Path(args.spec).with_suffix(".report.json")
    report.write_json(out)
    report.write_csv(out.with_suffix(".csv"))
    for outcome in report.outcomes:
        print(f"{outcome.status.upper():8s} {outcome.name}")
    failures = report.failures()
    print(f"# report: {out}")
    print(f"# {len(report.outcomes)} outcomes, {len(failures)} failures")
    return 1 if failures else 0


def _cmd_report(args) -> int:
    report = Report.from_json(args.input)
    suffix, write = ((".csv", report.write_csv) if args.format == "csv"
                     else (".md", report.write_markdown))
    target = Path(args.out) if args.out else Path(args.input).with_suffix(suffix)
    write(target)
    print(f"# wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughlap",
        description="eigenvalue bounds for the connection Laplacian on 1-forms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="comparison-root tables")
    p.add_argument("--n", type=int, nargs="+", default=[2, 3, 4])
    p.add_argument("--lambda-grid", dest="lambda_grid", type=float, nargs="+",
                   default=[0.01, 0.1, 1.0, 10.0])
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bound", help="evaluate the 1-form gap lower bound")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--diameter", type=float, default=1.0)
    p.add_argument("--riem2p", type=float, default=0.0)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--c-n", dest="c_n", type=float, default=1.0)
    p.add_argument("--c-np", dest="c_np", type=float, default=1.0)
    p.add_argument("--c0-np", dest="c0_np", type=float, default=1.0)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("spectrum", help="smallest eigenvalues of a model manifold")
    p.add_argument("--manifold", choices=["icosphere", "flat_torus"], required=True)
    p.add_argument("--operator", choices=["connection", "hodge", "function"],
                   default="connection")
    p.add_argument("--subdiv", type=int, default=3)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--lx", type=float, default=2 * math.pi)
    p.add_argument("--ly", type=float, default=2 * math.pi)
    p.add_argument("--nx", type=int, default=32)
    p.add_argument("--ny", type=int, default=32)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run a JSON experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="re-render a JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "markdown"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
