"""Layers of roughlap, the per-layer metrics of the traced run, and the table
of which end-to-end metric each layer metric should move on which workload.

Every traced public function belongs to one group (``GROUP_OF``).  A span's
self time is its duration minus the time its child spans cover; functions
without a group (helpers such as ``edge_cotan_weights``) hand their self
time to the nearest enclosing span that has one.  A group's time in a pass
is the sum of the self times attributed to it, so nested calls inside one
group are not counted twice and calls into another layer are excluded.
A group's call count is the number of times the layer was entered: spans of
the group whose parent span belongs to another group.
"""

from __future__ import annotations

from collections import defaultdict

WORKLOADS = ("verify_default", "connection_ladder", "hodge_ladder")

CHECK_NAMES = ("root_sandwich_grid", "moser_product_grid", "weitzenboeck",
               "harmonic_alternative", "killing_alternative", "pinching",
               "gap_lower_bound", "lipschitz", "rigidity_implication")

GROUP_OF = {
    "mesh.build_mesh": "mesh.build",
    "mesh.generate_flat_torus": "mesh.build",
    "mesh.generate_icosphere": "mesh.build",
    "mesh.load_mesh": "mesh.build",
    "mesh.graph_diameter": "mesh.diameter",
    "mesh.curvature_lp_norm": "mesh.curvature",
    "mesh.euler_characteristic": "mesh.other",
    "mesh.mesh_geometry": "mesh.other",
    "mesh.save_mesh": "mesh.other",
    "operators.build_connection": "operators.connection",
    "operators.connection_laplacian_1forms": "operators.connection_assembly",
    "operators.hodge_laplacian_1forms": "operators.hodge_assembly",
    "operators.cotan_laplacian": "operators.other",
    "operators.save_operator": "operators.other",
    "operators.weitzenboeck_eigen_check": "operators.weitzenboeck",
    "operators.encode_tangent_field": "operators.sampling",
    "operators.vertex_frames": "operators.sampling",
    "operators.rotation_field": "operators.sampling",
    "operators.constant_chart_field": "operators.sampling",
    "operators.kato_fraction": "operators.sampling",
    "operators.face_gradient_magnitudes": "operators.sampling",
    "operators.rayleigh_quotient": "operators.sampling",
    "eigen.smallest_eigenpairs": "eigen.solve",
    "constants.comparison_root": "constants.root",
    "constants.comparison_root_limit": "constants.root",
    "constants.moser_sup_bound": "constants.moser",
    "constants.moser_parameters": "constants.moser",
    "constants.moser_product_bound": "constants.moser",
    "constants.moser_product_partial": "constants.moser",
    "constants.moser_product_converged": "constants.moser",
    "constants.gap_constant": "constants.bound",
    "constants.oneform_gap_branches": "constants.bound",
    "constants.oneform_gap_lower_bound": "constants.bound",
    "verify.run_suite": "verify.suite",
    "verify.parse_manifold": "verify.suite",
    "verify.rigidity_implication": "verify.check",
    "cli.main": "cli",
    "cli.build_parser": "cli",
}
for _name in ("torus_function_spectrum", "torus_oneform_rough_spectrum",
              "sphere_function_spectrum", "sphere_oneform_rough_spectrum",
              "product_oneform_spectrum", "parallel_form_count", "spectrum_to_csv"):
    GROUP_OF[f"spectra.{_name}"] = "spectra"
for _name in ("sin_power_integral", "root_floor_coefficient", "poincare_radius",
              "sobolev_s_pq", "sobolev_cs", "gradient_sup_bound", "eigenform_sup_bound",
              "epsilon_threshold", "epsilon_branches", "li_yau_function_bound",
              "li_yau_predicate"):
    GROUP_OF[f"constants.{_name}"] = "constants.other"
for _name in CHECK_NAMES[:-1]:
    GROUP_OF[f"verify.check_{_name}"] = "verify.check"

_ALL = WORKLOADS
_V = ("verify_default",)
_C = ("connection_ladder",)
_H = ("hodge_ladder",)
_LADDERS = ("connection_ladder", "hodge_ladder")

# name, unit, better, source group, end-to-end metrics it should move, workloads
METRICS = [
    ("mesh.build_s", "s", "lower", "mesh.build", ("pass_s",), _C),
    ("mesh.build_calls", "count", "lower", "mesh.build", ("pass_s",), _C),
    ("mesh.vertices", "count", "lower", "mesh.build", ("pass_s",), _C),
    ("mesh.diameter_s", "s", "lower", "mesh.diameter", ("pass_s",), _C + _V),
    ("mesh.diameter_calls", "count", "lower", "mesh.diameter", ("pass_s",), _C),
    ("mesh.curvature_s", "s", "lower", "mesh.curvature", ("pass_s",), _C),
    ("operators.connection_s", "s", "lower", "operators.connection", ("pass_s",), _C),
    ("operators.connection_calls", "count", "lower", "operators.connection",
     ("pass_s",), _C),
    ("operators.connection_assembly_s", "s", "lower", "operators.connection_assembly",
     ("pass_s",), _C),
    ("operators.conn_nnz", "count", "lower", "operators.connection_assembly",
     ("pass_s",), _C),
    ("operators.hodge_assembly_s", "s", "lower", "operators.hodge_assembly",
     ("pass_s", "peak_rss_mb"), _H),
    ("operators.hodge_dofs", "count", "lower", "operators.hodge_assembly",
     ("pass_s", "peak_rss_mb"), _H),
    ("operators.hodge_nnz", "count", "lower", "operators.hodge_assembly",
     ("pass_s", "peak_rss_mb"), _H),
    ("operators.weitzenboeck_self_s", "s", "lower", "operators.weitzenboeck",
     ("pass_s",), _H),
    ("operators.sampling_s", "s", "lower", "operators.sampling", ("pass_s",), _V),
    ("eigen.calls", "count", "lower", "eigen.solve", (), _ALL),
    ("eigen.dofs", "count", "lower", "eigen.solve", (), _ALL),
    ("eigen.max_residual", "ratio", "lower", "eigen.solve", (), _ALL),
    ("eigen.dense_calls", "count", "lower", "eigen.solve", ("pass_s",), _V),
    ("eigen.dense_s", "s", "lower", "eigen.solve", ("pass_s",), _V),
    ("eigen.sparse_calls", "count", "lower", "eigen.solve",
     ("pass_s", "peak_rss_mb"), _LADDERS),
    ("eigen.sparse_s", "s", "lower", "eigen.solve", ("pass_s", "peak_rss_mb"), _LADDERS),
    ("eigen.lu_solves", "count", "lower", "eigen.solve",
     ("pass_s", "peak_rss_mb"), _LADDERS),
    ("eigen.repeat_solves", "count", "lower", "eigen.solve", ("pass_s",), _V),
    ("spectra.s", "s", "lower", "spectra", ("pass_s",), _V),
    ("spectra.calls", "count", "lower", "spectra", ("pass_s",), _V),
    ("constants.root_s", "s", "lower", "constants.root", ("pass_s",), _V),
    ("constants.root_calls", "count", "lower", "constants.root", ("pass_s",), _V),
    ("constants.moser_s", "s", "lower", "constants.moser", ("pass_s",), _V),
    ("constants.moser_terms", "count", "lower", "constants.moser", ("pass_s",), _V),
    ("constants.bound_s", "s", "lower", "constants.bound", ("pass_s",), _V),
]
METRICS += [(f"verify.check_s.{name}", "s", "lower", f"verify.registry.{name}",
             ("pass_s",), _V) for name in CHECK_NAMES]
METRICS += [
    ("verify.check_self_s", "s", "lower", "verify.check", ("pass_s",), _V),
    ("verify.conn_builds_per_mesh", "ratio", "higher", "operators.connection",
     ("pass_s",), _V),
    ("verify.report_write_s", "s", "lower", "verify.report_write", ("pass_s",), _V),
    ("cli.self_s", "s", "lower", "cli", ("pass_s",), _V),
    # the traced pass time, and how much slower it is than an untraced pass
    ("trace.pass_s", "s", "lower", None, (), _ALL),
    ("trace.overhead_s", "s", "lower", None, (), _ALL),
]


def pass_spans(spans, root: int) -> list[int]:
    """Indices of the span ``root`` and all its descendants.

    Spans are appended in start order, so the descendants of a span are the
    contiguous run after it whose ancestry reaches it.
    """
    members = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx].parent not in members:
            break
        members.add(idx)
    return sorted(members)


def _attributed_times(spans, idxs):
    child_time = defaultdict(float)
    for i in idxs:
        if spans[i].parent is not None:
            child_time[spans[i].parent] += spans[i].duration
    group_of_span = {}
    times = defaultdict(float)
    for i in idxs:  # parents precede children
        s = spans[i]
        group = s.group
        if group is None:
            group = group_of_span.get(s.parent, "bench")
        group_of_span[i] = group
        times[group] += s.duration - child_time[i]
    return times


def layer_metrics(spans, root: int) -> dict[str, float]:
    """Per-layer metrics of the pass whose span is ``spans[root]``."""
    idxs = pass_spans(spans, root)
    times = _attributed_times(spans, idxs)
    entries = defaultdict(list)      # group -> spans entering it
    by_name = defaultdict(list)
    for i in idxs:
        s = spans[i]
        by_name[s.name].append(s)
        parent_group = spans[s.parent].group if s.parent is not None else None
        if s.group is not None and s.group != parent_group:
            entries[s.group].append(s)

    out = {}
    out["mesh.build_s"] = times["mesh.build"]
    out["mesh.build_calls"] = len(entries["mesh.build"])
    out["mesh.vertices"] = sum(s.attrs.get("vertices", 0) for s in entries["mesh.build"])
    out["mesh.diameter_s"] = times["mesh.diameter"]
    out["mesh.diameter_calls"] = len(entries["mesh.diameter"])
    out["mesh.curvature_s"] = times["mesh.curvature"]

    builds = by_name["operators.build_connection"]
    out["operators.connection_s"] = times["operators.connection"]
    out["operators.connection_calls"] = len(builds)
    assembled = by_name["operators.connection_laplacian_1forms"]
    out["operators.connection_assembly_s"] = times["operators.connection_assembly"]
    out["operators.conn_nnz"] = sum(s.attrs.get("nnz", 0) for s in assembled)
    hodge = by_name["operators.hodge_laplacian_1forms"]
    out["operators.hodge_assembly_s"] = times["operators.hodge_assembly"]
    out["operators.hodge_dofs"] = sum(s.attrs.get("dofs", 0) for s in hodge)
    out["operators.hodge_nnz"] = sum(s.attrs.get("nnz", 0) for s in hodge)
    out["operators.weitzenboeck_self_s"] = times["operators.weitzenboeck"]
    out["operators.sampling_s"] = times["operators.sampling"]

    solves = by_name["eigen.smallest_eigenpairs"]
    dense = [s for s in solves if s.attrs.get("iterations") == 0]
    sparse = [s for s in solves if s.attrs.get("iterations", 0) > 0]
    seen = set()
    repeats = 0
    for s in solves:
        pencil = s.attrs.get("pencil")
        repeats += pencil in seen
        seen.add(pencil)
    out["eigen.calls"] = len(solves)
    out["eigen.dofs"] = sum(s.attrs.get("dofs", 0) for s in solves)
    out["eigen.max_residual"] = max((s.attrs.get("max_residual", 0.0) for s in solves),
                                    default=0.0)
    out["eigen.dense_calls"] = len(dense)
    out["eigen.dense_s"] = sum(s.duration for s in dense)
    out["eigen.sparse_calls"] = len(sparse)
    out["eigen.sparse_s"] = sum(s.duration for s in sparse)
    out["eigen.lu_solves"] = sum(s.attrs["iterations"] for s in sparse)
    out["eigen.repeat_solves"] = repeats

    out["spectra.s"] = times["spectra"]
    out["spectra.calls"] = len(entries["spectra"])
    out["constants.root_s"] = times["constants.root"]
    out["constants.root_calls"] = len(entries["constants.root"])
    out["constants.moser_s"] = times["constants.moser"]
    out["constants.moser_terms"] = sum(
        s.attrs.get("terms", 0) for s in by_name["constants.moser_product_converged"])
    out["constants.bound_s"] = times["constants.bound"]

    for name in CHECK_NAMES:
        out[f"verify.check_s.{name}"] = sum(
            s.duration for s in by_name[f"verify.registry.{name}"])
    out["verify.check_self_s"] = times["verify.check"]
    meshes = {s.attrs.get("mesh") for s in builds}
    out["verify.conn_builds_per_mesh"] = len(meshes) / len(builds) if builds else 0.0
    out["verify.report_write_s"] = times["verify.report_write"]
    out["cli.self_s"] = times["cli"]
    return out

