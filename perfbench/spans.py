"""In-memory span recorder wrapped around roughlap's public functions.

``instrument()`` replaces every public function of every roughlap module
with a wrapper that records a span (name, start, end, parent, attributes).
The wrapper is installed wherever the function object is bound: in the
module that defines it and in every module that imported it by name, so a
call through ``roughlap.verify.smallest_eigenpairs`` and one through
``roughlap.eigen.smallest_eigenpairs`` are both seen.  Functions imported
at call time (``weitzenboeck_eigen_check`` pulls ``smallest_eigenpairs``
from ``roughlap.eigen`` when it runs) resolve to the wrapper as well.
Leaving the context restores every original binding.

The source of roughlap is not edited: all recording happens here.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import layers

MODULES = ("mesh", "operators", "eigen", "spectra", "constants", "verify", "cli")


@dataclass
class Span:
    name: str
    group: str | None
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in a list; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name: str, group: str | None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, group, time.perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str, group: str | None = None):
        idx = self.open(name, group)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, group: str | None, annotate=None):
        """Return a wrapper that records one span per call of ``fn``.

        The wrapper returns exactly the object ``fn`` returned and re-raises
        exactly what it raised.  ``annotate(args, kwargs, result)`` may add
        attributes (sizes, counts, fingerprints) to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx].attrs["error"] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if annotate is not None:
                self.spans[idx].attrs.update(annotate(args, kwargs, result))
            return result

        return wrapper

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "group": s.group, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


# -- attributes recorded per call ---------------------------------------------

def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _matrix(op):
    return op.matrix if hasattr(op, "matrix") else op


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def mesh_fingerprint(mesh) -> str:
    return _digest(mesh.faces, mesh.edge_lengths)


def pencil_fingerprint(L, M) -> str:
    a = _matrix(L).tocsr()
    m = M.weights if hasattr(M, "weights") else np.asarray(M, dtype=float)
    return _digest(a.indptr, a.indices, a.data, m)


def _annotate_mesh(args, kwargs, mesh):
    return {"vertices": mesh.n_vertices}


def _annotate_connection(args, kwargs, conn):
    return {"mesh": mesh_fingerprint(_arg(args, kwargs, 0, "mesh"))}


def _annotate_operator(args, kwargs, result):
    op, _ = result
    return {"dofs": op.matrix.shape[0], "nnz": int(op.matrix.nnz)}


def _annotate_eigen(args, kwargs, result):
    L = _arg(args, kwargs, 0, "L")
    M = _arg(args, kwargs, 1, "M")
    return {"dofs": int(_matrix(L).shape[0]),
            "iterations": int(result.iterations),
            "max_residual": float(np.max(result.residuals)),
            "pencil": pencil_fingerprint(L, M)}


def _annotate_moser(args, kwargs, result):
    return {"terms": int(result[1])}


ANNOTATE = {
    "mesh.build_mesh": _annotate_mesh,
    "mesh.generate_flat_torus": _annotate_mesh,
    "mesh.generate_icosphere": _annotate_mesh,
    "operators.build_connection": _annotate_connection,
    "operators.connection_laplacian_1forms": _annotate_operator,
    "operators.hodge_laplacian_1forms": _annotate_operator,
    "eigen.smallest_eigenpairs": _annotate_eigen,
    "constants.moser_product_converged": _annotate_moser,
}


# -- installation -------------------------------------------------------------

def public_functions(module) -> dict:
    """Functions a module defines and exports: those named in ``__all__``,
    or every public name when the module has no ``__all__``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if (callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            out[name] = obj
    return out


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap roughlap's public functions, the verify check registry and the
    report writers; restore every original binding on exit."""
    modules = {name: importlib.import_module(f"roughlap.{name}") for name in MODULES}
    wrappers = {}
    for mod_name in MODULES:
        for fn_name, fn in public_functions(modules[mod_name]).items():
            name = f"{mod_name}.{fn_name}"
            wrappers[id(fn)] = recorder.wrap(fn, name, layers.GROUP_OF.get(name),
                                             ANNOTATE.get(name))

    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                patch(module, attr, wrappers[id(value)])

    verify = modules["verify"]
    for check, fn in list(verify.CHECK_REGISTRY.items()):
        restore.append((verify.CHECK_REGISTRY, check, fn))
        verify.CHECK_REGISTRY[check] = recorder.wrap(fn, f"verify.registry.{check}", None)
    for method in ("write_json", "write_csv", "write_markdown"):
        patch(verify.Report, method,
              recorder.wrap(getattr(verify.Report, method), f"verify.Report.{method}",
                            "verify.report_write"))
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
