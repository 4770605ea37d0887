"""Spans and counts around the public calls of each sparsenewton module.

Wrappers are installed from outside the program, on the names where the
program looks them up: ``solvers`` binds ``cg_solve``, ``eval_J``, ``grad_J``
and ``hessian_operator`` at import, and ``experiment`` reaches
``build_parallel_tomo``, ``run_solver`` and the writers through its own
globals, so patching the defining module alone would count nothing.  Every
wrapper closes its span and bumps its call count in ``finally``, so calls that
raise (Newton's CG solves that hit ``CurvatureError``) are counted too.

One cell is one top-level ``experiment.run_solver`` call, whose span encloses
the runner exactly (warm start included).
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

PRODUCTS = ("linalg.matvec", "linalg.transpose_matvec")

# A product is charged to the outermost of these spans below its cell; a
# product under none of them is charged to the runner itself.
_CATEGORY = {
    "linalg.cg_solve": "cg_solve",
    "solvers.warm_start": "warm_start",
    "linalg.norm2_estimate": "norm2_estimate",
}


def _category(name):
    if name in _CATEGORY:
        return _CATEGORY[name]
    if name.startswith("functionals."):
        return "functionals"
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "info")

    def __init__(self, name, parent, cell):
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.cell = cell
        self.info = None


class Tracer:
    """Keeps every span in memory; ``write`` dumps them as JSON lines."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._cell = None
        self._next_cell = 0

    def _open(self, name, starts_cell):
        root = starts_cell and self._cell is None
        if root:
            self._cell = self._next_cell
            self._next_cell += 1
        span = Span(name, self._stack[-1] if self._stack else None, self._cell)
        if root:
            span.info = {"cell_root": True,
                         "products_before": sum(self.counts[p] for p in PRODUCTS)}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        self.counts[span.name] += 1
        if span.info is not None and span.info.get("cell_root"):
            span.info["products"] = (sum(self.counts[p] for p in PRODUCTS)
                                     - span.info["products_before"])
            self._cell = None

    def wrap(self, name, fn, *, starts_cell=False, on_call=None, on_return=None,
             on_raise=None):
        """``fn`` inside a span; the hooks may annotate the span (``on_return``
        may also replace the result)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, starts_cell)
            try:
                if on_call is not None:
                    on_call(span, args)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    result = on_return(span, result)
                return result
            except Exception as exc:
                if on_raise is not None:
                    on_raise(span, exc)
                raise
            finally:
                tracer._close(span)

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "cell": s.cell}) + "\n")


def _annotate(span, **values):
    if span.info is None:
        span.info = {}
    span.info.update(values)


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer):
    """Wrap every traced public call; returns the ``Patches`` to restore and
    the span names installed (each must fire on every workload)."""
    from sparsenewton import experiment, functionals, linalg, solvers, tomo
    from sparsenewton.linalg import CurvatureError

    patches = Patches()
    names = []

    def put(owner, attr, name, **hooks):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))
        if name not in names:
            names.append(name)

    Sparse = linalg.SparseMatrix
    put(Sparse, "matvec", "linalg.matvec")
    put(Sparse, "transpose_matvec", "linalg.transpose_matvec")
    put(Sparse, "norm2_estimate", "linalg.norm2_estimate")

    def cg_return(span, result):
        _annotate(span, iterations=result.iterations, converged=bool(result.converged))
        return result

    def cg_raise(span, exc):
        curvature = isinstance(exc, CurvatureError)
        _annotate(span, iterations=exc.iteration if curvature else 0, converged=False,
                  curvature=curvature)

    put(solvers, "cg_solve", "linalg.cg_solve", on_return=cg_return, on_raise=cg_raise)

    put(tomo, "ray_cell_chords", "tomo.ray_cell_chords")
    put(experiment, "build_parallel_tomo", "tomo.build_parallel_tomo",
        on_return=lambda span, A: (_annotate(span, nnz=A.nnz), A)[1])
    put(experiment, "write_pgm", "tomo.write_pgm")

    for module, attrs in ((functionals, ("apply_N", "apply_N_eps", "gradient_diag",
                                         "hessian_diag")),
                          (solvers, ("apply_N_inverse", "gradient_diag"))):
        for attr in attrs:
            put(module, attr, f"transform.{attr}")

    for attr in ("eval_T", "eval_J", "grad_J", "back_transform"):
        put(solvers, attr, f"functionals.{attr}")
    put(experiment, "back_transform", "functionals.back_transform")
    apply_name = "functionals.hessian_apply"
    put(solvers, "hessian_operator", "functionals.hessian_operator",
        on_return=lambda span, H: tracer.wrap(apply_name, H))
    names.append(apply_name)

    put(solvers, "run_fista", "solvers.warm_start")  # only _initial_point calls it

    def cell_call(span, args):
        _annotate(span, method=args[0])

    def cell_return(span, result):
        trace = result[1]
        _annotate(span, n_star=trace.n_star, rows=len(trace.iterations),
                  wall_last=trace.wall_times[-1])
        return result

    put(experiment, "run_solver", "experiment.run_solver", starts_cell=True,
        on_call=cell_call, on_return=cell_return)
    put(experiment, "build_instances", "experiment.build_instances")
    put(experiment, "write_trace_csv", "experiment.write_trace_csv")
    put(experiment, "run_experiment", "experiment.run_experiment")
    return patches, names


class Analysis:
    """Per-name totals, self times, products below each span and the
    per-cell product attribution of one traced phase."""

    def __init__(self, tracer):
        spans = tracer.spans
        child = [0.0] * len(spans)
        self.child_calls = Counter()  # (parent index, name) -> calls
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
                self.child_calls[(s.parent, s.name)] += 1
        self.spans = spans
        self.self_of = [s.end - s.start - child[i] for i, s in enumerate(spans)]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        for i, s in enumerate(spans):
            self.calls[s.name] += 1
            self.total_s[s.name] += s.end - s.start
            self.self_s[s.name] += self.self_of[i]

        self.cells = {}  # cell id -> index of its run_solver span
        for i, s in enumerate(spans):
            if s.info is not None and s.info.get("cell_root"):
                self.cells[s.cell] = i
        self.products_in = [0] * len(spans)  # products below each span
        self.charged = defaultdict(Counter)  # cell -> category -> products
        for s in spans:
            if s.name not in PRODUCTS:
                continue
            category = "runner"
            in_cell = True
            j = s.parent
            while j is not None:
                self.products_in[j] += 1
                if in_cell:
                    if s.cell is not None and j == self.cells[s.cell]:
                        in_cell = False
                    else:
                        c = _category(spans[j].name)
                        if c is not None:
                            category = c  # keep walking: the outermost one wins
                j = spans[j].parent
            if s.cell is not None:
                self.charged[s.cell][category] += 1

    def indices(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def cell_signature(self, cell):
        """The counts of one cell that must repeat exactly between runs;
        norm-estimate products are left out (only the first cell on a fresh
        matrix pays them)."""
        root = self.spans[self.cells[cell]]
        charged = {k: v for k, v in self.charged[cell].items() if k != "norm2_estimate"}
        return (root.info["method"], root.info.get("n_star"), tuple(sorted(charged.items())))

    def conservation_errors(self):
        """Cells whose charged products do not add up to the counted ones."""
        errors = []
        for cell, index in self.cells.items():
            counted = self.spans[index].info["products"]
            charged = self.charged[cell]
            if sum(charged.values()) != counted:
                errors.append(f"cell {cell}: products counted {counted}, "
                              f"charged {dict(charged)}")
        return errors
