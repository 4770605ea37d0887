#!/usr/bin/env python3
"""sparsenewton sweep benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lownoise-m64 --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with timing hooks only
(no trace); ``--trace 1`` prints the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every solved cell goes
through the correctness gate; the exit code is 1 when any check fails and 2
when the package cannot be imported from ``src/`` next to this directory.

The run is single-threaded: BLAS/OpenMP pools are pinned to one thread before
numpy loads, and sweeps use ``run_experiment(threads=1)``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from speed import Speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def import_program():
    """Import sparsenewton from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sparsenewton
    except ImportError as exc:
        print(f"perfbench: cannot import sparsenewton from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(sparsenewton.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: sparsenewton was imported from {sparsenewton.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


class Gate:
    """Cells attempted and failed.  Each solved cell gets one verdict; a
    failed run-level check (identity, repeatability, wrappers, conservation)
    fails every cell of the run, so it cannot be diluted."""

    def __init__(self):
        self.attempted = 0
        self.failed_cells = 0
        self.run_failed = False
        self.problems = []

    def cell(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed_cells += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
        return not problems

    def run(self, ok, problem):
        if not ok:
            self.run_failed = True
            self.problems.append(problem)
        return ok

    @property
    def failed(self):
        return self.attempted if self.run_failed else self.failed_cells


def reference_operator(A):
    """A scipy copy of the projector, so residuals are recomputed without
    going through the program's own products."""
    import scipy.sparse

    return scipy.sparse.csr_matrix((A.values, A.col_indices, A.row_offsets), shape=A.shape)


def cells(config, instances):
    """(instance key, solver) in run_experiment's order."""
    return [(key, name) for key in sorted(instances) for name in config.solvers]


def check_sweep(gate, config, instances, rows, results, what):
    """One verdict per expected cell of a sweep, from its summary row and the
    CellResult the program computed: a discrepancy stop, residual <= tau *
    delta (the program's, and recomputed as ||A image - y_delta|| with a scipy
    copy of A) and a finite error.  Returns the relative errors the benchmark
    computes from each image, None for a failed cell."""
    import numpy as np
    from sparsenewton import experiment

    expected = cells(config, instances)
    gate.run(len(rows) == len(results) == len(expected),
             f"{what}: {len(rows)} summary rows and {len(results)} cells "
             f"for {len(expected)} expected")
    ref = reference_operator(next(iter(instances.values())).A)
    errors = []
    for i, (key, name) in enumerate(expected):
        inst = instances[key]
        cfg, _ = experiment.make_solver_config(name, {}, inst.delta, inst.y_delta)
        bound = cfg.tau * inst.delta
        problems = []
        rel = None
        if i >= min(len(rows), len(results)):
            problems.append("missing")
        elif results[i].solver != name or not rows[i].startswith(name + ","):
            problems.append(f"solved {results[i].solver} instead, row '{rows[i]}'")
        elif results[i].error is not None:
            problems.append(results[i].error)
        else:
            _, _, _, stop, _, residual, row_rel = rows[i].split(",")
            image = results[i].x_image
            recomputed = float(np.linalg.norm(ref @ image - inst.y_delta))
            rel = float(np.linalg.norm(image - inst.x_true) / np.linalg.norm(inst.x_true))
            if stop != "discrepancy" or results[i].trace.stop_reason != "discrepancy":
                problems.append(f"stopped with {stop}")
            if not (float(residual) <= bound and recomputed <= bound):
                problems.append(f"residual {residual} (recomputed {recomputed:.6g}) "
                                f"> tau*delta {bound:.6g}")
            if not (math.isfinite(rel) and math.isfinite(float(row_rel))):
                problems.append("relative error is not finite")
        ok = gate.cell(f"{what}: {name} noise#{key[0]} rep{key[1]}", problems)
        errors.append(rel if ok else None)
    return errors


def sweep(config, out):
    """One timed run_experiment into a fresh directory; returns (s, rows,
    results), ``results`` being the CellResult of each cell as the program
    computed it (the reconstruction it writes out included)."""
    from sparsenewton import experiment
    from tracing import Patches

    results = []
    run_cell = experiment._run_cell

    def collected_run_cell(*args, **kwargs):
        result = run_cell(*args, **kwargs)
        results.append(result)
        return result

    shutil.rmtree(out, ignore_errors=True)
    config = dataclasses.replace(config, out=str(out))
    patches = Patches()
    patches.set(experiment, "_run_cell", collected_run_cell)
    try:
        t0 = perf_counter()
        rows = experiment.run_experiment(config, threads=1)
        return perf_counter() - t0, rows, results
    finally:
        patches.restore()


def identity_check(gate, config, instances, work):
    """Two timing=off sweeps must write byte-identical summary and traces."""
    digests = []
    for i in range(2):
        out = work / f"identity{i}"
        _, rows, results = sweep(dataclasses.replace(config, timing="off"), out)
        check_sweep(gate, config, instances, rows, results, "timing=off sweep")
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())
                        if p.name == "summary.csv" or p.name.startswith("trace_")})
        shutil.rmtree(out)
    gate.run(bool(digests[0]) and digests[0] == digests[1],
             "timing=off sweeps wrote different summary or trace bytes")


def set_up(config):
    """build_instances plus the first norm estimate; returns the seconds and
    the instances."""
    from sparsenewton import experiment

    t0 = perf_counter()
    instances = experiment.build_instances(config)
    next(iter(instances.values())).A.norm2_estimate()
    return perf_counter() - t0, instances


class CellClock:
    """Times one sweep's build_instances, norm2_estimate and run_solver
    calls from outside: a perf_counter pair around each, no spans, no counts.

    The build and the norm estimate are the sweep's set-up.  A cell's solve
    time leaves its norm2_estimate calls out: only the first cell on a fresh
    matrix runs the power method, so solve times do not depend on which
    solver runs first.  The host's speed is sampled before the build and
    before each cell, outside the timed calls.
    """

    def __init__(self, speed):
        self.speed = speed
        self.seconds = []
        self.setup_s = 0.0
        self._norm_s = 0.0

    def install(self):
        from sparsenewton import experiment, linalg
        from tracing import Patches

        build_instances = experiment.build_instances
        run_solver = experiment.run_solver
        norm2_estimate = linalg.SparseMatrix.norm2_estimate
        clock = self

        def timed_build_instances(*args, **kwargs):
            clock.speed.sample(force=True)
            t0 = perf_counter()
            try:
                return build_instances(*args, **kwargs)
            finally:
                clock.setup_s += perf_counter() - t0

        def timed_run_solver(name, p, cfg, delta, *args, **kwargs):
            clock.speed.sample()
            clock._norm_s = 0.0
            t0 = perf_counter()
            result = run_solver(name, p, cfg, delta, *args, **kwargs)
            clock.seconds.append(perf_counter() - t0 - clock._norm_s)
            return result

        def timed_norm2_estimate(A, *args, **kwargs):
            t0 = perf_counter()
            try:
                return norm2_estimate(A, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                clock._norm_s += dt
                clock.setup_s += dt

        patches = Patches()
        patches.set(experiment, "build_instances", timed_build_instances)
        patches.set(experiment, "run_solver", timed_run_solver)
        patches.set(linalg.SparseMatrix, "norm2_estimate", timed_norm2_estimate)
        return patches


def end_to_end(config, instances, gate, deadline, work, speed, setup_s, rounds):
    """Timed sweeps: ``rounds`` at least, more while the next one ends before
    ``deadline``.  Every metric is a median over the sweeps; a method's solve
    time is the sum over its cells of each cell's median, and setup_s the
    median of the benchmark's own set-up and each sweep's.  All of them are
    wall seconds times ``speed.factor()``, the run's scale to the reference
    speed (``speed.py``)."""
    setups = [setup_s]
    sweep_s = []
    cell_s = []
    first_errors = []
    while len(sweep_s) < rounds or perf_counter() + statistics.median(sweep_s) <= deadline:
        clock = CellClock(speed)
        patches = clock.install()
        speed.sample(force=True)
        spent = speed.spent
        try:
            dt, rows, results = sweep(config, work / "sweep")
        finally:
            patches.restore()
        # the samples taken inside the sweep are not the program's time
        sweep_s.append(dt - (speed.spent - spent))
        cell_s.append(clock.seconds)
        setups.append(clock.setup_s)
        errors = check_sweep(gate, config, instances, rows, results, "sweep")
        if not first_errors:
            first_errors.append(errors)
        gate.run(errors == first_errors[0], "relative errors changed between sweeps")
    speed.sample(force=True)
    scale = speed.factor()
    print(f"host speed: kernel median {speed.median() * 1e3:.4f} ms over "
          f"{len(speed.seconds)} samples, scale {scale:.4f}", file=sys.stderr)
    for name, values in (("wall sweep_s", sweep_s), ("wall setup_s", setups)):
        print(f"{name} samples: " + " ".join(f"{v:.4f}" for v in values), file=sys.stderr)
    sweep_s = [v * scale for v in sweep_s]
    setups = [v * scale for v in setups]
    cell_s = [[v * scale for v in c] for c in cell_s]

    names = [name for _, name in cells(config, instances)]
    solve_s = defaultdict(float)
    if gate.run(all(len(c) == len(names) for c in cell_s), "a sweep lost cells"):
        for i, name in enumerate(names):
            solve_s[name] += statistics.median(c[i] for c in cell_s)
    per_method = defaultdict(list)
    for name, rel in zip(names, first_errors[0]):
        if rel is not None:
            per_method[name].append(rel)

    metrics = {"sweep_s": (statistics.median(sweep_s), "s"),
               "setup_s": (statistics.median(setups), "s")}
    for name in config.solvers:
        metrics[f"solve_s.{name}"] = (solve_s[name], "s")
    for name in config.solvers:
        # a method with no checked cell reports the error of the zero image
        errors = per_method[name] or [1.0]
        metrics[f"rel_error.{name}"] = (statistics.fmean(errors), "ratio")
    metrics["ok_rate"] = (1.0 - gate.failed / gate.attempted, "ratio")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics


def product_bytes(A, ref):
    """Bytes one CSR product reads and writes, computed (not measured) from
    nnz and the index and value widths: values, column indices, row offsets,
    the input vector and the output vector."""
    index = ref.indices.dtype.itemsize
    return (A.nnz * (A.values.dtype.itemsize + index) + (A.n_rows + 1) * index
            + 8 * (A.n_rows + A.n_cols))


def per_layer(config, instances, gate, deadline, work, label):
    """Per-layer metrics of a traced sweep.  Each round is an untraced sweep
    and the same sweep traced, for the trace's overhead; rounds repeat while
    they fit before ``deadline``, and every layer comes from the first traced
    sweep."""
    import tracing

    overheads = []
    signatures = []
    errors = []
    fired = Counter()
    first = {}

    def sweep_pair():
        plain_s, rows, results = sweep(config, work / "sweep")
        errors.append(check_sweep(gate, config, instances, rows, results, "sweep"))
        tracer = tracing.Tracer()
        patches, names = tracing.install(tracer)
        try:
            traced_s, rows, results = sweep(config, work / "sweep")
        finally:
            patches.restore()
        fired.update(tracer.counts)
        errors.append(check_sweep(gate, config, instances, rows, results, "traced sweep"))
        overheads.append(traced_s - plain_s)
        analysis = tracing.Analysis(tracer)
        signatures.append([analysis.cell_signature(c) for c in sorted(analysis.cells)])
        if not first:
            files = list((work / "sweep").iterdir())
            first.update(analysis=analysis, names=names, files=len(files),
                         bytes=sum(f.stat().st_size for f in files))
            tracer.write(WORK / f"spans-{label}.jsonl")

    start = perf_counter()
    sweep_pair()
    pair_s = perf_counter() - start
    while perf_counter() + pair_s <= deadline:
        sweep_pair()

    sw = first["analysis"]
    for name in first["names"]:
        gate.run(fired[name] > 0, f"wrapper {name} never fired")
    for error in sw.conservation_errors():
        gate.run(False, f"conservation: {error}")
    in_cells = sum(sw.spans[i].info["products"] for i in sw.cells.values())
    in_build = sum(sw.products_in[i] for i in sw.indices("experiment.build_instances"))
    products = sw.calls["linalg.matvec"] + sw.calls["linalg.transpose_matvec"]
    gate.run(in_cells + in_build == products,
             f"conservation: {products} products in the sweep, {in_cells} inside cells "
             f"and {in_build} inside build_instances")
    gate.run(all(s == signatures[0] for s in signatures),
             "per-cell counts differ between traced sweeps")
    gate.run(all(e == errors[0] for e in errors), "relative errors changed between sweeps")

    A = next(iter(instances.values())).A
    m = {}
    m["tomo.build_parallel_tomo.s"] = (sw.total_s["tomo.build_parallel_tomo"], "s")
    m["tomo.ray_cell_chords.calls"] = (sw.calls["tomo.ray_cell_chords"], "count")
    m["tomo.nnz"] = (A.nnz, "count")
    norm = sw.indices("linalg.norm2_estimate")
    m["linalg.norm2_estimate.s"] = (sw.total_s["linalg.norm2_estimate"], "s")
    m["linalg.norm2_estimate.products"] = (sum(sw.products_in[i] for i in norm), "count")
    for op in tracing.PRODUCTS:
        m[f"{op}.calls"] = (sw.calls[op], "count")
        m[f"{op}.s"] = (sw.total_s[op], "s")
    m["linalg.product_bytes"] = (product_bytes(A, reference_operator(A)), "bytes-computed")

    cg = [sw.spans[i] for i in sw.indices("linalg.cg_solve")]
    cg_products = [sw.products_in[i] for i in sw.indices("linalg.cg_solve")]
    m["linalg.cg_solve.calls"] = (len(cg), "count")
    m["linalg.cg_solve.iterations"] = (sum(s.info["iterations"] for s in cg), "count")
    m["linalg.cg_solve.s"] = (sw.total_s["linalg.cg_solve"], "s")
    m["linalg.cg_solve.curvature_failures"] = (
        sum(1 for s in cg if s.info.get("curvature")), "count")
    useful = sum(n for s, n in zip(cg, cg_products) if s.info["converged"])
    m["linalg.cg_solve.useful_ratio"] = (useful / sum(cg_products) if cg_products else 0.0,
                                         "ratio")

    for fn in ("eval_T", "eval_J", "grad_J", "hessian_apply"):
        m[f"functionals.{fn}.calls"] = (sw.calls[f"functionals.{fn}"], "count")
    m["functionals.self_s"] = (sum(v for k, v in sw.self_s.items()
                                   if k.startswith("functionals.")), "s")
    m["transform.calls"] = (sum(v for k, v in sw.calls.items()
                                if k.startswith("transform.")), "count")
    m["transform.s"] = (sum(v for k, v in sw.total_s.items()
                            if k.startswith("transform.")), "s")

    warm = defaultdict(float)
    for i in sw.indices("solvers.warm_start"):
        warm[sw.spans[i].cell] += sw.spans[i].end - sw.spans[i].start
    for name in config.solvers:
        roots = [i for i in sw.cells.values() if sw.spans[i].info["method"] == name]
        steps = sum(sw.spans[i].info.get("n_star", 0) for i in roots)
        # the power method in the first cell on a fresh matrix is set-up
        products = sum(sw.spans[i].info["products"]
                       - sw.charged[sw.spans[i].cell]["norm2_estimate"] for i in roots)
        evals = sum(sw.child_calls[(i, f"functionals.{fn}")]
                    for i in roots for fn in ("eval_T", "eval_J"))
        rows = sum(sw.spans[i].info.get("rows", 0) for i in roots)
        m[f"solvers.{name}.outer_steps"] = (steps, "count")
        m[f"solvers.{name}.products"] = (products, "count")
        m[f"solvers.{name}.products_per_step"] = (products / steps if steps else 0.0,
                                                  "products/step")
        m[f"solvers.{name}.line_search_evals"] = (evals - rows, "count")
        m[f"solvers.{name}.warm_start_s"] = (
            sum(warm[sw.spans[i].cell] for i in roots), "s")
        m[f"solvers.{name}.self_s"] = (sum(sw.self_of[i] for i in roots), "s")
        m[f"solvers.{name}.unrecorded_s"] = (
            sum(sw.spans[i].end - sw.spans[i].start - sw.spans[i].info.get("wall_last", 0.0)
                for i in roots), "s")

    m["experiment.build_instances.s"] = (sw.total_s["experiment.build_instances"], "s")
    m["experiment.write_trace_csv.s"] = (sw.total_s["experiment.write_trace_csv"], "s")
    m["tomo.write_pgm.s"] = (sw.total_s["tomo.write_pgm"], "s")
    m["experiment.files_written"] = (first["files"], "count")
    m["experiment.bytes_written"] = (first["bytes"], "bytes")
    m["experiment.self_s"] = (sw.self_s["experiment.run_experiment"], "s")
    m["trace_overhead_s"] = (statistics.median(overheads), "s")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    deadline = perf_counter() + args.seconds
    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-{args.seed}-{os.getpid()}"
    work = WORK / label
    work.mkdir(parents=True, exist_ok=True)
    gate = Gate()
    speed = Speed(workload.speed_kernel)
    try:
        config = workload.config(args.seed, work / "sweep")
        speed.sample(force=True)
        setup_s, instances = set_up(config)
        if workload.identity_check:
            identity_check(gate, config, instances, work)
        if args.trace:
            metrics = per_layer(config, instances, gate, deadline, work, label)
        else:
            metrics = end_to_end(config, instances, gate, deadline, work, speed, setup_s,
                                 workload.rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in gate.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if gate.problems else 0


if __name__ == "__main__":
    sys.exit(main())
