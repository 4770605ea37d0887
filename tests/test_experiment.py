"""Sweep orchestration: per-cell configs, seeds, output files."""

import dataclasses
import math
import types

import numpy as np
import pytest

from sparsenewton import (ExperimentConfig, ProblemData, SolverConfig, SparseMatrix, TomoGeometry,
                         experiment, parse_config, run_experiment, solvers)
from sparsenewton.experiment import (
    SCHEMA_LINE,
    SUMMARY_HEADER,
    TRACE_HEADER,
    _run_cell,
    build_instances,
    make_solver_config,
    noise_seed_for,
)
from sparsenewton.solvers import RUNNERS, SOLVER_KNOBS, SOLVER_NAMES

GEOM = TomoGeometry(12, 6, 14)


def test_resolve_alpha():
    def alpha(overrides, delta, y):
        return make_solver_config("ista", overrides, delta, y)[1]

    assert alpha({"alpha": 0.5}, 2.0, np.ones(4)) == 0.5
    assert alpha({"alpha": "auto"}, 2.0, np.ones(4)) == pytest.approx(0.02)
    assert alpha({}, 0.0, np.full(4, 2.0)) == pytest.approx(4e-8)


def test_make_solver_config_defaults(tmp_path):
    y = np.full(4, 2.0)
    cfg, alpha = make_solver_config("newton", {}, 1.0, y)
    assert cfg.max_iter == 50
    assert cfg.warm_start == 5
    assert cfg.epsilon == "auto"
    assert alpha == pytest.approx(0.01)
    cfg, _ = make_solver_config("lm", {}, 1.0, y)
    assert cfg.epsilon == 0.0
    cfg, _ = make_solver_config("ista", {}, 1.0, y)
    assert cfg.max_iter == 50000
    assert cfg.warm_start is None  # only the methods on x~ warm start
    cfg, alpha = make_solver_config("fista", {"alpha": 0.5, "max_iter": 7}, 1.0, y)
    assert alpha == 0.5
    assert cfg.max_iter == 7
    # inexact inner solves by default, exact ones when asked for; the methods
    # with no inner solve leave inner_tol unset
    inner_tols = {name: make_solver_config(name, {}, 1.0, y)[0].inner_tol
                  for name in ("ista", "fista", "gd", "lm", "newton")}
    assert inner_tols == {"ista": None, "fista": None, "gd": None,
                          "lm": 5e-2, "newton": 0.2}
    path = tmp_path / "exact.cfg"
    path.write_text("[geometry]\nm = 12\nn_angles = 6\nn_beams = 14\n"
                    "[experiment]\nsolvers = newton\n"
                    "[solver.newton]\ninner_tol = 1e-10\n")
    overrides = parse_config(path).solver_overrides["newton"]
    assert make_solver_config("newton", overrides, 1.0, y)[0].inner_tol == 1e-10


def test_knob_table_matches_solver_config():
    # alpha is the one knob that is no SolverConfig field: it is ProblemData's,
    # and make_solver_config resolves the table's default for it
    fields = {f.name for f in dataclasses.fields(SolverConfig)} - {"x0"}
    assert fields == set(SOLVER_KNOBS) - {"alpha"}
    y = np.full(4, 2.0)
    for name in SOLVER_NAMES:
        cfg, alpha = make_solver_config(name, {}, 1.0, y)
        assert type(cfg) is SolverConfig
        assert type(alpha) is float
        default = {"alpha": SOLVER_KNOBS["alpha"][3][name]}
        assert alpha == make_solver_config(name, default, 1.0, y)[1], name


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_default_solver_config_runs_each_method_as_a_sweep_cell_does(name):
    instance = build_instances(ExperimentConfig(GEOM, [name], [0.1], 1, 0, "unused", "off"))[(0, 0)]
    cfg, alpha = make_solver_config(name, {}, instance.delta, instance.y_delta)
    p = ProblemData(instance.A, instance.y_delta, alpha)
    (x, trace), (x_cell, trace_cell) = [
        RUNNERS[name](p, c, instance.delta, x_true=instance.x_true, timer=lambda: 0.0)
        for c in (SolverConfig(), cfg)]
    np.testing.assert_array_equal(x, x_cell)
    assert trace == trace_cell


def test_make_solver_config_unknown_name():
    with pytest.raises(ValueError, match="unknown solver 'cg'; available: ista"):
        make_solver_config("cg", {}, 1.0, np.ones(2))


def test_noise_seeds_deterministic_and_distinct():
    seeds = [noise_seed_for(0, li, rep) for li in range(3) for rep in range(2)]
    assert seeds == [noise_seed_for(0, li, rep) for li in range(3) for rep in range(2)]
    assert len(set(seeds)) == 6
    assert noise_seed_for(1, 0, 0) != seeds[0]


def test_build_instances_shares_the_matrix():
    cfg = ExperimentConfig(GEOM, ["ista"], [0.1, 0.2], 2, 0, "unused", "off")
    instances = build_instances(cfg)
    assert len(instances) == 4
    assert instances[(0, 0)].A is instances[(1, 1)].A
    y = instances[(0, 0)].A.matvec(instances[(0, 0)].x_true)
    for (li, _), inst in instances.items():
        assert inst.delta == pytest.approx(cfg.noise_levels[li] * np.linalg.norm(y), rel=1e-15)
    # same level, different rep: same magnitude, different direction
    assert instances[(0, 0)].delta == instances[(0, 1)].delta
    diff = np.linalg.norm(instances[(0, 0)].y_delta - instances[(0, 1)].y_delta)
    assert diff > 0.0


@pytest.mark.parametrize("name", ["gd", "lm", "newton"])
def test_cell_image_is_back_transformed_with_the_run_epsilon(name):
    instance = build_instances(ExperimentConfig(GEOM, [name], [0.1], 1, 0, "unused", "off"))[(0, 0)]
    cell = _run_cell(name, {"epsilon": 0.05}, instance, 0.1, 0, "off", {})
    assert cell.trace.spec.epsilon == 0.05
    err = np.linalg.norm(cell.x_image - instance.x_true) / np.linalg.norm(instance.x_true)
    assert err == cell.trace.rel_errors[-1]


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == SCHEMA_LINE
    assert lines[1] == SUMMARY_HEADER
    return lines[2:]


def test_sweep_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig(GEOM, ["ista", "lm"], [0.1, 0.3], 2, 0, str(out), "wall")
    rows = run_experiment(cfg)
    assert len(rows) == 8
    assert read_rows(out / "summary.csv") == rows
    for row in rows:
        solver, noise, n_star, reason, wall, residual, rel_err = row.split(",")
        assert solver in ("ista", "lm")
        assert reason in ("discrepancy", "max_iter", "stagnation")
        assert int(n_star) >= 0
        assert float(wall) >= 0.0
        assert math.isfinite(float(residual))
        assert math.isfinite(float(rel_err))
    for solver in ("ista", "lm"):
        for noise in ("0.1", "0.3"):
            for rep in ("0", "1"):
                trace = out / f"trace_{solver}_{noise}_{rep}.csv"
                lines = trace.read_text().splitlines()
                assert lines[0] == SCHEMA_LINE
                assert lines[1] == TRACE_HEADER
                assert (out / f"recon_{solver}_{noise}_{rep}.pgm").exists()


def test_no_sweep_product_multiplies_an_all_zero_vector(tmp_path, product_log):
    # the cold starts of ISTA and FISTA and the first point of every FISTA
    # warm start have the image 0, whose forward image A 0 = 0 needs no product
    log = product_log()
    rows = run_experiment(ExperimentConfig(TomoGeometry(16, 24, 20), list(SOLVER_NAMES),
                                           [0.05, 0.1], out=str(tmp_path), timing="off"))
    assert len(rows) == 10 and not any(",error," in row for row in rows)
    assert [attr for attr, inputs in log.inputs.items()
            for v in inputs if not np.frombuffer(v).any()] == []


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_criterion_8_holds_at_other_base_seeds(tmp_path, seed):
    # the acceptance sweep's config, whose criterion 8 runs at seed 0 only
    cfg = ExperimentConfig(TomoGeometry(32, 60, 45), list(SOLVER_NAMES), [0.05, 0.1, 0.2], 1,
                           seed, str(tmp_path / "run"), "off")
    errors = {}
    for row in run_experiment(cfg):
        solver, noise, *_, rel_error = row.split(",")
        errors[(solver, float(noise))] = float(rel_error)
    first_order = min(errors[(name, 0.1)] for name in ("ista", "fista", "gd"))
    assert errors[("newton", 0.1)] <= first_order + 0.02
    assert errors[("lm", 0.1)] <= first_order + 0.02


def test_zero_repetitions_yields_empty_summary(tmp_path):
    out = tmp_path / "empty"
    rows = run_experiment(ExperimentConfig(GEOM, ["ista"], [0.1], 0, 0, str(out), "off"))
    assert rows == []
    assert read_rows(out / "summary.csv") == []


def test_threads_must_be_one(tmp_path):
    out = tmp_path / "threads"
    cfg = ExperimentConfig(GEOM, ["ista"], [0.1], 1, 0, str(out), "off")
    with pytest.raises(ValueError, match="threads must be 1, got 2"):
        run_experiment(cfg, threads=2)
    assert not out.exists()
    assert len(run_experiment(cfg, threads=1)) == 1  # perfbench/run.py's call


def test_failed_cell_becomes_error_row(tmp_path, monkeypatch):
    def broken_ista(*args, **kwargs):
        raise ValueError("ista failed")

    out = tmp_path / "err"
    cfg = ExperimentConfig(GEOM, ["ista", "lm"], [0.1], 1, 0, str(out), "off")
    run_experiment(cfg)  # an earlier sweep's files for both cells
    assert (out / "trace_ista_0.1_0.csv").exists() and (out / "recon_ista_0.1_0.pgm").exists()
    monkeypatch.setitem(RUNNERS, "ista", broken_ista)
    rows = run_experiment(cfg)
    assert rows[0] == "ista,0.1,0,error,0,nan,nan"
    assert rows[1].startswith("lm,0.1,")
    assert not (out / "trace_ista_0.1_0.csv").exists()
    assert not (out / "recon_ista_0.1_0.pgm").exists()
    assert (out / "trace_lm_0.1_0.csv").exists() and (out / "recon_lm_0.1_0.pgm").exists()


@pytest.mark.parametrize("changes,message", [
    ({"solvers": ["fista", "fista"]}, "solvers lists 'fista' and 'fista', which would write"),
    ({"solvers": []}, "solvers must list at least one item"),
    ({"solvers": ["bfgs"]}, "unknown solver 'bfgs'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"repetitions": -2}, "repetitions must be >= 0, got -2"),
    ({"timing": "Wall"}, "timing must be one of wall, off, got 'Wall'"),
    ({"out": ""}, "out must name a directory"),
    ({"geometry": (12, 6, 14)}, "geometry must be a TomoGeometry"),
    ({"solver_overrides": {"bfgs": {}}}, "unknown solver 'bfgs'"),
    ({"solver_overrides": {"ista": {"ripple": 1}}}, "unknown solver knob 'ripple' for ista"),
    ({"solver_overrides": {"ista": {"omega": -5.0}}}, "omega must exceed 0, got -5.0"),
    ({"solver_overrides": {"newton": {"epsilon": 0.0}}}, "epsilon must be > 0 for newton"),
    ({"solver_overrides": {"ista": {"alpha": "x"}}}, "alpha must be a number, got 'x'"),
    ({"solver_overrides": {"ista": {"tau": "1.5"}}}, "tau must be a number, got '1.5'"),
    ({"noise_levels": 0.1}, "noise_levels must be a list of numbers, got 0.1"),
    ({"noise_levels": ["0.1"]}, "noise_levels must be a number, got '0.1'"),
    ({"solvers": "ista"}, "solvers must be a list of solver names, got 'ista'"),
    ({"solver_overrides": {"lm": {"inner_tol": None}}}, "inner_tol must be a number, got None"),
    ({"noise_levels": [True]}, "noise_levels must be a number, got True"),
    ({"repetitions": True}, "repetitions must be an integer, got True"),
    ({"seed": False}, "seed must be an integer, got False"),
    ({"solver_overrides": {"gd": {"max_iter": True}}}, "max_iter must be an integer, got True"),
    ({"solver_overrides": [("lm", {})]},
     r"solver_overrides must map solvers to dicts of knobs, got \[\('lm', \{\}\)\]"),
    ({"solver_overrides": {"lm": None}},
     r"solver_overrides must map solvers to dicts of knobs, got \{'lm': None\}"),
    ({"noise_levels": []}, "noise_levels must list at least one item"),
    ({"solvers": ["ista", ["lm"]]}, r"unknown solver '\['lm'\]'"),
    ({"noise_levels": [0.1, [0.2]]}, r"noise_levels must be a number, got \[0.2\]"),
    ({"noise_levels": [0.1, 0.1000000001]},
     "0.1 and 0.1000000001, which would write the same files"),
    ({"solver_overrides": {"lm": {"grad_tol": 1e-6}}}, "solver knob 'grad_tol' is not read by lm"),
])
def test_config_built_in_code_checks_every_field(tmp_path, changes, message):
    fields = {"geometry": GEOM, "solvers": ["ista"], "out": str(tmp_path / "out"), **changes}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)
    assert not (tmp_path / "out").exists()


def test_an_array_of_solvers_runs_as_the_list(tmp_path):
    def sweep(solvers, out):
        return run_experiment(ExperimentConfig(GEOM, solvers, [0.1], 1, 0, str(tmp_path / out),
                                               "off"))

    rows = sweep(np.array(["ista", "lm"]), "array")
    assert rows == sweep(["ista", "lm"], "list")
    assert [row.split(",")[0] for row in rows] == ["ista", "lm"]
    assert sorted(p.name for p in (tmp_path / "array").iterdir()) == sorted(
        p.name for p in (tmp_path / "list").iterdir())


SHARED = ExperimentConfig(TomoGeometry(16, 24, 20), ["gd", "lm", "newton"], [0.05, 0.1], 1, 0,
                          "unused", "off")


def test_a_sweep_computes_each_instance_warm_start_once(tmp_path, call_log):
    calls = call_log(solvers, "run_fista")  # only _initial_point calls run_fista
    cells = call_log(experiment, "run_solver")
    rows = run_experiment(dataclasses.replace(SHARED, out=str(tmp_path)))
    assert len(rows) == 6 and not any(",error," in row for row in rows)
    assert len(calls) == 2  # gd's cell on each instance; lm and newton reuse it
    # each cell ends where a single run, which computes its own warm start, ends
    for (name, p, cfg, delta), _, (x, _) in cells:
        single, _ = RUNNERS[name](ProblemData(p.A, p.y_delta, p.alpha), cfg, delta)
        np.testing.assert_array_equal(x, single)
    assert len(calls) == 2 + len(cells)


@pytest.mark.parametrize("knob,shared", [("alpha", False), ("tau", False), ("warm_start", False),
                                         ("inner_tol", True)])  # FISTA does not read inner_tol
def test_a_warm_start_is_shared_only_at_equal_inputs(tmp_path, call_log, knob, shared):
    value = {"alpha": 1e-3, "tau": 1.2, "warm_start": 3, "inner_tol": 1e-3}[knob]
    calls = call_log(solvers, "run_fista")
    cfg = dataclasses.replace(SHARED, out=str(tmp_path), solver_overrides={"lm": {knob: value}})
    rows = run_experiment(cfg)
    assert not any(",error," in row for row in rows)
    assert len(calls) == (1 if shared else 2) * len(SHARED.noise_levels)


def test_only_the_cell_that_computes_a_warm_start_pays_for_it(tmp_path, monkeypatch):
    # a fake clock that moves only inside the warm start's FISTA run
    clock = [0.0]
    fista = solvers.run_fista

    def slow_warm_start(*args, **kwargs):
        clock[0] += 5.0
        return fista(*args, **kwargs)

    monkeypatch.setattr(solvers, "run_fista", slow_warm_start)
    monkeypatch.setattr(experiment, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    cfg = dataclasses.replace(SHARED, noise_levels=[0.1], out=str(tmp_path), timing="wall")
    rows = run_experiment(cfg)
    assert [row.split(",")[4] for row in rows] == ["5", "0", "0"]
    for name, row_zero_wall in (("gd", "5"), ("lm", "0"), ("newton", "0")):
        lines = (tmp_path / f"trace_{name}_0.1_0.csv").read_text().splitlines()
        assert lines[2].split(",")[-1] == row_zero_wall
    # timing = off writes 0 however far the clock moves
    rows = run_experiment(dataclasses.replace(cfg, timing="off"))
    assert [row.split(",")[4] for row in rows] == ["0", "0", "0"]


# Sweeps at seed 0 whose work is pinned: the two benchmark workloads of
# perfbench/workloads.py and the delta -> 0 sweep of test_acceptance.py, where
# LM's and Newton's inner solves grow.  The cells of each sweep share warm
# starts as any sweep does.  The upper bounds are on A and A^T products per
# method (a warm start charged to the cell that computes it), in the power
# method and in set-up (A x_true), and on the CG solves with their iterations.
# Each bound equals the count measured when it was set; a change that lowers a
# count may tighten its bound, and one that raises a count has to edit it here.
PINNED_WORK = {
    "desk-sweep": (
        ExperimentConfig(TomoGeometry(32, 60, 45), list(SOLVER_NAMES), [0.05, 0.1, 0.2], 8, 0,
                         "unused", "off"),
        {"ista": 562, "fista": 410, "gd": 532, "lm": 374, "newton": 270, "power": 28, "setup": 1},
        (55, 243),
    ),
    "lownoise-m64": (
        ExperimentConfig(TomoGeometry(64, 120, 90), list(SOLVER_NAMES), [0.01], 5, 0,
                         "unused", "off"),
        {"ista": 912, "fista": 310, "gd": 453, "lm": 221, "newton": 305, "power": 32,
         "setup": 1},
        (40, 218),
    ),
    "small-noise": (
        ExperimentConfig(TomoGeometry(32, 60, 45), ["lm", "newton"], [1e-2, 1e-3, 1e-4], 2, 0,
                         "unused", "off"),
        {"lm": 598, "newton": 1162, "power": 28, "setup": 1},
        (87, 757),
    ),
}


@pytest.mark.parametrize("workload", PINNED_WORK)
def test_each_pinned_sweep_stays_within_its_work(workload, tmp_path, monkeypatch, call_log):
    config, bounds, (cg_solves, cg_total) = PINNED_WORK[workload]
    products = dict.fromkeys(bounds, 0)
    payers = ["setup"]  # who pays for a product: the innermost charged call

    def charged(payer, fn):
        def call(*args, **kwargs):
            payers.append(payer)
            try:
                return fn(*args, **kwargs)
            finally:
                payers.pop()
        return call

    for name in SOLVER_NAMES:
        monkeypatch.setitem(RUNNERS, name, charged(name, RUNNERS[name]))
    monkeypatch.setattr(SparseMatrix, "norm2_estimate",
                        charged("power", SparseMatrix.norm2_estimate))
    for attr in ("matvec", "transpose_matvec"):
        product = getattr(SparseMatrix, attr)

        def counted(A, v, product=product):
            products[payers[-1]] += 1
            return product(A, v)

        monkeypatch.setattr(SparseMatrix, attr, counted)
    solves = call_log(solvers, "cg_solve")
    rows = run_experiment(dataclasses.replace(config, out=str(tmp_path)))
    cells = len(config.solvers) * len(config.noise_levels) * config.repetitions
    assert len(rows) == cells and not any(",error," in row for row in rows)
    over = {key: (count, bounds[key]) for key, count in products.items() if count > bounds[key]}
    assert not over, f"products over their bounds (count, bound): {over}"
    assert len(solves) <= cg_solves
    assert sum(result.iterations for _, _, result in solves) <= cg_total
