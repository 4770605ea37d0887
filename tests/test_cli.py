"""End-to-end command-line behavior, run in process."""

import pytest

from sparsenewton import cli, parse_config, solvers, tomo
from sparsenewton.cli import main
from sparsenewton.experiment import SUMMARY_HEADER
from sparsenewton.solvers import RUNNERS

CONFIG = """\
[geometry]
m = 12
n_angles = 6
n_beams = 14

[experiment]
solvers = ista, lm
noise_levels = 0.1, 0.3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return path


def test_sweep_seed_changes_noise(tmp_path, config_path, capsys):
    traces = []
    for seed in (0, 1):
        code = main(["sweep", "--config", str(config_path), "--solver", "ista", "--noise", "0.3",
                     "--timing", "off", "--out", str(tmp_path / f"s{seed}"), "--seed", str(seed)])
        assert code == 0
        traces.append((tmp_path / f"s{seed}" / "trace_ista_0.3_0.csv").read_text())
    capsys.readouterr()
    # row 0 is x = 0 for both seeds, so its residual ||y_delta|| shows the noise
    first_rows = [text.splitlines()[2].split(",") for text in traces]
    assert first_rows[0][0] == first_rows[1][0] == "0"
    assert first_rows[0][1] != first_rows[1][1]


def test_solve_single_solver(tmp_path, config_path, capsys):
    out = tmp_path / "solve"
    code = main(["sweep", "--config", str(config_path), "--solver", "ista",
                 "--noise", "0.1", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(lines) == 3
    assert lines[0] == SUMMARY_HEADER
    assert lines[1].startswith("ista,0.1,")
    assert lines[2] == f"results written to {out}"
    assert (out / "summary.csv").exists()


def test_sweep_full_grid(tmp_path, config_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    body = lines[1:-1]
    assert len(body) == 4  # 2 solvers x 2 levels x 1 rep
    assert {row.split(",")[0] for row in body} == {"ista", "lm"}
    assert (out / "summary.csv").exists()


def test_a_newton_only_sweep_computes_its_own_warm_start(tmp_path, call_log, capsys):
    # in the full sweep gd's cell computes each warm start and newton's reuses it
    path = tmp_path / "second_order.cfg"
    path.write_text(CONFIG.replace("ista, lm", "gd, lm, newton"))
    calls = call_log(solvers, "run_fista")
    for run, flags in (("full", []), ("newton", ["--solver", "newton"])):
        calls.clear()
        code = main(["sweep", "--config", str(path), "--timing", "off",
                     "--out", str(tmp_path / run), *flags])
        assert code == 0
        assert len(calls) == 2  # one per noise level
    capsys.readouterr()
    for noise in ("0.1", "0.3"):
        name = f"trace_newton_{noise}_0.csv"
        assert (tmp_path / "newton" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_sweep_with_failing_solver_exits_one(tmp_path, capsys, monkeypatch):
    def broken_newton(*args, **kwargs):
        raise ValueError("newton failed")

    monkeypatch.setitem(RUNNERS, "newton", broken_newton)
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG.replace("ista, lm", "newton, lm"))
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "newton,0.1,0,error,0,nan,nan" in out
    assert "lm,0.1," in out  # the healthy solver still ran


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_exits_two(tmp_path, capsys):
    path, out = tmp_path / "bad.cfg", tmp_path / "out"
    for tail, message in (("pixels = 9\n", "line 9: unknown key 'pixels' in section [experiment]"),
                          ("\n[solver.newton]\nepsilon = 0\n",
                           "line 11: epsilon must be > 0 for newton"),
                          ("\n[solver.fista]\nepsilon = 0.1\n",
                           "line 11: solver knob 'epsilon' is not read by fista"),
                          ("\n[solver.gd]\nomega = 0.1\n",
                           "line 11: solver knob 'omega' is not read by gd")):
        path.write_text(CONFIG + tail)
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()


@pytest.mark.parametrize("command,flags,message", [
    ("sweep", ["--noise", "-0.5"], "noise_levels must be >= 0, got -0.5"),
    ("sweep", ["--noise", "nan"], "noise_levels must be finite, got nan"),
    ("sweep", ["--solver", "ista", "--noise", "inf"], "noise_levels must be finite, got inf"),
    ("sweep", ["--seed", "-3"], "seed must be >= 0, got -3"),
    ("sweep", ["--solver", "bogus"], "unknown solver 'bogus'; available: ista, fista, gd, lm, newton"),
    ("sweep", ["--timing", "never"], "timing must be one of wall, off, got 'never'"),
    ("sweep", ["--seed", "abc"], "seed must be an integer, got 'abc'"),
    ("sweep", ["--noise", "abc"], "noise_levels must be a number, got 'abc'"),
    ("sweep", ["--noise", "1e200"], "noise level 1e+200 overflows: ||y_delta||^2 is infinite"),
    ("sweep", ["--noise", ","], "noise_levels must list at least one item"),
    ("sweep", ["--noise", "0, -0"], "noise_levels must be >= 0, got -0.0"),
])
def test_flags_are_checked_like_the_file(tmp_path, config_path, capsys, command, flags, message):
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_flags_give_the_config_of_the_file_lines_they_stand_for(tmp_path, config_path, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: configs.append(config) or [])
    assert main(["sweep", "--config", str(config_path), "--solver", "lm", "--noise", "0.3",
                 "--timing", "off"]) == 0
    path = tmp_path / "lm.cfg"
    path.write_text(CONFIG.replace("ista, lm", "lm").replace("0.1, 0.3", "0.3") + "timing = off\n")
    assert configs == [parse_config(path)]


def test_list_flags_run_every_value_listed(tmp_path, config_path, capsys):
    code = main(["sweep", "--config", str(config_path), "--solver", "ista,lm",
                 "--noise", "0.3, 0.1", "--out", str(tmp_path / "out")])
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert code == 0
    assert [row.split(",")[:2] for row in rows] == [["ista", "0.3"], ["lm", "0.3"],
                                                    ["ista", "0.1"], ["lm", "0.1"]]


@pytest.mark.parametrize("m,n_angles,n_beams", [
    (32, 1, 1),  # 1,024 pixels: the phantom's limit
    (8, 60, 45),  # 60 * 45 * 17 = 45,900 possible nonzeros: the projector's limit
])
def test_a_problem_over_the_size_limits_is_refused_in_one_line(tmp_path, capsys, monkeypatch,
                                                               m, n_angles, n_beams):
    monkeypatch.setattr(tomo, "MAX_NNZ_BOUND", 1000)  # stands in for the real limit
    path = tmp_path / "big.cfg"
    path.write_text(f"[geometry]\nm = {m}\nn_angles = {n_angles}\nn_beams = {n_beams}\n\n"
                    "[experiment]\nsolvers = fista\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "over the limit" in err[0]
    assert not (tmp_path / "out").exists()


def test_a_geometry_whose_rays_all_miss_the_phantom_is_refused_in_one_line(tmp_path, capsys):
    path = tmp_path / "miss.cfg"
    path.write_text("[geometry]\nm = 4\nn_angles = 2\nn_beams = 2\nspacing = 100\n\n"
                    "[experiment]\nsolvers = ista\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == ["config error: every ray of TomoGeometry(m=4, n_angles=2, n_beams=2, "
                   "spacing=100.0) misses the phantom (A x_true = 0)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_verify_refuses_a_bad_seed_in_one_line(capsys, seed):
    code = main(["verify", "--seed", seed])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("config error: seed must be")


def test_sweep_rejects_a_threads_flag_as_a_usage_error(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(config_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_verify_passes(capsys):
    code = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 10
    assert "FAIL" not in out
