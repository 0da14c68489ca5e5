import numpy as np
import pytest

from bqci import cli
from bqci import diagnostics as dg
from bqci import iteration as it
from bqci import stress_update as su
from bqci import torus_field as tf

SMALL = ["--set", "nx=16", "--set", "ny=16", "--set", "nz=16",
         "--set", "nt=9", "--set", "lam_init=4", "--set", "mu=2"]


def _out(tmp_path):
    return ["--set", f"out={tmp_path}"]


def test_defaults_complete():
    cfg = cli.load_config()
    assert cfg == cli.DEFAULTS
    assert all(isinstance(v, str) for v in cfg.values())


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nnx = 24\nkappa = 0.5  # inline\n\n")
    cfg = cli.load_config(path, ["nt=17"])
    assert cfg["nx"] == "24"
    assert cfg["kappa"] == "0.5"
    assert cfg["nt"] == "17"
    assert cfg["ny"] == cli.DEFAULTS["ny"]


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, ["frobnicate=1"])
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, ["no_equals_sign"])


def test_missing_config_file_is_config_error():
    assert cli.main(["validate-initial", "/nonexistent/run.cfg"]) == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_validate_initial_passes_on_clean_data(tmp_path):
    code = cli.main(["validate-initial"] + SMALL + _out(tmp_path))
    assert code == 0
    text = (tmp_path / "validate_initial.txt").read_text()
    assert "passed=True" in text
    assert "momentum=" in text and "incompressibility=" in text
    # the start velocity is exactly divergence-free: 0, never -0
    assert "\ndivergence_raw=0\n" in "\n" + text
    assert "\nincompressibility=0\n" in "\n" + text


def test_validate_initial_rejects_short_time_grid(tmp_path):
    code = cli.main(["validate-initial", "--set", "nt=3"] + _out(tmp_path))
    assert code == 2


@pytest.mark.parametrize("command, key, value, message", [
    # an infinite end time leaves an all-zero tuple whose residuals read 0
    ("validate-initial", "t1", "inf", "t1 = 'inf' is not finite"),
    # a NaN amplitude would reach the partition of unity and raise there
    ("step", "M", "nan", "M = 'nan' is not finite"),
    ("step", "ells", "0.9,nan,0.9,0.9,0.9,0.9",
     "ells = '0.9,nan,0.9,0.9,0.9,0.9' is not finite"),
    ("validate-initial", "nx", "7",
     "nx, ny, nz = 7, 16, 16: grid size 7 must be even and >= 8"),
    ("validate-initial", "t1", "0.5", "t0, t1, nt = 0.75, 0.5, 9: empty time interval"),
])
def test_bad_value_is_config_error(tmp_path, capsys, command, key, value, message):
    # SMALL's 16^3 grid with lambda = 16, as the step would run
    args = SMALL + ["--set", "lams=" + ",".join(["16"] * 6), "--set", f"{key}={value}"]
    assert cli.main([command] + args + _out(tmp_path)) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_budget_contract_is_config_error(tmp_path):
    code = cli.main(["validate-initial", "--set", "kappa_bar=0.9"]
                    + SMALL + _out(tmp_path))
    assert code == 2
    code = cli.main(["step", "--set", "kappa_bar=0.9"] + _out(tmp_path))
    assert code == 2


def test_asymptotic_step_is_report_only(tmp_path, capsys):
    code = cli.main(["step", "--set", "mode=asymptotic",
                     "--set", "kappa=0.01", "--set", "kappa_bar=0.001",
                     "--set", "L_v=10", "--set", "D_v=100"] + _out(tmp_path))
    assert code == 0
    text = (tmp_path / "step.txt").read_text()
    assert "fields_built=False" in text
    assert "mu=1000" in text
    assert "representable=False" in text
    assert "lams=100010000000," in text


def test_unknown_mode_is_config_error(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["step", "--set", "mode=surreal", "--set", f"out={out}"]) == 2
    assert not out.exists()  # refused before the output directory is made


def test_step_rejects_wrong_ladder_length(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["step", "--set", "lams=16,32", "--set", f"out={out}"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["threads", "schedule_a"])
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    # outer takes its first budget from kappa; transforms run on one worker
    assert cli.main(["outer", "--set", f"{key}=2"] + SMALL + _out(tmp_path)) == 2
    assert f"config error: --set: unknown key {key!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_outer_rejects_zero_steps(tmp_path):
    assert cli.main(["outer", "--set", "steps=0"] + _out(tmp_path)) == 2


@pytest.mark.parametrize("cmd", ["step", "outer"])
def test_bad_grid_leaves_no_output_directory(tmp_path, cmd):
    out = tmp_path / "out"
    assert cli.main([cmd, "--set", "nx=0", "--set", f"out={out}"]) == 2
    assert not out.exists()


def test_outer_rejects_asymptotic_mode(tmp_path):
    assert cli.main(["outer", "--set", "mode=asymptotic"] + _out(tmp_path)) == 2


def test_outer_one_step_passes(tmp_path):
    code = cli.main(["outer", "--set", "steps=1", "--set", "nx=24",
                     "--set", "ny=24", "--set", "nz=24", "--set", "nt=9",
                     "--set", "mu=2", "--set", "lam_init=4",
                     "--set", "ells=" + ",".join(["0.9"] * 6),
                     "--set", "ellzs=" + ",".join(["0.9"] * 6)]
                    + _out(tmp_path))
    assert code == 0
    text = (tmp_path / "outer.txt").read_text()
    assert "passed=True" in text
    assert "steps[0].v_increment_sup=" in text
    # the chain's growth report: report fields only, the exit code stays 0
    for key in ("R_growth", "e_over_kappa", "contracting"):
        assert f"steps[0].{key}=" in text, key


# SMALL's ladder on which both outer steps close (test_second_outer_step_closes)
CLOSING = ["--set", "lams=" + ",".join(str(8 * 2 ** n) for n in range(6)),
           "--set", "ells=" + ",".join(["0.6"] * 6),
           "--set", "ellzs=" + ",".join(["0.6"] * 6)]


def test_outer_starts_from_kappa(tmp_path):
    # kappa was overwritten by 1 / schedule_a = 0.25; snapshots was ignored
    code = cli.main(["outer", "--set", "kappa=0.1", "--set", "steps=1",
                     "--set", "snapshots=1"] + CLOSING + SMALL + _out(tmp_path))
    assert code == 0
    text = (tmp_path / "outer.txt").read_text().splitlines()
    assert "kappas=0.1" in text
    assert "steps[0].kappa=0.1" in text
    for name, rank, ncomp in (("velocity.bci", 1, 3), ("temperature.bci", 0, 1)):
        arr, got_rank, grid, tgrid = tf.read_snapshot(tmp_path / name)
        assert got_rank == rank and arr.shape == (9, ncomp, 16, 16, 16)
        assert (grid.shape, tgrid.nt) == ((16, 16, 16), 9)
        assert np.all(np.isfinite(arr)) and np.any(arr)


def test_failed_substep_check_fails_the_step(tmp_path, monkeypatch):
    # the driver checks closure after every substep: a failure at substep 3
    # is named, the step goes on, and the CLI exits 1 with the report written
    clean = dg.richardson_floor

    def third_fails(state, tolerance=5.0):
        check = clean(state, tolerance)
        return {**check, "passed": False} if state.completed == 3 else check
    monkeypatch.setattr(dg, "richardson_floor", third_fails)
    grid, tgrid = tf.Grid3(16, 16, 16), tf.TimeGrid(0.75, 4.25, 9)
    state = it.initial_state(grid, tgrid, mu=2, kappa=0.25, e_vals=np.full(9, 2.5),
                             M=0.05, lam=4)
    rep = it.run_step(state, [8 * 2 ** n for n in range(6)], [0.6] * 6, [0.6] * 6)
    assert rep["failed_substeps"] == [3] and rep["passed"] is False
    assert [r["residual"]["passed"] for r in rep["substeps"]] == [True] * 2 + [False] + [True] * 3
    assert state.completed == 6
    assert cli.main(["step"] + CLOSING + SMALL + _out(tmp_path)) == 1
    text = (tmp_path / "step.txt").read_text().splitlines()
    assert "failed_substeps=3" in text and "passed=False" in text


def test_step_non_finite_update_is_runtime_error(tmp_path, monkeypatch, capsys):
    clean = su.SubstepAssembler.N_field

    def poisoned(self, j):
        field, div = clean(self, j)
        return field * np.nan, div
    monkeypatch.setattr(su.SubstepAssembler, "N_field", poisoned)
    ells = ",".join(["0.9"] * 6)
    assert cli.main(["step", "--set", f"ells={ells}", "--set", f"ellzs={ells}"]
                    + SMALL + _out(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "substep 1: delta_R is not finite at slice 0 (t = 0.7500)" in err


def test_step_partial_update_is_runtime_error(tmp_path, monkeypatch, capsys):
    # a slice refused after earlier slices were accumulated leaves a failed
    # state: exit 1, the message says so, and no report is written
    clean = su.SubstepAssembler.N_field

    def poisoned(self, j):
        field, div = clean(self, j)
        return (field * np.nan if j == 3 else field), div
    monkeypatch.setattr(su.SubstepAssembler, "N_field", poisoned)
    ells = ",".join(["0.9"] * 6)
    assert cli.main(["step", "--set", f"ells={ells}", "--set", f"ellzs={ells}"]
                    + SMALL + _out(tmp_path)) == 1
    err = capsys.readouterr().err
    assert ("runtime error: substep 1: delta_R is not finite at slice 3 (t = 2.0625); "
            "the state holds a partial update and is marked failed") in err
    assert not (tmp_path / "step.txt").exists()


def test_scaling_rejects_unknown_quantity(tmp_path):
    assert cli.main(["scaling", "--set", "quantity=banana"]
                    + _out(tmp_path)) == 2


def test_scaling_rejects_two_point_sweep(tmp_path):
    assert cli.main(["scaling", "--set", "quantity=mu",
                     "--set", "sweep=2,4"] + _out(tmp_path)) == 2


def test_scaling_mollification_writes_csv(tmp_path):
    code = cli.main(["scaling", "--set", "quantity=mollification",
                     "--set", "sweep=0.15,0.3,0.6"] + _out(tmp_path))
    assert code == 0
    rows = (tmp_path / "scaling_mollification.csv").read_text().splitlines()
    assert rows[0] == "ell,norm"
    assert len(rows) == 4
    norms = [float(r.split(",")[1]) for r in rows[1:]]
    assert norms[0] < norms[1] < norms[2]
    assert "passed=True" in (tmp_path / "scaling.txt").read_text()


@pytest.mark.parametrize("command", ["validate-initial", "step", "outer"])
@pytest.mark.parametrize("t0, t1, shown", [
    ("5", "6", "t0, t1, nt = 5.0, 6.0, 9"),
    ("0.75", "1e300", "t0, t1, nt = 0.75, 1e+300, 9"),
])
def test_window_outside_time_cutoff_is_config_error(tmp_path, capsys, command,
                                                     t0, t1, shown):
    # the starting tuple is zero at every sample: validate-initial would
    # pass vacuously on momentum=0, flux=0
    args = SMALL + ["--set", f"t0={t0}", "--set", f"t1={t1}"]
    assert cli.main([command] + args + _out(tmp_path)) == 2
    err = capsys.readouterr().err
    assert (f"config error: {shown}: the time cutoff (support (1, 4)) is zero "
            "at every sample") in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("quantity, sweep, message", [
    ("lambda", "16.5,32,64", "sweep value 16.5 is not an integer lambda"),
    ("lambda", "0,32,64", "sweep value 0 is not positive"),
    ("lambda", "16,32,16", "sweep value 16 repeats"),
    ("lambda", "15,32,64", "sweep value 15 is not a multiple of the lambda study's mu = 2"),
    ("mu", "3,4,8", "sweep value 3 does not divide the mu study's lambda = 128"),
    ("mu", "2,4,-8", "sweep value -8 is not positive"),
    ("mollification", "0.15,0.3,0.15", "sweep value 0.15 repeats"),
    ("mollification", "0.15,0,0.6", "sweep value 0 is not positive"),
    ("all", "16,32,64", "sweep needs one quantity (lambda, mu or mollification)"),
])
def test_scaling_sweep_is_checked_before_any_probe(tmp_path, capsys, monkeypatch,
                                                   quantity, sweep, message):
    def no_probe(*args, **kwargs):
        raise AssertionError("a probe ran on a refused sweep")
    for name in ("lambda_scaling", "mu_scaling", "mollification_scaling"):
        monkeypatch.setattr(cli.dg, name, no_probe)
    args = ["--set", f"quantity={quantity}", "--set", f"sweep={sweep}"]
    assert cli.main(["scaling"] + args + _out(tmp_path)) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, key, value, message", [
    # kappa is the first budget; a negative one reached the wave engine's
    # radicand check, and budgets from kappa >= 1 do not shrink
    ("outer", "kappa", "0", "kappa = 0 must be > 0"),
    ("outer", "kappa", "-4", "kappa = -4 must be > 0"),
    ("outer", "kappa", "1", "kappa = 1 must be < 1 for outer"),
    ("outer", "schedule_b", "1", "schedule_b = 1 must be > 1"),
    ("outer", "schedule_b", "0.5", "schedule_b = 0.5 must be > 1"),
    # kappa^(3/2) of a negative kappa is complex
    ("validate-initial", "kappa", "-0.25", "kappa = -0.25 must be > 0"),
    ("validate-initial", "kappa_bar", "0", "kappa_bar = 0 must be > 0"),
    ("validate-initial", "kappa", "0", "kappa = 0 must be > 0"),
    ("step", "kappa", "0", "kappa = 0 must be > 0"),
    # the wave engine refused mu only after the first mollification
    ("step", "mu", "0", "mu = 0 is not a positive integer"),
    ("step", "mu", "-2", "mu = -2 is not a positive integer"),
    ("step", "mu", "3", "mu = 3 does not divide the lams value 16"),
    ("outer", "mu", "5", "mu = 5 does not divide the lams value 16"),
    ("step", "lams", "16,16,-16,16,16,16", "lams value -16 is not a positive integer"),
    # read only after the six substeps, and snapshots after step.txt was written
    ("step", "residual_tolerance", "abc", "residual_tolerance = 'abc' is not a number"),
    ("outer", "residual_tolerance", "0", "residual_tolerance = 0 must be > 0"),
    ("step", "snapshots", "x", "snapshots = 'x' is not an integer"),
    ("validate-initial", "tolerance", "0", "tolerance = 0 must be > 0"),
    # a non-positive energy level failed only after the state was built, as
    # the runtime error "e - a = ... < kappa/2"
    ("step", "energy_level", "-1", "energy_level = -1 must be > 0"),
    ("outer", "energy_level", "0", "energy_level = 0 must be > 0"),
    # a nonpositive mollification scale skipped every mollify pass and the
    # step passed; snapshots=7 or -1 was taken as "on"
    ("step", "ells", "-0.3,0.3,0.3,0.3,0.3,0.3", "ells value -0.3 is not positive"),
    ("outer", "ellzs", "0.3,0.3,0,0.3,0.3,0.3", "ellzs value 0 is not positive"),
    ("step", "snapshots", "7", "snapshots = 7 must be 0 or 1"),
    ("outer", "snapshots", "-1", "snapshots = -1 must be 0 or 1"),
])
def test_bad_budget_or_cell_scale_is_refused_before_any_state(
        tmp_path, capsys, monkeypatch, command, key, value, message):
    def no_state(*args, **kwargs):
        raise AssertionError("a state was built from a refused config")
    monkeypatch.setattr(cli.it, "initial_state", no_state)
    args = SMALL + ["--set", "lams=" + ",".join(["16"] * 6), "--set", f"{key}={value}"]
    assert cli.main([command] + args + _out(tmp_path)) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["0", "-0.01"])
def test_asymptotic_step_refuses_non_positive_kappa_bar(tmp_path, capsys, value):
    # choose_params divides by kappa_bar: a ZeroDivisionError or, through a
    # complex power, a TypeError traceback
    args = ["--set", "mode=asymptotic", "--set", f"kappa_bar={value}"]
    assert cli.main(["step"] + args + _out(tmp_path)) == 2
    assert f"config error: kappa_bar = {float(value):g} must be > 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _no_state(*args, **kwargs):
    raise AssertionError("a state was built from a refused config")


@pytest.mark.parametrize("key, value", [("L_v", "0"), ("D_v", "0"), ("Lam", "0"),
                                        ("Lam_bar", "0"), ("eps", "-5")])
def test_asymptotic_step_refuses_non_positive_constants(tmp_path, capsys, key, value):
    # choose_params divides by L_v, Lam and Lam_bar; every constant must be
    # positive, and the refusal names its key without a traceback
    args = ["--set", "mode=asymptotic", "--set", f"{key}={value}"]
    assert cli.main(["step"] + args + _out(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"config error: {key} = {float(value):g} must be > 0" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value", [("Lam", "1e300"), ("eps", "1e6")])
def test_asymptotic_step_refuses_constants_that_overflow(tmp_path, capsys, key, value):
    # choose_params raised OverflowError on Lam ** (1 + eps) and
    # lams[-1] ** (1 + eps): a traceback instead of a configuration error
    args = ["--set", "mode=asymptotic", "--set", f"{key}={value}"]
    assert cli.main(["step"] + args + _out(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"{key} = {float(value):g}" in err and "leave the float range" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["validate-initial", "step", "outer", "scaling"])
@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_is_refused_before_any_state(tmp_path, capsys, monkeypatch,
                                                       command, below):
    # an out that is, or lies below, a file is refused before any state is
    # built, and nothing is created or overwritten
    monkeypatch.setattr(cli.it, "initial_state", _no_state)
    path = tmp_path / "report.txt"
    path.write_text("kept\n")
    out = path / "sub" if below else path
    args = SMALL + ["--set", "lams=" + ",".join(["16"] * 6), "--set", f"out={out}"]
    assert cli.main([command] + args) == 2
    assert f"config error: out = {str(out)!r}: {path} is a file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["step", "outer"])
def test_time_grid_without_richardson_companion_is_refused(tmp_path, capsys,
                                                           monkeypatch, command):
    # nt = 8 has no halved grid: the step ran in full, then failed with a
    # runtime error on the missing coarse stores and left `out` behind
    monkeypatch.setattr(cli.it, "initial_state", _no_state)
    out = tmp_path / "out"
    args = SMALL + ["--set", "nt=8", "--set", "lams=" + ",".join(["16"] * 6)]
    assert cli.main([command] + args + ["--set", f"out={out}"]) == 2
    assert "config error: nt = 8 has no stride-2 time grid" in capsys.readouterr().err
    assert not out.exists()


def test_validate_initial_accepts_time_grid_without_companion(tmp_path):
    assert cli.main(["validate-initial"] + SMALL + ["--set", "nt=8"] + _out(tmp_path)) == 0


@pytest.mark.parametrize("command", ["validate-initial", "step", "outer"])
@pytest.mark.parametrize("value", ["8", "0"])
def test_lam_init_the_grid_cannot_carry_is_refused(tmp_path, capsys, monkeypatch,
                                                   command, value):
    # on 16^3, lam_init = 8 read momentum=1, passed=False (exit 1) and
    # lam_init = 0 wrote momentum=nan into the report
    monkeypatch.setattr(cli.it, "initial_state", _no_state)
    args = SMALL + ["--set", f"lam_init={value}", "--set", "lams=" + ",".join(["16"] * 6)]
    assert cli.main([command] + args + _out(tmp_path)) == 2
    assert (f"config error: lam_init = {value} must be a positive integer below "
            "min(ny, nz)/2 = 8") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
