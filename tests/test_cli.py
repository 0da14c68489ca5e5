import os

import numpy as np
import pytest

from bqci import cli
from bqci import stress_update as su

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


def test_validate_initial_rejects_short_time_grid(tmp_path):
    code = cli.main(["validate-initial", "--set", "nt=3"] + _out(tmp_path))
    assert code == 2


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
    assert cli.main(["step", "--set", "mode=surreal"] + _out(tmp_path)) == 2


def test_step_rejects_wrong_ladder_length(tmp_path):
    assert cli.main(["step", "--set", "lams=16,32"] + _out(tmp_path)) == 2


def test_threads_beyond_cpu_count_is_config_error(tmp_path, capsys):
    # rejected before any transform runs, so no worker thread is started
    n = (os.cpu_count() or 1) + 1
    assert cli.main(["validate-initial", "--set", f"threads={n}"]
                    + SMALL + _out(tmp_path)) == 2
    assert f"threads = {n}" in capsys.readouterr().err


def test_outer_rejects_zero_steps(tmp_path):
    assert cli.main(["outer", "--set", "steps=0"] + _out(tmp_path)) == 2


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
