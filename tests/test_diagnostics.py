import csv

import numpy as np
import pytest

from bqci import diagnostics as dg
from bqci import iteration as it
from bqci import stress_update as su
from bqci import torus_field as tf

KAPPA = 0.25


def _small_state(nt=9):
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.75, 4.25, nt)
    e_vals = np.full(nt, 10 * KAPPA)
    return it.initial_state(grid, tgrid, mu=2, kappa=KAPPA, e_vals=e_vals,
                            M=0.05, lam=4)


def test_initial_state_residual_at_roundoff():
    state = _small_state()
    res = dg.system_residual(state)["fine"]
    assert res["momentum_sup"] < 1e-12
    assert res["flux_sup"] < 1e-12
    assert len(res["momentum_slices"]) == state.tgrid.nt


def test_coarse_residual_needs_stores():
    state = _small_state(nt=8)  # nt - 1 odd: no stride-2 companion
    assert dg.system_residual(state)["coarse"] is None
    with pytest.raises(ValueError, match="dt_v_coarse, dt_theta_coarse"):
        dg.richardson_floor(state)


def test_nan_in_a_middle_slice_reaches_the_normalized_residuals():
    # the builtin max over slices keeps a NaN only when it sits in slice 0
    state = _small_state()
    state.dzz_v[2, 0, 1, 1, 1] = np.nan
    res = dg.normalized_residuals(state)
    assert np.isnan(res["momentum_raw"]) and np.isnan(res["momentum"])
    assert np.isfinite(res["flux_raw"])


def test_nan_in_a_middle_slice_fails_the_richardson_check():
    state = _small_state()
    assert dg.richardson_floor(state)["passed"]
    state.dzz_v[2, 0, 1, 1, 1] = np.nan
    check = dg.richardson_floor(state)
    assert not check["passed"]
    assert np.isnan(check["momentum_fine"]) and np.isnan(check["momentum_coarse"])
    assert (check["witness_eq"], check["witness_slice"]) == ("momentum", 2)


def test_full_step_keeps_residual_at_floor(mini_stepped):
    state, _ = mini_stepped
    check = dg.richardson_floor(state)
    assert check["passed"]
    assert check["momentum_ratio"] <= check["tolerance"]
    assert check["flux_ratio"] <= check["tolerance"]
    # the coarse half-resolution stencil must actually see a larger error
    assert check["momentum_coarse"] > check["momentum_fine"]


def test_richardson_witness_names_the_failing_equation():
    # a defect in one flux time-derivative sample fails the flux ratio only;
    # the witness is that equation's worst slice, not the momentum one's
    state = _small_state()
    state.dt_theta[3] += 10.0
    check = dg.richardson_floor(state)
    assert not check["passed"]
    assert check["momentum_ratio"] <= check["tolerance"] < check["flux_ratio"]
    assert check["witness_eq"] == "flux"
    assert check["witness_slice"] == 3
    assert check["witness_t"] == state.tgrid.times()[3]
    assert check["witness_sup"] == check["flux_fine"] >= 10.0 - 1e-12


def test_full_step_cancels_projected_blocks(mini_stepped):
    # substep n cancelled block n (and flux block n while n <= 3, by a chi
    # wave where c_n is nonzero): six stress blocks, three flux blocks,
    # every wave's cancellation residual at roundoff and the closure check
    # after every substep passed
    state, report = mini_stepped
    assert state.completed == 6 and state.failed is None
    assert state.a.shape[1] == 6 and state.c.shape[1] == 3
    subs = report["substeps"]
    assert [r["n"] for r in subs] == list(range(1, 7))
    for r in subs:
        n = r["n"]
        assert (r["chi_sup"] > 0) == (n <= 3 and bool(np.any(state.c[:, n - 1]))), n
        assert max(r["cancel_r1"], r["cancel_r2"]) <= 1e-10 * KAPPA, n
        assert r["residual"]["passed"], n
    assert max(report["cancel_r1"], report["cancel_r2"]) <= 1e-10 * KAPPA


def test_corrupted_transport_breaks_closure(corrupt_transport):
    clean = _small_state()
    it.begin_step(clean, 0.9, 0.9)
    su.run_substep(clean, 1, 4, 0.9, 0.9)
    base = dg.system_residual(clean)["fine"]["momentum_sup"]

    broken = _small_state()
    it.begin_step(broken, 0.9, 0.9)
    corrupt_transport(1.1)
    su.run_substep(broken, 1, 4, 0.9, 0.9)
    bad = dg.system_residual(broken)["fine"]["momentum_sup"]

    assert base < 1e-12
    assert bad > 1e6 * max(base, 1e-14)


def test_lambda_scaling_slopes():
    out = dg.lambda_scaling()
    for name, slope in out["slopes"].items():
        assert -1.2 < slope < -0.8, (name, slope)
    # fold alignment against the grid adds jitter to individual rungs, so
    # only the overall decay is checked pointwise
    for norms in out["norms"].values():
        assert norms[0] > 4 * norms[-1]


def test_mu_scaling_slope():
    out = dg.mu_scaling()
    assert -1.3 < out["slope"] < -0.7
    assert all(a > b for a, b in zip(out["norms"], out["norms"][1:]))


@pytest.mark.parametrize("pair_velocity", [False, True])
def test_probe_gradient_stores_are_the_per_slice_gradients(pair_velocity):
    asm = dg._probe_assembler(16, 2, N=16, pair_velocity=pair_velocity)
    for field, grad in ((asm.v_prev, asm.grad_v_prev),
                        (asm.theta_prev, asm.grad_theta_prev)):
        assert grad.shape == (9, 3) + field.shape[1:]
        for j in range(9):
            want = tf.gradient(field[j], asm.grid)
            assert np.max(np.abs(grad[j] - want)) <= 1e-14 * np.max(np.abs(want))


def test_mollification_scaling_slope():
    out = dg.mollification_scaling()
    assert 0.7 < out["slope"] < 1.3
    assert all(a < b for a, b in zip(out["norms"], out["norms"][1:]))


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    dg.write_csv(path, ["lam", "norm"], [[16, 0.5], [32, 0.25]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lam", "norm"]
    assert [float(x) for x in rows[1]] == [16.0, 0.5]
    assert [float(x) for x in rows[2]] == [32.0, 0.25]
