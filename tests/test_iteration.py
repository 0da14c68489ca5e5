"""Parameter selection, profiles, initial data and the step driver."""

import dataclasses

import numpy as np
import pytest

from bqci import iteration as it
from bqci import stress_update as su
from bqci import torus_field as tf
from oracles import (divergence_3d, gradient_3d, initial_stores_per_sample, low_pass,
                     reconstruct_sym, second_derivative_3d)

KAPPA = 0.25


def make_state(n=16, nt=9, lam=4, mu=2, analytic=False):
    grid = tf.Grid3(n, n, n)
    tgrid = tf.TimeGrid(0.75, 4.25, nt)
    e_vals = it.energy_profile(tgrid.times(), (0.75, 4.25), (0.75, 4.25),
                               10 * KAPPA)
    return it.initial_state(grid, tgrid, mu=mu, kappa=KAPPA, e_vals=e_vals,
                            M=0.05, lam=lam, analytic=analytic)


# ---------------------------------------------------------------------------
# profiles

def test_smoothstep_endpoints_and_monotone():
    u = np.linspace(0.0, 1.0, 201)
    s = it.smoothstep(u)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) >= 0)
    assert it.smoothstep(0.5) == pytest.approx(0.5)
    assert isinstance(it.smoothstep(0.3), float)


def test_smoothstep_derivative_matches_difference_quotient():
    u = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (it.smoothstep(u + h) - it.smoothstep(u - h)) / (2 * h)
    assert np.allclose(it.smoothstep_derivative(u), fd, rtol=1e-7, atol=1e-7)


def test_time_cutoff_support_and_core():
    t = np.array([0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 4.5])
    chi = it.time_cutoff(t)
    assert chi[0] == 0.0 and chi[1] == 0.0
    assert chi[2] == 1.0 and chi[3] == 1.0 and chi[4] == 1.0
    assert chi[5] == 0.0 and chi[6] == 0.0
    ramp = it.time_cutoff(np.array([1.5, 3.5]))
    assert np.all((ramp > 0) & (ramp < 1))


def test_time_cutoff_derivative_matches_difference_quotient():
    t = np.linspace(1.05, 3.95, 40)
    h = 1e-6
    fd = (it.time_cutoff(t + h) - it.time_cutoff(t - h)) / (2 * h)
    assert np.allclose(it.time_cutoff_derivative(t), fd, rtol=1e-6, atol=1e-7)


def test_energy_profile_degenerate_plateau_is_constant():
    t = np.linspace(0.0, 5.0, 33)
    e = it.energy_profile(t, (0.75, 4.25), (0.75, 4.25), 2.5)
    assert np.allclose(e, 2.5)


def test_energy_profile_ramps_to_level():
    t = np.linspace(0.0, 5.0, 101)
    e = it.energy_profile(t, (1.0, 4.0), (2.0, 3.0), 3.0)
    assert np.max(e) == pytest.approx(3.0)
    assert np.allclose(e[(t >= 2.0) & (t <= 3.0)], 3.0)
    assert np.all(e >= 0)


# ---------------------------------------------------------------------------
# parameter selection

def test_choose_params_worked_example():
    ps = it.choose_params(L_v=10, kappa=1e-2, kappa_bar=1e-3,
                          Lam=1, Lam_bar=1, D_v=100)
    assert ps.mu == 1000
    assert ps.ells[0] == pytest.approx(1e-4)
    assert ps.lams[0] == 100010000000
    assert ps.lams[0] % ps.mu == 0
    assert all(b > a for a, b in zip(ps.lams, ps.lams[1:]))
    assert all(b < a for a, b in zip(ps.ells, ps.ells[1:]))
    assert all(x > 0 for x in ps.ells + ps.ellzs)


def test_choose_params_budget_contract():
    with pytest.raises(it.ContractError):
        it.choose_params(L_v=10, kappa=1e-2, kappa_bar=2e-3,
                         Lam=1, Lam_bar=1, D_v=100)


def test_desk_params_records_violations():
    ps = it.desk_params(mu=4, lams=[16, 32, 64, 128, 256, 512],
                        ells=[0.3] * 6, ellzs=[0.3] * 6, kappa=0.25)
    assert ps.mode == "desk"
    assert len(ps.violations) > 0
    ok = it.choose_params(L_v=10, kappa=1e-2, kappa_bar=1e-3,
                          Lam=1, Lam_bar=1, D_v=100)
    assert ok.violations == []


# ---------------------------------------------------------------------------
# initial data

def test_initial_data_shapes_and_structure():
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    data = it.initial_data(grid, tgrid, M=0.05, lam=4)
    assert data["v"].shape == (9, 3) + grid.shape
    assert np.allclose(data["v"][:, 1:], 0.0)
    assert np.allclose(data["theta"], data["v"][:, 0])
    # stress carries only xy, yz, zz entries; flux only the y component
    for idx in (0, 2, 3):
        assert np.allclose(data["R0"][:, idx], 0.0)
    assert np.any(data["R0"][:, 1]) and np.any(data["R0"][:, 4])
    assert np.allclose(data["f0"][:, 0], 0.0)
    assert np.allclose(data["f0"][:, 2], 0.0)
    assert np.any(data["f0"][:, 1])


def test_initial_data_analytic_cutoff_converges_to_stencil():
    grid = tf.Grid3(16, 16, 16)
    diffs = []
    for nt in (33, 65):
        tgrid = tf.TimeGrid(0.75, 4.25, nt)
        fd = it.initial_data(grid, tgrid, M=0.05, lam=4)
        an = it.initial_data(grid, tgrid, M=0.05, lam=4, analytic=True)
        diffs.append(tf.sup_norm(fd["R0"] - an["R0"]))
    # 4th-order stencil; the cutoff's large high derivatives keep the
    # observed order a bit below the asymptotic 16x per halving
    assert diffs[0] > 0
    assert 4.0 < diffs[0] / diffs[1] < 32.0


def test_initial_state_stores_are_consistent():
    st = make_state()
    j = 4
    # gradient store matches a direct spectral gradient of the velocity
    g = np.stack([tf.gradient(st.v[j, a], st.grid) for a in range(3)], axis=1)
    assert np.allclose(st.grad_v[j], g, atol=1e-12)
    assert np.allclose(st.dzz_theta[j],
                       tf.derivative(tf.derivative(st.theta[j], "z", st.grid),
                                     "z", st.grid), atol=1e-12)
    assert st.completed == 0
    assert st.dt_v_coarse is not None
    assert st.dt_v_coarse.shape[0] == 5


def test_initial_state_stores_equal_per_slice_operators():
    # the separable build (each operator once per profile, d_t on the time
    # factors) against the per-sample operators on the tuple's fields: the
    # tuple itself bit for bit, every derivative store to roundoff
    for analytic in (False, True):
        st = make_state(n=24, analytic=analytic)
        data = it.initial_data(st.grid, st.tgrid, M=0.05, lam=4, analytic=analytic)
        for name, key in (("v", "v"), ("theta", "theta"), ("R", "R0"), ("f", "f0")):
            assert np.array_equal(getattr(st, name), data[key]), name
        # the pressure: its time factor and the gradient of its profile, whose
        # product is the per-sample gradient to roundoff
        [(B, P)] = data["terms"]["p"]
        assert np.array_equal(st.p_factor, B)
        assert np.array_equal(st.grad_p_profile, tf.gradient(P, st.grid))
        for j in range(st.tgrid.nt):
            ref = tf.gradient(B[j] * P, st.grid)
            got = st.p_factor[j] * st.grad_p_profile
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), j
        want = initial_stores_per_sample(data, st.grid, st.tgrid)
        assert len(want) == 10
        for name, ref in want.items():
            got = getattr(st, name)
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def test_initial_state_stores_match_3d_transforms():
    # the per-axis transform path against whole 3-D transforms, store by store
    st = make_state(n=12)
    refs = {"grad_v": lambda j: gradient_3d(st.v[j], st.grid),
            "dzz_v": lambda j: second_derivative_3d(st.v[j], "z", st.grid),
            "grad_theta": lambda j: gradient_3d(st.theta[j], st.grid),
            "dzz_theta": lambda j: second_derivative_3d(st.theta[j], "z", st.grid),
            "div_R_store": lambda j: divergence_3d(st.R[j], st.grid),
            "div_f_store": lambda j: divergence_3d(st.f[j], st.grid)}
    for name, ref in refs.items():
        want = np.stack([ref(j) for j in range(st.tgrid.nt)])
        got = getattr(st, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_initial_state_without_coarse_companion():
    st = make_state(nt=8)  # nt - 1 odd: the time grid does not halve
    assert st.dt_v_coarse is None and st.dt_theta_coarse is None


def test_structured_fields_before_any_substep():
    # begin_step fills the block coefficients and leaves the carried stores
    # as the tuple gave them; stress_update.block hands substep i + 1 the block
    # a_i k_i (x) k_i (c_i k_i) and its divergence, (k_i . grad a_i) k_i
    # (k_i . grad c_i), to the bits of tf.divergence
    st = make_state()
    stores = ("R", "f", "div_R_store", "div_f_store")
    before = {name: getattr(st, name).copy() for name in stores}
    it.begin_step(st, 0.9, 0.9)
    assert st.completed == 0 and st.failed is None
    for name in stores:
        assert np.array_equal(getattr(st, name), before[name]), name
    j = 2
    for kind, blk in su.BLOCKS.items():
        coef = getattr(st, blk.coef)
        assert np.any(coef[j]), kind
        for i in range(len(blk.basis)):
            field, div = su.block(kind, coef[j, i], i, st.grid)
            k = su._KVECS[i].reshape(3, 1, 1, 1)
            assert np.array_equal(field, coef[j, i] * blk.basis[i].reshape(-1, 1, 1, 1))
            want = tf.divergence(coef[j, i] * k, st.grid)
            assert np.array_equal(div, want * k if blk.rank == 2 else want), (kind, i)
            packed = tf.divergence(field, st.grid)
            assert np.max(np.abs(div - packed)) <= 1e-13 * max(np.max(np.abs(packed)), 1e-30)


# ---------------------------------------------------------------------------
# step driver

def test_begin_step_reconstructs_filtered_stress():
    st = make_state()
    it.begin_step(st, 0.9, 0.9)
    rec = np.stack([
        tf.sym_pack(reconstruct_sym(st.a[j]))
        for j in range(st.tgrid.nt)
    ])
    band = min(st.grid.shape) // 4
    target = low_pass(
        tf.mollify(st.R, st.tgrid, st.grid, 0.9, 0.9), st.grid, band)
    assert np.allclose(rec, target, atol=1e-10)


def test_begin_step_rejects_started_state():
    st = make_state()
    rep = it.begin_step(st, 0.9, 0.9)
    assert "a_sup" in rep and "violations" in rep
    st.completed = 3
    with pytest.raises(ValueError):
        it.begin_step(st, 0.9, 0.9)


def test_begin_step_refuses_failed_state():
    st = make_state()
    st.failed = "substep 1: delta_R is not finite at slice 3 (t = 2.0625)"
    with pytest.raises(ValueError, match=r"begin_step on a failed state \(substep 1"):
        it.begin_step(st, 0.9, 0.9)


def test_begin_step_names_non_finite_coefficients():
    # sup > bound is False for NaN: the check must not let it through
    st = make_state()
    st.R[3, 1, 2, 5, 7] = np.nan
    rep = it.begin_step(st, 0.9, 0.9)
    assert np.isnan(rep["a_sup"]) and np.isfinite(rep["c_sup"])
    assert len(rep["violations"]) == 1
    assert rep["violations"][0].startswith("block coefficients nan exceed 5 kappa")


def test_run_step_requires_six_substep_plans():
    st = make_state()
    with pytest.raises(ValueError):
        it.run_step(st, lams=[8] * 5, ells=[0.9] * 5, ellzs=[0.9] * 5)
    assert st.completed == 0 and not np.any(st.a)


def test_advance_step_requires_completed_step():
    st = make_state()
    with pytest.raises(ValueError):
        it.advance_step(st, 0.125, st.e_vals)


def test_advance_step_rolls_updates_forward():
    st = make_state()
    it.begin_step(st, 0.9, 0.9)
    st.completed = 6
    nxt = it.advance_step(st, 0.125, 0.5 * st.e_vals)
    assert nxt.completed == 0 and nxt.failed is None
    assert nxt.kappa == 0.125
    assert np.array_equal(nxt.e_vals, 0.5 * st.e_vals)
    # every other store continues in place: the finished step's stress /
    # flux is the next step's carried stress / flux
    stores = [fld.name for fld in dataclasses.fields(st)
              if isinstance(getattr(st, fld.name), np.ndarray)]
    assert {"R", "f", "div_R_store", "div_f_store", "dt_v_coarse"} <= set(stores)
    for name in set(stores) - {"e_vals", "a", "c"}:
        assert getattr(nxt, name) is getattr(st, name), name
    # the block coefficients are fresh zeros
    for name in ("a", "c"):
        new = getattr(nxt, name)
        assert new.shape == getattr(st, name).shape and not np.any(new), name
        assert not np.shares_memory(new, getattr(st, name)), name
    # the state is compared and hashed by identity
    assert nxt != st and len({nxt, st}) == 2


def test_run_outer_rejects_zero_steps():
    st = make_state()
    with pytest.raises(ValueError, match="steps = 0 must be >= 1"):
        it.run_outer(st, [16] * 6, [0.9] * 6, [0.9] * 6, steps=0)
    assert st.completed == 0 and not np.any(st.a)


def test_second_outer_step_closes():
    # from the second step on, the carried stress is the previous update,
    # whose fast content is aliased on the grid: the first substep's
    # mollification residual must take its divergence from the exact stores
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    st = it.initial_state(grid, tgrid, mu=2, kappa=KAPPA,
                          e_vals=np.full(9, 10 * KAPPA), M=0.05, lam=4)
    _, outer = it.run_outer(st, [8 * 2 ** i for i in range(6)], [0.6] * 6,
                            [0.6] * 6, steps=2)
    for rep in outer["steps"]:
        res = rep["substeps"][-1]["residual"]
        assert res["passed"], res
        assert max(res["momentum_ratio"], res["flux_ratio"]) < 1e-6
    assert outer["passed"]


def test_outer_chain_reports_its_growth():
    # the 16^3 x 9 chain of test_second_outer_step_closes, three steps: every
    # check passes while sup R grows each step, and the report says so
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    st = it.initial_state(grid, tgrid, mu=2, kappa=KAPPA,
                          e_vals=np.full(9, 10 * KAPPA), M=0.05, lam=4)
    carried = tf.sup_norm(st.R)
    _, outer = it.run_outer(st, [8 * 2 ** i for i in range(6)], [0.6] * 6,
                            [0.6] * 6, steps=3)
    assert outer["passed"]
    first, *later = outer["steps"]
    # step 1 compares bit for bit: sup R grows from the start tuple's 0.31
    # to 16.9, with e at 10 kappa
    assert first["R_growth"] == first["delta_R_sup"] / carried
    assert first["R_growth"] == pytest.approx(54.56086443321041, rel=1e-9)
    assert first["e_over_kappa"] == 10.0
    assert first["contracting"] is False
    # later steps amplify roundoff (ROADMAP item 3): pinned loosely
    for rep in later:
        assert rep["contracting"] is False and rep["R_growth"] > 10
        assert rep["e_over_kappa"] > 10


def test_mini_step_report(mini_stepped):
    st, rep = mini_stepped
    assert st.completed == 6
    assert len(rep["substeps"]) == 6
    assert rep["sup_b"] > 0 and rep["M_rec"] > 0
    assert rep["cancel_r1"] <= 1e-10 * KAPPA
    assert rep["cancel_r2"] <= 1e-10 * KAPPA
    assert rep["delta_R_sup"] > 0 and rep["delta_f_sup"] > 0
    # the initial flux loads only the second block, so only substep 2
    # carries a temperature wave; substeps 4-6 never do
    assert rep["substeps"][1]["chi_sup"] > 0
    assert all(r["chi_sup"] == 0 for r in rep["substeps"][3:])
    # every substep ends with its closure check, and all six pass
    assert all(r["residual"]["passed"] for r in rep["substeps"])
    assert rep["failed_substeps"] == [] and rep["passed"] is True
    assert rep["v_increment_sup"] > 0 and "a_sup" in rep["blocks"]


# ---------------------------------------------------------------------------
# reports

def test_format_report_flattens_nested_structures():
    rep = {"b": 1.0, "a": {"x": 2.5}, "subs": [{"n": 1}, {"n": 2}],
           "tag": "desk", "flags": ["one", "two"]}
    lines = it.format_report(rep)
    assert "a.x=2.5" in lines
    assert "b=1" in lines
    assert "subs[0].n=1" in lines and "subs[1].n=2" in lines
    assert "tag=desk" in lines
    assert lines == sorted(lines)


def test_write_report_round_trip(tmp_path):
    path = tmp_path / "report.txt"
    it.write_report(path, {"alpha": 0.5, "nested": {"k": 3}})
    text = path.read_text()
    assert "alpha=0.5" in text
    assert "nested.k=3" in text
