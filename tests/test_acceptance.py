"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single pass/fail
line (visible with -s or in the captured output).  The expensive shared
runs -- the full 48^3 x 33 six-substep update and the scaling study -- are
module-scope fixtures so every criterion reads from the same construction.
"""

import time

import numpy as np
import pytest

from bqci import algebra
from bqci import diagnostics as dg
from bqci import inverse_div as idv
from bqci import iteration as it
from bqci import partition as pt
from bqci import stress_update as su
from bqci import torus_field as tf
from oracles import low_pass, mean_t3, reconstruct_sym, reconstruct_vec

DESK_KAPPA = 0.25


def _line(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def desk_chain():
    """One full six-substep update at 48^3 x 33 with per-substep residual
    checks, temperature-mean and divergence traces."""
    grid = tf.Grid3(48, 48, 48)
    tgrid = tf.TimeGrid(0.75, 4.25, 33)
    e_vals = np.full(33, 10 * DESK_KAPPA)
    t0 = time.perf_counter()
    state = it.initial_state(grid, tgrid, mu=4, kappa=DESK_KAPPA,
                             e_vals=e_vals, M=0.05, lam=8)
    it.begin_step(state, 0.3, 0.3)
    theta_prev = state.theta.copy()
    reports, checks, theta_means, div_rels = [], [], [], []
    for n in range(1, 7):
        reports.append(su.run_substep(state, n, 16 * 2 ** (n - 1), 0.3, 0.3))
        checks.append(dg.richardson_floor(state))
        dth = state.theta - theta_prev
        theta_means.append(max(abs(float(mean_t3(dth[j])))
                               for j in range(tgrid.nt)))
        theta_prev = state.theta.copy()
        div = max(tf.sup_norm(sum(state.grad_v[j, b, b] for b in range(3)))
                  for j in range(tgrid.nt))
        div_rels.append(div / tf.sup_norm(state.grad_v))
    wall = time.perf_counter() - t0
    sup_b = max(r["sup_b"] for r in reports)
    return {
        "state": state, "reports": reports, "checks": checks,
        "theta_means": theta_means, "div_rels": div_rels, "wall": wall,
        "M_rec": 300.0 * sup_b / np.sqrt(DESK_KAPPA),
    }


@pytest.fixture(scope="module")
def scaling_run():
    t0 = time.perf_counter()
    out = dg.scaling_study()
    out["wall"] = time.perf_counter() - t0
    return out


def _mini_run(lam):
    grid = tf.Grid3(24, 24, 24)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    kappa = DESK_KAPPA
    e_vals = np.full(9, 10 * kappa)
    state = it.initial_state(grid, tgrid, mu=2, kappa=kappa, e_vals=e_vals,
                             M=0.05, lam=4)
    report = it.run_step(state, [lam] * 6, [0.9] * 6, [0.9] * 6)
    return state, report


# ---------------------------------------------------------------------------
# 1: pointwise algebra

def test_01_symmetric_and_vector_decompositions_roundtrip():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    A = rng.standard_normal((3, 3, 1000))
    R = A + np.swapaxes(A, 0, 1)
    back = reconstruct_sym(algebra.decompose_sym(R))
    rel_sym = np.max(np.abs(back - R)) / np.max(np.abs(R))
    f = rng.standard_normal((3, 1000))
    back_v = reconstruct_vec(algebra.decompose_vec(f))
    rel_vec = np.max(np.abs(back_v - f)) / np.max(np.abs(f))
    elapsed = time.perf_counter() - t0
    _line(1, "decomposition round trip", rel_sym <= 1e-12 and rel_vec <= 1e-12
          and elapsed < 1.0,
          f"rel_sym={rel_sym:.2e} rel_vec={rel_vec:.2e} {elapsed:.3f}s")


# 2: partition of unity

def test_02_partition_squares_sum_to_one_with_exact_support():
    pou = pt.PartitionOfUnity()
    rng = np.random.default_rng(22)
    p = rng.uniform(-4.0, 4.0, (3, 10000))
    corners, alphas = pou.corner_alphas(p)
    ssum = np.sum(alphas * alphas, axis=0)
    identity_err = float(np.max(np.abs(ssum - 1.0)))
    dist = np.sqrt(np.sum((corners - p[None]) ** 2, axis=1))
    far_exact = bool(np.all(alphas[dist >= pou.c2] == 0.0))
    near_pos = bool(np.all(alphas[dist <= pou.c2 - 1e-3] > 0.0))
    _line(2, "partition identity and support", identity_err <= 1e-10
          and far_exact and near_pos,
          f"identity_err={identity_err:.2e} far_exact={far_exact}")


# 3: antidivergence contracts

def test_03_antidivergence_inverts_divergence_on_random_fields():
    grid = tf.Grid3(48, 48, 48)
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    worst_div = worst_sym = worst_g = 0.0
    for _ in range(100):
        v = low_pass(rng.standard_normal((3,) + grid.shape), grid, 6)
        v -= v.mean(axis=(1, 2, 3), keepdims=True)
        R = idv.R_op(v, grid)
        worst_sym = max(worst_sym,
                        np.max(np.abs(R - np.swapaxes(R, 0, 1)))
                        / max(np.max(np.abs(R)), 1e-30))
        rel = tf.sup_norm(tf.divergence(R, grid) - v) / tf.sup_norm(v)
        worst_div = max(worst_div, rel)
        f = low_pass(rng.standard_normal(grid.shape), grid, 6)
        f -= f.mean()
        g = idv.G_op(f, grid)
        worst_g = max(worst_g,
                      tf.sup_norm(tf.divergence(g, grid) - f) / tf.sup_norm(f))
    elapsed = time.perf_counter() - t0
    _line(3, "antidivergence contracts", worst_div <= 1e-8 and worst_g <= 1e-8
          and worst_sym <= 1e-12 and elapsed < 60.0,
          f"div={worst_div:.2e} g={worst_g:.2e} sym={worst_sym:.2e} "
          f"{elapsed:.1f}s")


# 4: oscillatory decay of the antidivergence

def test_04_antidivergence_gains_one_frequency_power():
    grid = tf.Grid3(32, 32, 32)
    t0 = time.perf_counter()
    lams = (4, 8, 16, 32)
    flat = idv.decay_probe(grid, lams)
    flat_g = idv.decay_probe(grid, lams, op="G")
    X, _, _ = grid.meshes()
    amp = 1.0 + 0.3 * np.sin(X)
    varying = idv.decay_probe(grid, lams, amplitude=amp)
    elapsed = time.perf_counter() - t0
    ok = (abs(flat.slope + 1.0) <= 0.05 and abs(flat_g.slope + 1.0) <= 0.05
          and -1.2 <= varying.slope <= -0.8 and elapsed < 60.0)
    _line(4, "oscillatory decay slope", ok,
          f"flat={flat.slope:.3f} flat_g={flat_g.slope:.3f} "
          f"varying={varying.slope:.3f} {elapsed:.1f}s")


# 5: starting tuple residual

def test_05_starting_tuple_solves_the_system():
    grid = tf.Grid3(48, 48, 48)
    tgrid = tf.TimeGrid(0.75, 4.25, 33)
    state = it.initial_state(grid, tgrid, mu=4, kappa=DESK_KAPPA,
                             e_vals=np.full(33, 10 * DESK_KAPPA),
                             M=0.05, lam=8)
    res = dg.normalized_residuals(state)
    worst = max(res["momentum"], res["flux"], res["incompressibility"])
    ok = worst <= 1e-6
    # the residual is limited by the time stencil: under time refinement it
    # must stay inside a tolerance shrinking like nt^-4, and the gap to the
    # closed-form time cutoff derivative must shrink with the stencil order
    details = [f"worst={worst:.2e}"]
    small = tf.Grid3(16, 16, 16)
    gaps = []
    for nt in (17, 33, 65):
        tg = tf.TimeGrid(0.75, 4.25, nt)
        st = it.initial_state(small, tg, mu=2, kappa=DESK_KAPPA,
                              e_vals=np.full(nt, 10 * DESK_KAPPA),
                              M=0.05, lam=4)
        r = dg.normalized_residuals(st)
        tol = 1e-6 * (33.0 / nt) ** 4
        ok = ok and max(r["momentum"], r["flux"]) <= tol
        fd = it.initial_data(small, tg, M=0.05, lam=4)
        an = it.initial_data(small, tg, M=0.05, lam=4, analytic=True)
        gaps.append(tf.sup_norm(fd["R0"] - an["R0"]))
        details.append(f"nt{nt}={max(r['momentum'], r['flux']):.1e}")
    ok = ok and gaps[0] > 4.0 * gaps[1] > 16.0 * gaps[2]
    details.append("gap_ratios=%.1f,%.1f" % (gaps[0] / gaps[1],
                                             gaps[1] / gaps[2]))
    _line(5, "starting tuple residual", ok, " ".join(details))


# 6: cancellation identities

def test_06_every_substep_cancels_its_block(desk_chain):
    tol = 1e-10 * DESK_KAPPA
    r1 = [r["cancel_r1"] for r in desk_chain["reports"]]
    r2 = [r["cancel_r2"] for r in desk_chain["reports"][:3]]
    ok = all(x <= tol for x in r1) and all(x <= tol for x in r2)
    _line(6, "cancellation identities", ok,
          f"max_r1={max(r1):.2e} max_r2={max(r2):.2e} tol={tol:.1e}")


# 7: constructed-tuple closure with a Richardson floor

def test_07_substeps_keep_residual_at_discretization_floor(desk_chain):
    ok = all(c["passed"] for c in desk_chain["checks"])
    ratios = [max(c["momentum_ratio"], c["flux_ratio"])
              for c in desk_chain["checks"]]
    wall_ok = desk_chain["wall"] <= 900.0
    _line(7, "residual at floor", ok and wall_ok,
          f"max_ratio={max(ratios):.2g} wall={desk_chain['wall']:.0f}s")


def test_07_negative_control_corrupted_stress_trips_the_check(corrupt_transport):
    grid = tf.Grid3(16, 16, 16)
    tgrid = tf.TimeGrid(0.75, 4.25, 129)
    state = it.initial_state(grid, tgrid, mu=2, kappa=DESK_KAPPA,
                             e_vals=np.full(129, 10 * DESK_KAPPA),
                             M=0.05, lam=4)
    it.begin_step(state, 0.9, 0.9)
    corrupt_transport(1.1)
    su.run_substep(state, 1, 4, 0.9, 0.9)
    check = dg.richardson_floor(state)
    _line(7, "negative control trips", not check["passed"],
          f"ratio={check['momentum_ratio']:.2g}")
    # the witness names a grid point of its slice, and the equation's terms
    # there sum to the residual
    terms = check["witness_terms"]
    assert len(check["witness_point"]) == 4 and set(terms) == {
        "dt", "advection", "pressure", "dzz", "buoyancy", "div_store"}
    assert np.all(np.isfinite([check["witness_t"], check["witness_sup"], *terms.values()]))
    assert abs(abs(sum(terms.values())) - check["witness_sup"]) <= (
        1e-12 * max(map(abs, terms.values())))


# 8: wave amplitude bounds with the recorded constant

def test_08_wave_amplitudes_within_recorded_bounds(desk_chain):
    bound_w = desk_chain["M_rec"] * np.sqrt(DESK_KAPPA) / 12.0
    bound_chi = desk_chain["M_rec"] * np.sqrt(DESK_KAPPA) / 6.0
    w = max(r["w_main_sup"] for r in desk_chain["reports"])
    chi = max(r["chi_sup"] for r in desk_chain["reports"])
    ok = all(r["w_main_sup"] <= bound_w and r["chi_sup"] <= bound_chi
             for r in desk_chain["reports"])
    _line(8, "amplitude bounds", ok,
          f"w={w:.3g}<= {bound_w:.3g} chi={chi:.3g}<= {bound_chi:.3g}")


# 9: divergence-free velocity, mean-zero temperature waves

def test_09_waves_stay_divergence_free_and_mean_zero(desk_chain):
    div_ok = all(r <= 1e-8 for r in desk_chain["div_rels"])
    mean_ok = all(m <= 1e-10 for m in desk_chain["theta_means"])
    _line(9, "divergence-free and mean-zero", div_ok and mean_ok,
          f"max_div_rel={max(desk_chain['div_rels']):.2e} "
          f"max_theta_mean={max(desk_chain['theta_means']):.2e}")


# 10: scaling suite

def test_10_update_terms_follow_their_parameter_scalings(scaling_run):
    lam_slopes = scaling_run["lambda"]["slopes"]
    ok = all(-1.2 <= s <= -0.8 for s in lam_slopes.values())
    ok = ok and -1.3 <= scaling_run["mu"]["slope"] <= -0.7
    ok = ok and 0.7 <= scaling_run["mollification"]["slope"] <= 1.3
    ok = ok and scaling_run["wall"] < 1800.0
    _line(10, "scaling suite", ok,
          "lam=[" + ",".join(f"{s:.2f}" for s in lam_slopes.values()) + "] "
          f"mu={scaling_run['mu']['slope']:.2f} "
          f"moll={scaling_run['mollification']['slope']:.2f} "
          f"wall={scaling_run['wall']:.0f}s")


# 11: stress decrease under frequency doubling

def test_11_doubling_frequencies_shrinks_the_new_stress(mini_stepped):
    _, rep16 = mini_stepped
    _, rep32 = _mini_run(32)
    _, rep64 = _mini_run(64)
    dR = [r["delta_R_sup"] for r in (rep16, rep32, rep64)]
    df = [r["delta_f_sup"] for r in (rep16, rep32, rep64)]
    ok = dR[0] > dR[1] > dR[2] and df[0] > df[1] > df[2]
    ratios = [dR[1] / dR[0], dR[2] / dR[1], df[1] / df[0], df[2] / df[1]]
    _line(11, "stress decrease", ok,
          "contraction=" + ",".join(f"{r:.2f}" for r in ratios))


# 12: chained outer steps

def test_12_outer_chain_increments_follow_the_budget():
    a, b = 4.0, 1.5
    grid = tf.Grid3(24, 24, 24)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    kappa0 = 1.0 / a
    state = it.initial_state(grid, tgrid, mu=2, kappa=kappa0,
                             e_vals=np.full(9, 10 * kappa0),
                             M=0.05, lam=4)
    # from the second step on the driver raises the energy profile over the
    # carried stress: the wave radicand needs e - a >= kappa/2 on the stress
    # support, and at this resolution the carried stress does not contract
    # below kappa
    _, outer = it.run_outer(state, [16 * 2 ** i for i in range(6)],
                            [0.3] * 6, [0.3] * 6, steps=2, schedule_b=b)
    details = []
    ok = True
    for s, (kappa, rep) in enumerate(zip(outer["kappas"], outer["steps"])):
        bound = (rep["M_rec"] + 0.5) * np.sqrt(kappa)
        dv = rep["v_increment_sup"]
        dth = rep["theta_increment_sup"]
        ok = ok and dv <= bound and dth <= bound
        details.append(f"step{s}: dv={dv:.3g} dth={dth:.3g} bound={bound:.3g}")
    # every step also closes: its Richardson check passes
    _line(12, "outer increments", ok and outer["passed"], "; ".join(details))
