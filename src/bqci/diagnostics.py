"""Residual evaluation and scaling diagnostics.

The residual of the carried tuple is computed against the stored exact
derivatives: the momentum and flux equations are assembled slice by slice
from the dt / gradient / d_zz stores and the stress divergence store --
never by differentiating materialized fast content through a grid
transform.  The discretization floor is estimated by Richardson comparison:
re-evaluating the residual with the half-resolution time-derivative
companions multiplies the (4th-order) stencil error by sixteen, so a clean
tuple shows a coarse/fine ratio near sixteen while any assembly defect
pushes the fine residual up to the coarse one.

The scaling studies re-run isolated update terms over parameter ladders
(frequency, cell scale, mollification scale) and report log-log slopes.
"""

import csv

import numpy as np

from . import torus_field as tf
from .perturbation import WaveEngine
from .stress_update import SubstepAssembler

__all__ = [
    "system_residual",
    "normalized_residuals",
    "richardson_floor",
    "lambda_scaling",
    "mu_scaling",
    "mollification_scaling",
    "scaling_study",
    "write_csv",
]


# ---------------------------------------------------------------------------
# residuals

def system_residual(state):
    """Sup norms of the momentum / flux equation residuals, overall and per
    time sample: "fine" with the time-derivative stores dt_* at every
    sample, "coarse" (the Richardson companion) with the half-resolution
    stores dt_*_coarse at every second sample, None on a state without
    them."""
    stencils = {"fine": (1, state.dt_v, state.dt_theta)}
    if state.dt_v_coarse is not None:
        stencils["coarse"] = (2, state.dt_v_coarse, state.dt_theta_coarse)
    return {"coarse": None, **_residuals(state, stencils)}


def _residuals(state, stencils):
    """system_residual's entries for stencils {name: (stride, dt_v, dt_theta)};
    each slice's advection, pressure gradient and divergences serve all."""
    slices = {name: ([], []) for name in stencils}
    for j in range(state.tgrid.nt):
        v = state.v[j]
        adv_v = np.einsum("b...,ba...->a...", v, state.grad_v[j])
        grad_p = state.p_factor[j] * state.grad_p_profile
        adv_theta = np.einsum("b...,b...->...", v, state.grad_theta[j])
        div_R, div_f = state.div_R_store[j], state.div_f_store[j]
        for name, (stride, dt_v, dt_theta) in stencils.items():
            if j % stride == 0:
                mom = dt_v[j // stride] + adv_v + grad_p - state.dzz_v[j]
                mom[2] -= state.theta[j]
                mom -= div_R
                flux = dt_theta[j // stride] + adv_theta - state.dzz_theta[j] - div_f
                slices[name][0].append(tf.sup_norm(mom))
                slices[name][1].append(tf.sup_norm(flux))
    return {name: {"momentum_sup": tf.max_or_nan(*moms), "flux_sup": tf.max_or_nan(*fluxes),
                   "momentum_slices": moms, "flux_slices": fluxes}
            for name, (moms, fluxes) in slices.items()}


def normalized_residuals(state):
    """Momentum / flux residuals scaled by their largest constituent term,
    plus the incompressibility defect relative to the velocity gradient."""
    res = _residuals(state, {"fine": (1, state.dt_v, state.dt_theta)})["fine"]
    scale_m = max(tf.sup_norm(state.dt_v), tf.sup_norm(state.dzz_v),
                  tf.sup_norm(state.div_R_store), 1e-30)
    scale_f = max(tf.sup_norm(state.dt_theta), tf.sup_norm(state.dzz_theta),
                  tf.sup_norm(state.div_f_store), 1e-30)
    div_sup = tf.max_or_nan(*(tf.sup_norm(sum(state.grad_v[j, b, b] for b in range(3)))
                              for j in range(state.tgrid.nt)))
    grad_sup = tf.sup_norm(state.grad_v)
    return {
        "momentum": res["momentum_sup"] / scale_m,
        "flux": res["flux_sup"] / scale_f,
        "incompressibility": div_sup / max(grad_sup, 1e-30),
        "momentum_raw": res["momentum_sup"],
        "flux_raw": res["flux_sup"],
        "divergence_raw": div_sup,
    }


def richardson_floor(state, tolerance=5.0):
    """Residual check against the time-discretization floor.

    floor = coarse residual / 16 (4th-order stencil), with a roundoff guard;
    passes when the fine residual is within `tolerance` times the floor.
    A failed check also names its witness: the equation with the larger
    ratio and the time sample of its worst fine-stencil residual."""
    if state.dt_v_coarse is None:
        raise ValueError("state carries no coarse time-derivative stores "
                         "(dt_v_coarse, dt_theta_coarse)")
    res = system_residual(state)
    fine, coarse = res["fine"], res["coarse"]
    out = {}
    for eq, dt in (("momentum", state.dt_v), ("flux", state.dt_theta)):
        floor = max(coarse[f"{eq}_sup"] / 16.0, 1e-13 * max(tf.sup_norm(dt), 1.0))
        out.update({f"{eq}_fine": fine[f"{eq}_sup"], f"{eq}_coarse": coarse[f"{eq}_sup"],
                    f"{eq}_floor": floor, f"{eq}_ratio": fine[f"{eq}_sup"] / floor})
    failed = [eq for eq in ("momentum", "flux") if not out[f"{eq}_ratio"] <= tolerance]
    out.update({"tolerance": tolerance, "passed": not failed})
    if failed:
        eq = max(failed, key=lambda e: out[f"{e}_ratio"])
        slices = fine[f"{eq}_slices"]
        j = int(np.argmax(slices))
        out.update({"witness_eq": eq, "witness_t": state.tgrid.times()[j],
                    "witness_slice": j, "witness_sup": slices[j]})
    return out


# ---------------------------------------------------------------------------
# scaling probes

# the probes' time samples (each probes the middle slice) and stress budget
_PROBE_NT, _PROBE_KAPPA = 9, 0.1


def _probe_assembler(lam, mu, N=32, pair_velocity=False):
    """Engine + assembler on a smooth synthetic block (one slice is probed)."""
    nt, kappa = _PROBE_NT, _PROBE_KAPPA
    grid = tf.Grid3(N, N, N)
    tgrid = tf.TimeGrid(0.0, 1.0, nt)
    X, Y, Z = grid.meshes()
    t = tgrid.times().reshape(-1, 1, 1, 1)
    wob = 1.0 + 0.3 * t
    a_n = kappa * (0.3 * np.sin(X) * np.cos(Y) + 0.1 * np.cos(Z)) * wob
    c_n = kappa * 0.2 * np.cos(Y) * wob
    e_vals = np.full(nt, 10 * kappa)
    base = 0.45 * np.stack([np.sin(Y), np.cos(Z), np.sin(X + Y)])
    v_ell = base[None] * wob[:, None]
    eng = WaveEngine(1, lam, mu, grid, tgrid, a_n, c_n, e_vals, v_ell, kappa)
    # v_prev and theta_prev are a spatial profile times wob(t): each profile
    # is differentiated once and its gradient scaled by wob
    share = 1.0 if pair_velocity else 0.8
    v_prev = share * v_ell
    grad_v_prev = tf.gradient(share * base, grid)[None] * wob[..., None, None]
    theta_profile = 0.3 * np.cos(X) * np.sin(Y)
    theta_prev = theta_profile[None] * wob
    grad_theta_prev = tf.gradient(theta_profile, grid)[None] * wob[..., None]
    theta_ell = theta_prev.copy()
    return SubstepAssembler(eng, v_prev, grad_v_prev, theta_prev,
                           grad_theta_prev, theta_ell)


def _slope(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


# what each probe ladder holds fixed: mu on the lambda one, lam on the mu one
LAMBDA_STUDY_MU, MU_STUDY_LAM = 2, 128


def lambda_scaling(lams=(16, 32, 64, 128), N=32):
    """Sup norms of the inverse-divergence update terms over a frequency
    ladder at mu = LAMBDA_STUDY_MU; each should decay like 1/lambda."""
    terms = {"oscillation": [], "transport": [], "flux_oscillation": [],
             "corrections_product": [], "buoyancy": []}
    j = _PROBE_NT // 2
    for lam in lams:
        asm = _probe_assembler(lam, LAMBDA_STUDY_MU, N=N)
        terms["oscillation"].append(tf.sup_norm(asm.r_div_M(j)[0]))
        terms["transport"].append(tf.sup_norm(asm.transport_R(j)[0]))
        terms["flux_oscillation"].append(tf.sup_norm(asm.g_div_K(j)[0]))
        terms["corrections_product"].append(tf.sup_norm(asm.product_corrections(j)[0]))
        terms["buoyancy"].append(tf.sup_norm(asm.r_buoyancy(j)[0]))
    return {
        "lams": list(lams),
        "norms": terms,
        "slopes": {k: _slope(lams, v) for k, v in terms.items()},
    }


def mu_scaling(mus=(2, 4, 8, 16), N=32):
    """Sup norm of the slow interaction term over a cell-scale ladder at
    lam = MU_STUDY_LAM; with the carrier velocity paired to the wave it
    decays like 1/mu.  The frequency is kept well above the ladder so the
    correction wave's 1/lambda tail stays below the cell-scale decay being
    measured."""
    norms = []
    j = _PROBE_NT // 2
    for mu in mus:
        asm = _probe_assembler(MU_STUDY_LAM, mu, N=N, pair_velocity=True)
        norms.append(tf.sup_norm(asm.N_field(j)[0]))
    return {"mus": list(mus), "norms": norms, "slope": _slope(mus, norms)}


def mollification_scaling(ells=(0.15, 0.3, 0.6)):
    """Mollification-difference growth on a lacunary probe.

    A dyadic sum of shears (levels 0..5 on a 96 x 96 x 8 grid; uniformly C^1
    but no better) makes the difference scale linearly in the mollification
    width; smooth probes would show the kernel's quadratic order instead."""
    grid = tf.Grid3(96, 96, 8)
    tgrid = tf.TimeGrid(0.0, 1.0, 5)
    _, Y, _ = grid.meshes()
    f = sum(2.0 ** (-j) * np.cos(2 ** j * Y) for j in range(6))
    norms = []
    for ell in ells:
        f_ell = tf.mollify(f[None], tgrid, grid, ell, ell, time_axis=False)[0]
        norms.append(tf.sup_norm(f - f_ell))
    return {"ells": list(ells), "norms": norms, "slope": _slope(ells, norms)}


def scaling_study(N=32):
    """The three probes on their default ladders, the engine ones on N^3."""
    return {
        "lambda": lambda_scaling(N=N),
        "mu": mu_scaling(N=N),
        "mollification": mollification_scaling(),
    }


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
