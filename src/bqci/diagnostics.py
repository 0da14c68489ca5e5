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

The check is one per-slice body (_slice_closure): slice j's residual sup
norms and the maxima of the stores that scale them.  system_residual,
normalized_residuals and richardson_floor run it over contiguous slice
ranges on parallel.fork_map's processes and merge the per-slice values in
slice order, so each makes one pass over the stores and every worker count
gives the same bits.

The scaling studies re-run isolated update terms over parameter ladders
(frequency, cell scale, mollification scale) and report log-log slopes.
"""

import csv
import functools

import numpy as np

from . import parallel
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
    them; and "store_sups", the maxima of the same pass (_closure): the sup
    of each store that scales a residual (dt_v, dzz_v, div_R_store,
    dt_theta, dzz_theta, div_f_store)."""
    stencils = {"fine": (1, state.dt_v, state.dt_theta)}
    if state.dt_v_coarse is not None:
        stencils["coarse"] = (2, state.dt_v_coarse, state.dt_theta_coarse)
    return {"coarse": None, **_closure(state, stencils)}


# the stores whose largest value scales each equation's residual
_SCALES = {"momentum": ("dt_v", "dzz_v", "div_R_store"),
           "flux": ("dt_theta", "dzz_theta", "div_f_store")}


def _slice_residuals(state, stencils, j):
    """Slice j's momentum (3, grid) and flux (grid) residual fields for each
    of the stencils {name: (stride, dt_v, dt_theta)} that samples j; the
    slice's advection, pressure gradient and divergences serve all."""
    v = state.v[j]
    adv_v = np.einsum("b...,ba...->a...", v, state.grad_v[j])
    grad_p = state.p_factor[j] * state.grad_p_profile
    adv_theta = np.einsum("b...,b...->...", v, state.grad_theta[j])
    div_R, div_f = state.div_R_store[j], state.div_f_store[j]
    out = {}
    for name, (stride, dt_v, dt_theta) in stencils.items():
        if j % stride == 0:
            mom = dt_v[j // stride] + adv_v + grad_p - state.dzz_v[j]
            mom[2] -= state.theta[j]
            mom -= div_R
            out[name] = mom, dt_theta[j // stride] + adv_theta - state.dzz_theta[j] - div_f
    return out


def _slice_closure(state, stencils, j, defect):
    """The closure check on slice j: the sup norms of its residuals per
    stencil and of its sample of every _SCALES store; with defect, also of
    its divergence defect and of its velocity gradient."""
    out = {name: tuple(map(tf.sup_norm, fields))
           for name, fields in _slice_residuals(state, stencils, j).items()}
    out.update((key, tf.sup_norm(getattr(state, key)[j]))
               for keys in _SCALES.values() for key in keys)
    if defect:
        out["divergence"] = tf.sup_norm(sum(state.grad_v[j, b, b] for b in range(3)))
        out["grad_v"] = tf.sup_norm(state.grad_v[j])
    return out


def _closure(state, stencils, defect=False):
    """_slice_closure on every slice, contiguous slice ranges split over
    parallel.fork_map's processes, merged in slice order: per stencil the
    residuals' sup norms, overall and per sample, and under "store_sups"
    every other value's maximum over slices.  A maximum over slices is
    exact, so every worker count gives the same bits."""
    ranges = parallel.shares(range(state.tgrid.nt), parallel.WORKERS)
    slices = [s for part in parallel.fork_map(lambda js: [
        _slice_closure(state, stencils, j, defect) for j in js], ranges) for s in part]
    out = {}
    for name in stencils:
        moms, fluxes = (list(x) for x in zip(*(s[name] for s in slices if name in s)))
        out[name] = {"momentum_sup": tf.max_or_nan(*moms), "flux_sup": tf.max_or_nan(*fluxes),
                     "momentum_slices": moms, "flux_slices": fluxes}
    out["store_sups"] = {key: tf.max_or_nan(*(s[key] for s in slices))
                         for key in slices[0] if key not in stencils}
    return out


def _rel(res):
    """Each equation's fine residual over its largest stored term."""
    sups = res["store_sups"]
    return {eq: res["fine"][f"{eq}_sup"] / max(*(sups[key] for key in keys), 1e-30)
            for eq, keys in _SCALES.items()}


def normalized_residuals(state):
    """Momentum / flux residuals scaled by their largest constituent term,
    plus the incompressibility defect relative to the velocity gradient;
    one pass over the stores (_closure), with no coarse residual."""
    res = _closure(state, {"fine": (1, state.dt_v, state.dt_theta)}, defect=True)
    sups = res["store_sups"]
    return {
        **_rel(res),
        "incompressibility": sups["divergence"] / max(sups["grad_v"], 1e-30),
        "momentum_raw": res["fine"]["momentum_sup"],
        "flux_raw": res["fine"]["flux_sup"],
        "divergence_raw": sups["divergence"],
    }


def richardson_floor(state, tolerance=5.0):
    """Residual check against the time-discretization floor.

    floor = coarse residual / 16 (4th-order stencil), with a roundoff guard;
    passes when the fine residual is within `tolerance` times the floor.
    Next to each ratio, {eq}_rel is the fine residual over the equation's
    largest stored term (as in normalized_residuals); a report field only.
    A failed check also names its witness: the equation with the larger
    ratio, the time sample of its worst fine-stencil residual, and
    (_witness) the grid point there with the equation's terms."""
    if state.dt_v_coarse is None:
        raise ValueError("state carries no coarse time-derivative stores "
                         "(dt_v_coarse, dt_theta_coarse)")
    res = system_residual(state)
    fine, coarse, sups = res["fine"], res["coarse"], res["store_sups"]
    rel = _rel(res)
    out = {}
    for eq, dt in (("momentum", "dt_v"), ("flux", "dt_theta")):
        floor = max(coarse[f"{eq}_sup"] / 16.0, 1e-13 * max(sups[dt], 1.0))
        out.update({f"{eq}_fine": fine[f"{eq}_sup"], f"{eq}_coarse": coarse[f"{eq}_sup"],
                    f"{eq}_floor": floor, f"{eq}_ratio": fine[f"{eq}_sup"] / floor,
                    f"{eq}_rel": rel[eq]})
    failed = [eq for eq in ("momentum", "flux") if not out[f"{eq}_ratio"] <= tolerance]
    out.update({"tolerance": tolerance, "passed": not failed})
    if failed:
        eq = max(failed, key=lambda e: out[f"{e}_ratio"])
        slices = fine[f"{eq}_slices"]
        j = int(np.argmax(slices))
        out.update({"witness_eq": eq, "witness_t": state.tgrid.times()[j],
                    "witness_slice": j, "witness_sup": slices[j], **_witness(state, eq, j)})
    return out


def _witness(state, eq, j):
    """Slice j evaluated once more: witness_point, the index of eq's largest
    fine residual there ((component, x, y, z) for momentum, (x, y, z) for
    flux; the first NaN if any), and witness_terms, eq's terms at that
    index, signed as they enter the residual (they sum to it)."""
    mom, flux = _slice_residuals(state, {"fine": (1, state.dt_v, state.dt_theta)}, j)["fine"]
    field = mom if eq == "momentum" else flux
    point = np.unravel_index(np.argmax(np.abs(field)), field.shape)
    x, y, z = point[-3:]
    if eq == "momentum":
        a = point[0]
        terms = {"dt": state.dt_v[j][point],
                 "advection": state.v[j, :, x, y, z] @ state.grad_v[j, :, a, x, y, z],
                 "pressure": state.p_factor[j] * state.grad_p_profile[point],
                 "dzz": -state.dzz_v[j][point],
                 "buoyancy": -state.theta[j, x, y, z] if a == 2 else 0.0,
                 "div_store": -state.div_R_store[j][point]}
    else:
        terms = {"dt": state.dt_theta[j][point],
                 "advection": state.v[j, :, x, y, z] @ state.grad_theta[j, :, x, y, z],
                 "dzz": -state.dzz_theta[j][point],
                 "div_store": -state.div_f_store[j][point]}
    return {"witness_point": [int(i) for i in point],
            "witness_terms": {key: float(value) for key, value in terms.items()}}


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


# what each probe ladder holds fixed: mu on the lambda one, lam on the mu
# one; and the default ladders
LAMBDA_STUDY_MU, MU_STUDY_LAM = 2, 128
LAMS, MUS = (16, 32, 64, 128), (2, 4, 8, 16)


def _lambda_probe(lam, N):
    """Sup norms of the inverse-divergence update terms at frequency lam."""
    asm = _probe_assembler(lam, LAMBDA_STUDY_MU, N=N)
    j = _PROBE_NT // 2
    return {"oscillation": tf.sup_norm(asm.r_div_M(j)[0]),
            "transport": tf.sup_norm(asm.transport_R(j)[0]),
            "flux_oscillation": tf.sup_norm(asm.g_div_K(j)[0]),
            "corrections_product": tf.sup_norm(asm.product_corrections(j)[0]),
            "buoyancy": tf.sup_norm(asm.r_buoyancy(j)[0])}


def _mu_probe(mu, N):
    """Sup norm of the slow interaction term at cell scale mu."""
    asm = _probe_assembler(MU_STUDY_LAM, mu, N=N, pair_velocity=True)
    return tf.sup_norm(asm.N_field(_PROBE_NT // 2)[0])


def _run(probe):  # what fork_map runs on each probe
    return probe()


def _lambda_probes(lams, N):  # the engine probes, callables without arguments
    return [functools.partial(_lambda_probe, lam, N) for lam in lams]


def _mu_probes(mus, N):
    return [functools.partial(_mu_probe, mu, N) for mu in mus]


def _lambda_table(lams, probes):
    terms = {key: [p[key] for p in probes] for key in probes[0]}
    return {"lams": list(lams), "norms": terms,
            "slopes": {k: _slope(lams, v) for k, v in terms.items()}}


def _mu_table(mus, norms):
    return {"mus": list(mus), "norms": list(norms), "slope": _slope(mus, norms)}


def lambda_scaling(lams=LAMS, N=32):
    """Sup norms of the inverse-divergence update terms over a frequency
    ladder at mu = LAMBDA_STUDY_MU, one probe per lam, the probes split
    over parallel.fork_map's processes; each should decay like 1/lambda."""
    return _lambda_table(lams, parallel.fork_map(_run, _lambda_probes(lams, N)))


def mu_scaling(mus=MUS, N=32):
    """Sup norm of the slow interaction term over a cell-scale ladder at
    lam = MU_STUDY_LAM, one probe per mu, split like lambda_scaling's; with
    the carrier velocity paired to the wave it decays like 1/mu.  The
    frequency is kept well above the ladder so the correction wave's
    1/lambda tail stays below the cell-scale decay being measured."""
    return _mu_table(mus, parallel.fork_map(_run, _mu_probes(mus, N)))


def mollification_scaling(ells=(0.15, 0.3, 0.6)):
    """Mollification-difference growth on a lacunary probe.

    A dyadic sum of shears (levels 0..5 on a 96 x 96 x 8 grid; uniformly C^1
    but no better) makes the difference scale linearly in the mollification
    width; smooth probes would show the kernel's quadratic order instead."""
    grid = tf.Grid3(96, 96, 8)
    tgrid = tf.TimeGrid(0.0, 1.0, 5)
    y = grid.axes()[1][:, None]  # f depends on y alone: evaluated on its axis, broadcast
    f = np.broadcast_to(sum(2.0 ** (-j) * np.cos(2 ** j * y) for j in range(6)), grid.shape)
    norms = []
    for ell in ells:
        f_ell = tf.mollify(f[None], tgrid, grid, ell, ell, time_axis=False)[0]
        norms.append(tf.sup_norm(f - f_ell))
    return {"ells": list(ells), "norms": norms, "slope": _slope(ells, norms)}


def scaling_study(N=32):
    """The three probes on their default ladders, the engine ones on N^3.
    All eight engine probes run in one parallel.fork_map round, the two
    ladders interleaved so that every contiguous share holds probes of
    both; the mollification probe runs here."""
    probes = [p for pair in zip(_lambda_probes(LAMS, N), _mu_probes(MUS, N)) for p in pair]
    out = parallel.fork_map(_run, probes)
    return {
        "lambda": _lambda_table(LAMS, out[0::2]),
        "mu": _mu_table(MUS, out[1::2]),
        "mollification": mollification_scaling(),
    }


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
