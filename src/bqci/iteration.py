"""Parameter selection and the outer iteration driver.

Two parameter regimes coexist.  The asymptotic regime evaluates the closed
formulas for (mu, lambda_n, ell_n, ell_nz) from the budget constants and
reports them with their admissibility predicates -- the resulting
frequencies are far beyond any grid and are for inspection only.  The desk
regime accepts concrete small parameters, evaluates the same predicates,
and records the violations instead of failing: a desk run demonstrates the
construction's algebra and bookkeeping at resolvable scales.

The step driver owns the state plumbing: building the explicit starting
tuple with all derivative stores, decomposing and mollifying the stress
into block coefficients at the start of each step, chaining the six
cancellation substeps with a closure check after each, and rolling a
finished step into the next step's input.
"""

import dataclasses
import math
import time

import numpy as np

from . import diagnostics as dg
from . import torus_field as tf
from .stress_update import BLOCKS, StepState, run_substep

__all__ = [
    "ContractError",
    "ParamSet",
    "smoothstep",
    "energy_profile",
    "time_cutoff",
    "choose_params",
    "desk_params",
    "initial_data",
    "initial_state",
    "begin_step",
    "run_step",
    "advance_step",
    "run_outer",
    "format_report",
    "write_report",
]


class ContractError(ValueError):
    """A caller-supplied budget violates the scheme's admissibility contract."""


# ---------------------------------------------------------------------------
# profiles

def smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, exponential blend between."""
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    f = np.exp(-1.0 / um)
    g = np.exp(-1.0 / (1.0 - um))
    out[mid] = f / (f + g)
    return float(out[0]) if scalar else out


def smoothstep_derivative(u):
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.zeros_like(u)
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    f = np.exp(-1.0 / um)
    g = np.exp(-1.0 / (1.0 - um))
    fp = f / um ** 2
    gp = -g / (1.0 - um) ** 2
    out[mid] = (fp * g - f * gp) / (f + g) ** 2
    return float(out[0]) if scalar else out


def energy_profile(times, support, plateau, level):
    """Smooth energy profile: `level` on [plateau], zero outside (support).

    Degenerate edges (plateau end at or beyond the support end) hold the
    profile at `level` on that side.
    """
    z0, z1 = support
    p0, p1 = plateau
    if not (z0 <= p0 <= p1 <= z1):
        raise ValueError("plateau must sit inside the support")
    t = np.asarray(times, dtype=np.float64)
    left = smoothstep((t - z0) / (p0 - z0)) if p0 > z0 else np.ones_like(t)
    right = smoothstep((z1 - t) / (z1 - p1)) if p1 < z1 else np.ones_like(t)
    return level * left * right


# the starting tuple's time cutoff: 0 before t[0], rising to 1 at t[1], 1
# until t[2], falling to 0 at t[3]
TIME_CUTOFF = (1.0, 2.0, 3.0, 4.0)


def time_cutoff(times):
    """Smooth bump in time: 1 on the core [t[1], t[2]] of TIME_CUTOFF, 0
    outside its support (t[0], t[3])."""
    z0, p0, p1, z1 = TIME_CUTOFF
    return energy_profile(times, (z0, z1), (p0, p1), 1.0)


def time_cutoff_derivative(times):
    """Closed-form d/dt of time_cutoff (the comparison point for the
    stencil-based derivative used in the discrete tuple)."""
    z0, p0, p1, z1 = TIME_CUTOFF
    t = np.asarray(times, dtype=np.float64)
    ul = (t - z0) / (p0 - z0)
    ur = (z1 - t) / (z1 - p1)
    left = smoothstep(ul)
    right = smoothstep(ur)
    dleft = smoothstep_derivative(ul) / (p0 - z0)
    dright = -smoothstep_derivative(ur) / (z1 - p1)
    return dleft * right + left * dright


# ---------------------------------------------------------------------------
# parameters

class ParamSet:
    """Substep parameters for one outer step.

    mu divides every lambda_n; ells / ellzs are the per-substep mollification
    scales.  `violations` lists the admissibility predicates that do not hold
    (expected to be empty in the asymptotic regime, and informative in the
    desk regime)."""

    def __init__(self, mode, mu, lams, ells, ellzs, lam0, violations):
        self.mode = mode
        self.mu = int(mu)
        self.lams = tuple(int(v) for v in lams)
        self.ells = tuple(float(v) for v in ells)
        self.ellzs = tuple(float(v) for v in ellzs)
        self.lam0 = float(lam0)
        self.violations = list(violations)


def _lt(a, b):
    """Strictly below with a relative slack, so parameters that sit exactly
    on a constraint boundary (the closed formulas saturate several) are not
    flagged by roundoff."""
    return a < b * (1.0 - 1e-9)


def _predicates(mu, lams, ells, ellzs, kappa, Lam, Lam_bar, eps):
    v = []
    sk = math.sqrt(kappa)
    if _lt(mu, 1.0 / kappa):
        v.append(f"mu = {mu} < 1/kappa = {1.0 / kappa:.4g}")
    if Lam is not None and _lt(1.0 / ells[0], mu * Lam):
        v.append(f"1/ell_1 = {1.0 / ells[0]:.4g} < mu*Lam = {mu * Lam:.4g}")
    if Lam_bar is not None and _lt(1.0 / ellzs[0], mu * Lam_bar):
        v.append(f"1/ell_1z = {1.0 / ellzs[0]:.4g} < mu*Lam_bar = {mu * Lam_bar:.4g}")
    if _lt(ellzs[0], ells[0]):
        v.append(f"ell_1z = {ellzs[0]:.4g} < ell_1 = {ells[0]:.4g}")
    if _lt(lams[0], ells[0] ** (-(1.0 + eps))):
        v.append(f"lambda_1 = {lams[0]:.4g} < ell_1^-(1+eps) = {ells[0] ** (-(1 + eps)):.4g}")
    if lams[0] % mu:
        v.append(f"mu = {mu} does not divide lambda_1 = {lams[0]}")
    for n in range(2, len(lams) + 1):
        ell, ellz, lam = ells[n - 1], ellzs[n - 1], lams[n - 1]
        if _lt(1.0 / ell, sk * mu * lams[n - 2]):
            v.append(f"1/ell_{n} = {1.0 / ell:.4g} < sqrt(kappa)*mu*lambda_{n - 1}"
                     f" = {sk * mu * lams[n - 2]:.4g}")
        if _lt(lam, ell ** (-(1.0 + eps))):
            v.append(f"lambda_{n} = {lam:.4g} < ell_{n}^-(1+eps) = {ell ** (-(1 + eps)):.4g}")
        if _lt(1.0 / ell, 1.0 / ellz) or 1.0 / ell == 1.0 / ellz:
            v.append(f"1/ell_{n} = {1.0 / ell:.4g} <= 1/ell_{n}z = {1.0 / ellz:.4g}")
        if Lam_bar is not None and _lt(1.0 / ellz, mu * (sk * mu) ** (n - 1) * Lam_bar):
            v.append(f"1/ell_{n}z = {1.0 / ellz:.4g} < mu*(sqrt(kappa)*mu)^{n - 1}*Lam_bar"
                     f" = {mu * (sk * mu) ** (n - 1) * Lam_bar:.4g}")
        if lam % mu:
            v.append(f"mu = {mu} does not divide lambda_{n} = {lam}")
    return v


def choose_params(L_v, kappa, kappa_bar, Lam, Lam_bar, D_v, eps=0.05):
    """Closed-formula parameters from the budget constants.

    kappa: current stress budget, kappa_bar: target budget for the next step
    (the contract requires kappa_bar <= kappa^{3/2}).  Lam / Lam_bar are the
    measured frequency scales of the carried tuple; L_v and D_v are the
    scheme's bookkeeping constants.  Frequencies are rounded up to integer
    multiples of mu, then the admissibility predicates are re-checked.
    Each ladder holds six values, one per substep.
    """
    if kappa_bar > kappa ** 1.5:
        raise ContractError(
            f"kappa_bar = {kappa_bar:.4g} exceeds kappa^(3/2) = {kappa ** 1.5:.4g}")
    sk = math.sqrt(kappa)
    mu = math.ceil(L_v * sk / kappa_bar)
    ells = [kappa_bar / (L_v * Lam)]
    ellzs = [kappa_bar / (L_v * Lam_bar)]
    lam1 = D_v * (sk * mu * Lam ** (1.0 + eps) + mu ** 2 * Lam_bar ** 2) / kappa_bar
    lams = [mu * math.ceil(lam1 / mu)]
    for n in range(2, 7):
        ells.append(kappa_bar / (L_v * kappa * lams[-1]))
        ellzs.append(kappa_bar / (L_v * sk * (sk * mu) ** (n - 1) * Lam_bar))
        lam = D_v * (kappa * mu * lams[-1] ** (1.0 + eps)
                     + (sk * mu) ** n * Lam_bar / ellzs[-1]) / kappa_bar
        lams.append(mu * math.ceil(lam / mu))
    lam0 = Lam / kappa + Lam_bar * ellzs[0] / (kappa * ells[0])
    violations = _predicates(mu, lams, ells, ellzs, kappa, Lam, Lam_bar, eps)
    return ParamSet("asymptotic", mu, lams, ells, ellzs, lam0, violations)


def desk_params(mu, lams, ells, ellzs, kappa, Lam=None, Lam_bar=None, eps=0.05):
    """User-supplied concrete parameters with a predicate violation report."""
    lams = list(lams)
    if len(ells) != len(lams) or len(ellzs) != len(lams):
        raise ValueError("lams, ells, ellzs must have equal length")
    violations = _predicates(mu, lams, ells, ellzs, kappa, Lam, Lam_bar, eps)
    lam0 = 0.0
    if Lam is not None and Lam_bar is not None:
        lam0 = Lam / kappa + Lam_bar * ellzs[0] / (kappa * ells[0])
    return ParamSet("desk", mu, lams, ells, ellzs, lam0, violations)


# ---------------------------------------------------------------------------
# starting tuple

def initial_data(grid, tgrid, M=0.05, lam=8, analytic=False):
    """Explicit shear starting tuple (v, theta, R0, f0) and its "terms", each
    field as (time factor, profile) terms; the pressure p is only its term.

    By default the time derivative of the cutoff is taken with the same
    4th-order stencil the residual evaluator uses, so the discrete tuple
    closes the system to roundoff.  With analytic=True the closed-form
    derivative enters the stress instead, and the residual exposes the
    stencil's truncation error (the discretization-floor reference).
    """
    times = tgrid.times()
    chi = time_cutoff(times)
    chi_p = time_cutoff_derivative(times) if analytic else tf.time_derivative(chi, tgrid)
    _, Y, Z = grid.meshes()
    nt = tgrid.nt
    cyl, syl, szl = np.cos(lam * Y), np.sin(lam * Y), np.sin(lam * Z)
    A, B = 10.0 * M * chi, 10.0 * M * chi_p  # the time factors
    ch, chp = A.reshape(-1, 1, 1, 1), B.reshape(-1, 1, 1, 1)
    v = np.zeros((nt, 3) + grid.shape)
    v[:, 0] = ch * cyl
    theta = ch * cyl
    R0 = np.zeros((nt, 6) + grid.shape)
    R0[:, 1] = chp * syl / lam          # xy
    R0[:, 4] = -ch * syl / lam          # yz
    R0[:, 5] = chp * szl / lam          # zz
    f0 = np.zeros((nt, 3) + grid.shape)
    f0[:, 1] = chp * syl / lam
    # the differentiated fields as (time factor, profile) terms, to roundoff
    zero = np.zeros(grid.shape)
    terms = {"v": [(A, np.stack([cyl, zero, zero]))], "theta": [(A, cyl)],
             "R0": [(B, np.stack([zero, syl, zero, zero, zero, szl]) / lam),
                    (A, np.stack([zero, zero, zero, zero, -syl, zero]) / lam)],
             "f0": [(B, np.stack([zero, syl, zero]) / lam)], "p": [(B, szl / lam)]}
    return {"v": v, "theta": theta, "R0": R0, "f0": f0, "terms": terms}


def _separable(terms):
    """sum_k T_k (x) P_k over (time factor, profile) terms, sample by sample
    into one new store; the components where a profile is zero stay zero."""
    out = np.zeros(terms[0][0].shape + terms[0][1].shape)
    for T, P in terms:
        for c in filter(lambda c: P[c].any(), np.ndindex(P.shape[:-3])):
            for j, t in enumerate(T):
                out[j][c] += t * P[c]
    return out


def initial_state(grid, tgrid, mu, kappa, e_vals, M=0.05, lam=8, analytic=False):
    """StepState for the first outer step, every derivative store built from
    the starting tuple's separable terms: each spatial operator once per
    profile, d_t by the stencil on each time factor (with analytic=True too),
    dt_*_coarse on tgrid.halved() (None when the time grid does not halve);
    the pressure as its time factor and the gradient of its profile."""
    data = initial_data(grid, tgrid, M=M, lam=lam, analytic=analytic)
    nt, ctg, terms = tgrid.nt, tgrid.halved(), data["terms"]
    [(tv, pv)], [(tth, pth)], [(tp, pp)] = terms["v"], terms["theta"], terms["p"]
    (grad_pv, dzz_pv), (grad_pth, dzz_pth) = (tf.gradient_and_dzz(P, grid) for P in (pv, pth))
    div = lambda key: _separable([(T, tf.divergence(P, grid)) for T, P in terms[key]])
    dt = lambda T, P, tg: None if tg is None else _separable([(tf.time_derivative(T, tg), P)])
    return StepState(
        grid, tgrid, mu, kappa, e_vals,
        v=data["v"], theta=data["theta"], p_factor=tp, grad_p_profile=tf.gradient(pp, grid),
        grad_v=_separable([(tv, grad_pv)]), grad_theta=_separable([(tth, grad_pth)]),
        dt_v=dt(tv, pv, tgrid), dt_theta=dt(tth, pth, tgrid),
        dzz_v=_separable([(tv, dzz_pv)]), dzz_theta=_separable([(tth, dzz_pth)]),
        R=data["R0"], f=data["f0"], div_R_store=div("R0"), div_f_store=div("f0"),
        a=np.zeros((nt, 6) + grid.shape), c=np.zeros((nt, 3) + grid.shape),
        dt_v_coarse=dt(tv[::2], pv, ctg), dt_theta_coarse=dt(tth[::2], pth, ctg),
    )


# ---------------------------------------------------------------------------
# step driver

def begin_step(state, ell1, ell1z):
    """Decompose the carried stress / flux into block coefficients and
    mollify them once at the step's base scales.  Returns the block report.

    Like the per-substep engine inputs, the mollified coefficients are
    truncated to the resolved band (StepState.mollify): the carried stress
    contains folded carrier images that the mollifier damps but cannot
    remove.  A failed state (run_substep) is refused."""
    if state.failed:
        raise ValueError(f"begin_step on a failed state ({state.failed})")
    if state.completed:
        raise ValueError("begin_step on a state with completed substeps")
    report = {"violations": []}
    for blk in BLOCKS.values():
        store = getattr(state, blk.store)
        raw = np.empty_like(store)  # as many coefficients as components
        for sample, out in zip(store, raw):
            blk.decompose(sample, out)
        coef = state.mollify(raw, ell1, ell1z)
        setattr(state, blk.coef, coef)
        sup, bound = tf.sup_norm(coef), blk.bound * state.kappa
        report.update({f"{blk.coef}_sup": sup, f"{blk.coef}_bound": bound})
        if not sup <= bound:
            report["violations"].append(f"{blk.noun} coefficients {sup:.4g} exceed "
                                        f"{blk.bound:g} kappa = {bound:.4g}")
    return report


def run_step(state, lams, ells, ellzs, tolerance=5.0):
    """One outer step on a state from initial_state or advance_step:
    begin_step at (ells[0], ellzs[0]), then the six substeps, each followed
    by the Richardson check at `tolerance`, kept as that substep report's
    `residual`.  Wrong ladder lengths are refused first (state untouched).

    Returns the step report: the block and substep reports, M_rec, the sup
    norms of the stress / flux updates (the carried stores once every block
    is cancelled) and of the velocity / temperature increments,
    failed_substeps (the substeps whose check failed), passed."""
    if len(lams) != 6 or len(ells) != 6 or len(ellzs) != 6:
        raise ValueError("need six lambda / ell / ell_z values")
    t0 = time.perf_counter()
    v0, th0 = state.v.copy(), state.theta.copy()
    blocks = begin_step(state, ells[0], ellzs[0])
    subs = []
    for n in range(1, 7):
        subs.append(run_substep(state, n, lams[n - 1], ells[n - 1], ellzs[n - 1]))
        subs[-1]["residual"] = dg.richardson_floor(state, tolerance)
    report = {key: tf.max_or_nan(*(r[key] for r in subs)) for key in (
        "sup_b", "w_sup", "w_main_sup", "chi_sup", "chi_main_sup", "cancel_r1", "cancel_r2")}
    sqk = math.sqrt(state.kappa)
    failed = [r["n"] for r in subs if not r["residual"]["passed"]]
    report.update({
        "kappa": state.kappa,
        "M_rec": 300.0 * report["sup_b"] / sqk if sqk > 0 else 0.0,
        "delta_R_sup": tf.sup_norm(state.R),
        "delta_f_sup": tf.sup_norm(state.f),
        "v_increment_sup": tf.sup_norm(state.v - v0),
        "theta_increment_sup": tf.sup_norm(state.theta - th0),
        "blocks": blocks,
        "failed_substeps": failed,
        "passed": not failed,
        "wall_time": time.perf_counter() - t0,
        "substeps": subs,
    })
    return report


def advance_step(state, kappa_next, e_vals_next):
    """Roll a completed step into the next step's input state.

    Every store continues in place: the stress / flux, now the finished
    step's update, becomes the next step's carried stress / flux; the block
    coefficients start again at zero."""
    if state.completed != 6:
        raise ValueError(f"cannot advance: only {state.completed} substeps completed")
    return dataclasses.replace(state, kappa=kappa_next, e_vals=e_vals_next,
                               a=np.zeros_like(state.a), c=np.zeros_like(state.c))


def run_outer(state, lams, ells, ellzs, steps, schedule_b=1.5, tolerance=5.0):
    """Chain `steps` outer steps (run_step) from a starting state.

    Step s runs under the budget kappa_s = a^(-b^s) with a = 1/state.kappa
    and b = schedule_b, on the frequency ladder lams doubled s times.  From
    the second step on, the energy profile must keep e - a >= kappa/2 on the
    stress support, so its level is 10 kappa_s plus a floor set by the
    carried stress.  Returns the final state and the report: per-step
    reports, the kappas, and whether every substep's check passed.  Each
    step report adds R_growth (sup R after the step over sup R carried in),
    e_over_kappa (max e over the step's kappa) and contracting (R_growth < 1)."""
    if steps < 1:
        raise ValueError(f"steps = {steps} must be >= 1")
    kappas = [state.kappa ** (schedule_b ** s) for s in range(steps)]
    reports = []
    for s, kappa in enumerate(kappas):
        if s > 0:
            level = 10 * kappa + 8.0 * tf.sup_norm(state.R)
            state = advance_step(state, kappa, np.full(state.tgrid.nt, level))
        carried = tf.sup_norm(state.R)
        rep = run_step(state, [lam * 2 ** s for lam in lams], ells, ellzs, tolerance)
        growth = rep["delta_R_sup"] / carried if carried > 0 else math.inf
        reports.append({**rep, "R_growth": growth, "contracting": growth < 1,
                        "e_over_kappa": float(np.max(state.e_vals)) / kappa})
    passed = all(rep["passed"] for rep in reports)
    return state, {"steps": reports, "kappas": kappas, "passed": passed}


# ---------------------------------------------------------------------------
# report serialization

def format_report(report, prefix=""):
    """Flatten a report tree into sorted key=value lines."""
    lines = []
    for key in sorted(report):
        val = report[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            lines.extend(format_report(val, prefix=f"{name}."))
        elif isinstance(val, (list, tuple)):
            if all(isinstance(x, dict) for x in val) and val:
                for i, item in enumerate(val):
                    lines.extend(format_report(item, prefix=f"{name}[{i}]."))
            else:
                lines.append(f"{name}={','.join(str(x) for x in val)}")
        elif isinstance(val, float):
            lines.append(f"{name}={val:.10g}")
        else:
            lines.append(f"{name}={val}")
    return lines


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(format_report(report)) + "\n")
