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
cancellation substeps, and rolling the accumulated updates into the next
step's input.
"""

import math
import time

import numpy as np

from . import algebra
from . import diagnostics as dg
from . import partition as pt
from . import torus_field as tf
from .stress_update import StepState, run_substep

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


def time_cutoff(times, support=(1.0, 4.0), core=(2.0, 3.0)):
    """Smooth bump in time: 1 on [core], 0 outside (support)."""
    return energy_profile(times, support, core, 1.0)


def time_cutoff_derivative(times, support=(1.0, 4.0), core=(2.0, 3.0)):
    """Closed-form d/dt of time_cutoff (the comparison point for the
    stencil-based derivative used in the discrete tuple)."""
    z0, z1 = support
    p0, p1 = core
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

    def __init__(self, mode, mu, lams, ells, ellzs, lam0, violations, raw=None):
        self.mode = mode
        self.mu = int(mu)
        self.lams = tuple(int(v) for v in lams)
        self.ells = tuple(float(v) for v in ells)
        self.ellzs = tuple(float(v) for v in ellzs)
        self.lam0 = float(lam0)
        self.violations = list(violations)
        self.raw = dict(raw or {})

    def __repr__(self):
        return (f"ParamSet(mode={self.mode!r}, mu={self.mu}, lams={self.lams}, "
                f"violations={len(self.violations)})")


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


def choose_params(L_v, kappa, kappa_bar, Lam, Lam_bar, D_v, eps=0.05, n_max=6):
    """Closed-formula parameters from the budget constants.

    kappa: current stress budget, kappa_bar: target budget for the next step
    (the contract requires kappa_bar <= kappa^{3/2}).  Lam / Lam_bar are the
    measured frequency scales of the carried tuple; L_v and D_v are the
    scheme's bookkeeping constants.  Frequencies are rounded up to integer
    multiples of mu, then the admissibility predicates are re-checked.
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
    for n in range(2, n_max + 1):
        ells.append(kappa_bar / (L_v * kappa * lams[-1]))
        ellzs.append(kappa_bar / (L_v * sk * (sk * mu) ** (n - 1) * Lam_bar))
        lam = D_v * (kappa * mu * lams[-1] ** (1.0 + eps)
                     + (sk * mu) ** n * Lam_bar / ellzs[-1]) / kappa_bar
        lams.append(mu * math.ceil(lam / mu))
    lam0 = Lam / kappa + Lam_bar * ellzs[0] / (kappa * ells[0])
    violations = _predicates(mu, lams, ells, ellzs, kappa, Lam, Lam_bar, eps)
    raw = {"L_v": L_v, "kappa": kappa, "kappa_bar": kappa_bar,
           "Lam": Lam, "Lam_bar": Lam_bar, "D_v": D_v, "eps": eps}
    return ParamSet("asymptotic", mu, lams, ells, ellzs, lam0, violations, raw)


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
    """Explicit shear starting tuple (v, theta, p, R0, f0).

    By default the time derivative of the cutoff is taken with the same
    4th-order stencil the residual evaluator uses, so the discrete tuple
    closes the system to roundoff.  With analytic=True the closed-form
    derivative enters the stress instead, and the residual exposes the
    stencil's truncation error (the discretization-floor reference).
    """
    times = tgrid.times()
    chi = time_cutoff(times)
    if analytic:
        chi_p = time_cutoff_derivative(times)
    else:
        chi_p = tf.time_derivative(chi, tgrid)
    _, Y, Z = grid.meshes()
    nt = tgrid.nt
    cyl = np.cos(lam * Y)
    syl = np.sin(lam * Y)
    szl = np.sin(lam * Z)
    ch = chi.reshape(-1, 1, 1, 1)
    chp = chi_p.reshape(-1, 1, 1, 1)
    amp = 10.0 * M
    v = np.zeros((nt, 3) + grid.shape)
    v[:, 0] = amp * ch * cyl
    theta = amp * ch * cyl
    p = amp * chp * szl / lam
    R0 = np.zeros((nt, 6) + grid.shape)
    R0[:, 1] = amp * chp * syl / lam          # xy
    R0[:, 4] = -amp * ch * syl / lam          # yz
    R0[:, 5] = amp * chp * szl / lam          # zz
    f0 = np.zeros((nt, 3) + grid.shape)
    f0[:, 1] = amp * chp * syl / lam
    return {"v": v, "theta": theta, "p": p, "R0": R0, "f0": f0,
            "chi": chi, "chi_prime": chi_p}


def initial_state(grid, tgrid, mu, kappa, e_vals, M=0.05, lam=8, pou=None,
                  coarse=True, analytic=False):
    """StepState for the first outer step, with every derivative store built
    from the explicit starting tuple."""
    data = initial_data(grid, tgrid, M=M, lam=lam, analytic=analytic)
    nt = tgrid.nt
    v, theta, p = data["v"], data["theta"], data["p"]
    grad_v = np.zeros((nt, 3, 3) + grid.shape)
    dzz_v = np.zeros((nt, 3) + grid.shape)
    grad_theta = np.zeros((nt, 3) + grid.shape)
    dzz_theta = np.zeros((nt,) + grid.shape)
    div_R0 = np.zeros((nt, 3) + grid.shape)
    div_f0 = np.zeros((nt,) + grid.shape)
    for j in range(nt):
        grad_v[j], dzz_v[j] = tf.gradient_and_dzz(v[j], grid)
        grad_theta[j], dzz_theta[j] = tf.gradient_and_dzz(theta[j], grid)
        div_R0[j] = tf.divergence(data["R0"][j], grid)
        div_f0[j] = tf.divergence(data["f0"][j], grid)
    dt_v = tf.time_derivative(v, tgrid)
    dt_theta = tf.time_derivative(theta, tgrid)
    dt_v_coarse = dt_theta_coarse = None
    if coarse and (nt - 1) % 2 == 0 and (nt - 1) // 2 + 1 >= 5:
        ctg = tf.TimeGrid(tgrid.t0, tgrid.t1, (nt - 1) // 2 + 1)
        dt_v_coarse = tf.time_derivative(v[::2], ctg)
        dt_theta_coarse = tf.time_derivative(theta[::2], ctg)
    return StepState(
        grid, tgrid, mu, kappa, e_vals,
        pou if pou is not None else pt.PartitionOfUnity(),
        v=v, theta=theta, p=p, grad_v=grad_v, grad_theta=grad_theta,
        dt_v=dt_v, dt_theta=dt_theta, dzz_v=dzz_v, dzz_theta=dzz_theta,
        R0=data["R0"], f0=data["f0"], div_R0_store=div_R0, div_f0_store=div_f0,
        a=np.zeros((nt, 6) + grid.shape), c=np.zeros((nt, 3) + grid.shape),
        dt_v_coarse=dt_v_coarse, dt_theta_coarse=dt_theta_coarse,
    )


# ---------------------------------------------------------------------------
# step driver

def begin_step(state, ell1, ell1z, band=None):
    """Decompose the carried stress / flux into block coefficients and
    mollify them once at the step's base scales.  Returns the block report.

    Like the per-substep engine inputs, the mollified coefficients are
    truncated to the resolved band in the mollifier's pass: the carried
    stress contains folded carrier images that the mollifier damps but
    cannot remove.  A failed state (run_substep) is refused."""
    if state.failed:
        raise ValueError(f"begin_step on a failed state ({state.failed})")
    if state.completed:
        raise ValueError("begin_step on a state with completed substeps")
    if band is None:
        band = min(state.grid.shape) // 4
    gam = algebra.decompose_sym(tf.sym_unpack(np.moveaxis(state.R0, 1, 0)))
    a_raw = np.moveaxis(gam, 0, 1)  # (nt, 6, grid)
    bvec = algebra.decompose_vec(np.moveaxis(state.f0, 1, 0))
    c_raw = np.moveaxis(bvec, 0, 1)
    state.a = tf.mollify(a_raw, state.tgrid, state.grid, ell1, ell1z, band=band)
    state.c = tf.mollify(c_raw, state.tgrid, state.grid, ell1, ell1z, band=band)
    a_sup = tf.sup_norm(state.a)
    c_sup = tf.sup_norm(state.c)
    report = {
        "a_sup": a_sup,
        "c_sup": c_sup,
        "a_bound": 5.0 * state.kappa,
        "c_bound": 2.0 * state.kappa,
        "violations": [],
    }
    if a_sup > 5.0 * state.kappa:
        report["violations"].append(
            f"block coefficients {a_sup:.4g} exceed 5 kappa = {5 * state.kappa:.4g}")
    if c_sup > 2.0 * state.kappa:
        report["violations"].append(
            f"flux coefficients {c_sup:.4g} exceed 2 kappa = {2 * state.kappa:.4g}")
    return report


def run_step(state, lams, ells, ellzs):
    """Run the six cancellation substeps on a prepared state (begin_step done).

    Returns the step report: per-substep reports, the recorded amplitude
    constant, and the norms of the accumulated stress / flux updates."""
    if len(lams) != 6 or len(ells) != 6 or len(ellzs) != 6:
        raise ValueError("need six lambda / ell / ell_z values")
    t0 = time.perf_counter()
    subs = []
    for n in range(1, 7):
        subs.append(run_substep(state, n, lams[n - 1], ells[n - 1], ellzs[n - 1]))
    sup_b = max(r["sup_b"] for r in subs)
    sqk = math.sqrt(state.kappa)
    report = {
        "kappa": state.kappa,
        "M_rec": 300.0 * sup_b / sqk if sqk > 0 else 0.0,
        "sup_b": sup_b,
        "w_sup": max(r["w_sup"] for r in subs),
        "w_main_sup": max(r["w_main_sup"] for r in subs),
        "chi_sup": max(r["chi_sup"] for r in subs),
        "chi_main_sup": max(r["chi_main_sup"] for r in subs),
        "cancel_r1": max(r["cancel_r1"] for r in subs),
        "cancel_r2": max(r["cancel_r2"] for r in subs),
        "delta_R_sup": tf.sup_norm(state.delta_R),
        "delta_f_sup": tf.sup_norm(state.delta_f),
        "wall_time": time.perf_counter() - t0,
        "substeps": subs,
    }
    return report


def advance_step(state, kappa_next, e_vals_next):
    """Roll a completed step into the next step's input state.

    The accumulated stress / flux updates become the new carried stress /
    flux; the velocity, temperature and every derivative store continue in
    place."""
    if state.completed != 6:
        raise ValueError(f"cannot advance: only {state.completed} substeps completed")
    return StepState(
        state.grid, state.tgrid, state.mu, kappa_next, e_vals_next, state.pou,
        v=state.v, theta=state.theta, p=state.p,
        grad_v=state.grad_v, grad_theta=state.grad_theta,
        dt_v=state.dt_v, dt_theta=state.dt_theta,
        dzz_v=state.dzz_v, dzz_theta=state.dzz_theta,
        R0=state.delta_R, f0=state.delta_f,
        div_R0_store=state.div_R_store, div_f0_store=state.div_f_store,
        a=np.zeros_like(state.a), c=np.zeros_like(state.c),
        dt_v_coarse=state.dt_v_coarse, dt_theta_coarse=state.dt_theta_coarse,
    )


def run_outer(state, lams, ells, ellzs, steps, schedule_b=1.5, tolerance=5.0):
    """Chain `steps` outer steps from a prepared starting state.

    Step s runs under the budget kappa_s = a^(-b^s) with a = 1/state.kappa
    and b = schedule_b, on the frequency ladder lams doubled s times.  From
    the second step on, the energy profile must keep e - a >= kappa/2 on the
    stress support, so its level is 10 kappa_s plus a floor set by the
    carried stress.  Every step ends with the Richardson check.  Returns the
    final state and the report: per-step reports (with the velocity and
    temperature increments), the kappas, and whether every check passed."""
    kappas = [state.kappa ** (schedule_b ** s) for s in range(steps)]
    reports = []
    for s, kappa in enumerate(kappas):
        if s > 0:
            level = 10 * kappa + 8.0 * tf.sup_norm(state.delta_R)
            state = advance_step(state, kappa, np.full(state.tgrid.nt, level))
        v0 = state.v.copy()
        th0 = state.theta.copy()
        blocks = begin_step(state, ells[0], ellzs[0])
        rep = run_step(state, [lam * 2 ** s for lam in lams], ells, ellzs)
        rep["blocks"] = blocks
        rep["v_increment_sup"] = tf.sup_norm(state.v - v0)
        rep["theta_increment_sup"] = tf.sup_norm(state.theta - th0)
        rep["residual"] = dg.richardson_floor(state, tolerance)
        reports.append(rep)
    passed = all(rep["residual"]["passed"] for rep in reports)
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
