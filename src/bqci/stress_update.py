"""Stress and flux updates for one cancellation substep.

Each substep n builds the modulated wave from the mollified block
coefficients (the perturbation engine), then reassembles the stress and
flux: the oscillation interactions are expanded into discrete wavevector
modes (every carrier is an integer multiple of the shared direction, so a
mode is q * carrier), the inverse-divergence operators act mode by mode
through shifted symbols, and the slow interaction terms are materialized
pointwise.

Divergence bookkeeping: for every contribution to delta R / delta f the
exact divergence of the materialized field is added alongside it to the
carried store's divergence (for inverse-divergence outputs this is the
operator input minus its mean, an exact symbol identity; for pointwise
products it is the product rule over stored gradients).  The stored
divergences are what the residual evaluator consumes -- fast content must
never be differentiated through a plain grid transform.  Terms whose exact
value is a materially-zero divergence (div of the full wave, div of the
accumulated velocity) are omitted from the stores; they sit far below the
time-discretization floor.

The velocity and temperature terms share their code where the paper's
construction does: a wave kind ("w" or "chi") selects the antidivergence
(R on vector amplitudes, G on scalar ones), the block it cancels and the
StepState stores it updates.  Likewise the stress R = sum_i gamma_i k_i (x) k_i
and the flux f = sum_i b_i k_i share one block path: a block kind ("R" or
"f", BLOCKS) selects the carried store and its divergence, the coefficients
and their basis.
"""

import dataclasses
import time
from collections import namedtuple

import numpy as np

from . import algebra
from . import torus_field as tf
from .inverse_div import div_mode_hat, g_hat, mode_stress, r_hat
from .perturbation import WaveEngine

__all__ = ["BLOCKS", "StepState", "SubstepAssembler", "block", "run_substep"]


# ---------------------------------------------------------------------------
# per-substep assembler

class SubstepAssembler:
    """Builds the delta stress / delta flux contributions at one time sample.

    v_prev / theta_prev are the accumulated fields *before* this substep's
    wave is added; grad_* are their exact materialized gradients.  theta_ell
    is the mollified temperature driving the flux interaction terms.  start
    is the step state on the first substep only (None later): there the
    mollification residual of its carried stress and flux enters the update.

    The waves, their gradients and the op fields are the engine's (wave_parts,
    wave_gradient_parts, field); a wave kind selects the antidivergence its
    terms take (_ANTIDIV).
    """

    def __init__(self, engine, v_prev, grad_v_prev, theta_prev, grad_theta_prev,
                 theta_ell, start=None):
        self.e = engine
        self.grid = engine.grid
        self.v_prev = v_prev
        self.grad_v_prev = grad_v_prev
        self.theta_prev = theta_prev
        self.grad_theta_prev = grad_theta_prev
        self.theta_ell = theta_ell
        self.start = start

    def _grad_theta_ell(self, j):
        return self.e.per_slice(j, "grad_theta_ell",
                                lambda: tf.gradient(self.theta_ell[j], self.grid))

    # -- oscillation mode expansion -------------------------------------------

    def oscillation_modes(self, j, kind):
        """Quadratic main-wave interactions as {q: scalar amplitude}: the
        product of the main velocity scalar with the main scalar of wave kind
        is sum_q 2 Re(A_q e^{i q carrier.x}), with the zero mode (the block
        being cancelled) removed; times k (x) k for 'w', k for 'chi'."""
        rows, cls, lam = self.e.base_rows(j), self.e.classes(j), self.e.lam
        A, B = rows["U"], rows[self.e.KEYS[kind].base]
        active_a = [(r, int(c)) for r, c in enumerate(cls) if np.any(A[r])]
        active_b = [(r, int(c)) for r, c in enumerate(cls) if np.any(B[r])]
        modes = {}
        for ra, c in active_a:
            for rb, cp in active_b:
                for sign, other in ((1, B[rb]), (-1, B[rb].conj())):
                    q = lam * (2 ** c + sign * 2 ** cp)
                    if q == 0:
                        continue
                    amp = A[ra] * other
                    if q < 0:
                        q, amp = -q, amp.conj()
                    if q in modes:
                        modes[q] = modes[q] + amp
                    else:
                        modes[q] = amp
        return modes

    # -- inverse-divergence applications --------------------------------------

    def r_div_M(self, j):
        """R(div M), M = w_no (x) w_no minus the stress block."""
        return self._oscillation(j, "w")

    def g_div_K(self, j):
        """G(div K), K = w_no chi_no minus the flux block."""
        return self._oscillation(j, "chi")

    def _oscillation(self, j, kind):
        """R(div M) ('w') or G(div K) ('chi'): per mode the input is the
        scalar k . grad A times the polarization (k or 1), so each mode costs
        one forward transform and the real mode symbol of
        g = G(div(A k e^{i xi.x})) (div_mode_hat, on the engine's shift
        entry of the mode); the phase multiplies fold into one accumulated
        inverse transform of g's three components (WaveEngine.assemble).
        The stress modes follow from g pointwise (mode_stress: k is real and
        constant), so 'w' transforms three components, not six.

        The stored divergence is not the per-mode symbol identity but the
        pointwise main-wave advection of the main wave of kind, plus its
        main part times div w_no, plus the spectral divergence of the block
        being cancelled: that is what the equation actually gains when the
        wave product replaces the block, evaluated with the same per-class
        gradients the derivative stores carry.  Differentiating the mode
        amplitudes (products of class amplitudes) spectrally would disagree
        with those stores near the grid cutoff."""
        modes = self.oscillation_modes(j, kind)
        blk = _ANTIDIV[kind][2]
        k = self.e.k
        field = self.e.assemble(map(tf.fft3, modes.values()), modes.keys(), (3,),
                                lambda Ah, entry: div_mode_hat(Ah, k, entry))
        if kind == "w":
            field = mode_stress(field, k)
        w_o = self.e.wave_parts(j, "w")[0]
        go = self.e.wave_gradient_parts(j, "w")[0]
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        x_o = self.e.wave_parts(j, kind)[0]
        gx_o = self.e.wave_gradient_parts(j, kind)[0]
        coef = getattr(self.e, BLOCKS[blk].coef + "_n")[j]
        div = (np.einsum("b...,b...->...", w_o, gx_o) + x_o * div_wo
               + block(blk, coef, self.e.n - 1, self.grid)[1])
        return field, div

    def _class_modes(self, j, kind, hats, field):
        """R ('w', vector amplitudes) or G ('chi', scalar amplitudes) applied
        to a sum of class-carrier amplitudes given by their spectra on the
        rows of classes(j); field is the materialized input, and the stored
        divergence is field minus its (exact) mean."""
        sym, ncomp, _ = _ANTIDIV[kind]
        live = [(h, q) for h, q in zip(hats, self.e.class_q[self.e.classes(j)]) if np.any(h)]
        hats, qs = [h for h, _ in live], [q for _, q in live]
        out = self.e.assemble(hats, qs, (ncomp,), sym)
        mean = self.e.dropped_mean(hats, qs)
        return out, field - 2.0 * np.reshape(mean, np.shape(mean) + (1, 1, 1))

    def _field_modes(self, j, op, kind):
        """_class_modes of the engine's op spectra of wave kind."""
        return self._class_modes(j, kind, getattr(self.e, op + "_hat")(j, kind),
                                 self.e.field(j, op, kind))

    def transport_R(self, j):
        return self._field_modes(j, "transport", "w")

    def transport_f(self, j):
        return self._field_modes(j, "transport", "chi")

    def r_dzz_and_buoyancy(self, j):
        """R(d_zz w + chi e3): both enter error_corr with the same sign and R
        is linear, so they share one pass over the classes."""
        return self._with_buoyancy(j, self.e.dzz_hat(j, "w"), self.e.field(j, "dzz", "w"))

    def r_buoyancy(self, j):
        """R(chi e3) -- the buoyancy of the temperature wave."""
        na = len(self.e.classes(j))
        return self._with_buoyancy(j, np.zeros((na, 3) + self.grid.shape, dtype=complex),
                                   np.zeros((3,) + self.grid.shape))

    def _with_buoyancy(self, j, hats, field):
        """R of the vector class spectra hats (materialized: field) plus
        chi e3 when the engine carries a temperature wave."""
        if "chi" in self.e.kinds:
            hats, field = hats.copy(), field.copy()
            hats[:, 2] += sum(self.e.wave_hats(j, "chi"))
            field[2] += sum(self.e.wave_parts(j, "chi"))
        return self._class_modes(j, "w", hats, field)

    # -- pointwise interaction terms ------------------------------------------

    def N_field(self, j):
        """Slow interaction of the wave with the carrier velocity:
        w (x) v + v (x) w - sym(sum_l w_l (x) l/mu)."""
        w = sum(self.e.wave_parts(j, "w"))
        v = self.v_prev[j]
        qq = self.e.assemble_hat(self.e.packed_momentum_hat(j), self.e.classes(j))
        T = w[:, None] * v[None, :] + v[:, None] * w[None, :]
        grad_w = sum(self.e.wave_gradient_parts(j, "w"))
        vdw = np.einsum("b...,ba...->a...", v, grad_w)
        wdv = np.einsum("b...,ba...->a...", w, self.grad_v_prev[j])
        # cell-velocity advection of the wave, with the exact same amplitude
        # bookkeeping the transport and time-derivative stores use
        adv = self.e.field(j, "transport", "w") - self.e.field(j, "dt", "w")
        div3 = vdw + wdv - adv
        return tf.sym_pack(T) - qq, div3

    def product_corrections(self, j):
        """Quadratic terms involving the correction wave (main x corr and
        corr x corr)."""
        w_o, w_c = self.e.wave_parts(j, "w")
        go, gc = self.e.wave_gradient_parts(j, "w")
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        div_wc = gc[0, 0] + gc[1, 1] + gc[2, 2]
        T = (w_o[:, None] * w_c[None, :] + w_c[:, None] * w_o[None, :]
             + w_c[:, None] * w_c[None, :])
        div3 = (w_o * div_wc + np.einsum("b...,ba...->a...", w_c, go)
                + w_c * div_wo + np.einsum("b...,ba...->a...", w_o, gc)
                + w_c * div_wc + np.einsum("b...,ba...->a...", w_c, gc))
        return tf.sym_pack(T), div3

    def flux_momentum(self, j):
        """(v_ell - l/mu) paired with the temperature wave."""
        chi = sum(self.e.wave_parts(j, "chi"))
        # (d, grid): sum_l chi_l l_d / mu
        Pchi = self.e.assemble_hat(self.e.momentum_hat(j, "chi"), self.e.classes(j))
        v_ell = self.e.v_ell[j]
        t5 = v_ell * chi - Pchi
        grad_chi = sum(self.e.wave_gradient_parts(j, "chi"))
        adv = self.e.field(j, "transport", "chi") - self.e.field(j, "dt", "chi")
        div1 = (self.e.div_v_ell(j) * chi
                + np.einsum("b...,b...->...", v_ell, grad_chi)
                - adv)
        return t5, div1

    def flux_drift(self, j):
        chi = sum(self.e.wave_parts(j, "chi"))
        dv = self.v_prev[j] - self.e.v_ell[j]
        grad_chi = sum(self.e.wave_gradient_parts(j, "chi"))
        div1 = (-self.e.div_v_ell(j) * chi
                + np.einsum("b...,b...->...", dv, grad_chi))
        return dv * chi, div1

    def flux_products(self, j):
        chi_o, chi_c = self.e.wave_parts(j, "chi")
        w_o, w_c = self.e.wave_parts(j, "w")
        go, gc = self.e.wave_gradient_parts(j, "w")
        gco, gcc = self.e.wave_gradient_parts(j, "chi")
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        div_wc = gc[0, 0] + gc[1, 1] + gc[2, 2]
        chi = chi_o + chi_c
        grad_chi = gco + gcc
        field = w_c * chi + w_o * chi_c
        div1 = (div_wc * chi + np.einsum("b...,b...->...", w_c, grad_chi)
                + div_wo * chi_c + np.einsum("b...,b...->...", w_o, gcc))
        return field, div1

    def flux_theta_osc(self, j):
        """G(w . grad theta_ell), the fast flux induced on the mollified
        temperature."""
        # physical class velocity amplitudes (na, 3, grid)
        G = (self.e.polarize(self.e.base_rows(j)["U"], "w")
             + tf.ifft3(self.e.wave_hats(j, "w")[1]))
        gt = self._grad_theta_ell(j)
        amps = np.einsum("cb...,b...->c...", G, gt.astype(complex))
        hats = tf.fft3(amps)
        return self._class_modes(j, "chi", hats, self.e.assemble_hat(hats, self.e.classes(j)))

    def flux_theta_drift(self, j):
        w = sum(self.e.wave_parts(j, "w"))
        dtheta = self.theta_prev[j] - self.theta_ell[j]
        gdiff = self.grad_theta_prev[j] - self._grad_theta_ell(j)
        return w * dtheta, np.einsum("b...,b...->...", w, gdiff)

    # -- mollification residuals (first substep only) -------------------------

    def mollification(self, j, kind):
        """Carried stress ('R') or flux ('f') of the start state minus its
        mollified block sum (None after substep 1), with divergence None.

        The carried store already holds this residual with its exact
        divergence, so run_substep takes it back out of the store update:
        it enters only delta R / delta f and the report's parts.  From the
        second outer step on the carried stress is the previous update,
        whose fast content is aliased on the grid, so a grid divergence of
        it would be wrong."""
        if self.start is None:
            return None
        blk = BLOCKS[kind]
        return (getattr(self.start, blk.store)[j]
                - np.einsum("i...,im->m...", getattr(self.start, blk.coef)[j], blk.basis)), None

    # -- slice totals ---------------------------------------------------------

    def delta_R_slice(self, j):
        """(delta6, div3, parts) at time sample j; parts is the category
        breakdown whose fields sum to delta6 by construction."""
        osc, tr, nn = self.r_div_M(j), self.transport_R(j), self.N_field(j)
        zz, pr = self.r_dzz_and_buoyancy(j), self.product_corrections(j)
        return _total([
            ("oscillation", osc),
            ("transport", tr),
            ("error_N", nn),
            ("error_corr", (pr[0] - zz[0], pr[1] - zz[1])),
            ("mollification", self.mollification(j, "R")),
        ])

    def delta_f_slice(self, j):
        """(delta3, div1, parts) at time sample j, as delta_R_slice; the
        temperature wave's terms come first when the engine carries one."""
        terms = []
        if "chi" in self.e.kinds:
            dz = self._field_modes(j, "dzz", "chi")  # G(d_zz chi)
            terms = [
                ("oscillation", self.g_div_K(j)),
                ("transport", self.transport_f(j)),
                ("error_corr", (-dz[0], -dz[1])),
                ("error_corr", self.flux_products(j)),
                ("error_N", self.flux_momentum(j)),
                ("error_N", self.flux_drift(j)),
            ]
        return _total(terms + [
            ("error_N", self.flux_theta_osc(j)),
            ("error_N", self.flux_theta_drift(j)),
            ("mollification", self.mollification(j, "f")),
        ])


# per wave kind: the antidivergence its terms take (R on vector amplitudes,
# G on scalar ones), the symbol's output components, and the block kind its
# oscillation term cancels (the engine's coefficient: BLOCKS[...].coef + "_n")
_ANTIDIV = {"w": (r_hat, 6, "R"), "chi": (g_hat, 3, "f")}

# the update categories every slice reports
CATEGORIES = ("oscillation", "transport", "error_N", "error_corr", "mollification")


def _total(terms):
    """(delta, div, parts) of (category, (field, div) or None) terms summed
    in list order, in place; parts has every category, zero where it has no
    term (a category's only term is its part as is).  A div may be None (the
    mollification residual), but not the first term's."""
    terms = [(cat, term) for cat, term in terms if term is not None]
    delta = np.zeros_like(terms[0][1][0])
    div = np.zeros_like(terms[0][1][1])
    parts = dict.fromkeys(CATEGORIES)
    for cat, (field, dv) in terms:
        parts[cat] = field if parts[cat] is None else parts[cat] + field
        delta += field
        if dv is not None:
            div += dv
    zero = np.zeros_like(delta)
    return delta, div, {cat: zero if p is None else p for cat, p in parts.items()}


# ---------------------------------------------------------------------------
# step state

_KVECS = np.stack([algebra.basis_vector(i).astype(np.float64) for i in range(1, 7)])
_DYADS6 = np.stack([
    tf.sym_pack(np.outer(_KVECS[i], _KVECS[i])) for i in range(6)
])

# per block kind: the carried store and its exact divergence, the
# coefficients and their basis (packed k_i (x) k_i of rank 2, or k_i), the
# assembler's slice method, the decomposition of one carried sample into
# coefficients in out (looked up at call time, so a wrapped algebra function
# runs), and the coefficient bound in units of kappa
_Block = namedtuple("Block", "store div_store coef basis rank slice decompose bound noun")
BLOCKS = {
    "R": _Block(store="R", div_store="div_R_store", coef="a", basis=_DYADS6, rank=2,
                slice="delta_R_slice", bound=5.0, noun="block",
                decompose=lambda T, out: algebra.decompose_packed(T, out)),
    "f": _Block(store="f", div_store="div_f_store", coef="c", basis=_KVECS[:3], rank=1,
                slice="delta_f_slice", bound=2.0, noun="flux",
                decompose=lambda F, out: algebra.decompose_vec(F, out)),
}


@dataclasses.dataclass(eq=False)
class StepState:
    """State carried through the six substeps of one outer step.

    Every store is an (nt, ...) array: the accumulated v, theta; the exact
    derivative stores grad_*, dt_*, dzz_* (from the slow starting tuple,
    extended wave by wave) and the half-resolution dt_*_coarse companions of
    the discretization-floor estimate (None when nt does not halve); the
    current stress R (packed) and flux f with their exact divergences
    div_R_store / div_f_store; and a / c, the mollified block coefficients
    (begin_step).  No step changes the pressure: it is the time factor
    p_factor (nt,) times a profile whose gradient is grad_p_profile (3, grid).

    Substep n updates R and f in place: it adds its update (less the
    mollification residual, which the store already holds) and removes
    block n, a_n k_n (x) k_n or c_n k_n.  After substep n, R is the update
    so far plus sum_{i>n} a_i k_i (x) k_i.  The block the paper cancels is
    (a_i - e) k_i (x) k_i; the constant e k_i (x) k_i is divergence-free and
    is not stored.  After the sixth substep R and f are the step's update,
    and advance_step carries them into the next step as they are.

    __post_init__ sets completed and failed (None or the message of a
    refused slice that left the stores partly updated, run_substep), so
    dataclasses.replace starts a fresh step.  eq=False: a generated __eq__
    would compare arrays and make the state unhashable.
    """

    grid: tf.Grid3
    tgrid: tf.TimeGrid
    mu: int
    kappa: float
    e_vals: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    p_factor: np.ndarray
    grad_p_profile: np.ndarray
    grad_v: np.ndarray
    grad_theta: np.ndarray
    dt_v: np.ndarray
    dt_theta: np.ndarray
    dzz_v: np.ndarray
    dzz_theta: np.ndarray
    R: np.ndarray
    f: np.ndarray
    div_R_store: np.ndarray
    div_f_store: np.ndarray
    a: np.ndarray
    c: np.ndarray
    dt_v_coarse: np.ndarray = None
    dt_theta_coarse: np.ndarray = None

    def __post_init__(self):
        self.e_vals = np.asarray(self.e_vals, dtype=np.float64)
        self.completed, self.failed = 0, None

    def mollify(self, f, ell, ell_z):
        """tf.mollify of a time series f at (ell, ell_z), truncated to the
        resolved band |m| <= min(grid.shape) // 4 on every axis by the
        mollifier's own per-axis matrices.  Sampling folds the carried wave carriers onto
        in-band grid frequencies; the mollifier damps but cannot remove
        those images, and any remnant makes the cell-amplitude fields
        under-resolved, which shows up directly in the equation residual."""
        return tf.mollify(f, self.tgrid, self.grid, ell, ell_z,
                          band=min(self.grid.shape) // 4)


def block(kind, coef, i, grid):
    """Block i (from 0) of kind with coefficient coef (one sample) and its
    exact divergence: a_i k_i (x) k_i and (k_i . grad a_i) k_i ('R'), or
    c_i k_i and k_i . grad c_i ('f'), for run_substep and _oscillation."""
    blk, kv = BLOCKS[kind], _KVECS[i]
    # the derivatives of the coefficient along k's nonzero (unit) entries,
    # summed in the order (and so to the bits) of tf.divergence(coef k)
    div = sum(tf.derivative(coef, "xyz"[d], grid) for d in range(3) if kv[d])
    return (coef * blk.basis[i].reshape(-1, 1, 1, 1),
            div * kv.reshape(3, 1, 1, 1) if blk.rank == 2 else div)


# ---------------------------------------------------------------------------
# public entry points

# per wave kind: the StepState stores its wave, gradient, d_zz, d_t and
# stride-2 d_t accumulate into
_STORES = {"w": ("v", "grad_v", "dzz_v", "dt_v", "dt_v_coarse"),
           "chi": ("theta", "grad_theta", "dzz_theta", "dt_theta", "dt_theta_coarse")}


def run_substep(state, n, lam, ell, ell_z):
    """Execute cancellation substep n on the step state in place.

    Mollifies the carried fields at (ell, ell_z) (StepState.mollify), builds
    the wave engine on block n (and on flux block n where BLOCKS["f"] has
    one), updates the carried stress / flux and their divergence stores
    slice by slice (StepState), and adds the waves the engine carries
    (WaveEngine.kinds) to the velocity and temperature together with all
    derivative stores.  Returns the substep report.

    A slice whose delta R / delta f (or their divergence) or wave increment
    is not finite raises ValueError naming the substep, the slice and its
    time, before that quantity reaches the state.  Earlier slices stay
    updated, so the state is marked failed and refused from then on.
    """
    if state.failed:
        raise ValueError(f"substep {n} on a failed state ({state.failed})")
    if n != state.completed + 1 or not 1 <= n <= 6:
        raise ValueError(f"substep {n} out of order (completed = {state.completed})")
    t_start = time.perf_counter()
    grid, tgrid = state.grid, state.tgrid
    v_ell = state.mollify(state.v, ell, ell_z)
    theta_ell = state.mollify(state.theta, ell, ell_z)
    engine = WaveEngine(
        n, lam, state.mu, grid, tgrid,
        state.a[:, n - 1],
        state.c[:, n - 1] if n <= len(BLOCKS["f"].basis) else None,
        state.e_vals, v_ell, state.kappa,
    )
    asm = SubstepAssembler(engine, state.v, state.grad_v, state.theta, state.grad_theta,
                           theta_ell, start=state if n == 1 else None)
    nt = tgrid.nt
    times = tgrid.times()
    sup = dict.fromkeys(
        ["w", "w_main", "w_corr", "chi", "chi_main", "chi_corr",
         "delta_R", "delta_f", "cancel_r1", "cancel_r2"], 0.0)
    parts = {kind: dict.fromkeys(CATEGORIES, 0.0) for kind in BLOCKS}
    probe_js = sorted({nt // 4, nt // 2, (3 * nt) // 4})
    wave_mean_max = 0.0
    wave_div_rel = 0.0

    def require_finite(j, name, *fields):
        if not all(np.isfinite(f).all() for f in fields):
            state.failed = (f"substep {n}: {name} is not finite at slice {j} "
                            f"(t = {times[j]:.4f})")
            raise ValueError(f"{state.failed}; the state holds a partial "
                             f"update and is marked failed")

    for j in range(nt):
        r1, r2 = engine.cancellation_residual(j)
        sup["cancel_r1"] = tf.max_or_nan(sup["cancel_r1"], r1)
        sup["cancel_r2"] = tf.max_or_nan(sup["cancel_r2"], r2)

        for kind, blk in BLOCKS.items():
            delta, div, slice_parts = getattr(asm, blk.slice)(j)
            require_finite(j, f"delta_{kind}", delta, div)
            store, div_store = getattr(state, blk.store)[j], getattr(state, blk.div_store)[j]
            store += delta - slice_parts["mollification"]  # already in the store
            div_store += div
            if n <= len(blk.basis):  # block n leaves the store
                field, field_div = block(kind, getattr(state, blk.coef)[j, n - 1], n - 1, grid)
                store -= field
                div_store -= field_div
            sup[f"delta_{kind}"] = tf.max_or_nan(sup[f"delta_{kind}"], tf.sup_norm(delta))
            for key, field in slice_parts.items():
                parts[kind][key] = tf.max_or_nan(parts[kind][key], tf.sup_norm(field))

        if j in probe_js:
            for kind in engine.kinds:
                wave_mean_max = tf.max_or_nan(
                    wave_mean_max, float(np.max(np.abs(engine.wave_mean(j, kind)))))
            go, gc = engine.wave_gradient_parts(j, "w")
            gw = tf.sup_norm(go + gc)
            if gw > 0:
                wave_div_rel = tf.max_or_nan(
                    wave_div_rel, tf.sup_norm(engine.wave_divergence(j)) / gw)

        # wave accumulation (after all reads of the pre-substep fields at j);
        # the stride-2 companion at even samples of a state with coarse stores
        for kind in engine.kinds:
            main, corr = engine.wave_parts(j, kind)
            inc = main + corr
            require_finite(j, f"the {kind} wave", inc)
            sup[f"{kind}_main"] = tf.max_or_nan(sup[f"{kind}_main"], tf.sup_norm(main))
            sup[f"{kind}_corr"] = tf.max_or_nan(sup[f"{kind}_corr"], tf.sup_norm(corr))
            sup[kind] = tf.max_or_nan(sup[kind], tf.sup_norm(inc))
            field, grad, dzz, dt, dt_coarse = (getattr(state, name)
                                               for name in _STORES[kind])
            field[j] += inc
            grad[j] += sum(engine.wave_gradient_parts(j, kind))
            dzz[j] += engine.field(j, "dzz", kind)
            dt[j] += engine.field(j, "dt", kind)
            if j % 2 == 0 and dt_coarse is not None:
                dt_coarse[j // 2] += engine.assemble_hat(
                    engine.dt_hat(j, kind, stride=2), engine.classes(j, 2))

    state.completed = n
    return {
        "n": n,
        "lam": lam,
        "ell": ell,
        "ell_z": ell_z,
        "wall_time": time.perf_counter() - t_start,
        "sup_b": engine.sup_b(),
        "wave_mean_max": wave_mean_max,
        "wave_div_rel": wave_div_rel,
        **{f"parts_{kind}": p for kind, p in parts.items()},
        "cancel_r1": sup.pop("cancel_r1"),
        "cancel_r2": sup.pop("cancel_r2"),
        **{f"{k}_sup": val for k, val in sup.items()},
    }
