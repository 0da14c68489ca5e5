"""Stress and flux updates for one cancellation substep.

Each substep n builds the modulated wave from the mollified block
coefficients (the perturbation engine), then reassembles the stress and
flux: the oscillation interactions are expanded into discrete wavevector
modes (every carrier is an integer multiple of the shared direction, so a
mode is q * carrier), the inverse-divergence operators act mode by mode
through shifted symbols, and the slow interaction terms are materialized
pointwise.

Divergence bookkeeping: for every contribution to delta R / delta f the
exact divergence of the materialized field is accumulated alongside it
(for inverse-divergence outputs this is the operator input minus its mean,
an exact symbol identity; for pointwise products it is the product rule
over stored gradients).  The stored divergences are what the residual
evaluator consumes -- fast content must never be differentiated through a
plain grid transform.  Terms whose exact value is a materially-zero
divergence (div of the full wave, div of the accumulated velocity) are
omitted from the stores; they sit far below the time-discretization floor.

The velocity and temperature terms share their code where the paper's
construction does: a wave kind ("w" or "chi") selects the antidivergence
(R on vector amplitudes, G on scalar ones), the block it cancels and the
StepState stores it updates.
"""

import time

import numpy as np

from . import algebra
from . import torus_field as tf
from .inverse_div import g_hat, r_hat
from .perturbation import WaveEngine

__all__ = ["StepState", "SubstepAssembler", "run_substep"]


# ---------------------------------------------------------------------------
# per-substep assembler

class SubstepAssembler:
    """Builds the delta stress / delta flux contributions at one time sample.

    v_prev / theta_prev are the accumulated fields *before* this substep's
    wave is added; grad_* are their exact materialized gradients.  theta_ell
    is the mollified temperature driving the flux interaction terms.  The
    R0 / a_ell (f0 / c_ell) pairs are only supplied on the first substep,
    where the mollification residual enters the update.

    The waves and their gradients are the engine's materializations
    (WaveEngine.wave_parts / wave_gradient_parts); a wave kind selects the
    antidivergence its terms take (_ANTIDIV).
    """

    def __init__(self, engine, v_prev, grad_v_prev, theta_prev, grad_theta_prev,
                 theta_ell, R0=None, a_ell=None, f0=None, c_ell=None):
        self.e = engine
        self.grid = engine.grid
        self.v_prev = v_prev
        self.grad_v_prev = grad_v_prev
        self.theta_prev = theta_prev
        self.grad_theta_prev = grad_theta_prev
        self.theta_ell = theta_ell
        self.R0 = R0
        self.a_ell = a_ell
        self.f0 = f0
        self.c_ell = c_ell
        self._j = None
        self._memo = {}

    # -- per-slice memo -------------------------------------------------------

    def _m(self, j, name, fn):
        if self._j != j:
            self._j = j
            self._memo = {}
        if name not in self._memo:
            self._memo[name] = fn()
        return self._memo[name]

    def field(self, j, op, kind):
        """Materialized engine field op ('transport', 'dt' or 'dzz', the
        WaveEngine.<op>_hat spectra) of wave kind at sample j, shared by the
        stress term that needs it and the derivative stores (None without
        that wave)."""
        def build():
            hats = getattr(self.e, op + "_hat")(j, kind)
            return None if hats is None else self.e.assemble_hat(hats, self.e.classes(j))
        return self._m(j, (op, kind), build)

    def _div_v_ell(self, j):
        return self._m(j, "div_v_ell",
                       lambda: tf.divergence(self.e.v_ell[j], self.grid))

    def _grad_theta_ell(self, j):
        return self._m(j, "grad_theta_ell",
                       lambda: tf.gradient(self.theta_ell[j], self.grid))

    # -- oscillation mode expansion -------------------------------------------

    def oscillation_modes(self, j, kind):
        """Quadratic main-wave interactions as {q: scalar amplitude}: the
        product of the main velocity scalar with the main scalar of wave kind
        is sum_q 2 Re(A_q e^{i q carrier.x}), with the zero mode (the block
        being cancelled) removed; times k (x) k for 'w', k for 'chi'. None
        without that wave."""
        rows = self.e.base_rows(j)
        X = rows.get(self.e.KEYS[kind].base)
        if X is None:
            return None
        return self._pair_modes(rows["U"], X, self.e.classes(j))

    def _pair_modes(self, A, B, cls):
        """A, B: class scalars on the rows of the classes cls."""
        active_a = [(r, int(c)) for r, c in enumerate(cls) if np.any(A[r])]
        active_b = [(r, int(c)) for r, c in enumerate(cls) if np.any(B[r])]
        modes = {}
        lam = self.e.lam
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
        one forward transform and the symbol; the phase multiplies fold into
        one accumulated inverse transform.

        The stored divergence is not the per-mode symbol identity but the
        pointwise main-wave advection of the main wave of kind, plus its
        main part times div w_no, plus the spectral divergence of the block
        being cancelled: that is what the equation actually gains when the
        wave product replaces the block, evaluated with the same per-class
        gradients the derivative stores carry.  Differentiating the mode
        amplitudes (products of class amplitudes) spectrally would disagree
        with those stores near the grid cutoff."""
        modes = self.oscillation_modes(j, kind)
        if modes is None:
            return None
        sym, ncomp, block = _ANTIDIV[kind]
        acc = np.zeros((ncomp,) + self.grid.shape, dtype=complex)
        k = self.e.k.astype(np.float64)
        for q, A in modes.items():
            xi = q * self.e.carrier
            K = tf.shifted_k(self.grid, xi)
            dh = 1j * (k[0] * K[0] + k[1] * K[1] + k[2] * K[2]) * tf.fft3(A)
            out, _ = sym(self.e.polarize(dh, kind), K, self.grid.npts)
            # e^{i q carrier.x} on the sampled grid is an exact spectral
            # shift (tf.add_shifted)
            tf.add_shifted(acc, out, xi)
        w_o = self.e.wave_parts(j, "w")[0]
        go = self.e.wave_gradient_parts(j, "w")[0]
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        x_o = self.e.wave_parts(j, kind)[0]
        gx_o = self.e.wave_gradient_parts(j, kind)[0]
        grad_block = tf.gradient(getattr(self.e, block)[j], self.grid)
        div = (np.einsum("b...,b...->...", w_o, gx_o) + x_o * div_wo
               + self.e.polarize(np.einsum("b...,b...->...", k, grad_block), kind))
        return tf.twice_real_ifft3(acc), div

    def _class_modes(self, j, kind, hats, field):
        """R ('w', vector amplitudes) or G ('chi', scalar amplitudes) applied
        to a sum of class-carrier amplitudes given by their spectra on the
        rows of classes(j); field is the materialized input, and the stored
        divergence is field minus its (exact) mean."""
        sym, ncomp, _ = _ANTIDIV[kind]
        acc = np.zeros((ncomp,) + self.grid.shape, dtype=complex)
        mean = 0.0
        for row, c in enumerate(self.e.classes(j)):
            if not np.any(hats[row]):
                continue
            xi = self.e.xi(c)
            out, m = sym(hats[row], tf.shifted_k(self.grid, xi), self.grid.npts)
            tf.add_shifted(acc, out, xi)
            mean = mean + m.real
        return (tf.twice_real_ifft3(acc),
                field - 2.0 * np.reshape(mean, np.shape(mean) + (1, 1, 1)))

    def _field_modes(self, j, op, kind):
        """_class_modes of the engine's op spectra of wave kind (None
        without that wave)."""
        hats = getattr(self.e, op + "_hat")(j, kind)
        if hats is None:
            return None
        return self._class_modes(j, kind, hats, self.field(j, op, kind))

    def transport_R(self, j):
        return self._field_modes(j, "transport", "w")

    def transport_f(self, j):
        return self._field_modes(j, "transport", "chi")

    def r_dzz_and_buoyancy(self, j):
        """R(d_zz w + chi e3): both enter error_corr with the same sign and R
        is linear, so they share one pass over the classes."""
        return self._with_buoyancy(j, self.e.dzz_hat(j, "w"), self.field(j, "dzz", "w"))

    def r_buoyancy(self, j):
        """R(chi e3) -- the buoyancy of the temperature wave."""
        if "chi" not in self.e.kinds:
            return None
        na = len(self.e.classes(j))
        return self._with_buoyancy(j, np.zeros((na, 3) + self.grid.shape, dtype=complex),
                                   np.zeros((3,) + self.grid.shape))

    def _with_buoyancy(self, j, hats, field):
        """R of the vector class spectra hats (materialized: field) plus
        chi e3."""
        chi = self.e.wave_hats(j, "chi")
        if chi is not None:
            hats, field = hats.copy(), field.copy()
            hats[:, 2] += sum(chi)
            field[2] += sum(self.e.wave_parts(j, "chi"))
        return self._class_modes(j, "w", hats, field)

    # -- pointwise interaction terms ------------------------------------------

    def N_field(self, j):
        """Slow interaction of the wave with the carrier velocity:
        w (x) v + v (x) w - sym(sum_l w_l (x) l/mu)."""
        w = sum(self.e.wave_parts(j, "w"))
        v = self.v_prev[j]
        # Q[a, b] = sum_l w_a l_b / mu; only the packed Q + Q^T enters, so
        # the six packed spectra are summed before materializing
        mh = self.e.momentum_hat(j, "w")  # (class, d, comp, grid)
        qq = self.e.assemble_hat(
            np.stack([mh[:, b, a] + mh[:, a, b] for a, b in tf.PACK], axis=1),
            self.e.classes(j))
        T = w[:, None] * v[None, :] + v[:, None] * w[None, :]
        grad_w = sum(self.e.wave_gradient_parts(j, "w"))
        vdw = np.einsum("b...,ba...->a...", v, grad_w)
        wdv = np.einsum("b...,ba...->a...", w, self.grad_v_prev[j])
        # cell-velocity advection of the wave, with the exact same amplitude
        # bookkeeping the transport and time-derivative stores use
        adv = self.field(j, "transport", "w") - self.field(j, "dt", "w")
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
        tmom = self.e.momentum_hat(j, "chi")
        if tmom is None:
            return None
        chi = sum(self.e.wave_parts(j, "chi"))
        Pchi = self.e.assemble_hat(tmom, self.e.classes(j))  # (d, grid): sum_l chi_l l_d / mu
        v_ell = self.e.v_ell[j]
        t5 = v_ell * chi - Pchi
        grad_chi = sum(self.e.wave_gradient_parts(j, "chi"))
        adv = self.field(j, "transport", "chi") - self.field(j, "dt", "chi")
        div1 = (self._div_v_ell(j) * chi
                + np.einsum("b...,b...->...", v_ell, grad_chi)
                - adv)
        return t5, div1

    def flux_drift(self, j):
        chi = sum(self.e.wave_parts(j, "chi"))
        if not np.any(chi):
            return None
        dv = self.v_prev[j] - self.e.v_ell[j]
        grad_chi = sum(self.e.wave_gradient_parts(j, "chi"))
        div1 = (-self._div_v_ell(j) * chi
                + np.einsum("b...,b...->...", dv, grad_chi))
        return dv * chi, div1

    def flux_products(self, j):
        chi_o, chi_c = self.e.wave_parts(j, "chi")
        if not np.any(chi_o) and not np.any(chi_c):
            return None
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

    def mollification_R(self, j):
        if self.R0 is None:
            return None
        Rm6 = self.R0[j] - np.einsum("i...,im->m...", self.a_ell[j], _DYADS6)
        return Rm6, tf.divergence(Rm6, self.grid)

    def mollification_f(self, j):
        if self.f0 is None:
            return None
        fm = self.f0[j] - np.einsum("i...,ia->a...", self.c_ell[j][:3], _KVECS[:3])
        return fm, tf.divergence(fm, self.grid)

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
            ("mollification", self.mollification_R(j)),
        ])

    def delta_f_slice(self, j):
        """(delta3, div1, parts) at time sample j, as delta_R_slice."""
        dz = self._field_modes(j, "dzz", "chi")  # G(d_zz chi)
        return _total([
            ("oscillation", self.g_div_K(j)),
            ("transport", self.transport_f(j)),
            ("error_corr", None if dz is None else (-dz[0], -dz[1])),
            ("error_corr", self.flux_products(j)),
            ("error_N", self.flux_momentum(j)),
            ("error_N", self.flux_drift(j)),
            ("error_N", self.flux_theta_osc(j)),
            ("error_N", self.flux_theta_drift(j)),
            ("mollification", self.mollification_f(j)),
        ])


# per wave kind: the antidivergence its terms take (R on vector amplitudes,
# G on scalar ones), the symbol's output components, and the engine
# attribute holding the block its oscillation term cancels
_ANTIDIV = {"w": (r_hat, 6, "a_n"), "chi": (g_hat, 3, "c_n")}

# the update categories every slice reports
CATEGORIES = ("oscillation", "transport", "error_N", "error_corr", "mollification")


def _total(terms):
    """(delta, div, parts) of (category, (field, div) or None) terms summed
    in list order; parts has every category, zero where it has no term."""
    terms = [(cat, term) for cat, term in terms if term is not None]
    zero = np.zeros_like(terms[0][1][0])
    parts = dict.fromkeys(CATEGORIES, zero)
    delta, div = zero, np.zeros_like(terms[0][1][1])
    for cat, (field, dv) in terms:
        parts[cat] = parts[cat] + field
        delta = delta + field
        div = div + dv
    return delta, div, parts


# ---------------------------------------------------------------------------
# step state

_KVECS = np.stack([algebra.basis_vector(i).astype(np.float64) for i in range(1, 7)])
_DYADS6 = np.stack([
    tf.sym_pack(np.outer(_KVECS[i], _KVECS[i])) for i in range(6)
])


class StepState:
    """Mutable state carried through the six substeps of one outer step.

    All fields are (nt, ...) arrays.  grad_v / grad_theta, dt_*, dzz_* are the
    exact derivative stores of the accumulated fields (initialized from the
    slow starting tuple, extended wave by wave).  a / c hold the mollified
    block coefficients fixed at the start of the step; delta_R / delta_f
    accumulate the substep updates, and div_*_store their exact divergences.
    The *_coarse stores hold the half-resolution time-derivative companions
    used for discretization-floor estimates (None when nt does not halve).
    failed is None, or the message of the refused slice that left the
    stores partly updated (run_substep).
    """

    def __init__(self, grid, tgrid, mu, kappa, e_vals, pou,
                 v, theta, p, grad_v, grad_theta,
                 dt_v, dt_theta, dzz_v, dzz_theta,
                 R0, f0, div_R0_store, div_f0_store, a, c,
                 dt_v_coarse=None, dt_theta_coarse=None):
        self.grid = grid
        self.tgrid = tgrid
        self.mu = mu
        self.kappa = kappa
        self.e_vals = np.asarray(e_vals, dtype=np.float64)
        self.pou = pou
        self.v = v
        self.theta = theta
        self.p = p
        self.grad_v = grad_v
        self.grad_theta = grad_theta
        self.dt_v = dt_v
        self.dt_theta = dt_theta
        self.dzz_v = dzz_v
        self.dzz_theta = dzz_theta
        self.R0 = R0
        self.f0 = f0
        self.div_R0_store = div_R0_store
        self.div_f0_store = div_f0_store
        self.a = a
        self.c = c
        self.dt_v_coarse = dt_v_coarse
        self.dt_theta_coarse = dt_theta_coarse
        nt = tgrid.nt
        self.delta_R = np.zeros((nt, 6) + grid.shape)
        self.delta_f = np.zeros((nt, 3) + grid.shape)
        self.div_R_store = np.zeros((nt, 3) + grid.shape)
        self.div_f_store = np.zeros((nt,) + grid.shape)
        self.completed = 0
        self.failed = None
        self.reports = []

    # -- assembled views ------------------------------------------------------

    def stress_field(self):
        """Current stress (nt, 6): remaining structured blocks plus the
        accumulated delta (before any substep this is just R0)."""
        if self.completed == 0:
            return self.R0.copy()
        out = self.delta_R.copy()
        e = self.e_vals.reshape(-1, *([1] * 4))
        for i in range(self.completed, 6):
            out -= (e - self.a[:, i : i + 1]) * _DYADS6[i].reshape(1, 6, 1, 1, 1)
        return out

    def flux_field(self):
        if self.completed == 0:
            return self.f0.copy()
        out = self.delta_f.copy()
        for i in range(self.completed, 3):
            out += self.c[:, i : i + 1] * _KVECS[i].reshape(1, 3, 1, 1, 1)
        return out

    def stress_divergence(self, j):
        """Exact divergence of the current stress at time sample j."""
        if self.completed == 0:
            return self.div_R0_store[j]
        out = self.div_R_store[j].copy()
        for i in range(self.completed, 6):
            k = _KVECS[i].reshape(3, 1, 1, 1)
            # div(a k (x) k) = (k . grad a) k
            out += tf.divergence(self.a[j, i] * k, self.grid) * k
        return out

    def flux_divergence(self, j):
        if self.completed == 0:
            return self.div_f0_store[j]
        out = self.div_f_store[j].copy()
        for i in range(self.completed, 3):
            out += tf.divergence(self.c[j, i] * _KVECS[i].reshape(3, 1, 1, 1),
                                 self.grid)
        return out


# ---------------------------------------------------------------------------
# public entry points

# per wave kind: the StepState stores its wave, gradient, d_zz, d_t and
# stride-2 d_t accumulate into
_STORES = {"w": ("v", "grad_v", "dzz_v", "dt_v", "dt_v_coarse"),
           "chi": ("theta", "grad_theta", "dzz_theta", "dt_theta", "dt_theta_coarse")}


def run_substep(state, n, lam, ell, ell_z, band=None):
    """Execute cancellation substep n on the step state in place.

    Mollifies the carried fields at (ell, ell_z), builds the wave engine on
    block n, accumulates delta R / delta f with their divergence stores, and
    adds the wave to the velocity (and temperature, substeps 1-3) together
    with all derivative stores.  Returns the substep report.

    The mollifier's pass truncates the engine inputs to |m| <= band on every
    axis (default: smallest grid extent over four).  Sampling folds the
    carried wave carriers onto in-band grid frequencies; the mollifier damps
    but cannot remove those images, and any remnant makes the cell-amplitude
    fields under-resolved, which shows up directly in the equation residual.

    A slice whose delta R / delta f (or their divergence) or wave increment
    is not finite raises ValueError naming the substep, the slice and its
    time, before that quantity reaches the state.  Earlier slices stay
    accumulated, so the state is marked failed and refused from then on.
    """
    if state.failed:
        raise ValueError(f"substep {n} on a failed state ({state.failed})")
    if n != state.completed + 1 or not 1 <= n <= 6:
        raise ValueError(f"substep {n} out of order (completed = {state.completed})")
    t_start = time.perf_counter()
    grid, tgrid = state.grid, state.tgrid
    if band is None:
        band = min(grid.shape) // 4
    v_ell = tf.mollify(state.v, tgrid, grid, ell, ell_z, band=band)
    theta_ell = tf.mollify(state.theta, tgrid, grid, ell, ell_z, band=band)
    engine = WaveEngine(
        n, lam, state.mu, grid, tgrid,
        state.a[:, n - 1],
        state.c[:, n - 1] if n <= 3 else None,
        state.e_vals, v_ell, state.kappa, pou=state.pou,
        companion=state.dt_v_coarse is not None,
    )
    first = n == 1
    asm = SubstepAssembler(
        engine, state.v, state.grad_v, state.theta, state.grad_theta, theta_ell,
        R0=state.R0 if first else None, a_ell=state.a if first else None,
        f0=state.f0 if first else None, c_ell=state.c if first else None,
    )
    nt = tgrid.nt
    times = tgrid.times()
    sup = dict.fromkeys(
        ["w", "w_main", "w_corr", "chi", "chi_main", "chi_corr",
         "delta_R", "delta_f", "cancel_r1", "cancel_r2"], 0.0)
    parts_R = dict.fromkeys(CATEGORIES, 0.0)
    parts_f = dict.fromkeys(CATEGORIES, 0.0)
    probe_js = sorted({nt // 4, nt // 2, (3 * nt) // 4})
    wave_mean_max = 0.0
    wave_div_rel = 0.0
    coarse = engine.companion

    def require_finite(j, name, *fields):
        if not all(np.isfinite(f).all() for f in fields):
            state.failed = (f"substep {n}: {name} is not finite at slice {j} "
                            f"(t = {times[j]:.4f})")
            raise ValueError(f"{state.failed}; the state holds a partial "
                             f"update and is marked failed")

    for j in range(nt):
        r1, r2 = engine.cancellation_residual(j)
        sup["cancel_r1"] = max(sup["cancel_r1"], r1)
        sup["cancel_r2"] = max(sup["cancel_r2"], r2)

        d6, dv3, pR = asm.delta_R_slice(j)
        require_finite(j, "delta_R", d6, dv3)
        state.delta_R[j] += d6
        state.div_R_store[j] += dv3
        sup["delta_R"] = max(sup["delta_R"], tf.sup_norm(d6))
        for key, field in pR.items():
            parts_R[key] = max(parts_R[key], tf.sup_norm(field))

        f3, df1, pf = asm.delta_f_slice(j)
        require_finite(j, "delta_f", f3, df1)
        state.delta_f[j] += f3
        state.div_f_store[j] += df1
        sup["delta_f"] = max(sup["delta_f"], tf.sup_norm(f3))
        for key, field in pf.items():
            parts_f[key] = max(parts_f[key], tf.sup_norm(field))

        if j in probe_js:
            for kind in engine.kinds:
                wave_mean_max = max(wave_mean_max,
                                    float(np.max(np.abs(engine.wave_mean(j, kind)))))
            go, gc = engine.wave_gradient_parts(j, "w")
            gw = tf.sup_norm(go + gc)
            if gw > 0:
                wave_div_rel = max(
                    wave_div_rel, tf.sup_norm(engine.wave_divergence(j)) / gw)

        # wave accumulation (after all reads of the pre-substep fields at j);
        # the stride-2 companion at even samples, while the samples it reads
        # are still binned (classes(j) already covers its stencil)
        for kind in engine.kinds:
            main, corr = engine.wave_parts(j, kind)
            inc = main + corr
            require_finite(j, f"the {kind} wave", inc)
            sup[f"{kind}_main"] = max(sup[f"{kind}_main"], tf.sup_norm(main))
            sup[f"{kind}_corr"] = max(sup[f"{kind}_corr"], tf.sup_norm(corr))
            sup[kind] = max(sup[kind], tf.sup_norm(inc))
            field, grad, dzz, dt, dt_coarse = (getattr(state, name)
                                               for name in _STORES[kind])
            field[j] += inc
            grad[j] += sum(engine.wave_gradient_parts(j, kind))
            dzz[j] += asm.field(j, "dzz", kind)
            dt[j] += asm.field(j, "dt", kind)
            if coarse and j % 2 == 0 and dt_coarse is not None:
                dt_coarse[j // 2] += engine.assemble_hat(
                    engine.dt_hat(j, kind, stride=2), engine.classes(j))

    state.completed = n
    report = {
        "n": n,
        "lam": lam,
        "ell": ell,
        "ell_z": ell_z,
        "wall_time": time.perf_counter() - t_start,
        "sup_b": engine.sup_b(),
        "wave_mean_max": wave_mean_max,
        "wave_div_rel": wave_div_rel,
        "parts_R": parts_R,
        "parts_f": parts_f,
        "cancel_r1": sup.pop("cancel_r1"),
        "cancel_r2": sup.pop("cancel_r2"),
        **{f"{k}_sup": val for k, val in sup.items()},
    }
    state.reports.append(report)
    return report
