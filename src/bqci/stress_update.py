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
    """

    _R_ZERO_KEYS = ("oscillation", "transport", "error_N", "error_corr", "mollification")

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

    def w_parts(self, j):
        """Materialized (w_no, w_nc); the main wave is k times the scalar
        2 Re sum_c U_c E_c, so it takes one transform, not three."""
        def build():
            cls = self.e.classes(j)
            S = self.e.assemble_hat(self.e.base_hat(j, "U"), cls)
            w_o = self.e.k.reshape(3, 1, 1, 1) * S
            return w_o, self.e.assemble_hat(self.e.velocity_hats(j)[1], cls)
        return self._m(j, "w", build)

    def chi_parts(self, j):
        def build():
            main, corr = self.e.temperature_hats(j)
            if main is None:
                z = np.zeros(self.grid.shape)
                return z, z.copy()
            cls = self.e.classes(j)
            return self.e.assemble_hat(main, cls), self.e.assemble_hat(corr, cls)
        return self._m(j, "chi", build)

    def _grad_w_parts(self, j):
        """(grad w_no, grad w_nc), (3 deriv, 3 comp, grid) each; grad w_no is
        k times the gradient of the main-wave scalar."""
        def build():
            cls = self.e.classes(j)
            gS = self.e.gradient_hat(self.e.base_hat(j, "U"), cls)
            go = gS[:, None] * self.e.k.reshape(1, 3, 1, 1, 1)
            return go, self.e.gradient_hat(self.e.velocity_hats(j)[1], cls)
        return self._m(j, "grad_w", build)

    def _grad_chi_parts(self, j):
        def build():
            main, corr = self.e.temperature_hats(j)
            if main is None:
                z = np.zeros((3,) + self.grid.shape)
                return z, z.copy()
            cls = self.e.classes(j)
            return self.e.gradient_hat(main, cls), self.e.gradient_hat(corr, cls)
        return self._m(j, "grad_chi", build)

    def _field(self, j, name, hats):
        """Materialized class-amplitude field, shared by the stress term that
        needs it and the derivative stores (None when hats is None)."""
        return self._m(j, name, lambda: None if hats(j) is None
                       else self.e.assemble_hat(hats(j), self.e.classes(j)))

    def transport_w(self, j):
        return self._field(j, "transport_w", self.e.transport_hat)

    def transport_chi(self, j):
        return self._field(j, "transport_chi", self.e.temperature_transport_hat)

    def dt_w(self, j):
        """Materialized d_t w_n at sample j."""
        return self._field(j, "dt_w", self.e.dt_velocity_hat)

    def dt_chi(self, j):
        return self._field(j, "dt_chi", self.e.dt_temperature_hat)

    def dzz_w(self, j):
        """Materialized d_zz w_n at sample j."""
        return self._field(j, "dzz_w", self.e.dzz_velocity_hat)

    def dzz_chi(self, j):
        return self._field(j, "dzz_chi", self.e.dzz_temperature_hat)

    def _div_v_ell(self, j):
        return self._m(j, "div_v_ell",
                       lambda: tf.divergence(self.e.v_ell[j], self.grid))

    def _grad_theta_ell(self, j):
        return self._m(j, "grad_theta_ell",
                       lambda: tf.gradient(self.theta_ell[j], self.grid))

    # -- oscillation mode expansion -------------------------------------------

    def oscillation_modes(self, j):
        """Quadratic wave interactions as {q: scalar amplitude}: the main-wave
        square is sum_q 2 Re(A_q e^{i q carrier.x}) k (x) k, with the zero
        mode (the block being cancelled) removed."""
        U = self.e.base_rows(j)["U"]
        return self._pair_modes(U, U, self.e.classes(j))

    def flux_oscillation_modes(self, j):
        V = self.e.base_rows(j)["V"]
        if V is None:
            return None
        return self._pair_modes(self.e.base_rows(j)["U"], V, self.e.classes(j))

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
        """R(div M): per mode the input is a scalar times k (x) k, so the
        divergence is rank-one and each mode costs one forward and six
        inverse transforms.

        The stored divergence is not the per-mode symbol identity but the
        pointwise main-wave self-advection plus the spectral divergence of
        the block being cancelled: that is what the equation actually gains
        when the wave square replaces the block, evaluated with the same
        per-class gradients the derivative stores carry.  Differentiating
        the mode amplitudes (products of class amplitudes) spectrally would
        disagree with those stores near the grid cutoff."""
        acc6 = np.zeros((6,) + self.grid.shape, dtype=complex)
        k = self.e.k.astype(np.float64)
        for q, A in self.oscillation_modes(j).items():
            xi = q * self.e.carrier
            K = tf.shifted_k(self.grid, xi)
            Ah = tf.fft3(A)
            dh = 1j * (k[0] * K[0] + k[1] * K[1] + k[2] * K[2]) * Ah
            Rh6, _ = r_hat(dh[None] * k.reshape(3, 1, 1, 1), K, self.grid.npts)
            # e^{i q carrier.x} on the sampled grid is an exact spectral
            # shift, so the phase multiply folds into one accumulated
            # inverse transform after the mode loop (tf.add_shifted)
            tf.add_shifted(acc6, Rh6, xi)
        delta6 = tf.twice_real_ifft3(acc6)
        w_o, _ = self.w_parts(j)
        go, _ = self._grad_w_parts(j)
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        div3 = (np.einsum("b...,ba...->a...", w_o, go) + w_o * div_wo
                + k.reshape(3, 1, 1, 1)
                * np.einsum("b...,b...->...", k, tf.gradient(self.e.a_n[j], self.grid)))
        return delta6, div3

    def g_div_K(self, j):
        """G(div K) with the same pointwise divergence bookkeeping as
        r_div_M: main-wave advection of the main temperature wave plus the
        spectral divergence of the cancelled flux block."""
        modes = self.flux_oscillation_modes(j)
        if modes is None:
            return None
        acc3 = np.zeros((3,) + self.grid.shape, dtype=complex)
        k = self.e.k.astype(np.float64)
        for q, A in modes.items():
            xi = q * self.e.carrier
            K = tf.shifted_k(self.grid, xi)
            Ah = tf.fft3(A)
            dh = 1j * (k[0] * K[0] + k[1] * K[1] + k[2] * K[2]) * Ah
            Gh3, _ = g_hat(dh, K, self.grid.npts)
            tf.add_shifted(acc3, Gh3, xi)
        delta3 = tf.twice_real_ifft3(acc3)
        w_o, _ = self.w_parts(j)
        go, _ = self._grad_w_parts(j)
        div_wo = go[0, 0] + go[1, 1] + go[2, 2]
        chi_o, _ = self.chi_parts(j)
        gco, _ = self._grad_chi_parts(j)
        div1 = (np.einsum("b...,b...->...", w_o, gco) + chi_o * div_wo
                + np.einsum("b...,b...->...", k, tf.gradient(self.e.c_n[j], self.grid)))
        return delta3, div1

    def _r_class_modes(self, hats, cls, field):
        """R applied to a sum of class-carrier vector amplitudes given by
        their spectra (na, 3, grid) on the classes cls; field is the
        materialized input, and the stored divergence is field minus its
        (exact) mean."""
        acc6 = np.zeros((6,) + self.grid.shape, dtype=complex)
        mean3 = np.zeros(3)
        for row, c in enumerate(cls):
            if not np.any(hats[row]):
                continue
            K = tf.shifted_k(self.grid, self.e.xi(c))
            Rh6, mean = r_hat(hats[row], K, self.grid.npts)
            tf.add_shifted(acc6, Rh6, self.e.xi(c))
            mean3 += mean.real
        return tf.twice_real_ifft3(acc6), field - 2.0 * mean3.reshape(3, 1, 1, 1)

    def _g_class_modes(self, hats, cls, field):
        acc3 = np.zeros((3,) + self.grid.shape, dtype=complex)
        mean1 = 0.0
        for row, c in enumerate(cls):
            if not np.any(hats[row]):
                continue
            K = tf.shifted_k(self.grid, self.e.xi(c))
            Gh3, mean = g_hat(hats[row], K, self.grid.npts)
            tf.add_shifted(acc3, Gh3, self.e.xi(c))
            mean1 += mean.real
        return tf.twice_real_ifft3(acc3), field - 2.0 * mean1

    def transport_R(self, j):
        return self._r_class_modes(self.e.transport_hat(j), self.e.classes(j),
                                   self.transport_w(j))

    def transport_f(self, j):
        hats = self.e.temperature_transport_hat(j)
        if hats is None:
            return None
        return self._g_class_modes(hats, self.e.classes(j), self.transport_chi(j))

    def r_dzz_and_buoyancy(self, j):
        """R(d_zz w + chi e3): both enter error_corr with the same sign and R
        is linear, so they share one pass over the classes."""
        hats, field = self.e.dzz_velocity_hat(j), self.dzz_w(j)
        main, corr = self.e.temperature_hats(j)
        if main is not None:
            hats, field = hats.copy(), field.copy()
            hats[:, 2] += main + corr
            field[2] += sum(self.chi_parts(j))
        return self._r_class_modes(hats, self.e.classes(j), field)

    def r_buoyancy(self, j):
        """R(chi e3) -- the buoyancy of the temperature wave."""
        main, corr = self.e.temperature_hats(j)
        if main is None:
            return None
        hats = np.zeros((len(main), 3) + self.grid.shape, dtype=complex)
        hats[:, 2] = main + corr
        field = np.zeros((3,) + self.grid.shape)
        field[2] = sum(self.chi_parts(j))
        return self._r_class_modes(hats, self.e.classes(j), field)

    def g_dzz_chi(self, j):
        hats = self.e.dzz_temperature_hat(j)
        if hats is None:
            return None
        return self._g_class_modes(hats, self.e.classes(j), self.dzz_chi(j))

    # -- pointwise interaction terms ------------------------------------------

    def N_field(self, j):
        """Slow interaction of the wave with the carrier velocity:
        w (x) v + v (x) w - sym(sum_l w_l (x) l/mu)."""
        w_o, w_c = self.w_parts(j)
        w = w_o + w_c
        v = self.v_prev[j]
        # Q[a, b] = sum_l w_a l_b / mu; only the packed Q + Q^T enters, so
        # the six packed spectra are summed before materializing
        mh = self.e.momentum_hat(j)  # (class, d, comp, grid)
        qq = self.e.assemble_hat(
            np.stack([mh[:, b, a] + mh[:, a, b] for a, b in tf.PACK], axis=1),
            self.e.classes(j))
        T = w[:, None] * v[None, :] + v[:, None] * w[None, :]
        go, gc = self._grad_w_parts(j)
        grad_w = go + gc
        vdw = np.einsum("b...,ba...->a...", v, grad_w)
        wdv = np.einsum("b...,ba...->a...", w, self.grad_v_prev[j])
        # cell-velocity advection of the wave, with the exact same amplitude
        # bookkeeping the transport and time-derivative stores use
        adv = self.transport_w(j) - self.dt_w(j)
        div3 = vdw + wdv - adv
        return tf.sym_pack(T) - qq, div3

    def product_corrections(self, j):
        """Quadratic terms involving the correction wave (main x corr and
        corr x corr)."""
        w_o, w_c = self.w_parts(j)
        go, gc = self._grad_w_parts(j)
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
        tmom = self.e.temperature_momentum_hat(j)
        if tmom is None:
            return None
        chi_o, chi_c = self.chi_parts(j)
        chi = chi_o + chi_c
        Pchi = self.e.assemble_hat(tmom, self.e.classes(j))  # (d, grid): sum_l chi_l l_d / mu
        v_ell = self.e.v_ell[j]
        t5 = v_ell * chi - Pchi
        grad_chi = sum(self._grad_chi_parts(j))
        adv = self.transport_chi(j) - self.dt_chi(j)
        div1 = (self._div_v_ell(j) * chi
                + np.einsum("b...,b...->...", v_ell, grad_chi)
                - adv)
        return t5, div1

    def flux_drift(self, j):
        chi_o, chi_c = self.chi_parts(j)
        chi = chi_o + chi_c
        if not np.any(chi):
            return None
        dv = self.v_prev[j] - self.e.v_ell[j]
        grad_chi = sum(self._grad_chi_parts(j))
        div1 = (-self._div_v_ell(j) * chi
                + np.einsum("b...,b...->...", dv, grad_chi))
        return dv * chi, div1

    def flux_products(self, j):
        chi_o, chi_c = self.chi_parts(j)
        if not np.any(chi_o) and not np.any(chi_c):
            return None
        w_o, w_c = self.w_parts(j)
        go, gc = self._grad_w_parts(j)
        gco, gcc = self._grad_chi_parts(j)
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
        G = sum(self.e.velocity_amp_rows(j))  # (na, 3, grid)
        gt = self._grad_theta_ell(j)
        amps = np.einsum("cb...,b...->c...", G, gt.astype(complex))
        hats = tf.fft3(amps)
        cls = self.e.classes(j)
        return self._g_class_modes(hats, cls, self.e.assemble_hat(hats, cls))

    def flux_theta_drift(self, j):
        w = sum(self.w_parts(j))
        dtheta = self.theta_prev[j] - self.theta_ell[j]
        gdiff = self.grad_theta_prev[j] - self._grad_theta_ell(j)
        return w * dtheta, np.einsum("b...,b...->...", w, gdiff)

    # -- mollification residuals (first substep only) -------------------------

    def mollification_R(self, j):
        if self.R0 is None:
            return None
        Rm6 = self.R0[j] - np.einsum("i...,im->m...", self.a_ell[j], _DYADS6)
        return Rm6, tf.divergence(tf.sym_unpack(Rm6), self.grid)

    def mollification_f(self, j):
        if self.f0 is None:
            return None
        fm = self.f0[j] - np.einsum("i...,ia->a...", self.c_ell[j][:3], _KVECS[:3])
        return fm, tf.divergence(fm, self.grid)

    # -- slice totals ---------------------------------------------------------

    def delta_R_slice(self, j):
        """(delta6, div3, parts) at time sample j; parts is the category
        breakdown whose fields sum to delta6 by construction."""
        osc = self.r_div_M(j)
        tr = self.transport_R(j)
        nn = self.N_field(j)
        zz = self.r_dzz_and_buoyancy(j)
        pr = self.product_corrections(j)
        corr6 = pr[0] - zz[0]
        cdiv = pr[1] - zz[1]
        mol = self.mollification_R(j)
        z6 = np.zeros((6,) + self.grid.shape)
        parts = {
            "oscillation": osc[0],
            "transport": tr[0],
            "error_N": nn[0],
            "error_corr": corr6,
            "mollification": mol[0] if mol is not None else z6,
        }
        delta6 = osc[0] + tr[0] + nn[0] + corr6 + parts["mollification"]
        div3 = osc[1] + tr[1] + nn[1] + cdiv
        if mol is not None:
            div3 = div3 + mol[1]
        return delta6, div3, parts

    def delta_f_slice(self, j):
        z3 = np.zeros((3,) + self.grid.shape)
        parts = {k: z3 for k in self._R_ZERO_KEYS}
        delta3 = np.zeros((3,) + self.grid.shape)
        div1 = np.zeros(self.grid.shape)

        def add(kind, term):
            nonlocal delta3, div1
            if term is None:
                return
            parts[kind] = parts[kind] + term[0]
            delta3 += term[0]
            div1 += term[1]

        add("oscillation", self.g_div_K(j))
        add("transport", self.transport_f(j))
        dz = self.g_dzz_chi(j)
        if dz is not None:
            add("error_corr", (-dz[0], -dz[1]))
        add("error_corr", self.flux_products(j))
        add("error_N", self.flux_momentum(j))
        add("error_N", self.flux_drift(j))
        add("error_N", self.flux_theta_osc(j))
        add("error_N", self.flux_theta_drift(j))
        add("mollification", self.mollification_f(j))
        return delta3, div1, parts


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

def run_substep(state, n, lam, ell, ell_z, band=None):
    """Execute cancellation substep n on the step state in place.

    Mollifies the carried fields at (ell, ell_z), builds the wave engine on
    block n, accumulates delta R / delta f with their divergence stores, and
    adds the wave to the velocity (and temperature, substeps 1-3) together
    with all derivative stores.  Returns the substep report.

    The mollified engine inputs are truncated to |m| <= band on every axis
    (default: smallest grid extent over four).  Sampling folds the carried
    wave carriers onto in-band grid frequencies; the mollifier damps but
    cannot remove those images, and any remnant makes the cell-amplitude
    fields under-resolved, which shows up directly in the equation residual.
    """
    if n != state.completed + 1 or not 1 <= n <= 6:
        raise ValueError(f"substep {n} out of order (completed = {state.completed})")
    t_start = time.perf_counter()
    grid, tgrid = state.grid, state.tgrid
    if band is None:
        band = min(grid.shape) // 4
    v_ell = tf.low_pass(tf.mollify(state.v, tgrid, grid, ell, ell_z), grid, band)
    theta_ell = tf.low_pass(
        tf.mollify(state.theta, tgrid, grid, ell, ell_z), grid, band)
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
    sup = dict.fromkeys(
        ["w", "w_main", "w_corr", "chi", "chi_main", "chi_corr",
         "delta_R", "delta_f", "cancel_r1", "cancel_r2"], 0.0)
    parts_R = dict.fromkeys(SubstepAssembler._R_ZERO_KEYS, 0.0)
    parts_f = dict.fromkeys(SubstepAssembler._R_ZERO_KEYS, 0.0)
    probe_js = sorted({nt // 4, nt // 2, (3 * nt) // 4})
    wave_mean_max = 0.0
    wave_div_rel = 0.0
    coarse = engine.companion

    for j in range(nt):
        r1, r2 = engine.cancellation_residual(j)
        sup["cancel_r1"] = max(sup["cancel_r1"], r1)
        sup["cancel_r2"] = max(sup["cancel_r2"], r2)

        d6, dv3, pR = asm.delta_R_slice(j)
        state.delta_R[j] += d6
        state.div_R_store[j] += dv3
        sup["delta_R"] = max(sup["delta_R"], tf.sup_norm(d6))
        for key, field in pR.items():
            parts_R[key] = max(parts_R[key], tf.sup_norm(field))

        f3, df1, pf = asm.delta_f_slice(j)
        state.delta_f[j] += f3
        state.div_f_store[j] += df1
        sup["delta_f"] = max(sup["delta_f"], tf.sup_norm(f3))
        for key, field in pf.items():
            parts_f[key] = max(parts_f[key], tf.sup_norm(field))

        if j in probe_js:
            wave_mean_max = max(wave_mean_max, float(np.max(np.abs(engine.wave_mean(j)))))
            if n <= 3:
                wave_mean_max = max(wave_mean_max, abs(float(engine.wave_mean(j, kind="chi"))))
            go, gc = asm._grad_w_parts(j)
            gw = tf.sup_norm(go + gc)
            if gw > 0:
                wave_div_rel = max(
                    wave_div_rel, tf.sup_norm(engine.wave_divergence(j)) / gw)

        # wave accumulation (after all reads of the pre-substep fields at j)
        w_o, w_c = asm.w_parts(j)
        sup["w_main"] = max(sup["w_main"], tf.sup_norm(w_o))
        sup["w_corr"] = max(sup["w_corr"], tf.sup_norm(w_c))
        sup["w"] = max(sup["w"], tf.sup_norm(w_o + w_c))
        state.v[j] += w_o + w_c
        go, gc = asm._grad_w_parts(j)
        state.grad_v[j] += go + gc
        state.dzz_v[j] += asm.dzz_w(j)
        state.dt_v[j] += asm.dt_w(j)
        if n <= 3:
            chi_o, chi_c = asm.chi_parts(j)
            sup["chi_main"] = max(sup["chi_main"], tf.sup_norm(chi_o))
            sup["chi_corr"] = max(sup["chi_corr"], tf.sup_norm(chi_c))
            sup["chi"] = max(sup["chi"], tf.sup_norm(chi_o + chi_c))
            state.theta[j] += chi_o + chi_c
            gco, gcc = asm._grad_chi_parts(j)
            state.grad_theta[j] += gco + gcc
            if asm.dt_chi(j) is not None:
                state.dzz_theta[j] += asm.dzz_chi(j)
                state.dt_theta[j] += asm.dt_chi(j)

        # the stride-2 companion at even samples, while the samples it reads
        # are still binned (classes(j) already covers its stencil)
        if coarse and j % 2 == 0:
            state.dt_v_coarse[j // 2] += engine.assemble_hat(
                engine.dt_velocity_hat(j, stride=2), engine.classes(j))
            if n <= 3 and state.dt_theta_coarse is not None:
                hats = engine.dt_temperature_hat(j, stride=2)
                if hats is not None:
                    state.dt_theta_coarse[j // 2] += engine.assemble_hat(
                        hats, engine.classes(j))

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
