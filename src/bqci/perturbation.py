"""Modulated-wave construction for one substep of the convex-integration step.

Substep n adds a divergence-free velocity wave w_n = w_no + w_nc and (for a
nonzero c_n) a mean-zero temperature wave chi_n = chi_no + chi_nc. Every wave term
lives on a lattice cell l of the partition of unity evaluated at mu * v_ell
and carries the phase

    exp( i lam_n 2^[l] (k_h-perp, 0) . (x - l t / mu) )

where [l] in 0..7 is the parity class of l. The fast phase is never sampled
on the grid as data: each term is kept as a slow complex amplitude times a
symbolic carrier e^{i xi_c . x} (one carrier per parity class, the remaining
e^{-i omega t} factor is folded into the amplitude at each time sample).
Because the partition cutoff is below one, the cells active at a point are
exactly the 8 corners of one unit cube and those corners realize all 8
parity classes, so per-class sums have pointwise at most one contributing
cell and all per-point work is a fixed 8-slot gather. The partition returns
the corners in class order, so slot c is class c with no sort, and since
omega = (lam/mu) 2^c (k_h-perp . l) with an integer k_h-perp . l, each
class's phase factors come from one table over its integer range.

The two waves are one construction: a slow class scalar S times a
polarization plus a 1/lam correction, (pol S + corr(S)/(i lam 2^c)) e^{i xi_c.x}.
A wave kind, "w" (velocity) or "chi" (temperature), selects only data: the
polarization (k or 1), the correction symbol ((m x a) or
(k_h-perp . m)/|k_h|^2 on the spectrum m) and the keys of its base class
scalars (KEYS). Every wave method takes the kind and has one body.
"""

from collections import namedtuple

import numpy as np

from . import algebra
from . import partition as pt
from . import torus_field as tf


class ParameterError(ValueError):
    pass


class AmplitudeError(ValueError):
    """Radicand e - a non-positive on the stress support (input contract
    breach: the incoming stress was larger than the budget kappa)."""


# Keys of a wave kind's base class scalars: the binned slot amplitude it is
# built from (b or beta), its class sum S, the momentum-weighted sums
# S l_d / mu, the exact phase term -i omega S, and the amplitude-only d_t S.
WaveKeys = namedtuple("WaveKeys", "slot base momentum phase dt")


class WaveEngine:
    """All per-substep wave machinery: slot gather, parity-class sums,
    class amplitudes and exact materialization.

    Time slices are visited one at a time. A slice carries only the parity
    classes with amplitude in the samples it reads (classes(j)), and its
    class amplitudes stay spectral until a field is materialized.

    It keeps three kinds of data: engine-wide tables (the shift entries of
    carriers and modes, the class amplitude symbols); one per-sample window
    of binned slot data (_binned), holding a sample while the visited slice
    is among those whose time stencils read it and recording its largest b
    (sup_b); and one per-slice value (per_slice), the visited slice's class
    spectra and materialized fields.

    a_n, c_n: (nt, nx, ny, nz) coefficient fields of the mollified stress /
    flux block being cancelled (c_n None: no flux block). e_vals: (nt,)
    energy profile samples. v_ell: (nt, 3, nx, ny, nz) mollified carrier
    velocity. kappa: stress budget. Non-finite inputs are refused.

    kinds: "w", and "chi" exactly when c_n is nonzero somewhere (a zero
    c_n is kept as None); every kind method takes a kind in kinds.
    """

    KEYS = {"w": WaveKeys("b", "U", "W1", "OU", "Tb"),
            "chi": WaveKeys("beta", "V", "V1", "OV", "Tc")}

    def __init__(self, n, lam, mu, grid, tgrid, a_n, c_n, e_vals, v_ell, kappa):
        if not (isinstance(lam, (int, np.integer)) and lam > 0):
            raise ParameterError(f"lam = {lam!r} must be a positive integer")
        if not (isinstance(mu, (int, np.integer)) and mu > 0 and lam % mu == 0):
            raise ParameterError(f"mu = {mu!r} must be a positive integer dividing lam = {lam}")
        self.n = n
        self.lam = int(lam)
        self.mu = int(mu)
        self.grid = grid
        self.tgrid = tgrid
        self.frame = algebra.wave_frame(n)
        self.a_n = np.asarray(a_n)
        self.c_n = None if c_n is None or not np.any(c_n) else np.asarray(c_n)
        self.e_vals = np.asarray(e_vals, dtype=np.float64)
        self.v_ell = np.asarray(v_ell)
        self.kappa = float(kappa)
        self.pou = pt.PartitionOfUnity()
        self.k = self.frame.k_arr()
        self.avec = np.array(self.frame.avec)
        self.carrier = self.frame.k_perp_arr()
        self.khsq = self.frame.kh_sq
        self.kinds = ("w",) if self.c_n is None else ("w", "chi")
        self.class_q = self.lam * 2 ** np.arange(8)  # class c's carrier: class_q[c] k_h-perp
        self._omega_ladder = (self.lam / self.mu) * np.ldexp(1.0, np.arange(8))
        self._shifts = {}
        kx, ky, kz = self._entry(0).K  # the base scalars are unshifted
        s, t = self.avec[0], self.avec[1]
        kp = self.carrier  # the carrier is k_h-perp
        # per kind: polarization and correction symbol, which class c divides
        # by lam 2^c. For a = (s, t, 1), (grad S) x a has the symbol
        # i (m x a); grad S . (k_h-perp, 0) / |k_h|^2 has i (k_h-perp . m) / |k_h|^2
        self._pol = {"w": self.k, "chi": np.array(1.0)}
        self._corr_sym = {
            "w": np.stack(np.broadcast_arrays(ky - t * kz, s * kz - kx, t * kx - s * ky)),
            "chi": (kp[0] * kx + kp[1] * ky + kp[2] * kz) / self.khsq,
        }
        self._amp_syms = {}
        self._window = {}
        self._b_max = [None] * self.tgrid.nt
        self._reach = self._stencil_reach()
        self._slice = (None, {})
        self._check_radicand()

    def _check_radicand(self):
        worst = None
        times = self.tgrid.times()
        for j in range(self.tgrid.nt):
            for name, x in (("e_vals", self.e_vals), ("a_n", self.a_n), ("c_n", self.c_n)):
                if x is not None and not np.isfinite(x[j]).all():
                    raise AmplitudeError(f"{name} is not finite at sample {j} "
                                         f"(t = {times[j]:.4f})")
            rad = self.e_vals[j] - self.a_n[j]
            supp = np.abs(self.a_n[j]) > 1e-13 * max(self.kappa, 1e-300)
            if self.c_n is not None:
                supp |= np.abs(self.c_n[j]) > 1e-13 * max(self.kappa, 1e-300)
            if not np.any(supp):
                continue
            m = np.min(np.where(supp, rad, np.inf))
            if worst is None or m < worst[0]:
                worst = (float(m), j)
        if worst is not None and worst[0] < self.kappa / 2:
            raise AmplitudeError(
                f"e - a = {worst[0]:.3e} < kappa/2 = {self.kappa / 2:.3e} on the "
                f"stress support at t = {times[worst[1]]:.4f} (input stress exceeds budget)"
            )

    # -- slot gather ----------------------------------------------------------

    def slot_data(self, j):
        """Per-slot cell data at time sample j, slot c holding the corner of
        parity class c (PartitionOfUnity.corner_alphas): b, beta (8, grid),
        the integer k_h-perp . l (8, grid) and l/mu (8, 3, grid). Uncached:
        _binned keeps what the class sums read."""
        p = self.mu * self.v_ell[j]
        corners, alphas = self.pou.corner_alphas(p)
        rad = np.maximum(self.e_vals[j] - self.a_n[j], 0.0)
        root = np.sqrt(rad / 2.0)
        b, beta = root * alphas, None
        if self.c_n is not None:
            safe = np.sqrt(2.0 * np.maximum(rad, 1e-300))
            beta = np.where(rad > 0, -self.c_n[j] / safe, 0.0) * alphas
        kdot = sum(self.carrier[d] * corners[:, d] for d in range(3))
        lmu = corners.astype(np.float64) / self.mu
        return b, beta, kdot, lmu

    def _binned(self, j):
        """Slot data of sample j on the parity classes whose amplitude b is
        nonzero somewhere at j (every other class row is identically zero):
        'classes' (sorted class indices), b, beta, the integer
        k_h-perp . l 'kdot' (na, grid), its per-class 'range' (na, 2: min,
        max) and l/mu (na, 3, grid). Slot c is class c, so binning takes
        rows; the per-sample window keeps them for every slice that reads j."""
        if j in self._window:
            return self._window[j]
        b, beta, kdot, lmu = self.slot_data(j)
        cls = np.flatnonzero(np.any(b.reshape(8, -1) != 0.0, axis=1))
        kdot = kdot[cls]
        flat = kdot.reshape(len(cls), self.grid.npts)
        self._b_max[j] = float(np.max(b))
        self._window[j] = {
            "classes": cls, "b": b[cls], "kdot": kdot, "lmu": lmu[cls],
            "range": np.stack([flat.min(axis=1), flat.max(axis=1)], axis=1),
            "beta": beta[cls] if beta is not None else None}
        return self._window[j]

    def _stencil_reach(self):
        """(first, last): per sample, the first and last slice whose time
        stencils (stride 1, and 2 when the time grid halves) read it."""
        nt = self.tgrid.nt
        first, last = np.full(nt, nt), np.full(nt, -1)
        for stride, tg in ((1, self.tgrid), (2, self.tgrid.halved())):
            if tg is not None:
                for jj, S in enumerate(stride * tf.time_derivative_support(tg.nt)):
                    first[S] = np.minimum(first[S], stride * jj)
                    last[S] = np.maximum(last[S], stride * jj)
        return first, last

    def _phase_factor(self, j_amp, t_phase):
        """e^{-i omega t} on the binned rows of sample j_amp: per class, a
        table of the phase over the integer range of k_h-perp . l, indexed
        by k_h-perp . l - min. A table has at most
        |k_h-perp|_1 (mu span(v_ell) + 2) + 1 entries."""
        bn = self._binned(j_amp)
        out = np.empty(bn["kdot"].shape, dtype=complex)
        for row, c in enumerate(bn["classes"]):
            lo, hi = bn["range"][row]
            omega = self._omega_ladder[c] * np.arange(lo, hi + 1)
            out[row] = np.exp(-1j * t_phase * omega)[bn["kdot"][row] - lo]
        return out

    def classes(self, j, stride=1):
        """Parity classes (sorted int array) with amplitude anywhere in the
        samples the stride-1 time stencil reads at slice j; stride 2 adds
        those of the stride-2 stencil, the rows of dt_hat(j, kind, 2).
        Every other class amplitude at slice j vanishes identically, so the
        per-slice stacks hold these rows only."""
        def build():
            samples = {int(m) for s in {1, stride} for m in self._time_stencil(j, s)[0]}
            return np.array(sorted(set().union(
                *(self._binned(m)["classes"].tolist() for m in samples))),
                dtype=np.int64)
        return self.per_slice(j, ("classes", stride), build)

    def _class_sums(self, j_amp, j, cls, full):
        """Class sums on the rows cls (which hold every class of sample
        j_amp) with amplitudes from sample j_amp and the e^{-i omega t}
        factor evaluated at t_j (the split is what makes the amplitude-only
        time derivative a plain stencil over j_amp): each kind's base sum
        and, if full, its momentum-weighted sums and phase term."""
        bn = self._binned(j_amp)
        rows = np.searchsorted(cls, bn["classes"])
        ph = self._phase_factor(j_amp, self.tgrid.times()[j])

        def place(x):
            if len(rows) == len(cls):
                return x
            out = np.zeros((len(cls),) + x.shape[1:], dtype=x.dtype)
            out[rows] = x
            return out

        if full:  # omega = ((lam/mu) 2^c) (k_h-perp . l)
            omega = self._omega_ladder[bn["classes"]].reshape(-1, 1, 1, 1) * bn["kdot"]
        out = {}
        for kind in self.kinds:
            keys = self.KEYS[kind]
            A = bn[keys.slot] * ph
            out[keys.base] = place(A)
            if full:
                out[keys.momentum] = place(A[:, None] * bn["lmu"])
                out[keys.phase] = place(-1j * omega * A)
        return out

    def _time_stencil(self, j, stride):
        """(sample indices, weights) of the amplitude time derivative at j:
        the 4th-order stencil of the time grid (stride 1) or of its halved
        grid (stride 2, the Richardson companion; j must be even)."""
        tg = {1: self.tgrid, 2: self.tgrid.halved()}[stride]
        if tg is None or j % stride:
            raise ValueError(f"sample {j} is not on a stride-{stride} time grid")
        jj = j // stride
        return (stride * tf.time_derivative_support(tg.nt)[jj],
                tf.time_derivative_weights(tg.nt, tg.dt)[jj])

    def amplitude_time_derivative(self, j, stride=1):
        """Class sums of the amplitude-only d_t of each kind's base scalar at
        sample j (phase frozen at t_j), on the rows of classes(j, stride),
        keyed KEYS[kind].dt (Tb, Tc); stride 2 needs an even j."""
        S, W = self._time_stencil(j, stride)
        out = {}
        for m in range(5):
            sums = self._class_sums(int(S[m]), j, self.classes(j, stride), False)
            for kind in self.kinds:
                keys = self.KEYS[kind]
                term = W[m] * sums[keys.base]
                out[keys.dt] = term if m == 0 else out[keys.dt] + term
        return out

    def base_rows(self, j):
        """Per-class slow amplitude scalars at sample j on the rows of
        classes(j), class axis first, keyed by KEYS: U, V wave base sums;
        W1, V1 momentum-weighted sums (class, d, grid) feeding the l/mu
        terms; OU, OV the -i omega phase terms; Tb, Tc the amplitude-only
        time derivatives (4th-order stencil at frozen phase), for the
        kinds in kinds."""
        return self.per_slice(j, "base", lambda: {
            **self._class_sums(j, j, self.classes(j), True),
            **self.amplitude_time_derivative(j)})

    # -- class amplitudes -----------------------------------------------------
    #
    # Every class amplitude is a linear spectral symbol applied to one base
    # class scalar, so the amplitudes are kept as spectra on the rows of
    # classes(j) and only materialized fields leave spectral space, each
    # with one inverse transform per component (assemble_hat).

    def per_slice(self, j, key, build):
        """The per-slice value's entry key at slice j, built by build() on
        first use: the class spectra and fields several terms share. The
        stacks are large, so visiting another slice starts an empty value and
        drops the samples its stencils do not read from the window. Callers
        must not mutate the results."""
        if self._slice[0] != j:
            first, last = self._reach
            self._window = {m: d for m, d in self._window.items() if first[m] <= j <= last[m]}
            self._slice = (j, {})
        value = self._slice[1]
        if key not in value:
            value[key] = build()
        return value[key]

    def polarize(self, X, kind):
        """pol (x) X: the polarization axes of kind (3 for 'w', none for
        'chi') inserted before the three grid axes of X."""
        pol = self._pol[kind]
        return (X.reshape(X.shape[:-3] + (1,) * pol.ndim + X.shape[-3:])
                * pol.reshape(pol.shape + (1, 1, 1)))

    def _amp_hat(self, Sh, cls, kind, main=True):
        """Spectrum of the class amplitudes pol S + corr(S)/(i lam 2^c) of
        class scalars with spectrum Sh (na, grid), i.e. g_{nl} ('w') or
        h_{nl} ('chi') summed over the class; main=False gives the
        correction alone. (na,) + polarization + grid."""
        pol = self._pol[kind]
        out = np.empty(Sh.shape[:1] + pol.shape + Sh.shape[1:], dtype=complex)
        for row, c in enumerate(cls):
            np.multiply(Sh[row], self._amp_sym(kind, main, c), out=out[row])
        return out

    def _amp_sym(self, kind, main, c):
        """The real symbol of _amp_hat on class c: corr_sym/(lam 2^c), plus
        pol when main (polarization + grid), built on first use and kept
        for the engine, since it depends on neither the slice nor the
        amplitude."""
        key = (kind, main, int(c))
        if key not in self._amp_syms:
            pol = self._pol[kind]
            sym = self._corr_sym[kind] * (1.0 / self.class_q[c])
            if main:
                sym = sym + pol.reshape(pol.shape + (1, 1, 1))
            self._amp_syms[key] = sym
        return self._amp_syms[key]

    def base_hat(self, j, key):
        """Spectrum of the base class scalar `key` at sample j on the rows
        of classes(j)."""
        return self.per_slice(j, ("hat", key), lambda: tf.fft3(self.base_rows(j)[key]))

    def wave_hats(self, j, kind):
        """(main, corr) spectra of the class amplitudes of wave kind on the
        rows of classes(j): pol (x) S and the correction."""
        def build():
            Sh = self.base_hat(j, self.KEYS[kind].base)
            return (self.polarize(Sh, kind),
                    self._amp_hat(Sh, self.classes(j), kind, main=False))
        return self.per_slice(j, ("hats", kind), build)

    def momentum_hat(self, j, kind):
        """Spectrum of the amplitudes of sum_l (wave_l) (l_d / mu):
        (na, 3 d-axis) + polarization + grid."""
        def build():
            S1h = self.base_hat(j, self.KEYS[kind].momentum)
            cls = self.classes(j)
            return np.stack([self._amp_hat(S1h[:, d], cls, kind) for d in range(3)],
                            axis=1)
        return self.per_slice(j, ("momentum", kind), build)

    def packed_momentum_hat(self, j):
        """Spectra of the packed Q + Q^T of the velocity wave, Q[a, b] =
        sum_l w_a l_b / mu: sym_a W1_b + sym_b W1_a per class, sym its
        amplitude symbol (_amp_sym) and W1 the momentum-weighted base
        spectra; (na, 6) + grid. These are the products, in the order, of
        packing momentum_hat(j, "w"), without its (na, 3, 3) stack."""
        W1h = self.base_hat(j, self.KEYS["w"].momentum)
        cls = self.classes(j)
        out = np.empty((len(cls), 6) + self.grid.shape, dtype=complex)
        for row, c in enumerate(cls):
            sym = self._amp_sym("w", True, c)
            for p, (a, b) in enumerate(tf.PACK):
                np.multiply(W1h[row, b], sym[a], out=out[row, p])
                out[row, p] += W1h[row, a] * sym[b]
        return out

    def transport_hat(self, j, kind):
        """Spectrum of the amplitude of d_t + sum_l (l/mu).grad of the wave
        per class.

        Only slow-amplitude derivatives appear: the phase contributions of
        d_t and (l/mu).grad cancel exactly, so this is the amplitude of the
        amplitude-only d_t plus the divergence (in d) of the momentum
        amplitudes. The slow divergence i m_d and the amplitude symbol are
        both multipliers in m, so the divergence is taken on the base
        scalars: one symbol pass on d_t S + i sum_d m_d S1_d.
        """
        def build():
            keys = self.KEYS[kind]
            S1h = self.base_hat(j, keys.momentum)
            kx, ky, kz = self._entry(0).K
            div = kx * S1h[:, 0]
            div += ky * S1h[:, 1]
            div += kz * S1h[:, 2]
            div *= 1j
            div += self.base_hat(j, keys.dt)
            return self._amp_hat(div, self.classes(j), kind)
        return self.per_slice(j, ("transport", kind), build)

    def dzz_hat(self, j, kind):
        """Spectrum of the amplitude of d_zz of the wave per class: the
        symbol -m_z^2 on the base scalar (every carrier is horizontal, so
        the shift leaves K_z = m_z)."""
        mz = self._entry(0).K[2]
        return self.per_slice(j, ("dzz", kind), lambda: self._amp_hat(
            -(mz * mz) * self.base_hat(j, self.KEYS[kind].base), self.classes(j), kind))

    def dt_hat(self, j, kind, stride=1):
        """Spectrum of the amplitude of d_t of the wave per class: the
        amplitude stencil plus the exact -i omega phase term (omega is
        constant on each cell, so the phase part passes through the
        correction operator).

        stride 2 evaluates the stencil on the halved time grid (the
        Richardson companion of the discretization-floor estimate), on the
        rows of classes(j, 2): the phase term's rows are placed into them
        (the transform works row by row)."""
        keys = self.KEYS[kind]

        def build():
            cls = self.classes(j, stride)
            if stride == 1:
                Th = self.base_hat(j, keys.dt) + self.base_hat(j, keys.phase)
            else:
                Th = tf.fft3(self.amplitude_time_derivative(j, stride)[keys.dt])
                Th[np.searchsorted(cls, self.classes(j))] += self.base_hat(j, keys.phase)
            return self._amp_hat(Th, cls, kind)
        return self.per_slice(j, ("dt", kind, stride), build)

    # -- materialization ------------------------------------------------------
    #
    # Every carrier and oscillation mode is e^{i q k_h-perp . x}, q an integer
    # (lam 2^c for class c, lam (2^c +- 2^c') for a mode): one table, one loop.

    def _entry(self, q):
        """tf.shift_entry of q k_h-perp, built on first use and kept for the
        engine: every slice, both wave kinds, the class and mode paths and
        (q = 0) the unshifted base scalars read the same entry."""
        if q not in self._shifts:
            self._shifts[q] = tf.shift_entry(self.grid, q * self.carrier)
        return self._shifts[q]

    def assemble(self, hats, qs, lead, op=None):
        """2 Re sum_q op(hat_q, entry_q) e^{i q k_h-perp . x}, materialized:
        hats and qs are matching iterables (hat_q a spectrum, op None taking
        it as is), lead the leading shape of op's output. Each carrier is an
        exact cyclic spectral shift, so all terms share one inverse
        transform per component."""
        acc = np.zeros(lead + self.grid.shape, dtype=complex)
        for h, q in zip(hats, qs):
            entry = self._entry(q)
            tf.add_shifted(acc, h if op is None else op(h, entry), entry.xi)
        return tf.twice_real_ifft3(acc)

    def assemble_hat(self, hats, cls):
        """2 Re sum_c amps_c E_c from the spectra hats (na, ..., grid) of the
        classes cls."""
        return self.assemble(hats, self.class_q[cls], hats.shape[1:-3])

    def dropped_mean(self, hats, qs):
        """The real T^3 means the shifted symbols drop (ShiftEntry.dropped_mean)
        from the amplitude spectra hats at the carriers q k_h-perp, summed."""
        return sum(self._entry(q).dropped_mean(h).real for h, q in zip(hats, qs))

    def field(self, j, op, kind):
        """Materialized <op>_hat spectra (op 'transport', 'dt' or 'dzz') of
        wave kind at sample j."""
        return self.per_slice(j, ("field", op, kind), lambda: self.assemble_hat(
            getattr(self, op + "_hat")(j, kind), self.classes(j)))

    def div_v_ell(self, j):
        """div v_ell at sample j."""
        return self.per_slice(j, "div_v_ell", lambda: tf.divergence(self.v_ell[j], self.grid))

    def wave_parts(self, j, kind):
        """Materialized (main, corr) of wave kind at sample j: polarization
        + grid each, the whole wave is their sum."""
        return self.per_slice(j, ("wave", kind), lambda: self._materialize(j, kind, ()))

    def wave_gradient_parts(self, j, kind):
        """Materialized (grad main, grad corr) of wave kind at sample j:
        (3 deriv) + polarization + grid each. The symbol of d_d on class c
        is i K_d, stacked over d."""
        return self.per_slice(j, ("grad", kind), lambda: self._materialize(
            j, kind, (3,), lambda h, entry: entry.grad(h)))

    def _materialize(self, j, kind, lead, op=None):
        """assemble with op (output lead + the spectrum's shape) of the main
        and correction class sums of wave kind. The main wave is pol times
        the base scalar 2 Re sum_c S_c E_c, so it takes one transform per op
        component, not one per polarization component."""
        hats = self.wave_hats(j, kind)
        qs = self.class_q[self.classes(j)]
        main = self.base_hat(j, self.KEYS[kind].base)
        return (self.polarize(self.assemble(main, qs, lead, op), kind),
                self.assemble(hats[1], qs, lead + hats[1].shape[1:-3], op))

    # -- identities -----------------------------------------------------------

    def wave_mean(self, j, kind):
        """Exact T^3 mean of wave kind (polarization-shaped).

        Computed in coefficient space: a term amp * e^{i xi.x} integrates to
        the amplitude's Fourier coefficient at -xi, which is identically zero
        for carriers outside the resolved band (the slow amplitude is a
        band-limited interpolant) and cancels to roundoff inside it (curl /
        divergence structure). The grid mean of the materialized field is an
        aliasing artifact and is deliberately not used.
        """
        out = np.zeros(self._pol[kind].shape)
        hats = self.wave_hats(j, kind)
        for row, q in enumerate(self.class_q[self.classes(j)]):
            entry = self._entry(q)
            if not all(abs(x) < n // 2 for x, n in zip(entry.xi, self.grid.shape)):
                continue  # outside the resolved band
            out = out + 2 * entry.dropped_mean(hats[0][row] + hats[1][row]).real
        return out

    def wave_divergence(self, j):
        """Materialized div w_n via the shifted symbol (exactly the curl
        structure cancelling; nonzero only through FFT roundoff)."""
        return self.assemble(sum(self.wave_hats(j, "w")), self.class_q[self.classes(j)], (),
                             lambda h, entry: entry.div(h))

    def cancellation_residual(self, j):
        """(|2 sum_l b^2 - (e - a)|_sup, |2 sum_l beta b + c|_sup); both are
        exact partition identities, nonzero only through roundoff. The
        classes _binned leaves out have b = 0 and add nothing."""
        bn = self._binned(j)
        b, beta = bn["b"], bn["beta"]
        rad = np.maximum(self.e_vals[j] - self.a_n[j], 0.0)
        r1 = float(np.max(np.abs(2.0 * np.sum(b * b, axis=0) - rad)))
        if beta is None:
            return r1, 0.0
        return r1, float(np.max(np.abs(2.0 * np.sum(beta * b, axis=0) + self.c_n[j])))

    def sup_b(self):
        """max_l |b_nl| over all samples (sets the recorded constant M), from
        the maxima recorded at binning (slot_data for a sample never read)."""
        return tf.max_or_nan(0.0, *[float(np.max(self.slot_data(j)[0])) if m is None else m
                                    for j, m in enumerate(self._b_max)])
