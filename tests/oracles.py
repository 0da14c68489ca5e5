"""Definitions only the tests use: slow, direct forms of what the package
computes in bulk (per-cell wave amplitudes, single-cell partition weights,
active-cell lists), the block reconstructions, the Gram determinant of the
stress basis, spectral truncations that build band-limited test data, the
spectral derivatives by whole 3-D transforms, mollification by 3-D
transforms, the start state's derivative stores sample by sample, and the
former loops of the wave engine's time stencil and the oscillation
products."""

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from bqci import partition as pt
from bqci import torus_field as tf
from bqci.algebra import K
from bqci.perturbation import WaveEngine


# -- algebra ------------------------------------------------------------------

def reconstruct_sym(gamma):
    """Sum gamma_i k_i (x) k_i, pointwise over trailing axes."""
    gamma = np.asarray(gamma)
    out = np.zeros((3, 3) + gamma.shape[1:], dtype=gamma.dtype)
    for i, k in enumerate(K):
        kk = np.outer(k, k).astype(gamma.dtype)
        out += kk.reshape((3, 3) + (1,) * (gamma.ndim - 1)) * gamma[i]
    return out


def reconstruct_vec(b):
    b = np.asarray(b)
    out = np.zeros((3,) + b.shape[1:], dtype=b.dtype)
    for i in range(3):
        k = np.array(K[i], dtype=b.dtype)
        out += k.reshape((3,) + (1,) * (b.ndim - 1)) * b[i]
    return out


def gram_determinant():
    """Determinant of the 6x6 Gram matrix of the k_i (x) k_i (exact integer)."""
    mats = [np.outer(k, k) for k in K]
    G = np.array([[int(np.sum(a * b)) for b in mats] for a in mats], dtype=object)
    # integer Bareiss elimination
    n = 6
    M = [[int(G[i][j]) for j in range(n)] for i in range(n)]
    prev = 1
    for i in range(n - 1):
        if M[i][i] == 0:
            for r in range(i + 1, n):
                if M[r][i] != 0:
                    M[i], M[r] = M[r], M[i]
                    prev = -prev
                    break
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
        prev = M[i][i]
    return M[n - 1][n - 1]


# -- torus fields -------------------------------------------------------------

def mean_t3(f):
    """Mean over the torus (last three axes)."""
    return np.mean(f, axis=(-3, -2, -1))


def dealias(f, grid):
    """2/3-rule truncation: zero modes with |m| > N/3 on any axis."""
    fh = tf.fft3(f)
    kx, ky, kz = grid.wavenumbers()
    mask = (
        (np.abs(kx) <= grid.nx / 3.0)
        & (np.abs(ky) <= grid.ny / 3.0)
        & (np.abs(kz) <= grid.nz / 3.0)
    )
    out = tf.ifft3(fh * mask)
    return out if np.iscomplexobj(f) else out.real


def low_pass(f, grid, kcut):
    """Sharp spectral truncation to |m| <= kcut on every axis."""
    fh = tf.fft3(f)
    kx, ky, kz = grid.wavenumbers()
    mask = (np.abs(kx) <= kcut) & (np.abs(ky) <= kcut) & (np.abs(kz) <= kcut)
    out = tf.ifft3(fh * mask)
    return out if np.iscomplexobj(f) else out.real


# -- spectral derivatives by whole 3-D transforms ------------------------------
#
# The package differentiates by 1-D transforms along the axis a derivative
# acts on; these take one 3-D transform of the field, apply the symbol on the
# whole spectrum and transform back.

def _rfft_symbol(grid, a):
    """Wavenumbers of axis a on the rfft half-spectrum, with the Nyquist
    planes zeroed (real input: the full-transform derivative followed by
    taking the real part annihilates all Nyquist-plane content)."""
    n = grid.shape
    ks = grid.wavenumbers()[a].copy()
    ks[np.abs(ks) == n[a] // 2] = 0.0
    if a == 2:
        ks = ks[..., : n[2] // 2 + 1]
    return ks


def apply_symbol(f, grid, xi, symbol):
    """symbol(K, fh) applied to the spectrum fh of f, K the wavenumbers:
    real unshifted input through the 3-D half spectrum (comes back real),
    complex or shifted input through the full spectrum with K = m + xi."""
    if xi is None and not np.iscomplexobj(f):
        K = tuple(_rfft_symbol(grid, a) for a in range(3))
        return sfft.irfftn(symbol(K, sfft.rfftn(f, axes=(-3, -2, -1))), s=grid.shape,
                           axes=(-3, -2, -1))
    return tf.ifft3(symbol(shifted_wavenumbers(grid, xi), tf.fft3(f)))


def shifted_wavenumbers(grid, xi=None):
    """The grid's wavenumbers m, plus the integer shift xi when given."""
    ks = grid.wavenumbers()
    return ks if xi is None else tuple(k + x for k, x in zip(ks, xi))


def derivative_3d(f, axis, grid, xi=None):
    a = "xyz".index(axis)
    return apply_symbol(f, grid, xi, lambda K, fh: 1j * K[a] * fh)


def second_derivative_3d(f, axis, grid, xi=None):
    a = "xyz".index(axis)
    return apply_symbol(f, grid, xi, lambda K, fh: -(K[a] * K[a]) * fh)


def gradient_3d(f, grid, xi=None):
    return apply_symbol(f, grid, xi, lambda K, fh: 1j * np.stack([k * fh for k in K]))


def divergence_3d(T, grid, xi=None):
    """Vector, 3x3 tensor (second index contracted) or packed symmetric
    tensor (6, ...)."""
    if T.shape[0] == 6:
        T = tf.sym_unpack(T)
    return apply_symbol(T, grid, xi, lambda K, Th: 1j * sum(
        K[b] * Th[..., b, :, :, :] for b in range(3)))


# -- mollification by 3-D transforms -------------------------------------------

def mollify_fft(f, tgrid, grid, ell, ell_z, time_axis=True, band=None):
    """tf.mollify as one real multiplier on the 3-D rfft half spectrum (the
    mollifier's transform times the band mask |m| <= band) between one
    forward and one inverse transform, then the time quadrature with zero
    extension as a loop over kernel offsets; the package applies the same
    operators as one small matrix per axis."""
    f = np.asarray(f, dtype=np.float64)
    hx, hy, hz = grid.spacing()
    kx, ky, kz = grid.wavenumbers()
    kz = np.abs(kz[..., : grid.nz // 2 + 1])
    fac = np.ones(grid.shape[:2] + kz.shape[2:])
    if ell >= 2 * hx:
        fac = fac * tf.mollifier_transform(np.abs(kx * ell)).reshape(kx.shape)
        fac = fac * tf.mollifier_transform(np.abs(ky * ell)).reshape(ky.shape)
    if ell_z >= 2 * hz:
        fac = fac * tf.mollifier_transform(kz * ell_z).reshape(kz.shape)
    if band is not None:
        fac = fac * ((np.abs(kx) <= band) & (np.abs(ky) <= band) & (kz <= band))
    fh = sfft.rfftn(f, axes=(-3, -2, -1))
    fh *= fac
    out = sfft.irfftn(fh, s=grid.shape, axes=(-3, -2, -1), overwrite_x=True)
    dt = tgrid.dt
    if time_axis and ell >= 2 * dt:
        half = int(np.floor(ell / dt))
        offs = np.arange(-half, half + 1)
        w = np.exp(-1.0 / np.maximum(1.0 - (offs * dt / ell) ** 2, 1e-300))
        w[np.abs(offs * dt) >= ell] = 0.0
        w = w / np.sum(w)
        nt = out.shape[0]
        conv = np.zeros_like(out)
        for o, wo in zip(offs, w):
            lo, hi = max(0, -o), min(nt, nt - o)
            if lo < hi:  # offsets beyond the series see only zeros
                conv[lo:hi] += wo * out[lo + o : hi + o]
        out = conv
    return out


def mollify_series(f, grid, ell, ell_z, band, samples):
    """tf.mollify without a time pass, through a whole band series: the f
    split into `samples` leading samples (tgrid.nt, or one per 3-D field
    without time axis), every sample compressed into the series by the F
    factors, then every sample expanded out of it by the G factors.  The
    package takes each sample through one band buffer instead, with the same
    products."""
    f = np.ascontiguousarray(f, dtype=np.float64)
    hx, _, hz = grid.spacing()
    scales = [ell if ell >= 2 * hx else None] * 2 + [ell_z if ell_z >= 2 * hz else None]
    pairs = [tf._axis_pair(n, l, band) for n, l in zip(grid.shape, scales)]
    steps = lambda k, axes: [(a, pairs[a][k].T.copy() if a == 2 else pairs[a][k]) for a in axes
                             if pairs[a] is not None and pairs[a][k] is not None]
    src = f.reshape((samples, -1) + grid.shape)
    series = np.empty(src.shape[:2] + tuple(
        n if p is None else len(p[0]) for n, p in zip(grid.shape, pairs)))
    out = np.empty(src.shape)
    for j in range(samples):
        tf._through(src[j], series[j], steps(0, (2, 1, 0)))
    for j in range(samples):
        tf._through(series[j], out[j], steps(1, (0, 1, 2)))
    return out.reshape(f.shape)


# -- the start state's derivative stores, sample by sample ----------------------

def initial_stores_per_sample(data, grid, tgrid):
    """The derivative stores of iteration.initial_state, built from the fields
    of the starting tuple `data` (iteration.initial_data): every spatial
    operator on every time sample, and d_t by the stencil on the whole
    fields, the coarse ones on tgrid.halved() (absent when it is None)."""
    v, theta = data["v"], data["theta"]
    nt = tgrid.nt
    out = {name: np.empty((nt,) + lead + grid.shape) for name, lead in (
        ("grad_v", (3, 3)), ("dzz_v", (3,)), ("grad_theta", (3,)), ("dzz_theta", ()),
        ("div_R_store", (3,)), ("div_f_store", ()))}
    for j in range(nt):
        out["grad_v"][j], out["dzz_v"][j] = tf.gradient_and_dzz(v[j], grid)
        out["grad_theta"][j], out["dzz_theta"][j] = tf.gradient_and_dzz(theta[j], grid)
        out["div_R_store"][j] = tf.divergence(data["R0"][j], grid)
        out["div_f_store"][j] = tf.divergence(data["f0"][j], grid)
    out["dt_v"] = tf.time_derivative(v, tgrid)
    out["dt_theta"] = tf.time_derivative(theta, tgrid)
    ctg = tgrid.halved()
    if ctg is not None:
        out["dt_v_coarse"] = tf.time_derivative(v[::2], ctg)
        out["dt_theta_coarse"] = tf.time_derivative(theta[::2], ctg)
    return out


# -- partition ----------------------------------------------------------------

def class_corners(cands):
    """The 8 corners (8, 3, ...) in class order, expanded from the per-axis
    candidates (3, 2, ...) that PartitionOfUnity.corner_alphas returns."""
    return cands[np.arange(3), pt.CLASS_BITS]


def alpha(pou, l, p):
    """Weight of lattice cell l (integer 3-vector) at points p (3, ...)."""
    cands, alphas = pou.corner_alphas(p)
    corners = class_corners(cands)
    l = np.asarray(l, dtype=np.int64).reshape((3,) + (1,) * (np.ndim(p) - 1))
    hit = np.all(corners == l, axis=1)
    return np.sum(np.where(hit, alphas, 0.0), axis=0)


def active_cells(p, pou=None):
    """Sorted list of lattice cells with nonzero weight over the points p."""
    if pou is None:
        pou = pt.PartitionOfUnity()
    cands, alphas = pou.corner_alphas(np.asarray(p, dtype=np.float64))
    live = np.moveaxis(class_corners(cands), 1, -1)[alphas > 0.0]
    return sorted(set(map(tuple, live.tolist())))


# -- the wave engine's and the assembler's former loops -----------------------

def five_tap_time_derivative(eng, j, stride=1):
    """WaveEngine.amplitude_time_derivative summed over all five taps of the
    stencil, the central stencil's zero-weight middle tap included."""
    S, W = eng._time_stencil(j, stride)
    out = {}
    for m in range(5):
        sums = eng._class_sums(int(S[m]), j, eng.classes(j, stride), False)
        for kind in eng.kinds:
            keys = eng.KEYS[kind]
            term = W[m] * sums[keys.base]
            out[keys.dt] = term if m == 0 else out[keys.dt] + term
    return out


def ordered_pair_modes(asm, j, kind):
    """SubstepAssembler.oscillation_modes over every ordered pair of class
    rows, both signs, for the velocity wave too (where the pairs (a, b) and
    (b, a) give the same mode and product)."""
    rows, cls, lam = asm.e.base_rows(j), asm.e.classes(j), asm.e.lam
    A, B = rows["U"], rows[asm.e.KEYS[kind].base]
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


# -- per-cell reference amplitudes (the oracle the engine is tested against) --

def _cross_with(gS, avec):
    """(grad S) x a for a = (s, t, 1); gS has component axis 0."""
    s, t = avec[0], avec[1]
    gx, gy, gz = gS[0], gS[1], gS[2]
    return np.stack([gy - t * gz, s * gz - gx, t * gx - s * gy])


@dataclass
class AmplitudeSet:
    engine: WaveEngine

    @property
    def n(self):
        return self.engine.n

    def b(self, l, j):
        """Amplitude b_nl on the grid at time sample j (direct formula)."""
        e = self.engine
        rad = np.maximum(e.e_vals[j] - e.a_n[j], 0.0)
        return np.sqrt(rad / 2.0) * alpha(e.pou, l, e.mu * e.v_ell[j])

    def beta(self, l, j):
        e = self.engine
        if e.c_n is None:
            return np.zeros(e.grid.shape)
        rad = np.maximum(e.e_vals[j] - e.a_n[j], 0.0)
        safe = np.sqrt(2.0 * np.maximum(rad, 1e-300))
        return np.where(rad > 0, -e.c_n[j] / safe, 0.0) * alpha(e.pou, l, e.mu * e.v_ell[j])

    def g(self, l, j, sign=+1):
        """Wave coefficient g_{+-nl} (3, grid), complex."""
        e = self.engine
        b = self.b(l, j).astype(complex)
        gb = gradient_3d(b, e.grid)
        fac = 1.0 / (sign * 1j * e.lam * 2 ** pt.parity_index(l))
        return b[None] * e.k.reshape(3, 1, 1, 1) + fac * _cross_with(gb, e.avec)

    def h(self, l, j, sign=+1):
        e = self.engine
        beta = self.beta(l, j).astype(complex)
        gb = gradient_3d(beta, e.grid)
        kp = e.frame.k_perp_arr()
        fac = 1.0 / (sign * 1j * e.lam * 2 ** pt.parity_index(l) * e.khsq)
        return beta + fac * sum(kp[d] * gb[d] for d in range(3))
