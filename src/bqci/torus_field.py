"""Periodic field arithmetic on the 3-torus [0, 2pi)^3.

Fields are plain numpy arrays whose last three axes are (x, y, z); a time
series carries time as the leading axis. Spatial derivatives are spectral,
time derivatives are 4th-order finite differences on the shared uniform time
grid. A "shifted" variant of every spectral operator acts on the slow
amplitude a of a modulated term a(x) e^{i xi . x} by replacing the symbol
i m with i (m + xi); this is how fast phases stay symbolic while the
operators remain exact.
"""

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

TWO_PI = 2.0 * np.pi

MAGIC = b"BCI1"


@dataclass(frozen=True)
class Grid3:
    """Uniform periodic grid; any even N >= 8 per axis (48 = 2^4*3 is the
    reference size; the factor 3 keeps power-of-two wave ladders off the
    grid's zero mode)."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for n in (self.nx, self.ny, self.nz):
            if n < 8 or n % 2:
                raise ValueError(f"grid size {n} must be even and >= 8")

    @property
    def shape(self):
        return (self.nx, self.ny, self.nz)

    @property
    def npts(self):
        return self.nx * self.ny * self.nz

    def axes(self):
        return tuple(np.arange(n) * (TWO_PI / n) for n in self.shape)

    def meshes(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def wavenumbers(self):
        """Integer wavenumber arrays broadcastable to the grid shape."""
        kx = np.fft.fftfreq(self.nx, 1.0 / self.nx).reshape(-1, 1, 1)
        ky = np.fft.fftfreq(self.ny, 1.0 / self.ny).reshape(1, -1, 1)
        kz = np.fft.fftfreq(self.nz, 1.0 / self.nz).reshape(1, 1, -1)
        return kx, ky, kz

    def spacing(self):
        return tuple(TWO_PI / n for n in self.shape)


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    nt: int

    def __post_init__(self):
        if self.nt < 5:
            raise ValueError("need at least 5 time samples for 4th-order FD")
        if not self.t1 > self.t0:
            raise ValueError("empty time interval")

    @property
    def dt(self):
        return (self.t1 - self.t0) / (self.nt - 1)

    def times(self):
        return np.linspace(self.t0, self.t1, self.nt)


_AXES = (-3, -2, -1)


def fft3(f):
    return sfft.fftn(f, axes=_AXES)


def ifft3(fh):
    return sfft.ifftn(fh, axes=_AXES)


def twice_real_ifft3(fh):
    """2 Re ifft3(fh), as the inverse real transform of the Hermitian part
    fh(m) + conj(fh(-m)) on the half spectrum, which costs less than the
    complex inverse transform (about a third less at 48^3)."""
    nx, ny, nz = fh.shape[-3:]
    h = nz // 2 + 1
    herm = np.empty(fh.shape[:-1] + (h,), dtype=complex)
    # (m, -m) index pairs per axis as slices: 0 -> 0, then 1.. -> n-1 down
    pairs = [((slice(0, 1), slice(0, 1)), (slice(1, None), slice(n - 1, 0, -1)))
             for n in (nx, ny)]
    pairs.append(((slice(0, 1), slice(0, 1)), (slice(1, h), slice(nz - 1, nz - h, -1))))
    for dx, sx in pairs[0]:
        for dy, sy in pairs[1]:
            for dz, sz in pairs[2]:
                dst = herm[..., dx, dy, dz]
                np.conjugate(fh[..., sx, sy, sz], out=dst)
                dst += fh[..., dx, dy, dz]
    return sfft.irfftn(herm, s=(nx, ny, nz), axes=_AXES)


def add_shifted(acc_hat, fh, xi):
    """acc_hat += the spectrum of f e^{i xi . x}, where fh is the spectrum of f.

    On the sampled grid an integer phase is exactly a cyclic shift of the
    spectrum by xi (last three axes); the shifted blocks are added in place,
    without a rolled copy."""
    n = fh.shape[-3:]
    blocks = []
    for x, m in zip(xi, n):
        s = int(x) % m
        blocks.append(((slice(s, None), slice(None, m - s)),
                       (slice(None, s), slice(m - s, None))))
    for dx, sx in blocks[0]:
        for dy, sy in blocks[1]:
            for dz, sz in blocks[2]:
                acc_hat[..., dx, dy, dz] += fh[..., sx, sy, sz]


_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def shifted_k(grid, xi=None):
    """Wavenumbers (kx, ky, kz) broadcastable to the grid, shifted by the
    integer 3-vector xi: on the slow amplitude a of a(x) e^{i xi . x} the
    symbol of d/dx_a is i (m + xi)_a."""
    kx, ky, kz = grid.wavenumbers()
    if xi is None:
        return kx, ky, kz
    return kx + xi[0], ky + xi[1], kz + xi[2]


def _rfft_symbol(grid, a):
    """Wavenumbers of axis a on the rfft half-spectrum, with the Nyquist
    planes zeroed: for real input the full-transform derivative followed by
    taking the real part annihilates all Nyquist-plane content, and the
    half-spectrum path must reproduce that exactly."""
    n = grid.shape
    ks = grid.wavenumbers()[a].copy()
    if n[a] % 2 == 0:
        ks[np.abs(ks) == n[a] // 2] = 0.0
    if a == 2:
        ks = ks[..., : n[2] // 2 + 1]
    return ks


def _apply_symbol(f, grid, xi, *symbols):
    """symbol(K, fh) applied to the spectrum fh of f, K the wavenumbers; one
    result per symbol, all from one forward transform of f.

    Real unshifted input goes through the half spectrum (K from
    _rfft_symbol) and comes back real; complex or shifted input goes
    through the full spectrum with K = shifted_k(grid, xi) and comes back
    complex (the amplitude of a modulated field)."""
    if xi is None and not np.iscomplexobj(f):
        K = tuple(_rfft_symbol(grid, a) for a in range(3))
        fh = sfft.rfftn(f, axes=_AXES)
        out = [sfft.irfftn(sym(K, fh), s=grid.shape, axes=_AXES) for sym in symbols]
    else:
        K, fh = shifted_k(grid, xi), fft3(f)
        out = [ifft3(sym(K, fh)) for sym in symbols]
    return out[0] if len(out) == 1 else tuple(out)


def _second_symbol(a):
    return lambda K, fh: -(K[a] * K[a]) * fh


def _gradient_symbol(K, fh):
    return np.stack([1j * K[a] * fh for a in range(3)])


def derivative(f, axis, grid, xi=None):
    """Spectral spatial derivative along 'x' | 'y' | 'z'.

    With xi (integer 3-vector) given, interprets f as the slow amplitude of
    f(x) e^{i xi . x} and returns the amplitude of the derivative, i.e. the
    symbol is i (m + xi)_axis.
    """
    a = _AXIS_INDEX[axis]
    return _apply_symbol(f, grid, xi, lambda K, fh: 1j * K[a] * fh)


def second_derivative(f, axis, grid, xi=None):
    """Spectral second derivative along one axis: symbol -(m + xi)_axis^2."""
    return _apply_symbol(f, grid, xi, _second_symbol(_AXIS_INDEX[axis]))


def gradient(f, grid, xi=None):
    """All three spatial derivatives, stacked on a new leading axis."""
    return _apply_symbol(f, grid, xi, _gradient_symbol)


def gradient_and_dzz(f, grid):
    """(gradient(f, grid), second_derivative(f, "z", grid)) of a real field
    from one forward transform, equal to the two calls bit for bit."""
    return _apply_symbol(f, grid, None, _gradient_symbol, _second_symbol(2))


# rows of a packed symmetric tensor (sym_pack order): row i holds T_i0..T_i2
_PACKED_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def divergence(T, grid, xi=None):
    """Divergence of a vector (3, ...) -> scalar, of a tensor (3, 3, ...) ->
    vector, contracting the second index, or of a packed symmetric tensor
    (6, ...) -> vector, from its six spectra."""
    T = np.asarray(T)
    if T.shape == (6,) + grid.shape:
        return _apply_symbol(T, grid, xi, lambda K, Th: 1j * np.stack([
            K[0] * Th[r[0]] + K[1] * Th[r[1]] + K[2] * Th[r[2]] for r in _PACKED_ROWS]))
    if T.shape not in ((3,) + grid.shape, (3, 3) + grid.shape):
        raise ValueError(f"unsupported shape {T.shape}")
    return _apply_symbol(T, grid, xi, lambda K, Th: 1j * (
        K[0] * Th[..., 0, :, :, :] + K[1] * Th[..., 1, :, :, :]
        + K[2] * Th[..., 2, :, :, :]))


def mean_t3(f):
    """Mean over the torus (last three axes)."""
    return np.mean(f, axis=(-3, -2, -1))


def dealias(f, grid):
    """2/3-rule truncation: zero modes with |m| > N/3 on any axis."""
    fh = fft3(f)
    kx, ky, kz = grid.wavenumbers()
    mask = (
        (np.abs(kx) <= grid.nx / 3.0)
        & (np.abs(ky) <= grid.ny / 3.0)
        & (np.abs(kz) <= grid.nz / 3.0)
    )
    out = ifft3(fh * mask)
    return out if np.iscomplexobj(f) else out.real


def low_pass(f, grid, kcut):
    """Sharp spectral truncation to |m| <= kcut on every axis."""
    fh = fft3(f)
    kx, ky, kz = grid.wavenumbers()
    mask = (np.abs(kx) <= kcut) & (np.abs(ky) <= kcut) & (np.abs(kz) <= kcut)
    out = ifft3(fh * mask)
    return out if np.iscomplexobj(f) else out.real


# ---------------------------------------------------------------------------
# time differentiation (4th order)

_CENT = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def time_derivative_weights(nt, dt):
    """Row j of the returned (nt, 5) table holds the stencil weights applied
    to samples at indices time_derivative_support(nt)[j]."""
    W = np.tile(_CENT, (nt, 1))
    W[0], W[1], W[-2], W[-1] = _EDGE0, _EDGE1, -_EDGE1[::-1], -_EDGE0[::-1]
    return W / dt


def time_derivative_support(nt):
    """Index array (nt, 5): sample indices each stencil row touches."""
    start = np.clip(np.arange(nt, dtype=np.int64) - 2, 0, nt - 5)
    return start[:, None] + np.arange(5)


def time_derivative(f, tgrid):
    """4th-order FD time derivative of a time series (time = leading axis)."""
    f = np.asarray(f)
    nt = f.shape[0]
    if nt != tgrid.nt:
        raise ValueError("time axis does not match the time grid")
    W = time_derivative_weights(nt, tgrid.dt)
    S = time_derivative_support(nt)
    out = np.zeros_like(f)
    for j in range(nt):
        for m in range(5):
            out[j] += W[j, m] * f[S[j, m]]
    return out


# ---------------------------------------------------------------------------
# mollification

_BUMP_NODES = 256


def _bump_quadrature():
    s, w = np.polynomial.legendre.leggauss(_BUMP_NODES)
    val = np.exp(-1.0 / (1.0 - s * s))
    mass = np.sum(w * val)
    return s, w * val / mass


_BQ_S, _BQ_W = _bump_quadrature()


def mollifier_transform(u):
    """Fourier transform phi-hat(u) of the unit-mass C-infinity bump on (-1,1);
    phi-hat(0) = 1, real and even."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.cos(np.outer(u, _BQ_S)) @ _BQ_W
    return out if out.size > 1 else float(out[0])


def mollify(f, tgrid, grid, ell, ell_z, time_axis=True, band=None):
    """Anisotropic mollification: scale ell in t, x, y; ell_z in z.

    Space first: one real multiplier on the rfft half spectrum, between one
    forward and one inverse real transform. It is the mollifier's transform
    times, with band given, the sharp truncation |m| <= band on every axis
    (low_pass after mollify, to roundoff). Then time: direct quadrature with
    zero extension (valid for compactly supported data). Scales below 2 grid
    cells pass through with a warning. The T^3 mean at each time is
    preserved (unit-mass kernels)."""
    f = np.asarray(f, dtype=np.float64)
    hx, hy, hz = grid.spacing()
    kx, ky, kz = grid.wavenumbers()
    kz = np.abs(kz[..., : grid.nz // 2 + 1])
    fac = np.ones(grid.shape[:2] + kz.shape[2:])
    if ell >= 2 * hx:
        fac = fac * mollifier_transform(np.abs(kx * ell)).reshape(kx.shape)
        fac = fac * mollifier_transform(np.abs(ky * ell)).reshape(ky.shape)
    else:
        warnings.warn(f"mollify: ell = {ell:.3g} below 2 grid cells; horizontal pass-through")
    if ell_z >= 2 * hz:
        fac = fac * mollifier_transform(kz * ell_z).reshape(kz.shape)
    else:
        warnings.warn(f"mollify: ell_z = {ell_z:.3g} below 2 grid cells; vertical pass-through")
    if band is not None:
        fac = fac * ((np.abs(kx) <= band) & (np.abs(ky) <= band) & (kz <= band))
    out = sfft.irfftn(sfft.rfftn(f, axes=_AXES) * fac, s=grid.shape, axes=_AXES,
                      overwrite_x=True)

    if time_axis:
        dt = tgrid.dt
        if ell >= 2 * dt:
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
        else:
            warnings.warn(f"mollify: ell = {ell:.3g} below 2 time cells; time pass-through")
    return out


# ---------------------------------------------------------------------------
# norms

def sup_norm(f):
    return float(np.max(np.abs(f))) if np.asarray(f).size else 0.0


def holder_seminorm(f, alpha, grid, tgrid=None, axes="xyz", radius=4):
    """Sampled lower bound of the C^alpha seminorm: max over pairs within the
    stencil radius along each requested axis of |df| / |dp|^alpha."""
    f = np.asarray(f)
    best = 0.0
    spacings = dict(zip("xyz", grid.spacing()))
    for ax in axes:
        if ax == "t":
            if tgrid is None:
                raise ValueError("time axis requested without a time grid")
            h = tgrid.dt
            for s in range(1, min(radius, f.shape[0] - 1) + 1):
                d = np.max(np.abs(f[s:] - f[:-s]))
                best = max(best, d / (s * h) ** alpha)
        else:
            h = spacings[ax]
            axis = f.ndim - 3 + _AXIS_INDEX[ax]
            for s in range(1, radius + 1):
                d = np.max(np.abs(np.roll(f, -s, axis=axis) - f))
                best = max(best, d / (s * h) ** alpha)
    return best


# ---------------------------------------------------------------------------
# symmetric-tensor packing and binary snapshots

PACK = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def sym_pack(T):
    """(3, 3, ...) -> (6, ...) upper triangle (xx, xy, xz, yy, yz, zz)."""
    return np.stack([T[i, j] for i, j in PACK])


def sym_unpack(P):
    """(6, ...) -> full (3, 3, ...)."""
    return np.stack([np.stack([P[k] for k in row]) for row in _PACKED_ROWS])


_RANK_NCOMP = {0: 1, 1: 3, 2: 6}


def write_snapshot(path, arr, rank, grid, tgrid):
    """Binary snapshot: 64-byte header (magic 'BCI1', rank, Nx, Ny, Nz, Nt as
    little-endian u32, t0, t1 as f64), then f64 samples in
    (t, component, z, y, x) row-major order. arr: (nt, ncomp, nx, ny, nz)."""
    ncomp = _RANK_NCOMP[rank]
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (tgrid.nt, ncomp) + grid.shape:
        raise ValueError(f"array shape {arr.shape} does not match header")
    header = struct.pack(
        "<4s5I d d", MAGIC, rank, grid.nx, grid.ny, grid.nz, tgrid.nt, tgrid.t0, tgrid.t1
    )
    header = header.ljust(64, b"\0")
    data = np.ascontiguousarray(np.transpose(arr, (0, 1, 4, 3, 2)))
    with open(path, "wb") as fh:
        fh.write(header)
        data.astype("<f8").tofile(fh)


class SnapshotFormatError(ValueError):
    pass


def read_snapshot(path):
    """Returns (arr of shape (nt, ncomp, nx, ny, nz), rank, Grid3, TimeGrid)."""
    with open(path, "rb") as fh:
        header = fh.read(64)
        if len(header) < 64 or header[:4] != MAGIC:
            raise SnapshotFormatError("bad magic or truncated header")
        rank, nx, ny, nz, nt = struct.unpack("<5I", header[4:24])
        t0, t1 = struct.unpack("<dd", header[24:40])
        if rank not in _RANK_NCOMP:
            raise SnapshotFormatError(f"unknown rank {rank}")
        ncomp = _RANK_NCOMP[rank]
        data = np.fromfile(fh, dtype="<f8", count=nt * ncomp * nx * ny * nz)
    if data.size != nt * ncomp * nx * ny * nz:
        raise SnapshotFormatError("truncated data section")
    arr = data.reshape(nt, ncomp, nz, ny, nx).transpose(0, 1, 4, 3, 2)
    return np.ascontiguousarray(arr), rank, Grid3(nx, ny, nz), TimeGrid(t0, t1, nt)
