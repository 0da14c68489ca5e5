"""Periodic field arithmetic on the 3-torus [0, 2pi)^3.

Fields are plain numpy arrays whose last three axes are (x, y, z); a time
series carries time as the leading axis. Spatial derivatives of real fields
are spectral, each by 1-D transforms along the one axis it acts on; time
derivatives are 4th-order finite differences on the shared uniform time
grid. A modulated term a(x) e^{i xi . x} keeps its fast phase symbolic: every
operator on it acts on the spectrum of the slow amplitude a through the
shifted symbol i (m + xi), read from the shift's ShiftEntry, the one place
that builds wavenumbers.
"""

import numbers
import struct
import warnings
from collections import namedtuple
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

    def halved(self):
        """The stride-2 grid of the Richardson companion: every second
        sample, or None when nt - 1 is odd or that leaves fewer than 5."""
        if (self.nt - 1) % 2 or (self.nt - 1) // 2 + 1 < 5:
            return None
        return TimeGrid(self.t0, self.t1, (self.nt - 1) // 2 + 1)


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


class ShiftEntry(namedtuple("ShiftEntry", "xi K inv zero")):
    """The symbol data of one integer shift xi (a tuple), acting on the
    spectrum of the slow amplitude of a(x) e^{i xi . x}: K = m + xi, the
    shifted wavenumbers as 1-D broadcasts, so that d/dx_d is i K_d;
    inv = -1/|K|^2 on the grid, 0 at K = 0; zero, the grid index of K = 0
    (None when it is not a grid frequency)."""

    def grad(self, h):
        """i K_d h stacked over d: the gradient of the amplitude spectrum h."""
        out = np.empty((3,) + h.shape, dtype=complex)
        for d in range(3):
            np.multiply(1j * self.K[d], h, out=out[d])
        return out

    def div(self, h):
        """i K . h over the leading axis of h: the divergence."""
        return sum(1j * self.K[d] * h[d] for d in range(3))

    def dropped_mean(self, fh):
        """The T^3 mean of the amplitude's K = 0 mode, the coefficient the
        symbols drop (leading axes of fh kept; 0 without a zero mode)."""
        if self.zero is None:
            return 0.0
        return fh[(Ellipsis,) + self.zero] / self.inv.size


def shift_entry(grid, xi=None):
    """ShiftEntry of the integer shift xi (None: no shift)."""
    xi = (0, 0, 0) if xi is None else tuple(int(x) for x in xi)
    K = tuple(k + x for k, x in zip(grid.wavenumbers(), xi))
    # K_d = 0 at one index per axis at most, so K = 0 at one point at most
    hits = [np.flatnonzero(Kd.ravel() == 0) for Kd in K]
    zero = tuple(int(h[0]) for h in hits) if all(h.size for h in hits) else None
    k2 = K[0] * K[0] + K[1] * K[1] + K[2] * K[2]
    if zero is not None:
        k2[zero] = np.inf  # so that -1/|K|^2 is 0 there
    return ShiftEntry(xi, K, -1.0 / k2, zero)


def _axis_derivatives(f, a, grid, orders=(1,)):
    """Derivatives of the real field f along grid axis a, one per order
    (symbol i m_a for 1, -m_a^2 for 2), all from one 1-D half-spectrum
    transform of f along that axis alone, with m_a's Nyquist entry zeroed:
    for real input the full-spectrum derivative followed by taking the real
    part annihilates all Nyquist content, and this path reproduces that
    exactly. A modulated amplitude takes its symbols from its ShiftEntry."""
    if np.iscomplexobj(f):
        raise TypeError("spectral derivatives take real fields; a modulated "
                        "amplitude takes its symbols from its ShiftEntry")
    n, axes = grid.shape[a], (a - 3,)
    m = np.append(np.arange(n // 2), 0.0).reshape((-1,) + (1,) * (2 - a))
    fh = sfft.rfftn(f, axes=axes)
    return [sfft.irfftn((1j * m if o == 1 else -(m * m)) * fh, s=(n,), axes=axes,
                        overwrite_x=True) for o in orders]


def derivative(f, axis, grid):
    """Spectral spatial derivative along 'x' | 'y' | 'z'."""
    return _axis_derivatives(f, _AXIS_INDEX[axis], grid)[0]


def _gradient(f, grid, z_orders):
    """(gradient, then the derivatives of z_orders[1:] along z from the same
    z transform)."""
    g = np.empty((3,) + f.shape)
    for a in range(3):
        g[a], *rest = _axis_derivatives(f, a, grid, z_orders if a == 2 else (1,))
    return (g, *rest)


def gradient(f, grid):
    """All three spatial derivatives, stacked on a new leading axis."""
    return _gradient(f, grid, (1,))[0]


def gradient_and_dzz(f, grid):
    """(gradient(f, grid), d_zz f) of a real field, sharing the z transform;
    the gradient equals gradient(f, grid) bit for bit."""
    return _gradient(f, grid, (1, 2))


# rows of a packed symmetric tensor (sym_pack order): row i holds T_i0..T_i2
_PACKED_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def divergence(T, grid):
    """Divergence of a vector (3, ...) -> scalar, of a tensor (3, 3, ...) ->
    vector, contracting the second index, or of a packed symmetric tensor
    (6, ...) -> vector; the components d/dx_b acts on share one transform
    along axis b."""
    T = np.asarray(T)
    if T.shape == (6,) + grid.shape:
        column = lambda b: T[[row[b] for row in _PACKED_ROWS]]
    elif T.shape in ((3,) + grid.shape, (3, 3) + grid.shape):
        column = lambda b: T[..., b, :, :, :]
    else:
        raise ValueError(f"unsupported shape {T.shape}")
    out = _axis_derivatives(column(0), 0, grid)[0]
    for b in (1, 2):
        out += _axis_derivatives(column(b), b, grid)[0]
    return out


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


def _axis_pair(n, ell, band):
    """The factor pair (F, G) of one axis at scale ell (None: no mollifier),
    or None where the axis's operator is the identity.

    Where the band cuts the axis (band < n // 2), F (r x n, r = 2 band + 1)
    takes a line to its real Fourier coefficients a_0, a_1..a_band,
    b_1..b_band, and G (n x r) sums them back with mode m weighted by
    phi-hat(|m| ell), so that G F is the circulant of phi-hat(|m| ell)
    [|m| <= band].  Otherwise F is the n x n circulant of phi-hat(|m| ell),
    built from its first column (the inverse transform of the multiplier),
    and G is None."""
    if band is not None and band < n // 2:
        m = np.arange(band + 1)
        fac = np.ones(m.shape) if ell is None else np.atleast_1d(mollifier_transform(m * ell))
        phase = (TWO_PI / n) * (np.outer(m, np.arange(n)) % n)
        cos, sin = np.cos(phase), np.sin(phase[1:])
        F = np.concatenate([cos[:1] / n, (2.0 / n) * cos[1:], (2.0 / n) * sin])
        G = np.concatenate([fac[:, None] * cos, fac[1:, None] * sin]).T
        return F, G
    if ell is None:
        return None
    m, d = np.arange(n // 2 + 1), np.arange(n)
    C = sfft.irfftn(mollifier_transform(m * ell), s=(n,), axes=(0,))[np.subtract.outer(d, d) % n]
    return C, None


def _along(M, a, b, axis):
    """b = M applied along grid axis 0 | 1 | 2 of the sample a (Q, nx, ny, nz),
    as a batch of small products; along z, M comes transposed (contiguous:
    numpy multiplies by a transposed view slowly)."""
    if axis == 2:
        np.matmul(a.reshape(-1, a.shape[-2], a.shape[-1]), M,
                  out=b.reshape(-1, b.shape[-2], b.shape[-1]))
    elif axis == 1:
        np.matmul(M, a.reshape(-1, a.shape[-2], a.shape[-1]),
                  out=b.reshape(-1, b.shape[-2], b.shape[-1]))
    else:
        np.matmul(M, a.swapaxes(1, 2), out=b.swapaxes(1, 2))


def _through(a, out, steps):
    """The sample a through each (axis, M) of steps in turn, the last one
    writing out; the ones before write small per-sample temporaries."""
    for i, (axis, M) in enumerate(steps):
        rows = M.shape[1] if axis == 2 else M.shape[0]
        b = out if i == len(steps) - 1 else np.empty(
            a.shape[:axis + 1] + (rows,) + a.shape[axis + 2:])
        _along(M, a, b, axis)
        a = b


def mollify(f, tgrid, grid, ell, ell_z, time_axis=True, band=None):
    """Anisotropic mollification: scale ell in t, x, y; ell_z in z.

    In z, y and x the circulant of the mollifier's transform phi-hat(|m| ell)
    times, with band given, the sharp truncation |m| <= band, as one factor
    pair per axis (_axis_pair).  Sample by sample (a time sample, or each 3-D
    field without time axis), the F factors compress along z, y and x into
    one band series; the banded nt x nt matrix of the time kernel with zero
    extension (valid for compactly supported data: taps beyond the series
    are dropped, not renormalised) acts on that series; then, sample by
    sample, the G factors expand along x, y and z into the output.  Besides
    the output, a call with a time pass holds two band series and
    per-sample temporaries; without one, each sample goes straight from
    compress to expand through one band buffer, with the same products.
    Every product is one of a batch of at most N^3 multiply-adds (OpenBLAS
    runs those on one thread for N <= 64; one large product per axis would
    start its workers).

    Scales below 2 grid cells pass through with a warning; a pass whose
    multiplier is 1 is skipped.  The T^3 mean at each time is preserved.  A
    scale that is not positive and finite, or a band that is not a
    non-negative integer, raises ValueError."""
    for name, value in (("ell", ell), ("ell_z", ell_z)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"mollify: {name} = {value} is not a positive finite scale")
    if band is not None and (isinstance(band, bool) or not isinstance(band, numbers.Integral)
                             or band < 0):
        raise ValueError(f"mollify: band = {band} is not a non-negative integer")
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.shape[-3:] != grid.shape:
        raise ValueError(f"mollify: field shape {f.shape} does not end in grid shape {grid.shape}")
    if time_axis and (f.ndim < 4 or f.shape[0] != tgrid.nt):
        raise ValueError(f"mollify: field shape {f.shape} does not lead with {tgrid.nt} time samples")
    hx, _, hz = grid.spacing()
    if ell < 2 * hx:
        warnings.warn(f"mollify: ell = {ell:.3g} below 2 grid cells; horizontal pass-through")
    if ell_z < 2 * hz:
        warnings.warn(f"mollify: ell_z = {ell_z:.3g} below 2 grid cells; vertical pass-through")
    lxy, lz = (ell if ell >= 2 * hx else None), (ell_z if ell_z >= 2 * hz else None)
    pairs = [_axis_pair(n, l, band) for n, l in zip(grid.shape, (lxy, lxy, lz))]
    steps = lambda k, axes: [(a, pairs[a][k].T.copy() if a == 2 else pairs[a][k]) for a in axes
                             if pairs[a] is not None and pairs[a][k] is not None]
    compress, expand = steps(0, (2, 1, 0)), steps(1, (0, 1, 2))
    T = None
    if time_axis and ell >= 2 * tgrid.dt:
        dt, nt, half = tgrid.dt, tgrid.nt, int(np.floor(ell / tgrid.dt))
        offs = np.arange(-half, half + 1)
        w = np.exp(-1.0 / np.maximum(1.0 - (offs * dt / ell) ** 2, 1e-300))
        w[np.abs(offs * dt) >= ell] = 0.0
        o = np.arange(nt) - np.arange(nt)[:, None]  # T[j, k]: weight at offset k - j
        T = np.where(np.abs(o) <= half, (w / np.sum(w))[np.clip(o + half, 0, 2 * half)], 0.0)
    elif time_axis:
        warnings.warn(f"mollify: ell = {ell:.3g} below 2 time cells; time pass-through")
    src = f.reshape(((tgrid.nt, -1) if time_axis else (-1, 1)) + grid.shape)
    coefs = src.shape[1:2] + tuple(n if p is None else len(p[0]) for n, p in zip(grid.shape, pairs))
    if T is None and expand:  # each sample through one band buffer
        out, buf = np.empty(src.shape), np.empty(coefs)
        for j in range(len(src)):
            _through(src[j], buf, compress)
            _through(buf, out[j], expand)
        return out.reshape(f.shape)
    series = src
    if compress:
        series = np.empty(src.shape[:1] + coefs)
        for j in range(len(src)):  # no loop view outlives the pass
            _through(src[j], series[j], compress)
    if T is not None:
        done = np.empty(series.shape)
        samples = lambda a: a.reshape(tgrid.nt, -1, a.shape[-1]).swapaxes(0, 1)
        np.matmul(T, samples(series), out=samples(done))
        series = done
    if expand:
        out = np.empty(src.shape)
        for j in range(len(out)):
            _through(series[j], out[j], expand)
        series = out
    return (f.copy() if series is src else series).reshape(f.shape)


# ---------------------------------------------------------------------------
# norms

def sup_norm(f):
    """max |f|, NaN if any, 0 when empty, never -0.0; real input takes no |f| temporary."""
    f = np.abs(f) if np.iscomplexobj(f) else np.asarray(f)
    return abs(float(max(f.max(), -f.min()))) if f.size else 0.0


def max_or_nan(*values):
    """The builtin max of the values, but NaN if any is (max drops NaN)."""
    return float("nan") if np.isnan(values).any() else max(values)


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
