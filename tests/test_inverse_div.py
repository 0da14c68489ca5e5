import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqci import algebra
from bqci import inverse_div as idv
from bqci import torus_field as tf
from oracles import dealias, divergence_3d, gradient_3d, shifted_wavenumbers

# integer shifts from the resolved band (where a mode of the amplitude lands
# on the zero mode) to far beyond the grid
shifts = st.tuples(*[st.integers(-3000, 3000)] * 3)


@pytest.fixture(scope="module")
def grid():
    return tf.Grid3(24, 24, 24)


def random_mean_zero_vector(grid, rng):
    v = rng.standard_normal((3,) + grid.shape)
    v = dealias(v, grid)
    return v - np.mean(v, axis=(-3, -2, -1), keepdims=True)


def test_R_contract_and_symmetry(grid):
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = random_mean_zero_vector(grid, rng)
        R = idv.R_op(v, grid)
        assert np.max(np.abs(R - np.swapaxes(R, 0, 1))) < 1e-12 * np.max(np.abs(R))
        err = np.max(np.abs(tf.divergence(R, grid) - v))
        assert err < 1e-8 * np.max(np.abs(v))


def test_R_drops_mean(grid):
    rng = np.random.default_rng(1)
    v = random_mean_zero_vector(grid, rng) + np.array([1.0, -2.0, 0.5]).reshape(3, 1, 1, 1)
    R = idv.R_op(v, grid)
    d = tf.divergence(R, grid)
    expect = v - np.mean(v, axis=(-3, -2, -1), keepdims=True)
    assert np.max(np.abs(d - expect)) < 1e-8 * np.max(np.abs(v))


def test_G_contract(grid):
    rng = np.random.default_rng(2)
    f = dealias(rng.standard_normal(grid.shape), grid)
    g = idv.G_op(f, grid)
    d = tf.divergence(g, grid)
    assert np.max(np.abs(d - (f - np.mean(f)))) < 1e-8 * np.max(np.abs(f))


def dropped_mode(f, grid, xi):
    """The component of the amplitude f that the carrier e^{i xi.x} turns
    into the zero mode, which R and G drop: c e^{-i xi.x} (zero when -xi is
    not a grid frequency)."""
    if not all(-n // 2 <= -x < n // 2 for x, n in zip(xi, grid.shape)):
        return 0.0
    idx = tuple(-x % n for x, n in zip(xi, grid.shape))
    c = tf.fft3(f)[(Ellipsis,) + idx] / grid.npts
    x, y, z = grid.axes()
    phase = np.exp(-1j * (xi[0] * x[:, None, None] + xi[1] * y[None, :, None]
                          + xi[2] * z[None, None, :]))
    return np.asarray(c)[..., None, None, None] * phase


@settings(max_examples=25, deadline=None)
@example(xi=(0, 640, 0))
@example(xi=(0, 0, 0))
@given(xi=shifts)
def test_shifted_R_contract(grid, xi):
    # with a symbolic carrier e^{i xi.x} the identity div R = v holds for the
    # amplitudes under the shifted divergence, even at unresolvable xi
    rng = np.random.default_rng(3)
    v = random_mean_zero_vector(grid, rng).astype(complex)
    R = idv.R_op(v, grid, xi=xi)
    d = divergence_3d(R, grid, xi)
    assert np.max(np.abs(d - (v - dropped_mode(v, grid, xi)))) < 1e-8 * np.max(np.abs(v))


@settings(max_examples=25, deadline=None)
@example(xi=(128, -128, 0))
@example(xi=(2, -1, 0))
@given(xi=shifts)
def test_shifted_G_contract(grid, xi):
    rng = np.random.default_rng(4)
    f = dealias(rng.standard_normal(grid.shape), grid).astype(complex)
    g = idv.G_op(f, grid, xi=xi)
    d = divergence_3d(g, grid, xi)
    assert np.max(np.abs(d - (f - dropped_mode(f, grid, xi)))) < 1e-8 * np.max(np.abs(f))


def test_R_output_order_minus_one(grid):
    # single wave along k1 at frequency lam: output sup ~ 1/lam exactly
    rep = idv.decay_probe(grid, [4, 8, 16, 32], direction=(0, 1, 0))
    assert abs(rep.slope + 1.0) < 0.05
    assert np.allclose(np.array(rep.norms) * np.array(rep.lams), rep.norms[0] * rep.lams[0])


def test_decay_probe_slowly_varying(grid):
    X, Y, Z = grid.meshes()
    amp = 1.0 + 0.3 * np.sin(X) * np.cos(Y)
    for op in ("R", "G"):
        rep = idv.decay_probe(grid, [4, 8, 16, 32], direction=(0, 1, 0), amplitude=amp, op=op)
        assert -1.2 < rep.slope < -0.8


def test_decay_probe_G_constant(grid):
    rep = idv.decay_probe(grid, [4, 8, 16, 32], op="G")
    assert abs(rep.slope + 1.0) < 0.05


# -- references: the symbols as they were before the shift entry, each with
# its own |K|^2, zero-mode mask and dropped-mode mean

def reference_r_hat(vh, K, npts):
    """Symmetric inverse-divergence symbol on a shifted vector spectrum.

    Returns (Rh6 packed xx,xy,xz,yy,yz,zz and the dropped-mode mean, a length-3
    complex coefficient; zero when the shift has no resolved zero mode).
    """
    KX, KY, KZ = K
    k2 = KX * KX + KY * KY + KZ * KZ
    sing = (k2 == 0)
    mean = np.zeros(3, dtype=complex)
    if np.any(sing):
        mean = vh[:, sing].reshape(3) / npts
        vh = np.where(sing, 0.0, vh)
    inv = -1.0 / np.where(sing, 1.0, k2)
    u = vh * inv
    s = KX * u[0] + KY * u[1] + KZ * u[2]
    Rh6 = np.empty((6,) + u.shape[1:], dtype=complex)
    for i, (a, b) in enumerate(tf.PACK):
        if a == b:
            np.multiply(2.0 * K[a], u[a], out=Rh6[i])
            Rh6[i] -= s
        else:
            np.multiply(K[b], u[a], out=Rh6[i])
            Rh6[i] += K[a] * u[b]
    Rh6 *= 1j
    return Rh6, mean


def reference_g_hat(fh, K, npts):
    """Gradient-of-inverse-Laplacian symbol on a shifted scalar spectrum."""
    KX, KY, KZ = K
    k2 = KX * KX + KY * KY + KZ * KZ
    sing = (k2 == 0)
    mean = 0.0 + 0.0j
    if np.any(sing):
        mean = complex(fh[sing].reshape(())) / npts
        fh = np.where(sing, 0.0, fh)
    u = fh * (-1.0 / np.where(sing, 1.0, k2))
    return np.stack([1j * KX * u, 1j * KY * u, 1j * KZ * u]), mean


def reference_mode_factor(k, K):
    """(k . K) / |K|^2 on the shifted wavenumbers K, 0 where K = 0."""
    KX, KY, KZ = K
    k2 = KX * KX + KY * KY + KZ * KZ
    kK = k[0] * KX + k[1] * KY + k[2] * KZ
    return np.divide(kK, k2, out=np.zeros(np.broadcast(kK, k2).shape), where=k2 != 0)


@settings(max_examples=40, deadline=None)
@example(xi=(0, 0, 0), shape=(8, 8, 8), seed=0)
@example(xi=(0, 4, 0), shape=(8, 8, 8), seed=1)
@example(xi=(3, -2, 1), shape=(12, 10, 16), seed=2)
@given(xi=shifts, shape=st.tuples(*[st.sampled_from(range(8, 25, 2))] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symbols_on_the_shift_entry_match_the_references(xi, shape, seed):
    # the same numbers as the per-call references, the dropped mean included
    grid = tf.Grid3(*shape)
    entry = tf.shift_entry(grid, xi)
    K = shifted_wavenumbers(grid, xi)
    assert entry.xi == tuple(xi)
    assert all(np.array_equal(a, b) for a, b in zip(entry.K, K))
    assert entry.inv.shape == grid.shape and entry.inv.dtype == np.float64
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    vh = tf.fft3(V)
    # i K on the amplitude: the shifted gradient and divergence of the
    # 3-D transform references
    for got, ref in ((entry.grad(vh[0]), gradient_3d(V[0], grid, xi)),
                     (entry.div(vh), divergence_3d(V, grid, xi))):
        got = tf.ifft3(got)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref, ref_mean = reference_r_hat(vh, K, grid.npts)
    assert np.array_equal(idv.r_hat(vh, entry), ref)
    assert np.array_equal(np.broadcast_to(entry.dropped_mean(vh), (3,)), ref_mean)
    ref, ref_mean = reference_g_hat(vh[0], K, grid.npts)
    assert np.array_equal(idv.g_hat(vh[0], entry), ref)
    # the reference divides a Python complex (true division), the entry a
    # numpy one (times the reciprocal): one rounding apart at most
    assert abs(entry.dropped_mean(vh[0]) - ref_mean) <= 2.3e-16 * abs(ref_mean)


def polarized_mode_hat(Ah, k, K, rank, npts):
    """The path div_mode_hat replaces: r_hat ('w', rank 2) or g_hat ('chi',
    rank 1) on the polarized mode input i (k . K) Ah."""
    dh = 1j * (k[0] * K[0] + k[1] * K[1] + k[2] * K[2]) * Ah
    if rank == 2:
        return reference_r_hat(k.reshape(3, 1, 1, 1) * dh, K, npts)[0]
    return reference_g_hat(dh, K, npts)[0]


def check_mode_hat(n, q, shape, seed):
    """div_mode_hat (rank 1) and mode_stress of it (rank 2) against
    polarized_mode_hat on a band-limited complex amplitude of the mode
    q k_h-perp of frame n; returns the shift entry."""
    grid = tf.Grid3(*shape)
    frame = algebra.wave_frame(n)
    k = frame.k_arr()
    entry = tf.shift_entry(grid, q * frame.k_perp_arr())
    K = entry.K
    rng = np.random.default_rng(seed)
    A = dealias(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid)
    Ah = tf.fft3(A)
    # the mode factor (k . K)/|K|^2 is -(k . K) inv, to one rounding
    factor = reference_mode_factor(k, K)
    kK = k[0] * K[0] + k[1] * K[1] + k[2] * K[2]
    assert np.max(np.abs(-(kK * entry.inv) - factor)) <= 2.3e-16 * np.max(np.abs(factor))
    # rank 2 is the stress mode, g (x) k + k (x) g - (k . g) I of the rank-1 g
    g = idv.div_mode_hat(Ah, k, entry)
    for rank, fast in ((1, g), (2, idv.mode_stress(g, k))):
        slow = polarized_mode_hat(Ah, k, K, rank, grid.npts)
        assert fast.shape == slow.shape
        assert np.max(np.abs(fast - slow)) <= 1e-13 * np.max(np.abs(slow))
    return entry


grid_sizes = st.sampled_from(range(8, 25, 2))


@settings(max_examples=40, deadline=None)
@example(n=1, q=1, shape=(8, 8, 8), seed=0)
@example(n=4, q=-3, shape=(24, 10, 16), seed=1)
@given(n=st.integers(1, 6), q=st.integers(-3000, 3000),
       shape=st.tuples(grid_sizes, grid_sizes, grid_sizes),
       seed=st.integers(0, 2 ** 32 - 1))
def test_div_mode_hat_is_the_antidivergence_of_the_polarized_mode(n, q, shape, seed):
    check_mode_hat(n, q, shape, seed)


@pytest.mark.parametrize("n, q, shape", [(1, 1, (8, 8, 8)), (3, -2, (12, 24, 8)),
                                         (6, 3, (16, 16, 24))])
def test_div_mode_hat_drops_a_resolved_zero_mode(n, q, shape):
    # q k_h-perp is a grid frequency, so K = 0 at one mode, which r_hat and
    # g_hat drop: the entry names its index and its inv is zero there
    entry = check_mode_hat(n, q, shape, seed=n)
    K = entry.K
    zero = (K[0] == 0) & (K[1] == 0) & (K[2] == 0)
    assert np.count_nonzero(zero) == 1
    assert tuple(int(i) for i in np.argwhere(zero)[0]) == entry.zero
    assert entry.inv[entry.zero] == 0.0 and np.all(entry.inv[~zero] < 0)
    assert reference_mode_factor(algebra.wave_frame(n).k_arr(), K)[entry.zero] == 0.0
