import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqci import torus_field as tf
from oracles import (dealias, derivative_3d, divergence_3d, gradient_3d, low_pass,
                     mollify_fft, mollify_series, second_derivative_3d)


@pytest.fixture(scope="module")
def grid():
    return tf.Grid3(16, 16, 16)


def test_grid_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        tf.Grid3(15, 16, 16)
    with pytest.raises(ValueError):
        tf.Grid3(4, 16, 16)


def test_derivative_exact_on_trig(grid):
    X, Y, Z = grid.meshes()
    f = np.sin(3 * X) * np.cos(2 * Y) + np.cos(5 * Z)
    dfx = tf.derivative(f, "x", grid)
    dfz = tf.derivative(f, "z", grid)
    assert np.allclose(dfx, 3 * np.cos(3 * X) * np.cos(2 * Y), atol=1e-12)
    assert np.allclose(dfz, -5 * np.sin(5 * Z), atol=1e-12)
    dzz = tf.gradient_and_dzz(f, grid)[1]
    assert np.allclose(dzz, -25 * np.cos(5 * Z), atol=1e-11)
    # the second-derivative symbol is the derivative applied twice
    twice = tf.derivative(tf.derivative(f, "z", grid), "z", grid)
    assert np.max(np.abs(dzz - twice)) < 1e-12 * np.max(np.abs(twice))


def test_gradient_stacks_components(grid):
    X, Y, Z = grid.meshes()
    f = np.sin(X + 2 * Y - Z)
    g = tf.gradient(f, grid)
    c = np.cos(X + 2 * Y - Z)
    assert np.allclose(g, np.stack([c, 2 * c, -c]), atol=1e-12)
    # divergence contracts the last component axis; it must match the sum of
    # per-axis derivatives for vectors and tensors
    T = np.random.default_rng(5).standard_normal((3, 3) + grid.shape)
    for V in (T[0], T):
        per_axis = sum(tf.derivative(V[..., b, :, :, :], "xyz"[b], grid) for b in range(3))
        got = tf.divergence(V, grid)
        assert np.max(np.abs(got - per_axis)) < 1e-12 * np.max(np.abs(per_axis))


def test_time_derivative_fourth_order():
    # exact on quartics by construction
    tg = tf.TimeGrid(0.0, 2.0, 21)
    t = tg.times()
    f = t**4 - 3 * t**2 + t
    df = tf.time_derivative(f, tg)
    assert np.allclose(df, 4 * t**3 - 6 * t + 1, atol=1e-9)


def test_time_derivative_convergence_rate():
    tg_c = tf.TimeGrid(0.0, 1.0, 17)
    tg_f = tf.TimeGrid(0.0, 1.0, 33)
    errs = []
    for tg in (tg_c, tg_f):
        t = tg.times()
        f = np.sin(4 * t)
        errs.append(np.max(np.abs(tf.time_derivative(f, tg) - 4 * np.cos(4 * t))))
    rate = np.log2(errs[0] / errs[1])
    assert 3.5 < rate < 4.8


@pytest.mark.parametrize("nt", [5, 6, 7, 8, 9, 10, 17, 33])
def test_halved_grid_is_every_second_sample(nt):
    tg = tf.TimeGrid(0.75, 4.25, nt)
    half = tg.halved()
    if nt % 2 == 0 or nt < 9:  # nt - 1 odd, or fewer than 5 halved samples
        assert half is None
    else:
        assert np.array_equal(half.times(), tg.times()[::2])


@pytest.mark.parametrize("nt", [9, 13, 17, 33, 41, 65])
@pytest.mark.parametrize("t0, t1", [(0.75, 4.25), (0.0, 1.0), (0.0, 5.0)])
def test_halved_grid_matches_doubled_step_bitwise(nt, t0, t1):
    # the Richardson companion's stencil used tgrid.dt * 2 and the
    # samples times()[::2]; the halved grid gives the same bits
    tg = tf.TimeGrid(t0, t1, nt)
    half = tg.halved()
    assert half.dt == tg.dt * 2
    assert np.array_equal(half.times(), tg.times()[::2])
    assert np.array_equal(tf.time_derivative_weights(half.nt, half.dt),
                          tf.time_derivative_weights(half.nt, tg.dt * 2))


def test_mollifier_transform_normalization():
    assert abs(tf.mollifier_transform(0.0) - 1.0) < 1e-12
    # decays and stays below 1
    u = np.array([1.0, 5.0, 20.0])
    v = tf.mollifier_transform(u)
    assert np.all(np.abs(v) < 1.0)
    assert abs(v[2]) < abs(v[0])


def test_mollify_preserves_constants_in_space(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.full((tg.nt,) + grid.shape, 2.5)
    out = tf.mollify(f, tg, grid, 1.0, 1.0, time_axis=False)
    assert np.allclose(out, 2.5, atol=1e-12)


def test_mollify_time_kernel_unit_mass(grid):
    # away from the interval ends the discrete time kernel has mass one
    tg = tf.TimeGrid(0.0, 1.0, 33)
    f = np.full((tg.nt,) + grid.shape, 2.5)
    with pytest.warns(UserWarning):  # spatial scales pass through on purpose
        out = tf.mollify(f, tg, grid, 0.1, 0.1)
    half = int(np.floor(0.1 / tg.dt))
    assert np.allclose(out[half:-half], 2.5, atol=1e-12)
    # zero extension bites at the ends
    assert out[0, 0, 0, 0] < 2.5


def test_mollify_damps_high_frequencies(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    X, Y, Z = grid.meshes()
    f = np.broadcast_to(np.cos(7 * X), (tg.nt,) + grid.shape).copy()
    out = tf.mollify(f, tg, grid, 0.8, 0.8, time_axis=False)
    assert np.max(np.abs(out)) < 0.5 * np.max(np.abs(f))


def test_mollify_pass_through_warns(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.zeros((tg.nt,) + grid.shape)
    with pytest.warns(UserWarning):
        tf.mollify(f, tg, grid, 1e-6, 1e-6)


# the banded mollifier against its slow path, low_pass after mollify; scales
# are drawn in grid cells (x, y / z) on both sides of the 2-cell pass-through
sizes = st.sampled_from([8, 10, 12, 16])


@pytest.mark.filterwarnings("ignore:mollify:UserWarning")
@settings(max_examples=25, deadline=None)
@example(shape=(16, 16, 16), nt=9, ncomp=6, cells=(1.5, 3.0), band=4, seed=0)
@example(shape=(8, 12, 10), nt=5, ncomp=1, cells=(3.0, 1.0), band=6, seed=1)
@given(shape=st.tuples(sizes, sizes, sizes), nt=st.integers(5, 9),
       ncomp=st.sampled_from([1, 3, 6]),
       cells=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
       band=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
def test_banded_mollify_matches_low_pass(shape, nt, ncomp, cells, band, seed):
    grid = tf.Grid3(*shape)
    tg = tf.TimeGrid(0.0, 1.0, nt)
    ell, ell_z = cells[0] * grid.spacing()[0], cells[1] * grid.spacing()[2]
    f = np.random.default_rng(seed).standard_normal((nt, ncomp) + grid.shape)
    got = tf.mollify(f, tg, grid, ell, ell_z, band=band)
    ref = low_pass(tf.mollify(f, tg, grid, ell, ell_z), grid, band)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_banded_mollify_warns_as_before(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.zeros((tg.nt,) + grid.shape)
    for band in (None, 3):
        with pytest.warns(UserWarning) as rec:
            tf.mollify(f, tg, grid, 1e-6, 1e-6, band=band)
        assert len(rec) == 3


def _check_mollify_against_fft(shape, nt, ncomp, ell, ell_z, dt, band, time_axis, seed):
    """ncomp = 0: no component axis (a bare 3-D field without time axis)."""
    grid = tf.Grid3(*shape)
    tg = tf.TimeGrid(0.0, (nt - 1) * dt, nt)
    comp = (ncomp,) if ncomp else ()
    lead = (nt,) + comp if time_axis else comp
    f = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    got = tf.mollify(f, tg, grid, ell, ell_z, time_axis=time_axis, band=band)
    ref = mollify_fft(f, tg, grid, ell, ell_z, time_axis=time_axis, band=band)
    assert got.dtype == np.float64 and got.shape == f.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# the per-axis matrices against the 3-D transform pair; scales are drawn in
# cells (x, y / z / t) on both sides of the 2-cell pass-through, and the
# non-cubic shapes pin that y passes through on hx, not hy
@pytest.mark.filterwarnings("ignore:mollify:UserWarning")
@settings(max_examples=40, deadline=None)
@example(shape=(8, 12, 10), nt=5, ncomp=1, cells=(1.9, 3.0, 2.5), band=None,
         time_axis=True, seed=0)
@example(shape=(16, 8, 12), nt=17, ncomp=6, cells=(2.1, 1.0, 1.5), band=0,
         time_axis=False, seed=1)
# a bare 3-D field: its leading axis is x, not a sample axis
@example(shape=(12, 8, 10), nt=5, ncomp=0, cells=(2.5, 3.0, 1.5), band=2,
         time_axis=False, seed=2)
# band 4 cuts y and z, but keeps every mode of x (4 = 8 // 2)
@example(shape=(8, 12, 16), nt=9, ncomp=3, cells=(2.5, 2.5, 1.5), band=4,
         time_axis=True, seed=3)
@given(shape=st.tuples(sizes, sizes, sizes), nt=st.integers(5, 17),
       ncomp=st.sampled_from([1, 3, 6]),
       cells=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
       band=st.none() | st.integers(0, 9), time_axis=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_mollify_matches_fft_oracle(shape, nt, ncomp, cells, band, time_axis, seed):
    hx, _, hz = tf.Grid3(*shape).spacing()
    ell = cells[0] * hx
    _check_mollify_against_fft(shape, nt, ncomp, ell, cells[1] * hz, ell / cells[2],
                               band, time_axis, seed)


@pytest.mark.filterwarnings("ignore:mollify:UserWarning")
@pytest.mark.parametrize("shape, nt, ncomp, ell, dt, band, time_axis", [
    ((36, 36, 36), 17, 6, 0.3, 3.5 / 16, 9, True),     # begin_step at ref_start's size
    ((48, 48, 48), 33, 3, 0.9, 3.5 / 32, 12, True),    # criterion 7's substeps
    ((96, 96, 8), 5, 1, 0.15, 0.25, None, False),      # the mollification probe
])
def test_mollify_matches_fft_oracle_at_run_sizes(shape, nt, ncomp, ell, dt, band, time_axis):
    _check_mollify_against_fft(shape, nt, ncomp, ell, ell, dt, band, time_axis, 2)


def _circulant_oracle(n, ell, band):
    """The real n x n circulant of phi-hat(|m| ell) [|m| <= band] (ell None:
    no mollifier), from the inverse numpy transform of its multiplier."""
    m = np.abs(np.fft.fftfreq(n, 1.0 / n))
    fac = np.ones(n) if ell is None else tf.mollifier_transform(m * ell)
    if band is not None:
        fac = fac * (m <= band)
    d = np.arange(n)
    return np.fft.ifft(fac).real[np.subtract.outer(d, d) % n]


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("cells", [1.5, 3.0])  # on both sides of the 2-cell pass-through
@pytest.mark.parametrize("band", ["cut", "half", None])
def test_axis_pair_factors_the_banded_circulant(n, cells, band):
    band = {"cut": n // 2 - 2, "half": n // 2, None: None}[band]
    ell = cells * tf.TWO_PI / n
    ell = ell if ell >= 2 * tf.TWO_PI / n else None  # as mollify passes it through
    pair = tf._axis_pair(n, ell, band)
    if pair is None:
        op = np.eye(n)
    elif pair[1] is None:
        op = pair[0]
    else:
        F, G = pair
        assert F.shape == (2 * band + 1, n) and G.shape == (n, 2 * band + 1)
        op = G @ F
    assert band is None or band >= n // 2 or pair[1] is not None
    assert np.max(np.abs(op - _circulant_oracle(n, ell, band))) <= 1e-15


@pytest.mark.parametrize("ell, ell_z, band, name", [
    (float("nan"), 1.0, None, "ell = nan"),
    (0.0, 1.0, None, "ell = 0.0"),
    (-0.3, 1.0, 4, "ell = -0.3"),
    (float("inf"), 1.0, None, "ell = inf"),
    (1.0, float("nan"), 4, "ell_z = nan"),
    (1.0, -1.0, None, "ell_z = -1.0"),
    (1.0, 1.0, -1, "band = -1"),
    (1.0, 1.0, 2.5, "band = 2.5"),
    (1.0, 1.0, True, "band = True"),
])
def test_mollify_refuses_a_bad_scale_or_band(grid, ell, ell_z, band, name):
    # a band of -1 returned an all-zero field, 2.5 was taken as 2, and a NaN
    # or non-positive scale passed through with a "below 2 grid cells" warning
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.ones((tg.nt, 2) + grid.shape)
    with pytest.raises(ValueError, match=re.escape(f"mollify: {name} is not a")):
        tf.mollify(f, tg, grid, ell, ell_z, band=band)


def test_banded_mollify_holds_no_full_size_scratch():
    # besides its output, a banded call holds two band series (here
    # (13/24)^3 of the input each) and per-sample temporaries; two full
    # scratch buffers would take at least twice the input
    grid, tg = tf.Grid3(24, 24, 24), tf.TimeGrid(0.0, 1.0, 9)
    f = np.random.default_rng(5).standard_normal((tg.nt, 6) + grid.shape)
    tracemalloc.start()
    try:
        tf.mollify(f, tg, grid, 0.9, 0.9, band=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * f.nbytes


@pytest.mark.filterwarnings("ignore:mollify:UserWarning")
@pytest.mark.parametrize("shape, band, ell, ell_z", [
    ((16, 16, 16), 4, 0.9, 0.9),  # every axis cut and mollified
    ((16, 16, 8), 5, 0.9, 1.6),  # z keeps every mode: its circulant, no G factor
    ((16, 16, 8), 5, 0.9, 0.1),  # z keeps every mode, unmollified: skipped
    ((16, 16, 16), 4, 0.1, 0.1),  # every axis cut, none mollified: the band alone
])
@pytest.mark.parametrize("time_axis", [True, False])
def test_mollify_without_a_time_pass_matches_the_series_path(shape, band, ell, ell_z,
                                                             time_axis):
    grid, tg = tf.Grid3(*shape), tf.TimeGrid(0.0, 4.0, 5)  # every ell below 2 time cells
    f = np.random.default_rng(7).standard_normal((tg.nt, 3) + grid.shape)
    got = tf.mollify(f, tg, grid, ell, ell_z, time_axis=time_axis, band=band)
    want = mollify_series(f, grid, ell, ell_z, band, tg.nt if time_axis else 15)
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:mollify:UserWarning")
def test_mollify_without_a_time_pass_holds_no_band_series():
    # one band buffer of a sample, not a band series of (13/24)^3 of the
    # input, besides the output
    grid, tg = tf.Grid3(24, 24, 24), tf.TimeGrid(0.0, 1.0, 9)
    f = np.random.default_rng(5).standard_normal((tg.nt, 6) + grid.shape)
    tracemalloc.start()
    try:
        tf.mollify(f, tg, grid, 0.9, 0.9, time_axis=False, band=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.08 * f.nbytes


def test_mollify_full_pass_through_returns_a_copy(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.random.default_rng(3).standard_normal((tg.nt, 2) + grid.shape)
    for band in (None, 8, 20):
        with pytest.warns(UserWarning):
            out = tf.mollify(f, tg, grid, 1e-6, 1e-6, band=band)
        assert out is not f and not np.shares_memory(out, f)
        assert np.array_equal(out, f)


def test_mollify_is_deterministic():
    grid, tg = tf.Grid3(16, 12, 10), tf.TimeGrid(0.0, 1.0, 17)
    f = np.random.default_rng(4).standard_normal((tg.nt, 3) + grid.shape)
    a = tf.mollify(f, tg, grid, 1.2, 1.5, band=4)
    assert np.array_equal(a, tf.mollify(f, tg, grid, 1.2, 1.5, band=4))


def test_mollify_rejects_a_field_off_the_grid(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.zeros((tg.nt, 16, 16, 8))  # 16 * 8 = 8 * 16: a reshape would fit
    shapes = re.escape("(9, 16, 16, 8)") + ".*" + re.escape("(16, 16, 16)")
    with pytest.raises(ValueError, match=shapes):
        tf.mollify(f, tg, grid, 1.0, 1.0)


def test_mollify_rejects_a_series_off_the_time_grid(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    for f in (np.zeros((8,) + grid.shape), np.zeros(grid.shape)):
        with pytest.raises(ValueError, match=re.escape(str(f.shape)) + ".*9 time samples"):
            tf.mollify(f, tg, grid, 1.0, 1.0)
    tf.mollify(np.zeros((8,) + grid.shape), tg, grid, 1.0, 1.0, time_axis=False)


def test_packed_divergence_matches_unpacked(grid):
    A = np.random.default_rng(6).standard_normal((3, 3) + grid.shape)
    T = A + np.swapaxes(A, 0, 1)
    got = tf.divergence(tf.sym_pack(T), grid)
    assert got.shape == (3,) + grid.shape
    assert np.array_equal(got, tf.divergence(T, grid))


def test_gradient_and_dzz_match_separate_calls(grid):
    rng = np.random.default_rng(7)
    for f in (rng.standard_normal(grid.shape), rng.standard_normal((3,) + grid.shape)):
        g, dzz = tf.gradient_and_dzz(f, grid)
        assert np.array_equal(g, tf.gradient(f, grid))
        ref = second_derivative_3d(f, "z", grid)
        assert np.max(np.abs(dzz - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dealias_removes_top_third(grid):
    X, _, _ = grid.meshes()
    f = np.cos(7 * X) + np.cos(2 * X)  # 7 > 16/3, 2 <= 16/3
    out = dealias(f, grid)
    assert np.allclose(out, np.cos(2 * X), atol=1e-12)


def test_holder_seminorm_lower_bound(grid):
    X, _, _ = grid.meshes()
    f = np.sin(X)
    h = tf.holder_seminorm(f, 0.5, grid)
    # sampled bound must bound below the true seminorm and see the large-scale
    # variation: |sin|_{C^0.5} >= |f(x+h)-f(x)|/h^0.5 at the steepest pair
    assert 0.1 < h < 3.0


def test_sym_pack_round_trip():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3, 5))
    T = 0.5 * (A + np.swapaxes(A, 0, 1))
    assert np.allclose(tf.sym_unpack(tf.sym_pack(T)), T)


def test_snapshot_round_trip(tmp_path, grid):
    tg = tf.TimeGrid(0.5, 2.5, 5)
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((tg.nt, 3) + grid.shape)
    p = tmp_path / "field.bci"
    tf.write_snapshot(p, arr, 1, grid, tg)
    back, rank, g2, tg2 = tf.read_snapshot(p)
    assert rank == 1
    assert g2 == grid
    assert tg2 == tg
    assert np.array_equal(back, arr)


def test_snapshot_layout_is_t_comp_z_y_x(tmp_path):
    grid = tf.Grid3(8, 8, 8)
    tg = tf.TimeGrid(0.0, 1.0, 5)
    X, Y, Z = grid.meshes()
    arr = np.broadcast_to(X, (tg.nt, 1) + grid.shape).copy()
    p = tmp_path / "scalar.bci"
    tf.write_snapshot(p, arr, 0, grid, tg)
    raw = np.fromfile(p, dtype="<f8", offset=64)
    # x is the fastest axis: the first 8 samples sweep x at fixed (t,z,y)
    assert np.allclose(raw[:8], grid.axes()[0])


def test_snapshot_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bci"
    p.write_bytes(b"XXXX" + b"\0" * 100)
    with pytest.raises(tf.SnapshotFormatError):
        tf.read_snapshot(p)


# the roll-materialization against the explicit carrier multiply: integer
# shifts far beyond the grid's band, band-limited complex amplitudes
@settings(max_examples=30, deadline=None)
@example(shape=(16, 16, 16), ncomp=3, xi=(2999, -3000, 0), band=4, seed=0)
@given(shape=st.tuples(sizes, sizes, sizes), ncomp=st.sampled_from([1, 3]),
       xi=st.tuples(*[st.integers(-3000, 3000)] * 3), band=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_add_shifted_is_the_carrier_multiply(shape, ncomp, xi, band, seed):
    grid = tf.Grid3(*shape)
    rng = np.random.default_rng(seed)
    f = low_pass(rng.standard_normal((ncomp,) + grid.shape)
                    + 1j * rng.standard_normal((ncomp,) + grid.shape), grid, band)
    acc = np.zeros(f.shape, dtype=complex)
    tf.add_shifted(acc, tf.fft3(f), xi)
    # e^{i xi_d x_d} at x_d = 2 pi j / n_d, its phase reduced exactly mod 2 pi
    e = [np.exp(2j * np.pi * ((x * np.arange(n)) % n) / n) for x, n in zip(xi, shape)]
    carrier = e[0][:, None, None] * e[1][None, :, None] * e[2][None, None, :]
    ref = f * carrier
    assert np.max(np.abs(tf.ifft3(acc) - ref)) <= 1e-12 * np.max(np.abs(ref))


def _nyquist_loaded(f, grid, rng):
    """f plus, per axis a, a random field on the plane m_a = n_a / 2 alone:
    one constant along a, times (-1)^j_a."""
    for a, n in enumerate(grid.shape):
        ax = f.ndim - 3 + a
        plane = rng.standard_normal(f.shape[:ax] + (1,) + f.shape[ax + 1:])
        f = f + plane * (-1.0) ** np.arange(n).reshape((-1,) + (1,) * (2 - a))
    return f


# the per-axis 1-D transform path against the whole 3-D transforms, on real
# input (half spectrum, Nyquist zeroed); a modulated amplitude's symbols are
# on its ShiftEntry (test_inverse_div)
@settings(max_examples=30, deadline=None)
@example(shape=(8, 10, 12), seed=0)
@given(shape=st.tuples(sizes, sizes, sizes), seed=st.integers(0, 2**32 - 1))
def test_derivatives_match_3d_transforms(shape, seed):
    grid = tf.Grid3(*shape)
    rng = np.random.default_rng(seed)
    f, v, T = (_nyquist_loaded(rng.standard_normal(lead + grid.shape), grid, rng)
               for lead in ((), (3,), (3, 3)))
    pairs = [(tf.derivative(f, ax, grid), derivative_3d(f, ax, grid)) for ax in "xyz"]
    for g in (f, v):
        got_g, got_zz = tf.gradient_and_dzz(g, grid)
        pairs += [(tf.gradient(g, grid), gradient_3d(g, grid)),
                  (got_g, gradient_3d(g, grid)),
                  (got_zz, second_derivative_3d(g, "z", grid))]
    S = tf.sym_pack(T + np.swapaxes(T, 0, 1))
    for D in (v, T, S):
        pairs.append((tf.divergence(D, grid), divergence_3d(D, grid)))
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert not np.iscomplexobj(got)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_spatial_derivatives_refuse_complex_fields(grid):
    # the derivatives take real fields only: a complex one raises, never
    # returning a result
    f = np.ones(grid.shape, dtype=complex)
    for call in (lambda: tf.derivative(f, "x", grid), lambda: tf.gradient(f, grid),
                 lambda: tf.divergence(np.stack([f] * 3), grid)):
        with pytest.raises(TypeError, match="real fields"):
            call()


@pytest.mark.parametrize("dtype", [np.float64, complex])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_sup_norm_propagates_nan_and_inf(dtype, bad):
    rng = np.random.default_rng(8)
    f = rng.standard_normal((2, 3, 8, 8, 8)).astype(dtype)
    if dtype is complex:
        f += 1j * rng.standard_normal(f.shape)
    assert tf.sup_norm(f) == float(np.max(np.abs(f)))
    assert tf.sup_norm(f[:0]) == 0.0
    for idx in ((0, 0, 0, 0, 0), (1, 2, 7, 7, 7), (1, 0, 3, 5, 2)):
        g = f.copy()
        g[idx] = bad
        got = tf.sup_norm(g)
        assert np.isnan(got) if np.isnan(bad) else got == np.inf


@pytest.mark.parametrize("dtype", [np.float64, complex])
def test_sup_norm_of_zeros_is_plus_zero(dtype):
    for f in (np.zeros((3, 8), dtype=dtype), -np.zeros((3, 8), dtype=dtype)):
        assert math.copysign(1, tf.sup_norm(f)) == 1


def test_max_or_nan_keeps_a_nan_anywhere():
    nan = float("nan")
    assert max(1.0, nan, 2.0) == 2.0  # what the builtin does
    for values in ((nan, 1.0, 2.0), (1.0, nan, 2.0), (1.0, 2.0, nan)):
        assert np.isnan(tf.max_or_nan(*values))
    assert tf.max_or_nan(1.0, 3.0, 2.0) == 3.0
    # otherwise the builtin max, signed zeros included
    assert str(tf.max_or_nan(-0.0, 0.0)) == "-0.0"
