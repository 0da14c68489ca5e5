import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqci import torus_field as tf


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
    assert np.allclose(tf.second_derivative(f, "z", grid), -25 * np.cos(5 * Z),
                       atol=1e-11)
    # the second-derivative symbol is the derivative applied twice, on real
    # input and on the amplitude of a shifted complex field
    for g, xi in ((f, None), ((1 + 0.5j) * f, (3, -40, 7))):
        for ax in "xyz":
            twice = tf.derivative(tf.derivative(g, ax, grid, xi=xi), ax, grid, xi=xi)
            got = tf.second_derivative(g, ax, grid, xi=xi)
            assert np.max(np.abs(got - twice)) < 1e-12 * np.max(np.abs(twice))


def test_shifted_derivative_matches_modulated(grid):
    # d/dx of a(x) e^{i xi.x} = (da/dx + i xi_x a) e^{i xi.x}; the shifted
    # symbol must reproduce the parenthesis even when xi is far beyond the
    # grid's own resolvable band.
    X, Y, Z = grid.meshes()
    a = tf.dealias(np.exp(np.sin(X) + np.cos(2 * Y)), grid)
    xi = (257, -1024, 0)
    da = tf.derivative(a, "x", grid, xi=xi)
    expect = tf.derivative(a, "x", grid) + 1j * xi[0] * a
    assert np.max(np.abs(da - expect)) < 1e-10 * np.max(np.abs(expect))


def test_gradient_stacks_components(grid):
    X, Y, Z = grid.meshes()
    f = np.sin(X + 2 * Y - Z)
    g = tf.gradient(f, grid)
    c = np.cos(X + 2 * Y - Z)
    assert np.allclose(g, np.stack([c, 2 * c, -c]), atol=1e-12)
    # divergence contracts the last component axis; it must match the sum of
    # per-axis derivatives for vectors and tensors, real and shifted complex
    T = np.random.default_rng(5).standard_normal((3, 3) + grid.shape)
    for field, xi in ((T, None), ((1 - 2j) * T, (3, -40, 7))):
        for V in (field[0], field):
            per_axis = sum(tf.derivative(V[..., b, :, :, :], "xyz"[b], grid, xi=xi)
                           for b in range(3))
            got = tf.divergence(V, grid, xi=xi)
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
    ref = tf.low_pass(tf.mollify(f, tg, grid, ell, ell_z), grid, band)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_banded_mollify_warns_as_before(grid):
    tg = tf.TimeGrid(0.0, 1.0, 9)
    f = np.zeros((tg.nt,) + grid.shape)
    for band in (None, 3):
        with pytest.warns(UserWarning) as rec:
            tf.mollify(f, tg, grid, 1e-6, 1e-6, band=band)
        assert len(rec) == 3


def test_packed_divergence_matches_unpacked(grid):
    A = np.random.default_rng(6).standard_normal((3, 3) + grid.shape)
    T = A + np.swapaxes(A, 0, 1)
    for field, xi in ((T, None), ((1 - 2j) * T, (3, -40, 7))):
        got = tf.divergence(tf.sym_pack(field), grid, xi=xi)
        assert got.shape == (3,) + grid.shape
        assert np.array_equal(got, tf.divergence(field, grid, xi=xi))


def test_gradient_and_dzz_match_separate_calls(grid):
    rng = np.random.default_rng(7)
    for f in (rng.standard_normal(grid.shape), rng.standard_normal((3,) + grid.shape)):
        g, dzz = tf.gradient_and_dzz(f, grid)
        assert np.array_equal(g, tf.gradient(f, grid))
        assert np.array_equal(dzz, tf.second_derivative(f, "z", grid))


def test_dealias_removes_top_third(grid):
    X, _, _ = grid.meshes()
    f = np.cos(7 * X) + np.cos(2 * X)  # 7 > 16/3, 2 <= 16/3
    out = tf.dealias(f, grid)
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
