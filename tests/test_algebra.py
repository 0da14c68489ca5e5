import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from bqci import algebra
from bqci import torus_field as tf
from oracles import gram_determinant, reconstruct_sym, reconstruct_vec


def random_sym(rng, scale=1.0):
    A = rng.standard_normal((3, 3)) * scale
    return 0.5 * (A + A.T)


def test_identity_coefficients():
    g = algebra.decompose_sym(np.eye(3))
    assert np.allclose(g, [0.0, 0.0, 1.0, 1.0, 1.0, -1.0], atol=1e-14)


def test_vertical_unit_vector_coefficients():
    b = algebra.decompose_vec(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(b, [-1.0, 0.0, 1.0], atol=1e-14)


def test_sym_round_trip_batch():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        R = random_sym(rng, scale=10.0 ** rng.uniform(-3, 3))
        back = reconstruct_sym(algebra.decompose_sym(R))
        assert np.max(np.abs(back - R)) <= 1e-12 * max(1.0, np.max(np.abs(R)))


def test_vec_round_trip_batch():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        f = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
        b = algebra.decompose_vec(f)
        back = reconstruct_vec(b)
        assert np.max(np.abs(back - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
        assert algebra.decompose_vec(f, f) is f and np.array_equal(f, b)  # in place


@given(hnp.arrays(np.float64, (3, 3), elements=st.floats(-1e3, 1e3)))
def test_sym_round_trip_property(A):
    R = 0.5 * (A + A.T)
    back = reconstruct_sym(algebra.decompose_sym(R))
    assert np.max(np.abs(back - R)) <= 1e-10 * max(1.0, np.max(np.abs(R)))


def test_decompose_sym_pointwise_shape():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3, 4, 5))
    R = 0.5 * (A + np.swapaxes(A, 0, 1))
    g = algebra.decompose_sym(R)
    assert g.shape == (6, 4, 5)
    assert np.allclose(reconstruct_sym(g), R)


def test_decompose_sym_rejects_asymmetric():
    A = np.eye(3)
    A[0, 1] = 1e-6
    with pytest.raises(algebra.SymmetryError):
        algebra.decompose_sym(A)


@pytest.mark.parametrize("shape", [(), (7,), (4, 3, 2), (2, 8, 8, 8)])
def test_decompose_packed_equals_decompose_sym(shape):
    # the packed path reads the upper triangle: bit for bit the full-matrix one
    rng = np.random.default_rng(10)
    P = rng.standard_normal((6,) + shape) * 10.0 ** rng.uniform(-3, 3, (6,) + shape)
    want = algebra.decompose_sym(tf.sym_unpack(P))
    assert np.array_equal(algebra.decompose_packed(P), want)
    out = np.full_like(P, np.nan)
    assert algebra.decompose_packed(P, out) is out
    assert np.array_equal(out, want)
    # in place, as begin_step decomposes each mollified sample
    assert algebra.decompose_packed(P, P) is P
    assert np.array_equal(P, want)


def test_gram_determinant_nonzero():
    d = gram_determinant()
    assert isinstance(d, int)
    assert d != 0
    assert d > 0  # Gram matrix of independent tensors is positive definite


def test_wave_frames():
    for n in range(1, 7):
        fr = algebra.wave_frame(n)
        k1, k2, k3 = fr.k
        # (s, t) solves the horizontal system exactly
        assert fr.s * k1 + fr.t * k2 == -k3
        # perp direction is horizontal and orthogonal to k
        assert np.dot(fr.k_perp_arr(), fr.k_arr()) == 0
        assert fr.k_perp[2] == 0
        assert fr.kh_sq == k1 * k1 + k2 * k2


def test_wave_frame_values():
    f1 = algebra.wave_frame(1)
    assert (f1.s, f1.t) == (0, 0)
    assert tuple(f1.k_perp) == (0, 1, 0)
    f3 = algebra.wave_frame(3)
    assert (f3.s, f3.t) == (-1, 0)
    f6 = algebra.wave_frame(6)
    assert (float(f6.s), float(f6.t)) == (-0.5, -0.5)


def test_curl_identity_per_frame():
    # The phase direction is k_perp; curl(b avec e^{i lam kp.x} / (i lam))
    # has leading term b (kp x avec) e^{...}, which must point along k so
    # the oscillation direction is exactly the cancellation direction.
    for n in range(1, 7):
        fr = algebra.wave_frame(n)
        a = np.array(fr.avec)
        kp = fr.k_perp_arr().astype(float)
        assert np.allclose(np.cross(kp, a), fr.k_arr(), atol=1e-14)
        # avec is orthogonal to the phase, so k . kp = 0 and the wave is
        # divergence free at leading order as well as exactly (curl).
        assert abs(np.dot(kp, a)) < 1e-14
        assert np.dot(fr.k_arr(), kp) == 0
