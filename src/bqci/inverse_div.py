"""Antidivergence operators on the torus and their decay diagnostics.

r_hat / g_hat are the symbols, acting on a spectrum with (shifted)
wavenumbers K; the wave engine applies them class by class. div_mode_hat is
their composition with the divergence on one oscillation mode A k (x) k
(or A k) e^{i xi.x}, a real symbol on the scalar spectrum of A. R_op maps
a vector field v to a symmetric tensor R with div R = v - mean(v); G_op
maps a scalar f to a vector g with div g = f - mean(f). Both are order
minus-one operators: fed a wave a(x) e^{i lam k.x} (through the shifted
symbol path) their output decays like 1/lam, which decay_probe measures.
"""

from dataclasses import dataclass

import numpy as np

from . import torus_field as tf


def r_hat(vh, K, npts):
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
    # packed i (K_a u_b + K_b u_a - delta_ab K.u), built in place
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


def g_hat(fh, K, npts):
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


def mode_factor(k, K):
    """(k . K) / |K|^2 on the shifted wavenumbers K, 0 where K = 0: the one
    real grid array of the oscillation mode symbol (div_mode_hat). For
    K = m + q k_h-perp, k . K = k . m does not depend on the mode q."""
    KX, KY, KZ = K
    k2 = KX * KX + KY * KY + KZ * KZ
    kK = k[0] * KX + k[1] * KY + k[2] * KZ
    return np.divide(kK, k2, out=np.zeros(np.broadcast(kK, k2).shape), where=k2 != 0)


def div_mode_hat(Ah, k, K, factor, rank):
    """R(div(A k (x) k e^{i xi.x})) (rank 2, packed) or G(div(A k e^{i xi.x}))
    (rank 1) as the spectrum of the slow amplitude, from the spectrum Ah of
    A, for a shift xi with k . xi = 0 (K = m + xi, factor = mode_factor(k, K)).

    It is r_hat / g_hat on the polarized input i (k . K) Ah, reduced to a real
    symbol: the two factors of i cancel, the -1/|K|^2 folds into factor,
    and the dropped mode K = 0 has zero input (k . K = 0 there):
    Rh_ab = factor Ah (K_a k_b + K_b k_a - delta_ab k . K), Gh_a = factor Ah K_a.
    """
    cA = factor * Ah
    if rank == 1:
        return np.stack([K[a] * cA for a in range(3)])
    kK = k[0] * K[0] + k[1] * K[1] + k[2] * K[2]
    out = np.empty((6,) + cA.shape, dtype=complex)
    for i, (a, b) in enumerate(tf.PACK):
        sym = K[a] * k[b] + K[b] * k[a]
        np.multiply(sym - kK if a == b else sym, cA, out=out[i])
    return out


def R_op(v, grid, xi=None):
    """Symmetric antidivergence: R = grad u + (grad u)^T - (div u) I with
    u = Lap^{-1}(v - mean v). Exact identity div R = v - mean v.

    v: (3, nx, ny, nz). With xi, v is the slow amplitude of v e^{i xi.x}
    and the same identity holds for the modulated fields.
    """
    v = np.asarray(v)
    if v.shape != (3,) + grid.shape:
        raise ValueError("expected a vector field on the grid")
    Rh6, _ = r_hat(tf.fft3(v), tf.shifted_k(grid, xi), grid.npts)
    out = tf.sym_unpack(tf.ifft3(Rh6))
    return out.real if (xi is None and not np.iscomplexobj(v)) else out


def G_op(f, grid, xi=None):
    """Scalar antidivergence: g = grad Lap^{-1}(f - mean f), div g = f - mean f."""
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ValueError("expected a scalar field on the grid")
    gh, _ = g_hat(tf.fft3(f), tf.shifted_k(grid, xi), grid.npts)
    out = tf.ifft3(gh)
    return out.real if (xi is None and not np.iscomplexobj(f)) else out


@dataclass
class DecayProbeReport:
    lams: tuple
    norms: tuple
    slope: float


def decay_probe(grid, lams, direction=(1, 0, 0), amplitude=None, op="R"):
    """Sup norm of the antidivergence of a(x) d e^{i lam k.x} against lam.

    amplitude None means the constant profile (slope exactly -1); a slowly
    varying amplitude drifts the fitted slope but stays near -1. Returns the
    per-lam norms and the log-log least-squares slope.
    """
    d = np.asarray(direction, dtype=np.float64)
    a = np.ones(grid.shape) if amplitude is None else np.asarray(amplitude)
    norms = []
    for lam in lams:
        xi = tuple(int(round(lam * c)) for c in direction)
        if op == "R":
            field = np.stack([a * c for c in d]).astype(complex)
            out = R_op(field, grid, xi=xi)
        elif op == "G":
            out = G_op(a.astype(complex), grid, xi=xi)
        else:
            raise ValueError(f"unknown operator {op!r}")
        norms.append(float(np.max(np.abs(out))))
    slope = float(np.polyfit(np.log(np.asarray(lams, float)), np.log(norms), 1)[0])
    return DecayProbeReport(lams=tuple(lams), norms=tuple(norms), slope=slope)
