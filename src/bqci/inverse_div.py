"""Antidivergence operators on the torus and their decay diagnostics.

Every symbol below reads the torus_field.ShiftEntry of one integer shift xi:
the shifted wavenumbers K = m + xi, -1/|K|^2 (0 at K = 0) and the grid index
of K = 0. r_hat / g_hat are the symbols, acting on the spectrum of the
slow amplitude of a(x) e^{i xi.x}; the wave engine applies them class by
class. div_mode_hat is G composed with the divergence on one oscillation mode
A k e^{i xi.x}, a real symbol on the scalar spectrum of A; with k . xi = 0
the stress mode follows from it pointwise, R(div(A k (x) k e^{i xi.x})) =
g (x) k + k (x) g - (k . g) I for g = G(div(A k e^{i xi.x})) (mode_stress).
R_op maps a vector field v to a symmetric tensor R with
div R = v - mean(v); G_op maps a scalar f to a vector g with
div g = f - mean(f). Both are order minus-one operators: fed a wave
a(x) e^{i lam k.x} (through the shifted symbol path) their output decays like
1/lam, which decay_probe measures.
"""

from dataclasses import dataclass

import numpy as np

from . import torus_field as tf


def r_hat(vh, entry):
    """Symmetric inverse-divergence symbol on the spectrum vh of a shifted
    vector amplitude, packed xx,xy,xz,yy,yz,zz; the mode K = 0 is dropped
    (entry.dropped_mean)."""
    K = entry.K
    # u = i (-1/|K|^2) vh: multiplying by i is exact, so folding it in here
    # costs three components instead of six
    u = vh * entry.inv
    u *= 1j
    s = K[0] * u[0] + K[1] * u[1] + K[2] * u[2]
    # packed i (K_a u_b + K_b u_a - delta_ab K.u), built in place
    Rh6 = np.empty((6,) + u.shape[1:], dtype=complex)
    for i, (a, b) in enumerate(tf.PACK):
        if a == b:
            np.multiply(2.0 * K[a], u[a], out=Rh6[i])
            Rh6[i] -= s
        else:
            np.multiply(K[b], u[a], out=Rh6[i])
            Rh6[i] += K[a] * u[b]
    return Rh6


def g_hat(fh, entry):
    """Gradient-of-inverse-Laplacian symbol on the spectrum fh of a shifted
    scalar amplitude; the mode K = 0 is dropped (entry.dropped_mean)."""
    return entry.grad(fh * entry.inv)


def div_mode_hat(Ah, k, entry):
    """G(div(A k e^{i xi.x})) as the spectrum of the slow amplitude, from the
    spectrum Ah of A, for a shift xi with k . xi = 0 (entry =
    tf.shift_entry(grid, xi)).

    It is g_hat on the polarized input i (k . K) Ah, reduced to a real
    symbol: the two factors of i cancel, -1/|K|^2 is entry.inv, and the
    dropped mode K = 0 has zero input (k . K = 0 there). With
    c = -(k . K) inv: Gh_a = c Ah K_a.
    """
    K = entry.K
    kK = k[0] * K[0] + k[1] * K[1] + k[2] * K[2]
    cA = (kK * entry.inv) * Ah  # -c Ah: the sign goes on the small factors
    out = np.empty((3,) + cA.shape, dtype=complex)
    for a in range(3):
        np.multiply(-K[a], cA, out=out[a])
    return out


def mode_stress(g, k):
    """Packed g (x) k + k (x) g - (k . g) I: R(div(A k (x) k e^{i xi.x})) from
    g = G(div(A k e^{i xi.x})) (k . xi = 0), pointwise, so it holds for
    spectra and materialized fields alike."""
    kg = k[0] * g[0] + k[1] * g[1] + k[2] * g[2]
    out = np.empty((6,) + g.shape[1:], dtype=g.dtype)
    for i, (a, b) in enumerate(tf.PACK):
        np.multiply(k[b], g[a], out=out[i])
        out[i] += k[a] * g[b]
        if a == b:
            out[i] -= kg
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
    out = tf.sym_unpack(tf.ifft3(r_hat(tf.fft3(v), tf.shift_entry(grid, xi))))
    return out.real if (xi is None and not np.iscomplexobj(v)) else out


def G_op(f, grid, xi=None):
    """Scalar antidivergence: g = grad Lap^{-1}(f - mean f), div g = f - mean f."""
    f = np.asarray(f)
    if f.shape != grid.shape:
        raise ValueError("expected a scalar field on the grid")
    out = tf.ifft3(g_hat(tf.fft3(f), tf.shift_entry(grid, xi)))
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
