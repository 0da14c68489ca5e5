"""Exact linear algebra for the six-direction stress decomposition.

Six integer directions k_1..k_6 span the symmetric 3x3 matrices through
k_i (x) k_i; the closed-form coefficients gamma_i and the three-direction
vector coefficients b_i drive the per-substep cancellation. Everything here
is small-value arithmetic kept exact (integers / fractions) so that the
cancellation identities downstream can only fail through field
discretization, never through basis arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# The six basis directions (columns of the construction).
K = (
    (1, 0, 0),
    (0, 1, 0),
    (1, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
)

_SYM_TOL = 1e-12


class SymmetryError(ValueError):
    """Input matrix is not symmetric to tolerance."""


def basis_vector(n):
    """k_n as an integer numpy array, n in 1..6."""
    return np.array(K[n - 1], dtype=np.int64)


def decompose_sym(R):
    """Coefficients gamma_1..gamma_6 with sum gamma_i k_i (x) k_i = R.

    Closed forms; R may be a 3x3 matrix or an array of shape (3, 3, ...)
    in which case the decomposition is applied pointwise.
    """
    R = np.asarray(R)
    if R.shape[:2] != (3, 3):
        raise ValueError("expected leading shape (3, 3)")
    asym = np.max(np.abs(R - np.swapaxes(R, 0, 1)))
    scale = max(np.max(np.abs(R)), 1.0)
    if asym > _SYM_TOL * scale:
        raise SymmetryError(f"matrix not symmetric: |R - R^T| = {asym:.3e}")
    g1 = R[0, 0] - R[0, 1] - R[2, 2] + R[1, 2]
    g2 = R[1, 1] - R[2, 2] - R[0, 1] + R[0, 2]
    g3 = R[2, 2] - R[1, 2]
    g4 = R[0, 1] - R[0, 2] + R[2, 2] - R[1, 2]
    g5 = R[2, 2] - R[0, 2]
    g6 = R[0, 2] - R[2, 2] + R[1, 2]
    return np.stack([g1, g2, g3, g4, g5, g6])


def decompose_packed(P, out=None):
    """decompose_sym of a packed field P (6, ...) in sym_pack order, bit for
    bit, without unpacking or a symmetry check; into out (6, ...) if given,
    which may be P itself (every coefficient is formed before any is stored)."""
    xx, xy, xz, yy, yz, zz = P
    out = np.empty_like(P) if out is None else out
    out[0], out[1], out[2], out[3], out[4], out[5] = (
        xx - xy - zz + yz, yy - zz - xy + xz, zz - yz, xy - xz + zz - yz, zz - xz, xz - zz + yz)
    return out


def decompose_vec(f, out=None):
    """Coefficients b_1..b_3 with b_1 k_1 + b_2 k_2 + b_3 k_3 = f pointwise
    (into out if given, which may be f itself)."""
    f = np.asarray(f)
    if f.shape[0] != 3:
        raise ValueError("expected leading axis of length 3")
    fk1, fk2, fk3 = f[0], f[1], f[0] + f[2]
    out = np.empty_like(f) if out is None else out
    out[0], out[1], out[2] = 2 * fk1 - fk3, fk2, fk3 - fk1
    return out


@dataclass(frozen=True)
class WaveFrame:
    """Geometry of substep n: direction, phase direction, correction slopes.

    s, t solve s*k1 + t*k2 = -k3 (minimal-norm solution, kept exact);
    avec = (s, t, 1) is the curl-potential direction: the wave
    w = curl(b * avec * phase / (i lam 2^c)) then has oscillating part
    b * k * phase.
    """

    n: int
    k: tuple
    k_perp: tuple  # (k_h^perp, 0), integer
    s: Fraction
    t: Fraction
    kh_sq: int  # |k_h|^2

    @property
    def avec(self):
        return (float(self.s), float(self.t), 1.0)

    def k_arr(self):
        return np.array(self.k, dtype=np.float64)

    def k_perp_arr(self):
        return np.array(self.k_perp, dtype=np.int64)


def wave_frame(n):
    """Frame for substep n in 1..6."""
    if not 1 <= n <= 6:
        raise ValueError(f"substep index {n} out of range 1..6")
    k = K[n - 1]
    k1, k2, k3 = k
    kh_sq = k1 * k1 + k2 * k2
    assert kh_sq > 0, "horizontal part of a basis direction cannot vanish"
    # minimal-norm solution of the 1x2 system (k1 k2) (s t)^T = -k3
    s = Fraction(-k3 * k1, kh_sq)
    t = Fraction(-k3 * k2, kh_sq)
    assert s * k1 + t * k2 == -k3
    perp = (-k2, k1, 0)
    assert perp[0] * k1 + perp[1] * k2 + perp[2] * k3 == 0
    return WaveFrame(n=n, k=k, k_perp=perp, s=s, t=t, kh_sq=kh_sq)
