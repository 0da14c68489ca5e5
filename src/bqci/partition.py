"""Quadratic partition of unity on the unit lattice of R^3.

A point p is covered by the 8 corners of its containing unit cube; each
corner l gets a smooth radial bump beta(|p - l|) and the weights are
normalized so that sum_l alpha_l(p)^2 = 1 exactly. The cutoff radius is
below 1, so corners outside the containing cube never activate and the
per-point work is a fixed 8-corner gather no matter how many lattice cells
the data visits. Each corner also carries a parity index in 0..7 grouping
cells whose waves share a phase class; the 8 corners of a cube realize all
8 classes, so corner_alphas returns the weights in class order (slot c holds
the corner of class c) and the corners as two candidates per axis, from
which a sum over axes such as a squared distance is gathered (CLASS_BITS).
"""

import numpy as np

# CLASS_BITS[c, d]: bit d of class c, the candidate (1: even) of axis d in corner c
CLASS_BITS = (np.arange(8)[:, None] >> np.arange(3)) & 1


class PartitionOfUnity:
    c1 = 0.9  # bump(c1) = e^-1
    c2 = 0.95  # the cutoff radius, below 1: only the containing cube's corners activate

    def bump(self, r):
        """Radial profile beta(r): C-infinity, positive for r < c2, zero after."""
        r = np.asarray(r, dtype=np.float64)
        r2 = r * r
        c1sq, c2sq = self.c1 * self.c1, self.c2 * self.c2
        inside = r2 < c2sq
        denom = np.where(inside, c2sq - r2, 1.0)
        return np.where(inside, np.exp(-(c2sq - c1sq) / denom), 0.0)

    def corner_alphas(self, p):
        """Weights at the 8 cube corners around each point, in parity-class
        order.

        p: array of shape (3, ...). Returns (cands, alphas): integer
        per-axis candidates of shape (3, 2, ...), cands[d, 0] the odd and
        cands[d, 1] the even one of floor(p_d) and floor(p_d) + 1, and
        alphas of shape (8, ...) satisfying sum_c alphas[c]^2 = 1 pointwise.
        Slot c is the corner l of the containing cube with parity_index(l)
        == c: l_d = cands[d, CLASS_BITS[c, d]].
        """
        p = np.asarray(p, dtype=np.float64)
        if p.shape[0] != 3:
            raise ValueError("expected leading axis of length 3")
        base = np.floor(p).astype(np.int64)
        cands = np.stack([base + 1 - (base & 1), base + (base & 1)], axis=1)
        sq = (p[:, None] - cands) ** 2  # per axis: the squared distance to each candidate
        betas = self.bump(np.sqrt(sq[0, CLASS_BITS[:, 0]] + sq[1, CLASS_BITS[:, 1]]
                                  + sq[2, CLASS_BITS[:, 2]]))
        norm = np.sqrt(np.sum(betas * betas, axis=0))
        if np.any(norm == 0.0):
            raise FloatingPointError("partition not covering: a point saw no corner")
        return cands, betas / norm


def parity_index(l):
    """Class index in 0..7: bit d set when component l_d is even."""
    l = np.asarray(l, dtype=np.int64)
    even = (l % 2 == 0).astype(np.int64)
    return even[..., 0] + 2 * even[..., 1] + 4 * even[..., 2]
