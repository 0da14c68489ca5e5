import numpy as np
from hypothesis import given, strategies as st

from bqci import partition as pt
from oracles import active_cells, alpha


def test_bump_support_and_smooth_ends():
    pou = pt.PartitionOfUnity()
    assert pou.bump(pou.c2) == 0.0
    assert pou.bump(2.0) == 0.0
    assert pou.bump(0.0) > 0.0
    assert abs(pou.bump(pou.c1) - np.exp(-1)) < 1e-14


def test_squares_sum_to_one_random_points():
    pou = pt.PartitionOfUnity()
    rng = np.random.default_rng(0)
    p = rng.uniform(-50, 50, size=(3, 10000))
    _, alphas = pou.corner_alphas(p)
    s = np.sum(alphas * alphas, axis=0)
    assert np.max(np.abs(s - 1.0)) < 1e-10


def test_worst_case_cube_center_covered():
    pou = pt.PartitionOfUnity()
    _, alphas = pou.corner_alphas(np.array([[0.5], [0.5], [0.5]]))
    assert np.allclose(np.sum(alphas**2, axis=0), 1.0)
    # all 8 corners equidistant: equal weights
    assert np.allclose(alphas, alphas[0])


def test_alpha_matches_gather():
    pou = pt.PartitionOfUnity()
    rng = np.random.default_rng(1)
    p = rng.uniform(-3, 3, size=(3, 200))
    corners, alphas = pou.corner_alphas(p)
    for l in [(0, 0, 0), (1, -2, 0), (2, 2, 2)]:
        direct = alpha(pou, l, p)
        hit = np.all(corners == np.array(l).reshape(1, 3, 1), axis=1)
        assert np.allclose(direct, np.sum(np.where(hit, alphas, 0.0), axis=0))


def test_far_cell_weight_zero():
    pou = pt.PartitionOfUnity()
    p = np.array([[0.1], [0.1], [0.1]])
    assert alpha(pou, (5, 5, 5), p)[0] == 0.0


def test_parity_index_examples():
    assert pt.parity_index((0, 0, 0)) == 7
    assert pt.parity_index((1, 1, 1)) == 0
    assert pt.parity_index((1, 2, 3)) == 2


@given(st.tuples(*[st.integers(-20, 20)] * 3))
def test_parity_index_translation_invariance(l):
    # shifting any component by 2 never changes the class
    base = pt.parity_index(l)
    for d in range(3):
        shifted = list(l)
        shifted[d] += 2
        assert pt.parity_index(tuple(shifted)) == base
    assert 0 <= base <= 7


def test_active_cells_small_cloud():
    p = np.array([[0.5], [0.5], [0.5]])
    cells = active_cells(p)
    assert len(cells) == 8
    assert (0, 0, 0) in cells and (1, 1, 1) in cells


def test_active_cells_near_corner():
    # close to a lattice point only nearby corners are inside the cutoff
    p = np.array([[0.01], [0.01], [0.01]])
    cells = active_cells(p)
    assert (0, 0, 0) in cells
    assert (1, 1, 1) not in cells  # distance ~ sqrt(3) > c2


def offset_order_corner_alphas(pou, p):
    """The former corner gather, kept as the oracle of the class-ordered
    one: slot c is floor(p) + (bits of c), normalized in that order."""
    p = np.asarray(p, dtype=np.float64)
    base = np.floor(p).astype(np.int64)
    corners = np.empty((8,) + p.shape, dtype=np.int64)
    betas = np.empty((8,) + p.shape[1:])
    for c in range(8):
        off = np.array([(c >> d) & 1 for d in range(3)], dtype=np.int64)
        corner = base + off.reshape((3,) + (1,) * (p.ndim - 1))
        corners[c] = corner
        d2 = np.sum((p - corner) ** 2, axis=0)
        betas[c] = pou.bump(np.sqrt(d2))
    norm = np.sqrt(np.sum(betas * betas, axis=0))
    return corners, betas / norm


# lattice points, cube centres and arbitrary points, negative ones included
coord = st.one_of(st.integers(-20, 20).map(float),
                  st.integers(-20, 20).map(lambda k: k + 0.5),
                  st.floats(-50.0, 50.0, allow_nan=False))


@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=40))
def test_corners_come_in_class_order(points):
    pou = pt.PartitionOfUnity()
    p = np.array(points).T
    corners, alphas = pou.corner_alphas(p)
    # slot c holds the corner of class c, inside the containing cube
    pc = pt.parity_index(np.moveaxis(corners, 1, -1))
    assert np.array_equal(pc, np.broadcast_to(np.arange(8)[:, None], pc.shape))
    base = np.floor(p).astype(np.int64)
    assert np.all((corners >= base) & (corners <= base + 1))
    # the squares partition unity at every point
    assert np.max(np.abs(np.sum(alphas * alphas, axis=0) - 1.0)) <= 2e-15
    # the same (corner, alpha) pairs as the offset-order gather
    old_c, old_a = offset_order_corner_alphas(pou, p)
    slot = pt.parity_index(np.moveaxis(old_c, 1, -1))
    assert np.array_equal(np.take_along_axis(corners, slot[:, None], axis=0), old_c)
    assert np.max(np.abs(np.take_along_axis(alphas, slot, axis=0) - old_a)) <= 4e-16
