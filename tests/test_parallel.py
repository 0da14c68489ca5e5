import os
import time

import numpy as np
import pytest

from bqci import parallel


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bits(tree):
    """Every number of a report tree as float.hex, with its key path: equal
    lists mean bit-identical reports."""
    if isinstance(tree, dict):
        return [(k, *item) for k in sorted(tree) for item in bits(tree[k])]
    if isinstance(tree, (list, tuple)):
        return [(i, *item) for i, x in enumerate(tree) for item in bits(x)]
    return [(float(tree).hex(),)]


@pytest.mark.parametrize("n, workers", [(7, 2), (7, 3), (9, 2), (2, 5), (5, 0), (5, 1)])
def test_shares_are_contiguous_and_cover_the_items(n, workers):
    parts = parallel.shares(range(n), workers)
    assert [x for part in parts for x in part] == list(range(n))
    assert len(parts) == max(1, min(workers, n))
    sizes = [len(part) for part in parts]
    assert max(sizes) - min(sizes) <= 1 and sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fork_map_returns_the_results_in_item_order(workers, n):
    workers(n)
    here = os.getpid()
    out = parallel.fork_map(lambda x: (x * x, os.getpid()), range(7))
    assert [r for r, _ in out] == [x * x for x in range(7)]
    # the first share runs here, every other share in a child of its own
    pids = [pid for _, pid in out]
    assert pids[0] == here
    assert len(set(pids)) == n
    assert_no_child_left()


def test_a_childs_exception_is_raised_here_with_its_type_and_message(workers):
    workers(2)
    here = os.getpid()

    def fn(x):
        if os.getpid() != here and x == 6:
            raise ZeroDivisionError(f"item {x} failed in a worker")
        return x
    with pytest.raises(ZeroDivisionError, match="^item 6 failed in a worker$"):
        parallel.fork_map(fn, range(8))
    assert_no_child_left()


def test_an_exception_here_kills_and_reaps_every_child(workers):
    workers(3)

    def fn(x):
        if x == 0:
            raise ValueError("the first share failed")
        time.sleep(60)  # the children would outlive the call
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="the first share failed"):
        parallel.fork_map(fn, range(6))
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


def test_only_shared_arrays_take_a_childs_writes(workers):
    # four processes, each writing its own entries
    n, count = 12, 4
    workers(count)
    shared, private = parallel.shared(np.zeros(n)), np.zeros(n)
    assert parallel.shared(shared) is shared  # not copied again

    def fn(x):
        shared[x] = private[x] = x + 1
    parallel.fork_map(fn, range(n))
    first = len(parallel.shares(range(n), count)[0])
    assert np.array_equal(shared, np.arange(1, n + 1))
    # the children wrote their own copies of private
    assert np.array_equal(private, np.where(np.arange(n) < first, np.arange(1, n + 1), 0))
    copy = parallel.shared(private)
    assert copy is not private and np.array_equal(copy, private)
    assert_no_child_left()
