"""Fork-per-range workers on this host's cores, and the shared memory they
write into.

fork_map splits its items into WORKERS contiguous shares, runs the first
share in the calling process and every other share in a child made by
os.fork(), and returns the results in item order.  A child starts from the
caller's memory as it was at the fork (copy on write), so nothing is
pickled on the way in; it pickles its results, or its exception's type and
message, back over a pipe and leaves by os._exit.  What a child writes
reaches the caller only through arrays in MAP_SHARED memory (shared).  No
child outlives the call: each is reaped before fork_map returns or raises,
and killed first when the caller is raising.
"""

import mmap
import os
import pickle
import signal

import numpy as np

__all__ = ["WORKERS", "shares", "fork_map", "shared"]

# the processes fork_map runs on: the cores this process may run on, at most
# two (the only count measured for speed and memory); 1 runs serially
WORKERS = min(2, len(os.sched_getaffinity(0)))


def shares(items, workers):
    """items split into min(workers, len(items)) contiguous shares (at least
    one), the first ones an item longer when the split is uneven."""
    items = list(items)
    k = max(1, min(workers, len(items)))
    q, r = divmod(len(items), k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def fork_map(fn, items):
    """[fn(x) for x in items], each of the WORKERS contiguous shares of items
    (shares) run by its own process: this one runs the first share, a forked
    child each other one.  WORKERS 1, or a single item, runs here and forks
    nothing.  The first exception in item order is raised here, a child's
    with its type and message."""
    parts = shares(items, WORKERS)
    children = []  # (pid, read end of its pipe)
    finished = False
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(fn, part, w)  # never returns
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [fn(x) for x in parts[0]]
        for pid, pipe in children:
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                ok, value = False, (RuntimeError, f"worker {pid} ended without a result")
            if not ok:
                kind, message = value
                raise kind(message)
            results.extend(value)
        finished = True
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, part, w):
    """A forked child's whole life: fn over its share, the pickled outcome
    written to w, then os._exit (it never returns into the caller's stack)."""
    code = 0
    try:
        try:
            data = pickle.dumps((True, [fn(x) for x in part]))
        except BaseException as exc:  # sent to the parent
            data = pickle.dumps((False, (type(exc), str(exc))))
        with os.fdopen(w, "wb") as pipe:
            pipe.write(data)
    except BaseException:  # the parent sees no result
        code = 1
    finally:
        os._exit(code)


def shared(a):
    """a itself when it lives in MAP_SHARED memory made here, else a copy of
    it there: forked workers write such an array for the caller."""
    if isinstance(a.base, mmap.mmap):
        return a
    out = np.ndarray(a.shape, a.dtype, buffer=mmap.mmap(-1, max(a.nbytes, 1)))
    out[...] = a
    return out
