import numpy as np
import pytest

from bqci import iteration as it
from bqci import stress_update as su
from bqci import torus_field as tf

KAPPA = 0.25


def mini_start():
    """The start state of mini_stepped."""
    grid = tf.Grid3(24, 24, 24)
    tgrid = tf.TimeGrid(0.75, 4.25, 9)
    e_vals = it.energy_profile(tgrid.times(), (0.75, 4.25), (0.75, 4.25),
                               10 * KAPPA)
    return it.initial_state(grid, tgrid, mu=2, kappa=KAPPA, e_vals=e_vals,
                            M=0.05, lam=4)


def mini_step(state):
    """mini_stepped's outer step on a start state; the step report."""
    return it.run_step(state, lams=[16] * 6, ells=[0.9] * 6, ellzs=[0.9] * 6)


@pytest.fixture(scope="session")
def mini_stepped():
    """One full six-substep update on a small grid.

    The grid and frequency are chosen so the sampled carriers fold onto
    high grid modes (16 * 2^c = +/-8 mod 24), which keeps the mollified
    engine inputs clean and the equation residual at the discretization
    floor.  Shared session-wide because the run takes tens of seconds.
    """
    state = mini_start()
    return state, mini_step(state)


@pytest.fixture
def corrupt_transport(monkeypatch):
    """Negative control: install(factor) scales the divergence that every
    later transport term stores, leaving the stress update itself alone."""
    def install(factor):
        clean = su.SubstepAssembler.transport_R

        def corrupted(self, j):
            delta6, div3 = clean(self, j)
            return delta6, div3 * factor
        monkeypatch.setattr(su.SubstepAssembler, "transport_R", corrupted)
    return install
