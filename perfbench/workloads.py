"""The benchmark's workloads: fixed configurations run through bqci's public
entry points, each with the correctness checks of the acceptance gate.

A workload has four parts:

- ``setup()`` builds what every operation starts from (timed as part of
  ``setup_s``);
- ``prepare(start)`` makes a fresh input for one operation (not timed);
- ``run(inp)`` is one operation (timed); it returns plain numbers only, so
  that large arrays are freed before the next operation starts;
- ``check(out)`` returns the names of the checks the output fails (empty
  when it passes).

An output may carry ``points``: grid points x time samples x substeps the
operation computed, the throughput unit of ``desk_step``.
"""

import copy
import math

import numpy as np

from bqci import diagnostics as dg
from bqci import iteration as it
from bqci import stress_update as su
from bqci import torus_field as tf

KAPPA = 0.25


def _window(value, lo, hi):
    return math.isfinite(value) and lo <= value <= hi


class DeskStep:
    """Six cancellation substeps on the ``conftest.mini_stepped`` start state,
    each followed by the Richardson floor check (the gate's ``desk_chain``
    loop at 24^3 x 9)."""

    name = "desk_step"
    shape = (24, 24, 24)
    nt = 9
    lam = 16
    ell = 0.9

    def setup(self):
        grid = tf.Grid3(*self.shape)
        tgrid = tf.TimeGrid(0.75, 4.25, self.nt)
        e_vals = it.energy_profile(tgrid.times(), (0.75, 4.25), (0.75, 4.25),
                                   10 * KAPPA)
        state = it.initial_state(grid, tgrid, mu=2, kappa=KAPPA,
                                 e_vals=e_vals, M=0.05, lam=4)
        it.begin_step(state, self.ell, self.ell)
        return state

    def prepare(self, start):
        return copy.deepcopy(start)

    def run(self, state):
        subs = []
        for n in range(1, 7):
            rep = su.run_substep(state, n, self.lam, self.ell, self.ell)
            rich = dg.richardson_floor(state)
            subs.append({
                "cancel_r1": rep["cancel_r1"],
                "cancel_r2": rep["cancel_r2"],
                "wave_div_rel": rep["wave_div_rel"],
                "richardson_passed": rich["passed"],
                "richardson_ratio": max(rich["momentum_ratio"],
                                        rich["flux_ratio"]),
            })
        return {"substeps": subs,
                "points": state.grid.npts * state.tgrid.nt * len(subs)}

    @staticmethod
    def check(out):
        tol = 1e-10 * KAPPA
        bad = []
        subs = out["substeps"]
        if not all(s["richardson_passed"] for s in subs):
            bad.append("richardson_passed")
        if not all(_window(s["cancel_r1"], 0.0, tol) for s in subs):
            bad.append("cancel_r1<=1e-10*kappa")
        if not all(_window(s["cancel_r2"], 0.0, tol) for s in subs):
            bad.append("cancel_r2<=1e-10*kappa")
        if not all(_window(s["wave_div_rel"], 0.0, 1e-8) for s in subs):
            bad.append("wave_div_rel<=1e-8")
        return bad


class Scaling:
    """One ``diagnostics.scaling_study()`` with its default ladders, on
    16^3 x 9 probes instead of the default 32^3 x 9.

    At 32^3 one study takes 12-15 s, so a run holds only 3-4 of them and
    its median follows the host's speed; at 16^3 it takes about 2 s and
    every slope still falls inside criterion 10's windows."""

    name = "scaling"
    N = 16

    def setup(self):
        return None

    def prepare(self, start):
        return None

    def run(self, _):
        res = dg.scaling_study(N=self.N)
        return {
            "lambda_slopes": dict(res["lambda"]["slopes"]),
            "mu_slope": res["mu"]["slope"],
            "mollification_slope": res["mollification"]["slope"],
        }

    @staticmethod
    def check(out):
        # criterion 10's windows
        bad = []
        for term, slope in sorted(out["lambda_slopes"].items()):
            if not _window(slope, -1.2, -0.8):
                bad.append(f"lambda_slope[{term}]")
        if not _window(out["mu_slope"], -1.3, -0.7):
            bad.append("mu_slope")
        if not _window(out["mollification_slope"], 0.7, 1.3):
            bad.append("mollification_slope")
        return bad


class RefStart:
    """The front end of the reference run (mu=4, lam_init=8, e = 10 kappa):
    starting tuple, its residuals (``bqci validate-initial``),
    ``begin_step`` and the Richardson check on the start state.

    The grid is 36^3 x 17, not the CLI-default 48^3 x 33: one operation
    then takes about 2 s instead of 12-15 s, so a run holds enough of them
    for a steady median, and one scalar field (6.3 MB) is still three times
    a core's L2 cache."""

    name = "ref_start"
    shape = (36, 36, 36)
    nt = 17
    ell = 0.3

    def setup(self):
        return (tf.Grid3(*self.shape), tf.TimeGrid(0.75, 4.25, self.nt),
                np.full(self.nt, 10 * KAPPA))

    def prepare(self, start):
        return start

    def run(self, start):
        grid, tgrid, e_vals = start
        state = it.initial_state(grid, tgrid, mu=4, kappa=KAPPA,
                                 e_vals=e_vals, M=0.05, lam=8)
        res = dg.normalized_residuals(state)
        blocks = it.begin_step(state, self.ell, self.ell)
        rich = dg.richardson_floor(state)
        return {
            "residual": max(res["momentum"], res["flux"],
                            res["incompressibility"]),
            "violations": list(blocks["violations"]),
            "richardson_passed": rich["passed"],
            "richardson_ratio": max(rich["momentum_ratio"], rich["flux_ratio"]),
        }

    @staticmethod
    def check(out):
        bad = []
        # criterion 5 / the validate-initial tolerance
        if not _window(out["residual"], 0.0, 1e-6):
            bad.append("residual<=1e-6")
        if out["violations"]:
            bad.append("begin_step_violations")
        if not (out["richardson_passed"] and math.isfinite(out["richardson_ratio"])):
            bad.append("richardson_passed")
        return bad


WORKLOADS = {w.name: w for w in (DeskStep, Scaling, RefStart)}
