"""Batch front door: configure, run, and inspect constructions.

All runs are driven by a flat ``key = value`` config file (UTF-8, ``#``
comments); every key has a default and every key can be overridden on the
command line with ``--set key=value``.  Reports are sorted key=value text,
scaling tables are CSV, field snapshots use the binary format from
``torus_field``.

Exit codes: 0 success, 1 runtime / contract failure (with a witness in the
report), 2 configuration or format error.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import diagnostics as dg
from . import iteration as it
from . import torus_field as tf

__all__ = ["main", "load_config", "DEFAULTS", "ConfigError"]


class ConfigError(ValueError):
    pass


DEFAULTS = {
    # execution mode: "desk" builds fields, "asymptotic" is report-only
    "mode": "desk",
    # grid and time sampling
    "nx": "48", "ny": "48", "nz": "48",
    "nt": "33", "t0": "0.75", "t1": "4.25",
    # budgets and schedule (outer: kappa_n = kappa ** (schedule_b ** n))
    "kappa": "0.25", "kappa_bar": "", "schedule_b": "1.5",
    "steps": "2",
    # desk-mode construction parameters
    "mu": "4", "lam_init": "8", "M": "0.05",
    "lams": "16,32,64,128,256,512",
    "ells": "0.3,0.3,0.3,0.3,0.3,0.3",
    "ellzs": "0.3,0.3,0.3,0.3,0.3,0.3",
    "energy_level": "",  # blank: 10 * kappa
    # asymptotic-mode bookkeeping constants
    "L_v": "10", "D_v": "100", "eps": "0.05", "Lam": "1", "Lam_bar": "1",
    # tolerances
    "tolerance": "1e-6",            # validate-initial normalized residuals
    "residual_tolerance": "5.0",    # step residual vs Richardson floor
    # scaling study
    "quantity": "all",
    "sweep": "",
    # i/o
    "out": ".",
    "snapshots": "0",
}

_SCALING_QUANTITIES = ("lambda", "mu", "mollification", "all")


# ---------------------------------------------------------------------------
# config handling

def _parse_lines(text, source):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path=None, overrides=()):
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        parsed = _parse_lines(text, path)
        for key in parsed:
            if key not in DEFAULTS:
                raise ConfigError(f"{path}: unknown key {key!r}")
        cfg.update(parsed)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        cfg[key] = val.strip()
    return cfg


def _get_int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} = {cfg[key]!r} is not an integer") from None


def _get_float(cfg, key):
    try:
        val = float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} = {cfg[key]!r} is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"{key} = {cfg[key]!r} is not finite")
    return val


def _get_above(cfg, key, floor):
    """A finite number above floor (kappa, kappa_bar > 0; schedule_b > 1)."""
    val = _get_float(cfg, key)
    if not val > floor:
        raise ConfigError(f"{key} = {val:g} must be > {floor:g}")
    return val


def _get_list(cfg, key, conv=float):
    """Comma list of finite numbers ([] for a blank value)."""
    raw = cfg[key].strip()
    if not raw:
        return []
    try:
        vals = [conv(x) for x in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{key} = {cfg[key]!r} is not a comma list") from None
    if not all(math.isfinite(x) for x in vals):
        raise ConfigError(f"{key} = {cfg[key]!r} is not finite")
    return vals


def _grids(cfg):
    n = [_get_int(cfg, key) for key in ("nx", "ny", "nz")]
    try:
        grid = tf.Grid3(*n)
    except ValueError as exc:
        raise ConfigError(f"nx, ny, nz = {n[0]}, {n[1]}, {n[2]}: {exc}") from None
    t = (_get_float(cfg, "t0"), _get_float(cfg, "t1"), _get_int(cfg, "nt"))
    try:
        return grid, tf.TimeGrid(*t)
    except ValueError as exc:
        raise ConfigError(f"t0, t1, nt = {t[0]}, {t[1]}, {t[2]}: {exc}") from None


def _ladders(cfg):
    """The six-substep lams, ells and ellzs lists; the lams values and the
    cell scale mu must be positive integers, mu dividing every lams value
    (the wave engine's contract), and the mollification scales positive."""
    ladders = _get_list(cfg, "lams", int), _get_list(cfg, "ells"), _get_list(cfg, "ellzs")
    if any(len(x) != 6 for x in ladders):
        raise ConfigError("lams, ells, ellzs must each list six values")
    for key, ladder in zip(("ells", "ellzs"), ladders[1:]):
        for ell in ladder:
            if not ell > 0:
                raise ConfigError(f"{key} value {ell:g} is not positive")
    mu = _get_int(cfg, "mu")
    if mu < 1:
        raise ConfigError(f"mu = {mu} is not a positive integer")
    for lam in ladders[0]:
        if lam < 1:
            raise ConfigError(f"lams value {lam} is not a positive integer")
        if lam % mu:
            raise ConfigError(f"mu = {mu} does not divide the lams value {lam}")
    return ladders


def _kappa_bar(cfg, kappa):
    if cfg["kappa_bar"].strip():
        kb = _get_above(cfg, "kappa_bar", 0)
    else:
        kb = kappa ** 1.5
    if kb > kappa ** 1.5:
        raise ConfigError(
            f"kappa_bar = {kb:.4g} exceeds kappa^(3/2) = {kappa ** 1.5:.4g}: "
            "the step contract requires kappa_bar <= kappa^(3/2)")
    return kb


def _desk_state(cfg):
    grid, tgrid = _grids(cfg)
    if not np.any(it.time_cutoff(tgrid.times())):
        z0, z1 = it.TIME_CUTOFF[0], it.TIME_CUTOFF[-1]
        raise ConfigError(f"t0, t1, nt = {tgrid.t0}, {tgrid.t1}, {tgrid.nt}: the time "
                          f"cutoff (support ({z0:g}, {z1:g})) is zero at every sample")
    kappa = _get_above(cfg, "kappa", 0)
    level = (_get_above(cfg, "energy_level", 0) if cfg["energy_level"].strip()
             else 10 * kappa)
    e_vals = np.full(tgrid.nt, level)
    lam, nyquist = _get_int(cfg, "lam_init"), min(grid.ny, grid.nz) // 2
    if not 0 < lam < nyquist:  # the starting tuple holds cos(lam y), sin(lam z)
        raise ConfigError(f"lam_init = {lam} must be a positive integer below "
                          f"min(ny, nz)/2 = {nyquist}")
    return it.initial_state(grid, tgrid, mu=_get_int(cfg, "mu"), kappa=kappa,
                            e_vals=e_vals, M=_get_float(cfg, "M"), lam=lam)


def _outdir(cfg):
    """The output directory, read before any state is built and made only
    when there is output to write (_finish)."""
    out = cfg["out"] or "."
    found = os.path.abspath(out)
    while not os.path.exists(found):  # the nearest existing ancestor
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        raise ConfigError(f"out = {out!r}: {found} is a file, not a directory")
    return out


def _finish(out, name, report, snapshot=None):
    """Write `<name>.txt` (and the snapshots of a final state) to `out`, print
    the report; exit 1 unless it passed (an asymptotic report checks none)."""
    os.makedirs(out, exist_ok=True)
    it.write_report(os.path.join(out, f"{name}.txt"), report)
    if snapshot is not None:
        tf.write_snapshot(os.path.join(out, "velocity.bci"),
                          snapshot.v, 1, snapshot.grid, snapshot.tgrid)
        tf.write_snapshot(os.path.join(out, "temperature.bci"),
                          snapshot.theta[:, None], 0, snapshot.grid, snapshot.tgrid)
    print("\n".join(it.format_report(report)))
    return 0 if report.get("passed", True) else 1


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_initial(cfg):
    """Build the starting tuple and check its normalized residuals."""
    _kappa_bar(cfg, _get_above(cfg, "kappa", 0))
    tol = _get_above(cfg, "tolerance", 0)
    out = _outdir(cfg)
    state = _desk_state(cfg)
    res = dg.normalized_residuals(state)
    return _finish(out, "validate_initial", {
        **res, "tolerance": tol,
        "passed": max(res["momentum"], res["flux"], res["incompressibility"]) <= tol,
        "grid": f"{state.grid.nx}x{state.grid.ny}x{state.grid.nz}", "nt": state.tgrid.nt})


def _asymptotic_report(cfg):
    kappa = _get_above(cfg, "kappa", 0)
    given = {"kappa": kappa, "kappa_bar": _kappa_bar(cfg, kappa)}
    given.update((key, _get_above(cfg, key, 0))
                 for key in ("L_v", "Lam", "Lam_bar", "D_v", "eps"))
    try:
        params = it.choose_params(**given)
    except ArithmeticError:  # a power overflows, or an underflow to 0 divides
        raise ConfigError(", ".join(f"{key} = {val:g}" for key, val in given.items())
                          + ": the closed-formula parameters leave the float range") from None
    nyquist = min(_get_int(cfg, "nx"), _get_int(cfg, "ny"),
                  _get_int(cfg, "nz")) // 2
    return {
        "mode": "asymptotic", "mu": params.mu, "lam0": params.lam0,
        "lams": params.lams, "ells": params.ells, "ellzs": params.ellzs,
        "violations": params.violations,
        "grid_nyquist": nyquist,
        "representable": bool(max(params.lams) <= nyquist),
        "fields_built": False,
    }


def _run_keys(cfg):
    """The keys step and outer share, read before any state is built: the
    ladders, the tolerance of the Richardson check (which needs
    TimeGrid.halved) and the snapshots switch (0 or 1)."""
    if _grids(cfg)[1].halved() is None:
        raise ConfigError(f"nt = {_get_int(cfg, 'nt')} has no stride-2 time grid "
                          "for the Richardson check (nt must be odd and >= 9)")
    snapshots = _get_int(cfg, "snapshots")
    if snapshots not in (0, 1):
        raise ConfigError(f"snapshots = {snapshots} must be 0 or 1")
    return (*_ladders(cfg), _get_above(cfg, "residual_tolerance", 0), snapshots)


def cmd_step(cfg):
    """Run one outer step: six substeps, each with its closure check (or
    report parameters in asymptotic mode)."""
    if cfg["mode"] == "asymptotic":
        return _finish(_outdir(cfg), "step", _asymptotic_report(cfg))
    if cfg["mode"] != "desk":
        raise ConfigError(f"unknown mode {cfg['mode']!r} (desk | asymptotic)")
    lams, ells, ellzs, tolerance, snapshots = _run_keys(cfg)
    _kappa_bar(cfg, _get_above(cfg, "kappa", 0))
    out = _outdir(cfg)
    state = _desk_state(cfg)
    report = it.run_step(state, lams, ells, ellzs, tolerance)
    return _finish(out, "step", report, state if snapshots else None)


def cmd_outer(cfg):
    """Chain outer steps under the kappa schedule, doubling the frequency
    ladder each step, and record the solution increments."""
    if cfg["mode"] != "desk":
        raise ConfigError("outer requires mode = desk")
    steps = _get_int(cfg, "steps")
    if steps < 1:
        raise ConfigError(f"steps = {steps} must be >= 1")
    lams, ells, ellzs, tolerance, snapshots = _run_keys(cfg)
    # kappa_n = kappa ** (schedule_b ** n) shrinks only for kappa < 1 and
    # schedule_b > 1
    kappa = _get_above(cfg, "kappa", 0)
    if not kappa < 1:
        raise ConfigError(f"kappa = {kappa:g} must be < 1 for outer "
                          "(the budgets kappa^(schedule_b^n) must shrink)")
    schedule_b = _get_above(cfg, "schedule_b", 1)
    out = _outdir(cfg)
    state = _desk_state(cfg)
    state, report = it.run_outer(state, lams, ells, ellzs, steps,
                                 schedule_b=schedule_b, tolerance=tolerance)
    return _finish(out, "outer", report, state if snapshots else None)


def _check_sweep(quantity, sweep):
    """Refuse, naming the value, a sweep the study cannot run as given."""
    if len(sweep) < 3:
        raise ConfigError("sweep needs at least 3 points for a slope fit")
    if quantity == "all":
        raise ConfigError("sweep needs one quantity (lambda, mu or mollification)")
    for i, x in enumerate(sweep):
        if x in sweep[:i]:
            raise ConfigError(f"sweep value {x:g} repeats")
        if x <= 0:
            raise ConfigError(f"sweep value {x:g} is not positive")
        if quantity != "mollification" and x != int(x):
            raise ConfigError(f"sweep value {x:g} is not an integer {quantity}")
        if quantity == "lambda" and x % dg.LAMBDA_STUDY_MU:
            raise ConfigError(f"sweep value {x:g} is not a multiple of the "
                              f"lambda study's mu = {dg.LAMBDA_STUDY_MU}")
        if quantity == "mu" and dg.MU_STUDY_LAM % x:
            raise ConfigError(f"sweep value {x:g} does not divide the "
                              f"mu study's lambda = {dg.MU_STUDY_LAM}")


def cmd_scaling(cfg):
    """Fit decay slopes of the update terms over parameter ladders."""
    quantity = cfg["quantity"]
    if quantity not in _SCALING_QUANTITIES:
        raise ConfigError(f"unknown quantity {quantity!r}; valid: "
                          + ", ".join(_SCALING_QUANTITIES))
    sweep = _get_list(cfg, "sweep")  # a checked sweep has one quantity
    if sweep:
        _check_sweep(quantity, sweep)
    out = _outdir(cfg)
    os.makedirs(out, exist_ok=True)  # the tables are written before the report
    report = {}
    ok = True

    def ladder(name, cast=float):  # a blank sweep keeps the study's default
        return {name: [cast(x) for x in sweep]} if sweep else {}
    if quantity in ("lambda", "all"):
        res = dg.lambda_scaling(**ladder("lams", int))
        rows = list(zip(res["lams"], *(res["norms"][k] for k in sorted(res["norms"]))))
        dg.write_csv(os.path.join(out, "scaling_lambda.csv"),
                     ["lam"] + sorted(res["norms"]), rows)
        report["lambda"] = {"slopes": res["slopes"]}
        ok &= all(-1.2 < s < -0.8 for s in res["slopes"].values())
    if quantity in ("mu", "all"):
        res = dg.mu_scaling(**ladder("mus", int))
        dg.write_csv(os.path.join(out, "scaling_mu.csv"), ["mu", "norm"],
                     list(zip(res["mus"], res["norms"])))
        report["mu"] = {"slope": res["slope"]}
        ok &= -1.3 < res["slope"] < -0.7
    if quantity in ("mollification", "all"):
        res = dg.mollification_scaling(**ladder("ells"))
        dg.write_csv(os.path.join(out, "scaling_mollification.csv"),
                     ["ell", "norm"], list(zip(res["ells"], res["norms"])))
        report["mollification"] = {"slope": res["slope"]}
        ok &= 0.7 < res["slope"] < 1.3
    report["passed"] = bool(ok)
    return _finish(out, "scaling", report)


def cmd_selftest(cfg):
    """Run the package's full test suite (requires a tests/ directory next
    to the working copy)."""
    import pytest

    candidates = [
        os.path.join(os.getcwd(), "tests"),
        os.path.abspath(os.path.join(os.path.dirname(__file__),
                                     "..", "..", "tests")),
    ]
    tests = next((c for c in candidates if os.path.isdir(c)), None)
    if tests is None:
        raise ConfigError("no tests/ directory found next to the working copy")
    code = pytest.main(["-q", tests])
    return 0 if code == 0 else 1


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bqci",
        description="Construction kernel for the Boussinesq system with "
                    "vertical viscosity on the 3-torus")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "validate-initial": cmd_validate_initial,
        "step": cmd_step,
        "outer": cmd_outer,
        "scaling": cmd_scaling,
        "selftest": cmd_selftest,
    }
    for name, func in handlers.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("config", nargs="?", default=None,
                       help="key = value config file (defaults apply)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="override a config key")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    start = time.time()
    try:
        cfg = load_config(args.config, args.set)
        code = args.func(cfg)
    except (ConfigError, it.ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    print(f"[{args.command}] finished in {time.time() - start:.1f}s "
          f"(exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
