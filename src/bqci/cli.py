"""Batch front door: configure, run, and inspect constructions.

All runs are driven by a flat ``key = value`` config file (UTF-8, ``#``
comments); every key has a default and every key can be overridden on the
command line with ``--set key=value``.  ``KEYS`` gives each key's
default, type and rule; the rules that span keys are code.  Reports are
sorted key=value text, scaling tables are CSV, field snapshots use the
binary format from ``torus_field``.

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

__all__ = ["main", "load_config", "KEYS", "DEFAULTS", "ConfigError"]


class ConfigError(ValueError):
    pass


def _one_of(*names):
    return names.__contains__, "is not one of " + ", ".join(names)


_POSITIVE = (lambda x: x > 0, "must be > 0")
_POSITIVE_INT = (lambda x: x >= 1, "is not a positive integer")
_POSITIVE_VALUE = (lambda x: x > 0, "is not positive")

# key: (default, type, rule).  The type is int, float, str or a comma list
# [int] / [float]; the rule is a (test, phrase) pair, applied to each value
# of a list.  A blank default marks a key that may stay blank.
KEYS = {
    # execution mode: "desk" builds fields, "asymptotic" is report-only
    "mode": ("desk", str, _one_of("desk", "asymptotic")),
    # grid and time sampling
    "nx": ("48", int, None), "ny": ("48", int, None), "nz": ("48", int, None),
    "nt": ("33", int, None), "t0": ("0.75", float, None), "t1": ("4.25", float, None),
    # budgets and schedule (outer: kappa_n = kappa ** (schedule_b ** n))
    "kappa": ("0.25", float, _POSITIVE),
    "kappa_bar": ("", float, _POSITIVE),  # blank: kappa^(3/2)
    "schedule_b": ("1.5", float, (lambda x: x > 1, "must be > 1")),
    "steps": ("2", int, (lambda x: x >= 1, "must be >= 1")),
    # desk-mode construction parameters
    "mu": ("4", int, _POSITIVE_INT), "lam_init": ("8", int, None),
    "M": ("0.05", float, _POSITIVE),
    "lams": ("16,32,64,128,256,512", [int], _POSITIVE_INT),
    "ells": ("0.3,0.3,0.3,0.3,0.3,0.3", [float], _POSITIVE_VALUE),
    "ellzs": ("0.3,0.3,0.3,0.3,0.3,0.3", [float], _POSITIVE_VALUE),
    "energy_level": ("", float, _POSITIVE),  # blank: 10 * kappa
    # asymptotic-mode bookkeeping constants
    "L_v": ("10", float, _POSITIVE), "D_v": ("100", float, _POSITIVE),
    "eps": ("0.05", float, _POSITIVE), "Lam": ("1", float, _POSITIVE),
    "Lam_bar": ("1", float, _POSITIVE),
    # tolerances
    "tolerance": ("1e-6", float, _POSITIVE),  # validate-initial normalized residuals
    "residual_tolerance": ("5.0", float, _POSITIVE),  # step residual vs Richardson floor
    # scaling study
    "quantity": ("all", str, _one_of("lambda", "mu", "mollification", "all")),
    "sweep": ("", [float], _POSITIVE_VALUE),  # blank: each study's default ladder
    # i/o
    "out": (".", str, None),
    "snapshots": ("0", int, (lambda x: x in (0, 1), "must be 0 or 1")),
}

DEFAULTS = {key: default for key, (default, _, _) in KEYS.items()}


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


def _read(cfg, *keys):
    """Parse each key by its KEYS type and check it by its rule; one key
    gives its value, several a tuple.  A blank value of a blank-default key
    reads as None ([] for a list)."""
    vals = []
    for key in keys:
        default, kind, rule = KEYS[key]
        raw = cfg[key].strip()
        listed = isinstance(kind, list)
        if not (raw or default):
            vals.append([] if listed else None)
            continue
        try:
            val = [kind[0](x) for x in raw.split(",")] if listed else kind(raw)
        except ValueError:
            noun = "a comma list" if listed else {int: "an integer", float: "a number"}[kind]
            raise ConfigError(f"{key} = {cfg[key]!r} is not {noun}") from None
        items = val if listed else [val]
        if kind is not str and not all(math.isfinite(x) for x in items):
            raise ConfigError(f"{key} = {cfg[key]!r} is not finite")
        bad = [x for x in items if rule and not rule[0](x)]
        if bad:
            shown = repr(bad[0]) if kind is str else format(bad[0], "g")
            where = f"{key} value" if listed else f"{key} ="
            raise ConfigError(f"{where} {shown} {rule[1]}")
        vals.append(val)
    return vals[0] if len(keys) == 1 else tuple(vals)


def _grids(cfg):
    n = _read(cfg, "nx", "ny", "nz")
    try:
        grid = tf.Grid3(*n)
    except ValueError as exc:
        raise ConfigError(f"nx, ny, nz = {n[0]}, {n[1]}, {n[2]}: {exc}") from None
    t = _read(cfg, "t0", "t1", "nt")
    try:
        return grid, tf.TimeGrid(*t)
    except ValueError as exc:
        raise ConfigError(f"t0, t1, nt = {t[0]}, {t[1]}, {t[2]}: {exc}") from None


def _ladders(cfg):
    """The six-substep lams, ells and ellzs lists, with the cell scale mu
    dividing every lams value (the wave engine's contract)."""
    mu, *ladders = _read(cfg, "mu", "lams", "ells", "ellzs")
    if any(len(x) != 6 for x in ladders):
        raise ConfigError("lams, ells, ellzs must each list six values")
    for lam in ladders[0]:
        if lam % mu:
            raise ConfigError(f"mu = {mu} does not divide the lams value {lam}")
    return ladders


def _kappa_bar(cfg, kappa):
    kb = _read(cfg, "kappa_bar") or kappa ** 1.5
    if kb > kappa ** 1.5:
        raise ConfigError(
            f"kappa_bar = {kb:.4g} exceeds kappa^(3/2) = {kappa ** 1.5:.4g}: "
            "the step contract requires kappa_bar <= kappa^(3/2)")
    return kb


def _desk_state(cfg):
    """The output directory, checked but not made, and the starting tuple;
    a kappa_bar above kappa^(3/2) is refused here for every desk command."""
    out = _outdir(cfg)
    grid, tgrid = _grids(cfg)
    if not np.any(it.time_cutoff(tgrid.times())):
        z0, z1 = it.TIME_CUTOFF[0], it.TIME_CUTOFF[-1]
        raise ConfigError(f"t0, t1, nt = {tgrid.t0}, {tgrid.t1}, {tgrid.nt}: the time "
                          f"cutoff (support ({z0:g}, {z1:g})) is zero at every sample")
    kappa, level, lam, mu, M = _read(cfg, "kappa", "energy_level", "lam_init", "mu", "M")
    _kappa_bar(cfg, kappa)
    nyquist = min(grid.ny, grid.nz) // 2
    if not 0 < lam < nyquist:  # the starting tuple holds cos(lam y), sin(lam z)
        raise ConfigError(f"lam_init = {lam} must be a positive integer below "
                          f"min(ny, nz)/2 = {nyquist}")
    e_vals = np.full(tgrid.nt, level or 10 * kappa)
    return out, it.initial_state(grid, tgrid, mu=mu, kappa=kappa, e_vals=e_vals, M=M, lam=lam)


def _outdir(cfg):
    """The output directory, read before any state is built and made only
    when there is output to write (_finish)."""
    out = _read(cfg, "out") or "."
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
    tol = _read(cfg, "tolerance")
    out, state = _desk_state(cfg)
    res = dg.normalized_residuals(state)
    return _finish(out, "validate_initial", {
        **res, "tolerance": tol,
        "passed": max(res["momentum"], res["flux"], res["incompressibility"]) <= tol,
        "grid": f"{state.grid.nx}x{state.grid.ny}x{state.grid.nz}", "nt": state.tgrid.nt})


def _asymptotic_report(cfg):
    nyquist = min(_grids(cfg)[0].shape) // 2
    kappa = _read(cfg, "kappa")
    given = {"kappa": kappa, "kappa_bar": _kappa_bar(cfg, kappa)}
    given.update((key, _read(cfg, key)) for key in ("L_v", "Lam", "Lam_bar", "D_v", "eps"))
    try:
        params = it.choose_params(**given)
    except ArithmeticError:  # a power overflows, or an underflow to 0 divides
        raise ConfigError(", ".join(f"{key} = {val:g}" for key, val in given.items())
                          + ": the closed-formula parameters leave the float range") from None
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
    TimeGrid.halved) and the snapshots switch."""
    if _grids(cfg)[1].halved() is None:
        raise ConfigError(f"nt = {_read(cfg, 'nt')} has no stride-2 time grid "
                          "for the Richardson check (nt must be odd and >= 9)")
    return (*_ladders(cfg), *_read(cfg, "residual_tolerance", "snapshots"))


def cmd_step(cfg):
    """Run one outer step: six substeps, each with its closure check (or
    report parameters in asymptotic mode)."""
    if _read(cfg, "mode") == "asymptotic":
        return _finish(_outdir(cfg), "step", _asymptotic_report(cfg))
    lams, ells, ellzs, tolerance, snapshots = _run_keys(cfg)
    out, state = _desk_state(cfg)
    report = it.run_step(state, lams, ells, ellzs, tolerance)
    return _finish(out, "step", report, state if snapshots else None)


def cmd_outer(cfg):
    """Chain outer steps under the kappa schedule, doubling the frequency
    ladder each step, and record the solution increments."""
    if _read(cfg, "mode") != "desk":
        raise ConfigError("outer requires mode = desk")
    steps = _read(cfg, "steps")
    lams, ells, ellzs, tolerance, snapshots = _run_keys(cfg)
    # kappa_n = kappa ** (schedule_b ** n) shrinks only for kappa < 1 and
    # schedule_b > 1
    kappa, schedule_b = _read(cfg, "kappa", "schedule_b")
    if not kappa < 1:
        raise ConfigError(f"kappa = {kappa:g} must be < 1 for outer "
                          "(the budgets kappa^(schedule_b^n) must shrink)")
    out, state = _desk_state(cfg)
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
    quantity, sweep = _read(cfg, "quantity", "sweep")
    if sweep:  # a checked sweep has one quantity
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
