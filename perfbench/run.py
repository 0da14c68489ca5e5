"""bqci benchmark: one workload per process, a closed loop with one caller.

Run from the repository root:

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--workload all`` runs desk_step, scaling and ref_start one after another,
each in its own process, and prints every report.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Every workload is a fixed configuration; the seed is recorded but selects
nothing.  A fixed calibration kernel (calibration.py) is timed right before
and right after every operation, so that the headline figure,
``op_per_calib``, does not follow the drifting speed of a shared host.
See perfbench/README.md for the metrics and what moves them.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, namedtuple

from calibration import Calibrator
from tracing import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("desk_step", "scaling", "ref_start")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_TRIALS = 5
SETUP_TRIALS = 3
CHILD_TIMEOUT_S = 170
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import bqci.cli, bqci.diagnostics; "
    "print(time.perf_counter() - t)"
)

# name: (unit, better); the order of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_per_calib": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# what op_s (or its throughput) is called on each workload
ALIASES = {"desk_step": "step_pts_per_s", "scaling": "scaling_study_s",
           "ref_start": "ref_prep_s"}
_SELF_S = ("s", "lower")
PER_LAYER = {
    "torus_field.cfft_calls": ("count", "lower"),
    "torus_field.rfft_calls": ("count", "lower"),
    "torus_field.fft_bytes": ("B", "lower"),
    "torus_field.fft_s": _SELF_S,
    "torus_field.self_s": _SELF_S,
    "torus_field.mollify_s": _SELF_S,
    "torus_field.time_derivative_s": _SELF_S,
    "torus_field.mollify_passthrough": ("count", "lower"),
    "perturbation.gather_s": _SELF_S,
    "perturbation.slot_data_calls": ("count", "lower"),
    "perturbation.slot_data_per_sample": ("ratio", "lower"),
    "perturbation.amps_s": _SELF_S,
    "perturbation.shifted_gradient_s": _SELF_S,
    "perturbation.assemble_s": _SELF_S,
    "perturbation.assemble_calls": ("count", "lower"),
    "perturbation.engine_init_s": _SELF_S,
    "perturbation.self_s": _SELF_S,
    "stress_update.delta_R_s": _SELF_S,
    "stress_update.delta_f_s": _SELF_S,
    "stress_update.oscillation_s": _SELF_S,
    "stress_update.transport_s": _SELF_S,
    "stress_update.N_s": _SELF_S,
    "stress_update.accumulate_s": _SELF_S,
    "stress_update.self_s": _SELF_S,
    "partition.corner_alphas_s": _SELF_S,
    "partition.corner_alphas_calls": ("count", "lower"),
    "algebra.decompose_s": _SELF_S,
    "algebra.self_s": _SELF_S,
    "iteration.initial_state_s": _SELF_S,
    "iteration.begin_step_s": _SELF_S,
    "iteration.self_s": _SELF_S,
    "diagnostics.richardson_s": _SELF_S,
    "diagnostics.residuals_s": _SELF_S,
    "diagnostics.self_s": _SELF_S,
    "trace.op_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.layer_cover_frac": ("ratio", "higher"),
    "trace.spans_per_op": ("count", "lower"),
}

# error is None for an operation that completed and passed its checks;
# points is the checked work it did (desk_step's throughput unit); calib is
# the mean calibration time around it (None when it was not calibrated)
Attempt = namedtuple("Attempt", "wall error points calib", defaults=(None,))


# ---------------------------------------------------------------------------
# environment

def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads(env):
    """Cap every BLAS/OpenMP thread variable at nproc (default nproc)."""
    n = nproc()
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, n))
        except ValueError:
            want = n
        env[var] = str(min(max(want, 1), n))
    return {var: env[var] for var in THREAD_VARS}


def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_imports(trials):
    """Seconds to import bqci in fresh interpreters, one per trial."""
    out = []
    for _ in range(trials):
        res = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# the loop and its accounting

def attempt(workload, start, tracer=None, calibrator=None):
    """One operation: prepare its input (untimed), run it (timed), check it.

    With a calibrator, the calibration kernel is timed right before and
    right after the operation.  Any exception, and any failed check, makes
    the attempt a failure that records what went wrong; the caller goes on
    with the next operation."""
    inp = workload.prepare(start)
    before = calibrator() if calibrator is not None else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a failed operation is a result, not a crash
        return Attempt(time.perf_counter() - t0,
                       f"{type(exc).__name__}: {exc}", 0)
    finally:
        if tracer is not None:
            tracer.remove()
    calib = (before + calibrator()) / 2 if calibrator is not None else None
    try:
        bad = workload.check(out)
    except Exception as exc:  # a malformed output fails its check
        bad = [f"{type(exc).__name__}: {exc}"]
    if bad:
        return Attempt(wall, "check failed: " + ", ".join(bad), 0, calib)
    return Attempt(wall, None, out.get("points", 0), calib)


def closed_loop(step, seconds, min_ops=1):
    """Call step() back to back, one caller, at least min_ops times, and
    after that only while the next call, taken to last as long as the
    median call so far, ends within `seconds` of the start."""
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(results) >= min_ops and (
                now - t0 + statistics.median(durations) > seconds):
            return results
        results.append(step())
        durations.append(time.perf_counter() - now)


def summarize(attempts, rss_mb):
    """End-to-end figures of a list of attempts.

    Time and memory come from operations that completed and passed their
    checks only (None when there are none); throughput counts checked work
    per second of all operation wall time."""
    ok = [a for a in attempts if a.error is None]
    wall = sum(a.wall for a in attempts)
    return {
        "op_s": statistics.median(a.wall for a in ok) if ok else None,
        "op_per_calib": median_ratio(ok),
        "peak_rss_mb": rss_mb if ok else None,
        "points_per_s": sum(a.points for a in ok) / wall if wall > 0 else 0.0,
        "attempted": len(attempts),
        "failed": len(attempts) - len(ok),
        "failed_frac": (len(attempts) - len(ok)) / len(attempts),
        "failures": dict(Counter(a.error for a in attempts if a.error)),
    }


def median_ratio(attempts):
    """Median of wall / calib over the calibrated attempts (None if none)."""
    ratios = [a.wall / a.calib for a in attempts if a.calib]
    return statistics.median(ratios) if ratios else None


def trace_metrics(traced, untraced, spans):
    """Per-layer metrics per checked traced operation.

    traced: [(Attempt, (lo, hi) span range, pass-through warnings)];
    untraced: the untraced Attempts of the same run (for the overhead)."""
    ok = [(a, rng, w) for a, rng, w in traced if a.error is None]
    plain = median_ratio([a for a in untraced if a.error is None])
    if not ok:
        return dict.fromkeys(PER_LAYER)
    n = len(ok)
    lm = layer_metrics(spans, [rng for _, rng, _ in ok])
    wall = sum(a.wall for a, _, _ in ok)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s" and not name.startswith("trace."):
            out[name] = lm["seconds"].get(name, 0.0) / n
    for name, count in lm["counts"].items():
        out[name] = count / n
    samples = lm["engine_samples"]
    out["torus_field.fft_bytes"] = lm["fft_bytes"] / n
    out["torus_field.mollify_passthrough"] = sum(w for _, _, w in ok) / n
    out["perturbation.slot_data_per_sample"] = (
        lm["counts"]["perturbation.slot_data_calls"] / samples if samples
        else 0.0)
    traced_s = statistics.median(a.wall for a, _, _ in ok)
    out["trace.op_s"] = traced_s
    traced_rel = median_ratio([a for a, _, _ in ok])
    out["trace.overhead_frac"] = (traced_rel / plain - 1.0
                                  if plain and traced_rel else None)
    out["trace.layer_cover_frac"] = lm["self_sum"] / wall
    out["trace.spans_per_op"] = sum(hi - lo for _, (lo, hi), _ in ok) / n
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# one workload

def _passthrough(caught, lo):
    return sum("pass-through" in str(w.message) for w in caught[lo:])


def run_workload(name, seed, seconds, trace):
    import numpy
    import scipy
    import scipy.fft

    import bqci
    import workloads

    if not os.path.abspath(bqci.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"bqci imported from {bqci.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name]()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "os_cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "scipy_fft_workers": scipy.fft.get_workers(),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, one caller, one process",
        "phases": {
            "setup": (f"{IMPORT_TRIALS} imports of bqci in fresh interpreters "
                      f"and {SETUP_TRIALS} builds of the start state; "
                      "setup_s is the sum of the two medians"),
            "warmup": ("the setup phase: imports, and for desk_step the "
                       "start-state builds, then one uncounted calibration; "
                       "no operation runs untimed"),
            "timed": (f"operations back to back while the next was expected "
                      f"to end within {seconds} s, each between two "
                      "calibrations; op_per_calib and op_s are medians over "
                      "checked ones"),
        },
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        imports = time_imports(IMPORT_TRIALS)
        builds = []
        for _ in range(SETUP_TRIALS):
            t0 = time.perf_counter()
            start = wl.setup()
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)
        calibrator = Calibrator()
        calibrator()
        if not trace:
            attempts = closed_loop(
                lambda: attempt(wl, start, calibrator=calibrator), seconds)
        else:
            # the first operation of a run tends to be the slowest; leaving
            # it out keeps it from biasing the traced/untraced comparison
            warm = attempt(wl, start)
            record["phases"]["warmup"] = (
                "1 untraced operation, not counted: "
                + ("passed" if warm.error is None else warm.error))
            record["phases"]["timed"] = (
                "untraced and traced operations alternating, each between two "
                f"calibrations, while the next was expected to end within "
                f"{seconds} s; per-layer figures are per checked traced one")
            tracer = Tracer()
            traced, plain = [], []

            def step():
                if len(plain) > len(traced):
                    lo, w0 = len(tracer.spans), len(caught)
                    a = attempt(wl, start, tracer, calibrator)
                    traced.append((a, (lo, len(tracer.spans)),
                                   _passthrough(caught, w0)))
                else:
                    a = attempt(wl, start, calibrator=calibrator)
                    plain.append(a)
                return a

            attempts = closed_loop(step, seconds, min_ops=2)
        n_warnings = len(caught)
    summary = summarize(attempts, peak_rss_mb())
    correct = summary["failed"] == 0
    record.update({
        "setup": {"import_s": imports, "start_state_s": builds},
        "op_walls_s": [a.wall for a in attempts],
        "op_calib_s": [a.calib for a in attempts],
        "failures": summary["failures"],
        "warnings_captured": n_warnings,
    })

    print(f"# bqci benchmark  workload={name} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print(f"setup_s = {setup_s:.4f} s  (imports {statistics.median(imports):.4f}"
          f" s, median of {IMPORT_TRIALS}; start state "
          f"{statistics.median(builds):.4f} s, median of {SETUP_TRIALS})")
    alias = ALIASES[name]
    if name == "desk_step":
        print(f"{alias} = {summary['points_per_s']:.6g} points/s")
    else:
        print(f"{alias} = {summary['op_s']} s")
    n_ok = summary["attempted"] - summary["failed"]
    print(f"op_s = {summary['op_s']} s  (median of {n_ok} checked operations)")
    print(f"op_per_calib = {summary['op_per_calib']} ratio  (median of "
          f"{n_ok}; wall time over the calibration time around it)")
    print(f"peak_rss_mb = {summary['peak_rss_mb']} MB")
    print(f"failed_frac = {summary['failed_frac']:.4g}  "
          f"({summary['failed']} of {summary['attempted']})")
    for error, count in summary["failures"].items():
        print(f"failure x{count}: {error}")

    if trace:
        values = trace_metrics(traced, plain, tracer.spans)
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in values.items()}
        for k, m in metrics.items():
            print(f"{k} = {m['value']} {m['unit']}")
    else:
        values = {"setup_s": setup_s, "op_per_calib": summary["op_per_calib"],
                  "peak_rss_mb": summary["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
    print("run_record = " + json.dumps(record, sort_keys=True))
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# every workload, one process each

def run_all(seed, seconds, trace):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print(f"# {name}: exited with code {proc.returncode} and no result")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bqci", "__init__.py")):
        print(f"error: no bqci sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    pin_threads(os.environ)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        sys.path.insert(0, SRC)
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
