"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench)."""

import json
import math
import os
import sys

import numpy as np
import pytest

import calibration
import run
import tracing
from tracing import Span

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402  (needs bqci on the path)


# ---------------------------------------------------------------------------
# self time

def test_self_time_of_a_nest_of_spans():
    spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 5.0, 9.0, 0, 0),
        Span("e", 11.0, 12.0, -1, 0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0,
                                         4: 1.0}
    # a range is attributed on its own
    assert tracing.self_times(spans, 1, 3) == {1: 2.0, 2: 1.0}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("p", 0.0, 10.0, -1, 0),
        Span("x", 1.0, 4.0, 0, 0),
        Span("y", 3.0, 6.0, 0, 0),   # overlaps x: covered once
        Span("z", 8.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_helpers_take_the_bucket_of_a_caller_in_the_same_layer():
    spans = [
        Span("diagnostics.richardson_floor", 0, 4, -1, 0),
        Span("diagnostics.system_residual", 1, 2, 0, 0),
        Span("torus_field.gradient", 1.2, 1.5, 1, 0),
        Span("torus_field.sfft.rfftn", 1.3, 1.4, 2, 0),
        Span("diagnostics.system_residual", 5, 6, -1, 0),
        Span("torus_field.mollify", 7, 9, -1, 0),
        Span("torus_field.fft3", 7.5, 8, 5, 0),
    ]
    assert list(tracing.buckets(spans).values()) == [
        "diagnostics.richardson_s", "diagnostics.richardson_s",
        "torus_field.self_s", "torus_field.fft_s", "diagnostics.self_s",
        "torus_field.mollify_s", "torus_field.mollify_s",
    ]


# ---------------------------------------------------------------------------
# failure accounting

class _Raises:
    def prepare(self, start):
        return start

    def run(self, inp):
        raise ValueError("too many values to unpack (expected 5)")

    def check(self, out):
        return []


class _FailsCheck(_Raises):
    def run(self, inp):
        return {"slope": 0.0}

    def check(self, out):
        return ["mu_slope"]


def test_a_raising_operation_is_a_failure_with_null_time_and_memory():
    attempts = run.closed_loop(lambda: run.attempt(_Raises(), None), 0.0,
                               min_ops=3)
    s = run.summarize(attempts, rss_mb=123.0)
    assert (s["attempted"], s["failed"], s["failed_frac"]) == (3, 3, 1.0)
    assert s["op_s"] is None and s["peak_rss_mb"] is None
    assert s["op_per_calib"] is None
    assert s["points_per_s"] == 0.0
    assert s["failures"] == {
        "ValueError: too many values to unpack (expected 5)": 3}


def test_a_failed_check_is_a_failure_that_names_the_check():
    a = run.attempt(_FailsCheck(), None)
    assert a.error == "check failed: mu_slope" and a.points == 0
    s = run.summarize([a, a._replace(error=None, points=10)], rss_mb=1.0)
    assert s["failed"] == 1 and s["op_s"] == a.wall
    assert s["peak_rss_mb"] == 1.0


# ---------------------------------------------------------------------------
# calibration and the loop

def test_op_per_calib_is_the_median_ratio_over_checked_operations():
    ok = [run.Attempt(wall, None, 0, calib)
          for wall, calib in ((6.0, 0.2), (3.0, 0.2), (5.0, 0.1))]
    failed = run.Attempt(1.0, "check failed: x", 0, 1.0)
    s = run.summarize(ok + [failed], rss_mb=1.0)
    assert s["op_per_calib"] == pytest.approx(30.0)
    assert s["op_s"] == 5.0
    assert run.summarize([ok[0]._replace(calib=None)], 1.0)["op_per_calib"] \
        is None


def test_an_attempt_is_timed_between_two_calibrations():
    times = iter((0.2, 0.4))
    a = run.attempt(_FailsCheck(), None, calibrator=lambda: next(times))
    assert a.calib == pytest.approx(0.3)
    assert next(times, None) is None


def test_the_loop_starts_no_operation_expected_to_end_past_the_deadline(
        monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def step():
        clock[0] += 10.0
        return clock[0]

    assert run.closed_loop(step, 25.0) == [10.0, 20.0]
    clock[0] = 0.0
    assert run.closed_loop(step, 5.0, min_ops=2) == [10.0, 20.0]


def test_the_calibration_kernel_takes_time_and_keeps_its_arrays():
    cal = calibration.Calibrator()
    stream = cal._stream
    assert cal() > 0 and cal._stream is stream
    assert stream.nbytes == calibration.STREAM_MIB * 2**20


# ---------------------------------------------------------------------------
# tracer installation

def _namespaces():
    mods = {m: __import__(f"bqci.{m}", fromlist=["_"]) for m in tracing.MODULES}
    out = list(mods.values())
    for m, names in tracing.CLASSES.items():
        out.extend(vars(mods[m])[c] for c in names)
    return out


def test_tracer_records_spans_and_restores_every_attribute():
    from bqci import iteration as it
    from bqci import torus_field as tf

    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    run_substep = it.run_substep
    grid = tf.Grid3(8, 8, 8)
    f = np.sin(grid.meshes()[0])
    with tracing.Tracer() as tracer:
        # names bound by `from .stress_update import run_substep` are wrapped
        assert it.run_substep.__wrapped__ is run_substep
        tf.gradient(f, grid)
    names = [s.name for s in tracer.spans]
    assert names == ["torus_field.gradient", "torus_field.sfft.rfftn"] + [
        "torus_field.sfft.irfftn"] * 3
    lm = tracing.layer_metrics(tracer.spans, [(0, len(tracer.spans))])
    assert lm["counts"]["torus_field.rfft_calls"] == 4
    assert lm["fft_bytes"] == sum(s.size for s in tracer.spans[1:]) > 0
    for ns, attrs in before:
        now = vars(ns)
        assert set(now) == set(attrs)
        for key, val in attrs.items():
            assert now[key] is val, (ns, key)


# ---------------------------------------------------------------------------
# correctness checkers

SCALING_OK = {"lambda_slopes": {"oscillation": -0.89, "transport": -0.98},
              "mu_slope": -1.07, "mollification_slope": 1.14}
REF_OK = {"residual": 5.6e-15, "violations": [], "richardson_passed": True,
          "richardson_ratio": 2e-13}
DESK_SUB = {"cancel_r1": 1e-15, "cancel_r2": 0.0, "wave_div_rel": 1e-12,
            "richardson_passed": True, "richardson_ratio": 1.5}


@pytest.mark.parametrize("change, failed", [
    ({}, []),
    ({"mu_slope": -0.5}, ["mu_slope"]),
    ({"mollification_slope": 1.31}, ["mollification_slope"]),
    ({"lambda_slopes": {"oscillation": -0.79, "transport": -0.98}},
     ["lambda_slope[oscillation]"]),
    ({"lambda_slopes": {"oscillation": math.nan, "transport": -0.98}},
     ["lambda_slope[oscillation]"]),
])
def test_scaling_checker_holds_criterion_10_windows(change, failed):
    assert workloads.Scaling.check({**SCALING_OK, **change}) == failed


@pytest.mark.parametrize("change, failed", [
    ({}, []),
    ({"residual": 2e-6}, ["residual<=1e-6"]),
    ({"residual": math.inf}, ["residual<=1e-6"]),
    ({"violations": ["block coefficients exceed 5 kappa"]},
     ["begin_step_violations"]),
    ({"richardson_passed": False}, ["richardson_passed"]),
])
def test_ref_start_checker(change, failed):
    assert workloads.RefStart.check({**REF_OK, **change}) == failed


@pytest.mark.parametrize("change, failed", [
    ({}, []),
    ({"cancel_r1": 1e-10}, ["cancel_r1<=1e-10*kappa"]),
    ({"cancel_r2": 3e-11}, ["cancel_r2<=1e-10*kappa"]),
    ({"wave_div_rel": 2e-8}, ["wave_div_rel<=1e-8"]),
    ({"richardson_passed": False}, ["richardson_passed"]),
])
def test_desk_step_checker(change, failed):
    subs = [dict(DESK_SUB) for _ in range(6)]
    subs[3].update(change)
    assert workloads.DeskStep.check({"substeps": subs}) == failed


# ---------------------------------------------------------------------------
# BENCHMARK.json

def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"][:2] == ["python3", "perfbench/run.py"]
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert listed == table
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_thread_pinning_caps_at_nproc():
    env = {"OMP_NUM_THREADS": "64", "MKL_NUM_THREADS": "x"}
    pinned = run.pin_threads(env)
    n = str(run.nproc())
    assert pinned["OMP_NUM_THREADS"] == n and pinned["MKL_NUM_THREADS"] == n
    assert set(pinned) == set(run.THREAD_VARS)
