"""Span tracing of the bqci package, installed from the benchmark's side.

``Tracer.install()`` replaces, in every bqci module namespace that names
them,

- the public functions of each bqci module,
- ``__init__`` and the public methods of ``WaveEngine``,
  ``SubstepAssembler``, ``StepState`` and ``PartitionOfUnity``,
- the transforms ``bqci.torus_field`` reaches through its ``sfft`` name
  (the package's only ``scipy.fft`` entry point),

with wrappers that record one span per call: name, start, end, parent and a
size (bytes in plus bytes out for a transform, time samples for a wave
engine).  ``Tracer.remove()`` puts every original object back.  Untraced
runs install nothing, so they execute the program unmodified.

Spans are attributed to per-layer buckets by ``layer_metrics``; a layer's
self time is its spans' durations minus the part of each interval that
child spans cover.
"""

import fnmatch
import functools
import importlib
import inspect
import time
from collections import namedtuple

MODULES = ("algebra", "torus_field", "inverse_div", "partition",
           "perturbation", "stress_update", "iteration", "diagnostics", "cli")
CLASSES = {
    "perturbation": ("WaveEngine",),
    "stress_update": ("SubstepAssembler", "StepState"),
    "partition": ("PartitionOfUnity",),
}
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn")

Span = namedtuple("Span", "name start end parent size")


def _fft_bytes(args, out):
    return args[0].nbytes + out.nbytes


def _engine_samples(args, out):
    return args[0].tgrid.nt


class _Namespace:
    """Stands in for a module: wrapped attributes first, the rest from it."""

    def __init__(self, module, attrs):
        self._module = module
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans of bqci calls while installed (a context manager)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out, done = None, False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = clock()
                stack.pop()
                n = size(args, out) if size is not None and done else 0
                spans[idx] = Span(name, start, end, parent, n)

        return traced

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"bqci.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{short}.{attr}", val)
            for cname in CLASSES.get(short, ()):
                cls = vars(mod)[cname]
                for attr, val in list(vars(cls).items()):
                    if inspect.isfunction(val) and (
                            attr == "__init__" or not attr.startswith("_")):
                        size = (_engine_samples if (cname, attr)
                                == ("WaveEngine", "__init__") else None)
                        self._patch(cls, attr, self._wrap(
                            f"{short}.{cname}.{attr}", val, size))
        # every namespace naming a wrapped function: covers `from .x import f`
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        tfm = mods["torus_field"]
        sfft = tfm.sfft
        self._patch(tfm, "sfft", _Namespace(sfft, {
            f: self._wrap(f"torus_field.sfft.{f}", getattr(sfft, f), _fft_bytes)
            for f in FFT_FUNCTIONS}))
        return self

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# attribution

def self_times(spans, lo=0, hi=None):
    """Self time of each span in spans[lo:hi]: its duration minus the union of
    its children's intervals (clipped to its own)."""
    hi = len(spans) if hi is None else hi
    children = {}
    for i in range(lo, hi):
        children.setdefault(spans[i].parent, []).append(i)
    out = {}
    for i in range(lo, hi):
        s = spans[i]
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            a, b = max(spans[c].start, reach), min(spans[c].end, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[i] = (s.end - s.start) - covered
    return out


# (span name pattern, bucket); first match wins.  A span without a bucket of
# its own takes its parent's when the parent is in the same layer (so
# `system_residual` under `richardson_floor` counts as Richardson time);
# otherwise it lands in `<layer>.self_s`.
BUCKETS = (
    ("torus_field.sfft.*", "torus_field.fft_s"),
    ("torus_field.mollif*", "torus_field.mollify_s"),
    ("torus_field.time_derivative*", "torus_field.time_derivative_s"),
    ("perturbation.WaveEngine.__init__", "perturbation.engine_init_s"),
    ("perturbation.WaveEngine.slot_data", "perturbation.gather_s"),
    ("perturbation.WaveEngine.base_fields", "perturbation.gather_s"),
    ("perturbation.WaveEngine.amplitude_time_derivative",
     "perturbation.gather_s"),
    ("perturbation.WaveEngine.class_*", "perturbation.amps_s"),
    ("perturbation.WaveEngine.dt_*", "perturbation.amps_s"),
    ("perturbation.WaveEngine.dzz_*", "perturbation.amps_s"),
    ("perturbation.WaveEngine.*transport_*", "perturbation.amps_s"),
    ("perturbation.WaveEngine.shifted_gradient",
     "perturbation.shifted_gradient_s"),
    ("perturbation.WaveEngine.assemble", "perturbation.assemble_s"),
    ("stress_update.SubstepAssembler.delta_R_slice", "stress_update.delta_R_s"),
    ("stress_update.SubstepAssembler.delta_f_slice", "stress_update.delta_f_s"),
    ("stress_update.SubstepAssembler.r_div_M", "stress_update.oscillation_s"),
    ("stress_update.SubstepAssembler.g_div_K", "stress_update.oscillation_s"),
    ("stress_update.SubstepAssembler.transport_*", "stress_update.transport_s"),
    ("stress_update.SubstepAssembler.N_field", "stress_update.N_s"),
    ("stress_update.run_substep", "stress_update.accumulate_s"),
    ("partition.PartitionOfUnity.corner_alphas", "partition.corner_alphas_s"),
    ("algebra.decompose_*", "algebra.decompose_s"),
    ("iteration.initial_state", "iteration.initial_state_s"),
    ("iteration.begin_step", "iteration.begin_step_s"),
    ("diagnostics.richardson_floor", "diagnostics.richardson_s"),
    ("diagnostics.normalized_residuals", "diagnostics.residuals_s"),
)

# name -> counted span names
COUNTS = {
    "torus_field.cfft_calls": ("torus_field.sfft.fftn", "torus_field.sfft.ifftn"),
    "torus_field.rfft_calls": ("torus_field.sfft.rfftn",
                               "torus_field.sfft.irfftn"),
    "perturbation.slot_data_calls": ("perturbation.WaveEngine.slot_data",),
    "perturbation.assemble_calls": ("perturbation.WaveEngine.assemble",),
    "partition.corner_alphas_calls": (
        "partition.PartitionOfUnity.corner_alphas",),
}


def _own_bucket(name):
    for pattern, bucket in BUCKETS:
        if fnmatch.fnmatchcase(name, pattern):
            return bucket
    return None


def buckets(spans, lo=0, hi=None):
    """Bucket name of each span in spans[lo:hi]."""
    hi = len(spans) if hi is None else hi
    out = {}
    for i in range(lo, hi):
        s = spans[i]
        layer = s.name.split(".", 1)[0]
        bucket = _own_bucket(s.name)
        if bucket is None:
            parent = out.get(s.parent)
            if parent is not None and parent.split(".", 1)[0] == layer:
                bucket = parent
            else:
                bucket = f"{layer}.self_s"
        out[i] = bucket
    return out


def layer_metrics(spans, ranges):
    """Per-layer totals over the spans of each (lo, hi) range: seconds per
    bucket, span counts per COUNTS entry, transform bytes and engine time
    samples.  Also returns the summed self time of all spans."""
    totals = {}
    counts = dict.fromkeys(COUNTS, 0)
    fft_bytes = samples = 0
    self_sum = 0.0
    for lo, hi in ranges:
        own = self_times(spans, lo, hi)
        for i, bucket in buckets(spans, lo, hi).items():
            totals[bucket] = totals.get(bucket, 0.0) + own[i]
            self_sum += own[i]
            name = spans[i].name
            for key, names in COUNTS.items():
                if name in names:
                    counts[key] += 1
            if name.startswith("torus_field.sfft."):
                fft_bytes += spans[i].size
            elif name == "perturbation.WaveEngine.__init__":
                samples += spans[i].size
    return {"seconds": totals, "counts": counts, "fft_bytes": fft_bytes,
            "engine_samples": samples, "self_sum": self_sum}
