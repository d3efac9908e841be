"""Span tracing of lrmimo from outside the package, and the per-layer metrics.

`instrument` replaces every public function of the layer modules with a
span-recording wrapper at each of its call sites: every module attribute in
the `lrmimo` package that is bound to the function, so names imported into
other modules (`from .linalg import qr_decompose`) are wrapped too.  Spans are
kept in memory as [name, start, end, parent, trial, info] and analysed or
written out when the run ends.  A layer's self time is its span duration minus
the time covered by its child spans.

Three per-element helpers stay unwrapped: `linalg.as_matrix`,
`linalg.as_vector` and `reduction.round_gaussian`.  They are called per
argument or per scalar (thousands of times per trial), so spans around them
would cost more than the work they measure; their time is part of the self
time of their callers.
"""

import contextlib
import csv
import functools
import importlib
import statistics
import sys
import time
import types

import numpy as np

LAYERS = ("sim", "reduction", "linalg", "switched", "modem", "detectors")
UNWRAPPED = {"linalg.as_matrix", "linalg.as_vector", "reduction.round_gaussian"}

# fields of a span record
NAME, START, END, PARENT, TRIAL, INFO = range(6)


def _clll_info(args, kwargs, out):
    return out.iteration_count


def _unmap_info(args, kwargs, out):
    return int(np.size(args[0]))


def _lr_info(args, kwargs, out):
    """Selection facts of the KlrResult handed to lr_detect_batch."""
    klr = args[2]
    if not klr.candidate_odfs:  # plain CLLL, no switched selection
        return None
    identity = tuple(klr.perm) == tuple(range(len(klr.perm)))
    return (
        klr.extended,
        klr.odf_baseline,
        len(klr.candidate_odfs),
        not identity,
        klr.odf_selected / klr.odf_baseline,
    )


_INFO = {
    "reduction.clll_reduce": _clll_info,
    "modem.unmap_symbols": _unmap_info,
    "detectors.lr_detect_batch": _lr_info,
}


class Tracer:
    """In-memory span recorder shared by all wrappers of one run."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)
        starts_trial = name == "sim.gen_channel"

        def traced(*args, **kwargs):
            if starts_trial:
                self.trial += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "trial"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[TRIAL]])


def public_functions() -> dict:
    """{'layer.func': function} for every wrapped public function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lrmimo.{layer}")
        for attr, val in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                isinstance(val, types.FunctionType)
                and not attr.startswith("_")
                and val.__module__ == mod.__name__
                and name not in UNWRAPPED
            ):
                out[name] = val
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Bind span-recording wrappers at every call site; restore on exit."""
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in public_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "lrmimo" or modname.startswith("lrmimo.")):
            continue
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    try:
        yield patched
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)


# --- analysis ------------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def analyse(spans) -> tuple[dict, list]:
    """Per-layer metrics {name: (value, unit)} and a per-function table.

    The table rows are [name, calls, inclusive_s, self_s], busiest first.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans])
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    child_sum = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_time = dur - child_sum
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return float(dur[idx(name)].sum())

    in_clll = np.zeros(n, dtype=bool)  # span has a clll_reduce ancestor
    for i, s in enumerate(spans):
        p = s[PARENT]
        in_clll[i] = p >= 0 and (spans[p][NAME] == "reduction.clll_reduce" or in_clll[p])

    # a trial runs from one gen_channel call to the next, the last to sweep end
    sweeps = idx("sim.run_sweep")
    trial_starts = {sw: [] for sw in sweeps}
    for i in idx("sim.gen_channel"):
        if parent[i] in trial_starts:
            trial_starts[parent[i]].append(spans[i][START])
    trial_ms = []
    for sw, starts in trial_starts.items():
        ends = starts[1:] + [spans[sw][END]]
        trial_ms.extend(1e3 * (e - b) for b, e in zip(starts, ends))

    clll = idx("reduction.clll_reduce")
    clll_us = 1e6 * dur[clll]
    iters = [spans[i][INFO] for i in clll]
    qr = idx("linalg.qr_decompose")

    # switched selections, one per distinct (trial, flavour, baseline, k)
    sels = {}
    for i in idx("detectors.lr_detect_batch"):
        info = spans[i][INFO]
        if info is not None:
            extended, base_odf, k, replaced, ratio = info
            sels[(spans[i][TRIAL], extended, base_odf, k)] = (replaced, ratio)
    # the candidates of every k are prefixes of one list: count the longest
    longest = {}
    for trial, extended, base_odf, k in sels:
        key = (trial, extended, base_odf)
        longest[key] = max(longest.get(key, 0), k)
    candidates = sum(longest.values())
    replaced = sum(r for r, _ in sels.values())

    unmap = idx("modem.unmap_symbols")
    unmap_s = float(dur[unmap].sum())
    symbols = sum(spans[i][INFO] for i in unmap)

    sweep_s = float(dur[sweeps].sum())
    sweep_self = float(self_time[sweeps].sum())
    conventional_zf = [i for i in idx("linalg.pseudoinverse") if parent[i] in trial_starts]
    linear_s = float(dur[conventional_zf].sum()) + total("detectors.mmse_filter_direct")

    metrics = {
        "sim.trials": (len(trial_ms), "count"),
        "sim.trial_ms_p50": (_pct(trial_ms, 50), "ms"),
        "sim.trial_ms_p99": (_pct(trial_ms, 99), "ms"),
        "sim.self_s": (sweep_self, "s"),
        "sim.run_sweep_s": (sweep_s, "s"),
        "reduction.clll_calls": (len(clll), "count"),
        "reduction.clll_s": (float(dur[clll].sum()), "s"),
        "reduction.clll_us_p50": (_pct(clll_us, 50), "us"),
        "reduction.clll_us_p99": (_pct(clll_us, 99), "us"),
        "reduction.clll_iters_mean": (statistics.fmean(iters) if iters else 0.0, "iters"),
        "reduction.clll_iters_p99": (_pct(iters, 99), "iters"),
        "reduction.odf_s": (total("reduction.odf"), "s"),
        "linalg.qr_calls": (len(qr), "count"),
        "linalg.qr_s": (float(dur[qr].sum()), "s"),
        "linalg.qr_per_clll": (_ratio(int(in_clll[qr].sum()), len(clll)), "ratio"),
        "linalg.pinv_s": (total("linalg.pseudoinverse"), "s"),
        "switched.candidates_reduced": (candidates, "count"),
        "switched.replace_rate": (_ratio(replaced, len(sels)), "ratio"),
        "switched.useful_frac": (_ratio(replaced, candidates), "ratio"),
        "switched.odf_ratio_p50": (_pct([r for _, r in sels.values()], 50), "ratio"),
        "switched.sample_s": (total("switched.sample_permutations"), "s"),
        "modem.map_s": (total("modem.map_bits"), "s"),
        "modem.unmap_s": (unmap_s, "s"),
        "modem.unmap_symbols_per_s": (_ratio(symbols, unmap_s), "1/s"),
        "detectors.lr_calls": (len(idx("detectors.lr_detect_batch")), "count"),
        "detectors.lr_s": (total("detectors.lr_detect_batch"), "s"),
        "detectors.sic_s": (total("detectors.sic_detect_batch"), "s"),
        "detectors.quantize_s": (total("detectors.shift_scale_quantize"), "s"),
        "detectors.slice_s": (total("detectors.hard_slice"), "s"),
        "detectors.linear_s": (linear_s, "s"),
        "trace.spans": (n, "count"),
    }
    table = sorted(
        ([name, len(ii), float(dur[ii].sum()), float(self_time[ii].sum())]
         for name, ii in by_name.items()),
        key=lambda r: -r[3],
    )
    return metrics, table
