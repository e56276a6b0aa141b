"""Spans and counters around the public functions of each swiptlab layer.

The tracer rebinds each traced function everywhere a swiptlab module holds
it: module globals (``cli`` and ``figures`` import by name), dicts in module
globals (``modulation._SER_BY_FAMILY``) and, for methods, the class.  It
records the original of every rebinding and ``restore`` puts each one back.

A span's self time is its duration minus the time of the spans it encloses.
A span whose innermost enclosing span has the same group (``cnl_upper``
calling ``c1_upper_optimized``) is not recorded again, so group totals never
count the same interval twice.  Hot scalar helpers get counters only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# layers with spans; core has counters only, so its time is its callers' self time
SPAN_LAYERS = ("cli", "figures", "capacity", "regions", "modulation", "simkit")
WRAPPER_MARK = "__perfbench_wrapper__"


def _boundary_points(tr, result, args, kwargs):
    tr.counts["regions.boundary_points"] += len(result.points)


def _mi_samples(tr, result, args, kwargs):
    tr.counts["capacity.mi_samples"] += result.n_samples


def _symbols(tr, result, args, kwargs):
    tr.counts["simkit.symbols"] += result.n_symbols


def _rectifier_bytes(tr, result, args, kwargs):
    # float64 arrays of the waveform path, from their sizes: y, i(t) and the
    # filtered record (n samples each), the spectrum and its filtered copy
    # (complex, n/2+1 bins each) and the frequency grid (n/2+1 bins)
    _symbols(tr, result, args, kwargs)
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    n = cfg.n_symbols * int(round(cfg.carrier_hz / cfg.bandwidth_hz)) * cfg.oversampling
    bins = n // 2 + 1
    tr.counts["simkit.rectifier.bytes_computed"] += 3 * 8 * n + 2 * 16 * bins + 8 * bins


def _bytes_written(tr, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tr.counts["cli.bytes_written"] += os.path.getsize(path)


# (module, attribute, layer, group, on_return); the group names a span total
SPANS = (
    ("cli", "main", "cli", "cli.main", None),
    ("cli", "write_csv", "cli", "cli.write", _bytes_written),
    ("cli", "write_json", "cli", "cli.write", _bytes_written),
    ("figures", "build_figure", "figures", "figures.build_figure", None),
    ("capacity", "cnl_lower_chi2", "capacity", "capacity.cnl_lower_chi2", _mi_samples),
    ("capacity", "cnl_upper", "capacity", "capacity.upper_bound", None),
    ("capacity", "c1_upper_optimized", "capacity", "capacity.upper_bound", None),
    ("capacity", "c2_upper", "capacity", "capacity.upper_bound", None),
    ("regions", "solve_p0", "regions", "regions.solve_p0", None),
    *(("regions", name, "regions", "regions.boundary", _boundary_points)
      for name in ("region_ts", "region_sps", "region_sep_circuit", "region_ts_circuit",
                   "region_sps_circuit", "region_int_ideal", "region_int_adc",
                   "region_int_circuit")),
    ("modulation", "solve_p1", "modulation", "modulation.solve_p1", None),
    ("modulation", "solve_p2", "modulation", "modulation.solve_p2", None),
    ("modulation", "link_budget_to_params", "modulation", "modulation.link_budget", None),
    ("simkit", "simulate_qam_separated", "simkit", "simkit.qam", _symbols),
    ("simkit", "simulate_pem_integrated", "simkit", "simkit.pem", _symbols),
    ("simkit", "simulate_rectifier_waveform", "simkit", "simkit.rectifier", _rectifier_bytes),
)

# (module, attribute or Class.method, counter name)
COUNTERS = (
    ("regions", "RsCoefficients.rate_deriv", "regions.rate_deriv.calls"),
    ("modulation", "max_modulation", "modulation.max_modulation.calls"),
    ("modulation", "ser_qam", "modulation.ser_evals"),
    ("modulation", "ser_pem", "modulation.ser_evals"),
    ("core", "split_snr", "core.split_snr.calls"),
    ("core", "q_function", "core.q_function.calls"),
)


class _Frame:
    __slots__ = ("group", "child")

    def __init__(self, group):
        self.group = group
        self.child = 0.0


class Tracer:
    """Accumulates span totals, per-layer self time and counters in memory."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.totals = defaultdict(float)     # group -> seconds, outermost spans only
        self.self_time = defaultdict(float)  # layer -> seconds
        self.counts = defaultdict(float)
        self._rebound: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, fn, layer, group, on_return):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].group == group:
                return fn(*args, **kwargs)
            frame = _Frame(group)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer.self_time[layer] += duration - frame.child
                tracer.totals[group] += duration
                tracer.counts[f"{group}.calls"] += 1
                if stack:
                    stack[-1].child += duration
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- rebinding --------------------------------------------------------
    def _rebind(self, original, wrapper):
        for mod in swiptlab_modules():
            space = vars(mod)
            containers = [space] + [v for k, v in space.items()
                                    if isinstance(v, dict) and not k.startswith("__")]
            for container in containers:
                for key, value in list(container.items()):
                    if value is original:
                        self._rebound.append((container, key, original))
                        container[key] = wrapper

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer, group, on_return in SPANS:
            fn = getattr(importlib.import_module(f"swiptlab.{mod_name}"), attr)
            self._rebind(fn, self._span(fn, layer, group, on_return))
        for mod_name, attr, name in COUNTERS:
            mod = importlib.import_module(f"swiptlab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                self._rebound.append((cls, meth, fn))
                setattr(cls, meth, self._counter(fn, name))
            else:
                fn = getattr(mod, attr)
                self._rebind(fn, self._counter(fn, name))

    def restore(self):
        for container, key, original in reversed(self._rebound):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._rebound = []


def swiptlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "swiptlab" or name.startswith("swiptlab."))]


def leftover_wrappers() -> list[str]:
    """Names under which a tracer wrapper is still bound in a swiptlab module,
    one of its dicts or one of its classes; empty after a clean restore."""
    found = []
    for mod in swiptlab_modules():
        for key, value in vars(mod).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if getattr(v, WRAPPER_MARK, False)]
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, WRAPPER_MARK, False)]
    return found
