"""Span tracer for the traced benchmark run.

Spans are recorded from outside the program: the tracer replaces public
functions at the names through which ``pulsechain.pipeline``,
``pulsechain.atom`` and the benchmark call them, plus the ``numpy.fft``
transforms, with wrappers that time each call.  Nothing inside the package
changes, and the wrappers exist only in a process that called ``install``.

Each span is (name, start, end, parent, op, failed).  A span's name is
``<module>.<function>``; its layer is the module.  All ``numpy.fft``
transforms share the name ``waveform.fft``, because the waveform module owns
the DFT.  A span's self time is its duration minus that of its child spans,
so self times add up to the traced op time without double counting.
"""

import functools
import json
import os
import time
import types
import warnings
import weakref
from collections import Counter

import numpy as np

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2",
              "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# package modules, i.e. the layers; pipeline's self time is reported apart
LAYERS = ("envelope", "rfchain", "eom", "etalon", "detector", "atom",
          "waveform", "config")


class Tracer:
    """Records spans and per-call counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._orders = []       # weak refs to sideband orders not yet used
        self._restore = []
        self._hooks = {
            "eom.decompose_sidebands": self._on_decompose,
            "atom.excite": self._on_excite,
            "waveform.write_trace": self._on_trace_file("write"),
            "waveform.read_trace": self._on_trace_file("read"),
            "waveform.fft": self._on_fft,
        }

    # -- installation ------------------------------------------------------

    def install(self, pipeline, atom, errors):
        """Wrap the call sites; ``uninstall`` puts the originals back."""
        for mod in (pipeline, atom):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("pulsechain.")):
                    continue
                layer = fn.__module__.rsplit(".", 1)[1]
                self._patch(mod, attr, f"{layer}.{fn.__name__}")
        for attr in _FFT_NAMES:
            if hasattr(np.fft, attr):
                self._patch(np.fft, attr, "waveform.fft")
        # count every leakage warning, not only the first per call site
        self._warn_filters = warnings.filters[:]
        self._showwarning = warnings.showwarning
        warnings.simplefilter("always", errors.LeakageWarning)
        leakage = errors.LeakageWarning

        def show(message, category, *args, **kwargs):
            if issubclass(category, leakage):
                self.counts["etalon.leakage_warnings"] += 1
            else:
                self._showwarning(message, category, *args, **kwargs)

        warnings.showwarning = show

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        warnings.filters[:] = self._warn_filters
        warnings.showwarning = self._showwarning

    def _patch(self, mod, attr, name):
        fn = getattr(mod, attr)
        self._restore.append((mod, attr, fn))
        setattr(mod, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._orders:
                self._mark_used(args)
            return self._call(name, fn, args, kwargs, hook)

        return traced

    def _call(self, name, fn, args, kwargs, hook=None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        failed = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self._op, failed)
        if hook is not None:
            hook(args, kwargs, out)
        return out

    def op(self, op_id, fn, *args):
        """Run one benchmark op as the root span ``op``."""
        self._op = op_id
        try:
            return self._call("op", fn, args, {})
        finally:
            self._orders.clear()

    # -- counters ----------------------------------------------------------

    def _on_decompose(self, args, kwargs, out):
        self.counts["eom.orders_computed"] += len(out)
        self._orders.extend(weakref.ref(w) for _, w in out)

    def _mark_used(self, args):
        # an order counts as kept once it reaches another traced call
        for a in args:
            for i, ref in enumerate(self._orders):
                if ref() is a:
                    self.counts["eom.orders_used"] += 1
                    del self._orders[i]
                    break

    def _on_excite(self, args, kwargs, out):
        n = len(args[0].samples) if args else len(kwargs["pulse_mode"].samples)
        self.counts["atom.excite.steps"] += (n - 1) // 2   # 2*dt RK4 steps

    def _on_trace_file(self, kind):
        def hook(args, kwargs, out):
            path = args[0] if args else kwargs["path"]
            self.counts[f"waveform.{kind}_trace.bytes"] += os.path.getsize(path)
        return hook

    def _on_fft(self, args, kwargs, out):
        a = args[0] if args else kwargs["a"]
        self.counts["waveform.fft.points"] += int(np.size(a))
        # computed bytes: the input read once plus the output written once
        self.counts["waveform.fft.bytes_computed"] += (
            getattr(a, "nbytes", 0) + out.nbytes)

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops):
        """Per-op layer metrics from the recorded spans and counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_by_name = Counter()
        self_by_layer = Counter()
        calls = Counter()
        failed = Counter()
        op_time = 0.0
        for i, (name, t0, t1, _, _, bad) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            self_by_name[name] += own
            self_by_layer[name.split(".", 1)[0]] += own
            calls[name] += 1
            failed[name] += bad
            if name == "op":
                op_time += t1 - t0
        c = self.counts
        fits = calls["waveform.fit_exponential"]
        orders = c["eom.orders_computed"]
        totals = {
            "eom.decompose_sidebands.time_s": self_by_name["eom.decompose_sidebands"],
            "eom.phase_modulate.time_s": self_by_name["eom.phase_modulate"],
            "etalon.filter_pulse.time_s": self_by_name["etalon.filter_pulse"],
            "detector.detect.time_s": self_by_name["detector.detect"],
            "atom.excite.time_s": self_by_name["atom.excite"],
            "waveform.fft.time_s": self_by_name["waveform.fft"],
            "waveform.analytic_envelope.time_s":
                self_by_name["waveform.analytic_envelope"],
            "waveform.fit_exponential.time_s":
                self_by_name["waveform.fit_exponential"],
            "waveform.write_trace.time_s": self_by_name["waveform.write_trace"],
            "waveform.read_trace.time_s": self_by_name["waveform.read_trace"],
            "pipeline.self_s": self_by_layer["pipeline"],
            "waveform.fft.calls": calls["waveform.fft"],
            "waveform.fit_exponential.calls": fits,
            "atom.excite.steps": c["atom.excite.steps"],
            "eom.orders_computed": orders,
            "etalon.leakage_warnings": c["etalon.leakage_warnings"],
        }
        for key in ("waveform.fft.points", "waveform.fft.bytes_computed",
                    "waveform.write_trace.bytes", "waveform.read_trace.bytes"):
            totals[key] = c[key]
        for layer in LAYERS:
            totals[f"{layer}.time_s"] = self_by_layer[layer]
        out = {k: v / n_ops for k, v in totals.items()}
        out["waveform.fit_exponential.rejected_ratio"] = (
            failed["waveform.fit_exponential"] / fits if fits else 0.0)
        # 1 when no order is computed: nothing is wasted
        out["eom.order_use_ratio"] = c["eom.orders_used"] / orders if orders else 1.0
        out["trace.named_layer_frac"] = (
            sum(self_by_layer[layer] for layer in LAYERS) / op_time
            if op_time > 0 else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "failed": failed}) + "\n")
