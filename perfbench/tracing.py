"""In-memory span tracer that wraps conewolff's public layer boundaries.

The program source is not touched: a traced pass swaps module attributes
(and two `Curve` methods) for recording proxies and restores them after.
Every call records a span (name, start, end, parent) in memory; counters
that need the arguments (FFT sizes, quadrature nodes, quad calls) are
recorded by the proxies.  `Tracer.summary()` folds one pass into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

import numpy as np

from conewolff import cli, cone_plates, curve_geometry, operator_lab
from conewolff import scale_induction, symbol_decomposition

MODULES = (curve_geometry, cone_plates, symbol_decomposition,
           scale_induction, operator_lab, cli)

# (module, attribute) -> span name; functions are replaced in every module
# namespace that imported them by name, so intra-package calls are seen too
TRACED_FUNCTIONS = (
    (curve_geometry, "frenet_frame"),
    (curve_geometry, "cone_coordinates"),
    (cone_plates, "make_family"),
    (symbol_decomposition, "mk_multiplier"),
    (symbol_decomposition, "decompose"),
    (symbol_decomposition, "vdc_decay_sweep"),
    (scale_induction, "support_census"),
    (scale_induction, "verify_umu_approximation"),
    (scale_induction, "critical_s"),
    (operator_lab, "lp_norm"),
    (operator_lab, "decoupling_ratio"),
    (operator_lab, "mu_hat"),
    (operator_lab, "maximal_operator"),
    (cli, "main"),
    (cli, "run"),
)
CURVE_METHODS = ("eval", "derivative")
FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft")
MK = "symbol_decomposition.mk_multiplier"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Records spans and counters for one traced pass at a time."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span: (name id, parent span index or -1, start, end)
        self.spans: list[tuple[int, int, float, float]] = []
        # [span index, name, start, child-span time, quadrature nodes]
        self._stack: list[list] = []
        self._active = defaultdict(int)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((nid, parent, 0.0, 0.0))
        self.calls[name] += 1
        self._active[name] += 1
        # the last slot holds quadrature nodes chosen inside a mu_hat call
        frame = [idx, name, time.perf_counter(), 0.0, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        idx, name, start, child, _ = frame
        self._stack.pop()
        dur = end - start
        nid, parent, _, _ = self.spans[idx]
        self.spans[idx] = (nid, parent, start, end)
        self.self_time[name] += dur - child
        self._active[name] -= 1
        if self._active[name] == 0:
            self.inclusive[name] += dur
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str, fn, *args, **kwargs):
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # -- patching -----------------------------------------------------------

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_item(self, mapping: dict, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr in TRACED_FUNCTIONS:
            orig = getattr(module, attr)
            wrapped = self._wrap_function(f"{_short(module)}.{attr}", orig)
            for mod in MODULES:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapped)
        for attr in CURVE_METHODS:
            orig = getattr(curve_geometry.Curve, attr)
            self._patch(curve_geometry.Curve, attr,
                        self._wrap_curve_method(f"curve_geometry.{attr}",
                                                orig))
        self._patch(operator_lab, "sfft", _FFTProxy(self, operator_lab.sfft))
        self._patch(operator_lab, "leggauss",
                    self._wrap_leggauss(operator_lab.leggauss))
        self._patch(symbol_decomposition, "quad",
                    self._wrap_quad(symbol_decomposition.quad))
        # the experiment body is a child span, so the CLI's self time is
        # config parsing, dispatch and report writing only
        for name, fn in cli._DISPATCH.items():
            self._patch_item(cli._DISPATCH, name,
                             self._wrap_function("cli.experiment", fn))

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)

    def _wrap_function(self, name, fn):
        if name == "operator_lab.mu_hat":
            return self._wrap_mu_hat(fn)
        if name == "cone_plates.make_family":
            def make_family(*args, **kwargs):
                fam = self.span(name, fn, *args, **kwargs)
                self.counts["cone_plates.plates_built"] += len(fam.plates)
                return fam
            return make_family

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _wrap_curve_method(self, name, fn):
        def method(curve, *args, **kwargs):
            if self._active[MK]:
                self.counts["curve_evals_in_mk"] += 1
            return self.span(name, fn, curve, *args, **kwargs)
        return method

    def _wrap_mu_hat(self, fn):
        def mu_hat(curve, chi, t, Xi, *args, **kwargs):
            frame = self._enter("operator_lab.mu_hat")
            try:
                return fn(curve, chi, t, Xi, *args, **kwargs)
            finally:
                rows = np.atleast_2d(np.asarray(Xi)).shape[0]
                self.counts["operator_lab.mu_hat_phase_evals"] += \
                    rows * frame[4]
                self._exit(frame)
        return mu_hat

    def _wrap_leggauss(self, fn):
        def leggauss(deg):
            top = self._stack[-1] if self._stack else None
            if top is not None and top[1] == "operator_lab.mu_hat":
                top[4] += int(deg)
            return fn(deg)
        return leggauss

    def _wrap_quad(self, fn):
        def quad(*args, **kwargs):
            if self._active[MK]:
                self.counts["quad_calls_in_mk"] += 1
            return fn(*args, **kwargs)
        return quad

    def record_fft(self, name, fn, x, args, kwargs):
        x = np.asarray(x)
        axes = kwargs.get("axes")
        if name in ("fft", "ifft"):
            axes = (kwargs.get("axis", -1),)
        length = (x.size if axes is None
                  else math.prod(x.shape[a] for a in axes))
        out = self.span("operator_lab.fft", fn, x, *args, **kwargs)
        c = self.counts
        c["operator_lab.fft_points"] += x.size
        c["operator_lab.fft_flops_computed"] += \
            5.0 * x.size * math.log2(max(length, 1))
        c["operator_lab.fft_bytes_computed"] += 2.0 * out.itemsize * x.size
        if name.startswith("i"):
            c["inverse_points"] += x.size
            # its own span keeps the scan out of the caller's self time
            c["inverse_nonzero"] += int(
                self.span("trace.count_nonzero", np.count_nonzero, x))
        return out

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of the pass recorded since the last reset."""
        calls, inc, own, c = self.calls, self.inclusive, self.self_time, \
            self.counts
        mk_calls = calls[MK]

        def per_mk(v):
            return v / mk_calls if mk_calls else 0.0

        out = {
            "operator_lab.fft_calls": calls["operator_lab.fft"],
            "operator_lab.fft_points": c["operator_lab.fft_points"],
            "operator_lab.fft_s": inc["operator_lab.fft"],
            "operator_lab.fft_flops_computed":
                c["operator_lab.fft_flops_computed"],
            "operator_lab.fft_bytes_computed":
                c["operator_lab.fft_bytes_computed"],
            "operator_lab.fft_input_nonzero_frac":
                (c["inverse_nonzero"] / c["inverse_points"]
                 if c["inverse_points"] else 0.0),
            "operator_lab.lp_norm_calls": calls["operator_lab.lp_norm"],
            "operator_lab.lp_norm_self_s": own["operator_lab.lp_norm"],
            "operator_lab.decoupling_ratio_self_s":
                own["operator_lab.decoupling_ratio"],
            "operator_lab.mu_hat_calls": calls["operator_lab.mu_hat"],
            "operator_lab.mu_hat_s": inc["operator_lab.mu_hat"],
            "operator_lab.mu_hat_phase_evals":
                c["operator_lab.mu_hat_phase_evals"],
            "operator_lab.maximal_operator_self_s":
                own["operator_lab.maximal_operator"],
            "symbol_decomposition.mk_multiplier_calls": mk_calls,
            "symbol_decomposition.mk_multiplier_s": inc[MK],
            "symbol_decomposition.quad_calls_per_multiplier":
                per_mk(c["quad_calls_in_mk"]),
            "symbol_decomposition.curve_evals_per_multiplier":
                per_mk(c["curve_evals_in_mk"]),
            "symbol_decomposition.decompose_s":
                inc["symbol_decomposition.decompose"],
            "symbol_decomposition.vdc_decay_sweep_s":
                inc["symbol_decomposition.vdc_decay_sweep"],
            "scale_induction.support_census_s":
                inc["scale_induction.support_census"],
            "scale_induction.verify_umu_approximation_s":
                inc["scale_induction.verify_umu_approximation"],
            "scale_induction.critical_s_calls":
                calls["scale_induction.critical_s"],
            "cone_plates.make_family_calls": calls["cone_plates.make_family"],
            "cone_plates.make_family_s": inc["cone_plates.make_family"],
            "cone_plates.plates_built": c["cone_plates.plates_built"],
            "cli.run_calls": calls["cli.run"],
            "cli.run_self_s": own["cli.main"] + own["cli.run"],
            "cli.report_bytes": c["cli.report_bytes"],
        }
        for short in ("eval", "derivative", "frenet_frame",
                      "cone_coordinates"):
            name = f"curve_geometry.{short}"
            out[f"{name}_calls"] = calls[name]
            out[f"{name}_s"] = inc[name]
        return out

    def write_spans(self, path: str):
        """One JSON object per line: id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            for i, (nid, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent,
                                     "name": self.names[nid],
                                     "start": start, "end": end}))
                fh.write("\n")


class _FFTProxy:
    """Stands in for `scipy.fft` inside operator_lab and records transforms."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if attr not in FFT_FUNCTIONS:
            return fn

        def transform(x, *args, **kwargs):
            return self._tracer.record_fft(attr, fn, x, args, kwargs)
        return transform
