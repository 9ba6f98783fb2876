"""Spans around psdrank's layer boundaries, installed from outside the package.

`Tracer.install()` replaces each traced function on every psdrank module
attribute that holds it, which covers both `module.function` lookups and
names bound by `from .module import function`, and a method on its class.
Every public function of psdrank.formats is traced as well. Each call
records a span: name, start, end, parent span, op index, and a few counts
taken from its arguments or result. Spans stay in memory until `dump`
writes them as JSON lines. `layer_metrics` turns one pass of spans into the
per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, attribute); a class attribute is "Class.method"
TRACED = {
    "sdp.solve": ("psdrank.sdp", "solve"),
    "sdp.min_volume_shape": ("psdrank.sdp", "min_volume_shape"),
    "geometry.decide_psd_rank_le_2": ("psdrank.geometry", "decide_psd_rank_le_2"),
    "geometry.polytopes_from_matrix": ("psdrank.geometry", "polytopes_from_matrix"),
    "geometry.ellipse_program": ("psdrank.geometry", "ellipse_program"),
    "geometry.certify": ("psdrank.geometry", "certify"),
    "bounds.psd_rank_interval": ("psdrank.bounds", "psd_rank_interval"),
    "bounds.psd_rank_lower": ("psdrank.bounds", "psd_rank_lower"),
    "bounds.psd_rank_upper": ("psdrank.bounds", "psd_rank_upper"),
    "bounds.sqrt_rank_exact": ("psdrank.bounds", "sqrt_rank_exact"),
    "cli.main": ("psdrank.cli", "main"),
    "factors.verify": ("psdrank.factors", "verify"),
    "factors.rescale_trace": ("psdrank.factors", "rescale_trace"),
    "factors.rescale_john": ("psdrank.factors", "rescale_john"),
    "quantum.to_protocol": ("psdrank.quantum", "to_protocol"),
    "quantum.from_protocol": ("psdrank.quantum", "from_protocol"),
    "quantum.verify_protocol": ("psdrank.quantum", "verify_protocol"),
    "quantum.sample": ("psdrank.quantum", "sample"),
    "quantum.outcome_matrix": ("psdrank.quantum", "CorrelationProtocol.outcome_matrix"),
    "cpsd.verify_cpsd": ("psdrank.cpsd", "verify_cpsd"),
    "linalg.numerical_rank": ("psdrank.linalg", "numerical_rank"),
    "linalg.min_eig": ("psdrank.linalg", "min_eig"),
    "linalg.psd_roots": ("psdrank.linalg", "psd_roots"),
}

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("sdp.solve.calls", "count", "lower"),
    ("sdp.solve.busy_s", "s", "lower"),
    ("sdp.solve.newton_steps", "count", "lower"),
    ("sdp.solve.us_per_step", "us", "lower"),
    ("sdp.min_volume_shape.calls", "count", "lower"),
    ("sdp.min_volume_shape.busy_s", "s", "lower"),
    ("geometry.decide_psd_rank_le_2.calls", "count", "lower"),
    ("geometry.decide_psd_rank_le_2.self_s", "s", "lower"),
    ("geometry.polytopes_from_matrix.busy_s", "s", "lower"),
    ("geometry.ellipse_program.busy_s", "s", "lower"),
    ("geometry.certify.busy_s", "s", "lower"),
    ("bounds.psd_rank_interval.calls", "count", "lower"),
    ("bounds.psd_rank_interval.self_s", "s", "lower"),
    ("bounds.psd_rank_lower.busy_s", "s", "lower"),
    ("bounds.psd_rank_lower.rank_calls", "count", "lower"),
    ("bounds.psd_rank_upper.self_s", "s", "lower"),
    ("bounds.sqrt_rank_exact.busy_s", "s", "lower"),
    ("bounds.sqrt_rank_exact.patterns", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("formats.busy_s", "s", "lower"),
    ("factors.verify.calls", "count", "lower"),
    ("factors.verify.busy_s", "s", "lower"),
    ("factors.rescale_trace.busy_s", "s", "lower"),
    ("factors.rescale_john.self_s", "s", "lower"),
    ("quantum.to_protocol.busy_s", "s", "lower"),
    ("quantum.from_protocol.busy_s", "s", "lower"),
    ("quantum.verify_protocol.self_s", "s", "lower"),
    ("quantum.outcome_matrix.calls", "count", "lower"),
    ("quantum.outcome_matrix.busy_s", "s", "lower"),
    ("quantum.sample.busy_s", "s", "lower"),
    ("quantum.sample.draws_per_s", "1/s", "higher"),
    ("cpsd.busy_s", "s", "lower"),
    ("linalg.numerical_rank.calls", "count", "lower"),
    ("linalg.min_eig.calls", "count", "lower"),
    ("linalg.psd_roots.calls", "count", "lower"),
]

_SDP = ["sdp.solve.calls", "sdp.solve.busy_s", "sdp.solve.newton_steps", "sdp.solve.us_per_step"]
# the metrics each workload must see nonzero in its traced pass; a zero
# means a wrapper sits on a name its caller never looks up
REQUIRED = {
    "rank2-grid": _SDP + [
        "geometry.decide_psd_rank_le_2.calls", "geometry.decide_psd_rank_le_2.self_s",
        "geometry.polytopes_from_matrix.busy_s", "geometry.ellipse_program.busy_s",
        "geometry.certify.busy_s",
        "linalg.numerical_rank.calls", "linalg.min_eig.calls", "linalg.psd_roots.calls",
    ],
    "bounds-catalog": _SDP + [
        "bounds.psd_rank_interval.calls", "bounds.psd_rank_interval.self_s",
        "bounds.psd_rank_lower.busy_s", "bounds.psd_rank_lower.rank_calls",
        "bounds.psd_rank_upper.self_s", "bounds.sqrt_rank_exact.busy_s",
        "bounds.sqrt_rank_exact.patterns", "cli.main.self_s", "formats.busy_s",
        "linalg.numerical_rank.calls", "linalg.min_eig.calls",
    ],
    "factor-protocol": [
        "sdp.min_volume_shape.calls", "sdp.min_volume_shape.busy_s", "formats.busy_s",
        "factors.verify.calls", "factors.verify.busy_s", "factors.rescale_trace.busy_s",
        "factors.rescale_john.self_s", "quantum.to_protocol.busy_s",
        "quantum.from_protocol.busy_s", "quantum.verify_protocol.self_s",
        "quantum.outcome_matrix.calls", "quantum.outcome_matrix.busy_s",
        "quantum.sample.busy_s", "quantum.sample.draws_per_s", "cpsd.busy_s",
        "linalg.numerical_rank.calls", "linalg.min_eig.calls", "linalg.psd_roots.calls",
    ],
}


def _attrs(name, args, kwargs, result) -> dict | None:
    """Counts a span carries from its call."""
    if name == "sdp.solve":
        return {"newton_steps": int(result.newton_steps)}
    if name == "bounds.sqrt_rank_exact":
        return {"patterns": int(result.patterns_searched)}
    if name == "quantum.sample":
        return {"draws": int(kwargs["count"] if "count" in kwargs else args[1])}
    return None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []  # [name, start, end, parent index, op index, attrs]
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _attrs(name, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _targets() -> dict:
        """TRACED plus every public function defined in psdrank.formats."""
        out = dict(TRACED)
        for attr, val in vars(sys.modules["psdrank.formats"]).items():
            if (callable(val) and not attr.startswith("_") and not isinstance(val, type)
                    and getattr(val, "__module__", None) == "psdrank.formats"):
                out[f"formats.{attr}"] = ("psdrank.formats", attr)
        return out

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "psdrank" or n.startswith("psdrank."))]
        for name, (mod_name, attr) in self._targets().items():
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def dump(self, path: str, seed: int) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "workload": self.workload, "seed": seed, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass.

    busy_s of a function sums its outermost spans; self_s subtracts the
    spans directly nested in it; a layer's busy_s sums the spans of that
    layer that no other span of the layer encloses.
    """
    calls, busy, self_time, attr_sum = {}, {}, {}, {}
    layer_busy = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    rank_calls = 0
    for idx, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[idx]
        layer = name.split(".")[0]
        ancestors = []
        p = parent
        while p is not None:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            busy[name] = busy.get(name, 0.0) + dur
        if not any(a.split(".")[0] == layer for a in ancestors):
            layer_busy[layer] = layer_busy.get(layer, 0.0) + dur
        if name == "linalg.numerical_rank" and "bounds.psd_rank_lower" in ancestors:
            rank_calls += 1
        for key, val in (attrs or {}).items():
            attr_sum[(name, key)] = attr_sum.get((name, key), 0) + val

    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(head, 0)
        elif kind == "busy_s":
            out[metric] = busy.get(head, 0.0) if "." in head else layer_busy.get(head, 0.0)
        elif kind == "self_s":
            out[metric] = self_time.get(head, 0.0)
    steps = attr_sum.get(("sdp.solve", "newton_steps"), 0)
    out["sdp.solve.newton_steps"] = steps
    out["sdp.solve.us_per_step"] = 1e6 * busy.get("sdp.solve", 0.0) / steps if steps else 0.0
    out["bounds.psd_rank_lower.rank_calls"] = rank_calls
    out["bounds.sqrt_rank_exact.patterns"] = attr_sum.get(("bounds.sqrt_rank_exact", "patterns"), 0)
    sample_busy = busy.get("quantum.sample", 0.0)
    draws = attr_sum.get(("quantum.sample", "draws"), 0)
    out["quantum.sample.draws_per_s"] = draws / sample_busy if sample_busy else 0.0
    return out


def missing_coverage(workload: str, metrics: dict) -> list:
    return [m for m in REQUIRED[workload] if not metrics.get(m)]
