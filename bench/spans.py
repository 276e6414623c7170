"""In-memory span tracing around the public functions of ``relbc``.

``install`` wraps every public function of the layer modules (and the
methods of their plain classes) in each ``relbc.*`` namespace that binds
it, so calls made through ``from .window import build_window`` are caught
as well as calls through ``window.build_window``.  A span records its name,
start, end, parent span and the op it belongs to; a few spans also carry
counters (computed bytes, work keys) taken where the work happens.
Nothing is written until the benchmark asks for the spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("spectra", "window", "measurement", "protocol", "attacks", "oracle", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one flag test otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        # objects a work key refers to by id stay alive until the op ends,
        # so a freed object's id cannot alias a later one
        self._pinned: list = []

    def begin_op(self, op: int):
        self.op = op
        self._pinned.clear()
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self._pinned.clear()

    def pin(self, obj) -> int:
        self._pinned.append(obj)
        return id(obj)

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs = annotate(self, args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced


def _matrix_bytes(*mats) -> int:
    """n^2 * itemsize summed over the dense matrices: computed, not measured."""
    return sum(int(m.size) * m.dtype.itemsize for m in mats)


def _fingerprint(arr) -> str:
    """Cheap content key for a state vector or density matrix."""
    flat = arr.reshape(-1)
    step = max(1, flat.size // 4096)
    return hashlib.blake2b(flat[::step].tobytes() + repr(arr.shape).encode(),
                           digest_size=12).hexdigest()


def _grid_key(tracer: Tracer, grid) -> tuple:
    return (tracer.pin(grid), grid.size)


def _annotate_grid(tracer, args, kwargs, result):
    return {"nodes": int(result.size)}


def _annotate_window(tracer, args, kwargs, result):
    return {
        "n": int(result.grid.size),
        "bytes": _matrix_bytes(result.matrix),
        "key": (_grid_key(tracer, result.grid), float(result.T), float(result.center)),
    }


def _annotate_povm(tracer, args, kwargs, result):
    return {"n": int(result.grid.size), "bytes": _matrix_bytes(*result.elements)}


def _annotate_dist(tracer, args, kwargs, result):
    povm, given = args[0], args[1]
    values = getattr(given, "values", None)
    mixed = values is None
    content = _fingerprint(given if mixed else values)
    povm_key = (povm.family, float(povm.T), _grid_key(tracer, povm.grid))
    return {"n": int(povm.grid.size), "mixed": mixed, "key": (povm_key, content)}


def _annotate_context(tracer, args, kwargs, result):
    return {"n": int(args[0].grid.size)}


ANNOTATE = {
    "protocol.ProtocolContext.__init__": _annotate_context,
    "spectra.gauss_legendre_grid": _annotate_grid,
    "window.build_window": _annotate_window,
    "window.build_offset_window": _annotate_window,
    "measurement.support_povm": _annotate_povm,
    "measurement.state_povm": _annotate_povm,
    "measurement.outcome_dist": _annotate_dist,
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for a layer module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield attr, module, attr, obj
        elif (inspect.isclass(obj) and not hasattr(obj, "__dataclass_fields__")
              and not issubclass(obj, BaseException)):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                    yield f"{attr}.{meth}", obj, meth, fn


def install(tracer: Tracer) -> int:
    """Wrap the layer functions of the imported ``relbc``; returns the count."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "relbc" or name.startswith("relbc."))]
    wrapped = 0
    for layer in LAYERS:
        module = sys.modules[f"relbc.{layer}"]
        for qual, owner, attr, fn in list(_public_callables(module)):
            if getattr(fn, "__wrapped_by_bench__", False):
                continue
            name = f"{layer}.{qual}"
            traced = tracer.wrap(name, fn, ANNOTATE.get(name))
            setattr(owner, attr, traced)
            wrapped += 1
            if owner is not module:
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, traced)
    return wrapped


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        kids = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                      for c in children.get(i, ()))
        for a, b in kids:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(spans: list[Span], n_ops: int, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a mean per traced op, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_s(*names):
        return _sum(own[i] for i in idx(*names))

    def calls(*names):
        return len(idx(*names))

    def attr_sum(key, *names):
        return _sum(spans[i].attrs.get(key, 0) for i in idx(*names))

    def useful(*names):
        # a call that raised returned no work and carries no key
        keyed = [i for i in idx(*names) if "key" in spans[i].attrs]
        distinct = {(spans[i].op, spans[i].attrs["key"]) for i in keyed}
        return len(distinct) / len(keyed) if keyed else 1.0

    grids = ("spectra.gauss_legendre_grid", "spectra.grid_for_amplitudes",
             "spectra.grid_from_spec")
    windows = ("window.build_window", "window.build_offset_window")
    povms = ("measurement.support_povm", "measurement.state_povm")
    dist = idx("measurement.outcome_dist")
    samplers = ("measurement.sample_outcome", "measurement.sample_outcomes")
    rounds = ("protocol.run_protocol", "protocol.commit", "protocol.open_and_verify",
              "protocol.measure_all")
    flags = ("attacks.per_channel_flag_prob", "attacks.cheat_detection_prob",
             "attacks.transmitted_state")
    contexts = idx("protocol.ProtocolContext.__init__")

    per_op = {
        "spectra.grid_calls": (calls("spectra.gauss_legendre_grid"), "count/op"),
        "spectra.grid_nodes": (attr_sum("nodes", "spectra.gauss_legendre_grid"), "count/op"),
        "spectra.grid_s": (self_s(*grids), "s/op"),
        "spectra.sample_s": (self_s("spectra.sample"), "s/op"),
        "window.build_calls": (calls(*windows), "count/op"),
        "window.build_s": (self_s(*windows), "s/op"),
        "window.build_bytes": (attr_sum("bytes", *windows), "B/op"),
        "window.detect_s": (self_s("window.detect_prob", "window.perp_prob"), "s/op"),
        "measurement.povm_calls": (calls(*povms), "count/op"),
        "measurement.povm_s": (self_s(*povms), "s/op"),
        "measurement.povm_bytes": (attr_sum("bytes", *povms), "B/op"),
        "measurement.density_s": (self_s("measurement.pure_density",
                                         "measurement.mixed_density"), "s/op"),
        "measurement.dist_calls": (len(dist), "count/op"),
        "measurement.dist_pure_s": (_sum(own[i] for i in dist if not spans[i].attrs.get("mixed")), "s/op"),
        "measurement.dist_mixed_s": (_sum(own[i] for i in dist if spans[i].attrs.get("mixed")), "s/op"),
        "measurement.sample_calls": (calls(*samplers), "count/op"),
        "measurement.sample_s": (self_s(*samplers), "s/op"),
        "protocol.context_s": (_sum(spans[i].end - spans[i].start for i in contexts), "s/op"),
        "protocol.rounds": (calls("protocol.run_protocol"), "count/op"),
        "protocol.round_self_s": (self_s(*rounds), "s/op"),
        "attacks.flag_calls": (calls("attacks.per_channel_flag_prob"), "count/op"),
        "attacks.flag_self_s": (self_s(*flags), "s/op"),
        "attacks.early_self_s": (self_s("attacks.early_binding_advantage"), "s/op"),
        "oracle.povm_check_s": (self_s("oracle.povm_validity_bruteforce"), "s/op"),
        "oracle.time_domain_s": (self_s("oracle.detect_prob_time_domain"), "s/op"),
        "oracle.closed_form_s": (self_s("oracle.detect_prob_flat_closed_form",
                                        "oracle.sine_integral"), "s/op"),
        "cli.out_bytes": (out_bytes, "B/op"),
    }
    for layer in LAYERS:
        per_op[f"{layer}.self_s"] = (_sum(own[i] for i, s in enumerate(spans)
                                          if s.layer == layer), "s/op")
    metrics = {k: (v / n_ops, unit) for k, (v, unit) in per_op.items()}
    metrics["window.build_useful_ratio"] = (useful(*windows), "ratio")
    metrics["measurement.dist_useful_ratio"] = (useful("measurement.outcome_dist"), "ratio")
    return metrics


def per_call_table(spans: list[Span], names) -> list[dict]:
    """Mean inclusive time per call, grouped by (span name, grid size n)."""
    groups: dict[tuple, list[float]] = {}
    for s in spans:
        if s.name in names:
            key = (s.name, s.attrs.get("n"), s.attrs.get("mixed"))
            groups.setdefault(key, []).append(s.end - s.start)
    return [
        {"name": name, "n": n, "mixed": mixed, "calls": len(d), "mean_s": sum(d) / len(d)}
        for (name, n, mixed), d in sorted(groups.items(), key=lambda kv: str(kv[0]))
    ]
