"""Per-layer tracing of superflag, done from the benchmark's own files.

The tracer wraps the public functions and methods of each superflag module
in place.  Many modules import names by value (``from .osp import basis``,
``from .kernels import q_mul``), so a wrapped function is rebound in every
superflag module that holds it, and in the module-level registries that
hold it inside a tuple (``cli.SUITES``).  Methods are patched on their
class, which every importer shares.

Two kinds of wrapper:

* a span records name, start, end, parent span and job id for each call,
  kept in flat arrays in memory and written out when the run ends;
* a counter only counts calls.  It is used for calls that run millions of
  times (kernels, ``SuperMatrix.__getitem__``) or whose time is not a
  metric.

A layer's self time is the sum over its spans of duration minus the time
covered by child spans.  A target that the program no longer has is
reported with zero calls and listed under ``missing``.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")

# (module, attribute path, layer metric name, hook)
SPANS = [
    ("osp", "OspBasis.coefficients_of", "osp.coefficients_of", None),
    ("osp", "closure_check", "osp.closure_check", None),
    ("osp", "center", "osp.center", None),
    ("osp", "super_jacobi_holds", "osp.super_jacobi_holds", None),
    ("osp", "gram_form", "osp.gram_form", "distinct"),
    ("osp", "basis", "osp.basis", "distinct"),
    ("osp", "is_member", "osp.is_member", None),
    ("osp", "embed_j", "osp.embed_j", None),
    ("ring", "SuperPoly.__mul__", "ring.SuperPoly.mul", "zero"),
    ("ring", "SuperPoly.left_derivative", "ring.SuperPoly.left_derivative",
     None),
    ("matrices", "SuperMatrix.__matmul__", "matrices.SuperMatrix.matmul",
     None),
    ("matrices", "SuperMatrix.superbracket",
     "matrices.SuperMatrix.superbracket", None),
    ("matrices", "SuperMatrix.invert", "matrices.SuperMatrix.invert", None),
    ("matrices", "SuperMatrix.build", "matrices.SuperMatrix.build", None),
    ("charts", "act", "charts.act", None),
    ("charts", "fundamental_field", "charts.fundamental_field",
     "distinct_field"),
    ("charts", "isotropic_chart", "charts.isotropic_chart", None),
    ("charts", "VectorField.bracket", "charts.VectorField.bracket", None),
    ("linalg", "rref", "linalg.rref", None),
    ("linalg", "solve", "linalg.solve", None),
    ("weights", "RootSystem.is_dominant", "weights.RootSystem.is_dominant",
     None),
    ("weights", "RootSystem.positive_roots",
     "weights.RootSystem.positive_roots", None),
    ("suites", "suite_osp_defining", "suites.suite_osp_defining", None),
    ("suites", "suite_isomorphism", "suites.suite_isomorphism", None),
    ("suites", "suite_imP_witness", "suites.suite_imP_witness", None),
    ("suites", "suite_bwb", "suites.suite_bwb", None),
    ("cli", "main", "cli.main", None),
] + [("scalars", f"FieldScalar.{op}", "scalars.FieldScalar", None)
     for op in _ARITH]

COUNTS = [
    ("matrices", "SuperMatrix.__getitem__", "matrices.SuperMatrix.getitem",
     "miss"),
    ("matrices", "SuperMatrix.__eq__", "matrices.SuperMatrix.eq", None),
    ("linalg", "RankTracker.add", "linalg.RankTracker.add", None),
    ("osp", "conjugate", "osp.conjugate", None),
    ("ring", "SuperPoly.__add__", "ring.SuperPoly.add", None),
    ("ring", "SuperPoly.__radd__", "ring.SuperPoly.add", None),
    ("ring", "RingContext.lift", "ring.RingContext.lift", None),
    ("ring", "RingContext.demote", "ring.RingContext.demote", None),
] + [("kernels", fn, f"kernels.{fn}", None)
     for fn in ("q_add", "q_mul", "q_neg", "merge_odd", "mul_even")]

# ratio metric -> (numerator counter, denominator metric, base wording)
RATIOS = {
    "matrices.SuperMatrix.getitem.miss_ratio":
        ("matrices.SuperMatrix.getitem.miss", "matrices.SuperMatrix.getitem",
         "lookups returning zero / lookups"),
    "ring.SuperPoly.mul.zero_ratio":
        ("ring.SuperPoly.mul.zero", "ring.SuperPoly.mul",
         "zero products / products"),
    "osp.gram_form.distinct_ratio":
        ("osp.gram_form.distinct", "osp.gram_form",
         "distinct argument tuples / calls"),
    "osp.basis.distinct_ratio":
        ("osp.basis.distinct", "osp.basis",
         "distinct argument tuples / calls"),
    "charts.fundamental_field.distinct_ratio":
        ("charts.fundamental_field.distinct", "charts.fundamental_field",
         "distinct (chart, matrix) pairs / calls"),
}


def metric_units():
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for _, _, name, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for _, _, name, _ in COUNTS:
        units[f"{name}.calls"] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


def _arg_key(args, kwargs):
    return args + tuple(sorted(kwargs.items()))


def _field_key(args, kwargs):
    x, chart = args[0], args[1] if len(args) > 1 else kwargs["chart"]
    return id(chart), x.parity, frozenset(x.entries.items())


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {}
        self.distinct = {}
        self.job = -1
        self.missing = []
        self._stack = []
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, hook):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, counts = self._stack, self.counts
        sname, sparent, sjob = self.span_name, self.span_parent, self.span_job
        sstart, send = self.span_start, self.span_end
        tracer = self
        key_fn = {"distinct": _arg_key, "distinct_field": _field_key}.get(hook)
        seen = self.distinct.setdefault(name, set()) if key_fn else None
        zero_name = f"{name}.zero"
        if hook == "zero":
            counts.setdefault(zero_name, 0)

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                seen.add(key_fn(args, kwargs))
            idx = len(sstart)
            sname.append(nid)
            sparent.append(stack[-1] if stack else -1)
            sjob.append(tracer.job)
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                sstart[idx] = t0
                send[idx] = t1
            if hook == "zero" and result is not NotImplemented \
                    and result.is_zero():
                counts[zero_name] += 1
            return result

        return wrapper

    def _counter(self, fn, name, hook):
        counts = self.counts
        counts.setdefault(name, 0)
        if hook == "miss":
            miss_name = f"{name}.miss"
            counts[miss_name] = 0

            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if result.is_zero():
                    counts[miss_name] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target in the superflag modules loaded right now."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "superflag" or n.startswith("superflag.")}
        for targets, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for mod, path, name, hook in targets:
                module = modules.get(f"superflag.{mod}")
                if module is None:
                    self.missing.append(f"{mod}.{path}")
                    continue
                if "." in path:
                    self._patch_method(module, path, name, hook, make)
                else:
                    self._rebind(modules, module, path, name, hook, make)

    def _patch_method(self, module, path, name, hook, make):
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__, name, hook))
        else:
            new = make(raw, name, hook)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def _rebind(self, modules, module, attr, name, hook, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        new = make(original, name, hook)
        for mod_name, mod in modules.items():
            # Calls inside the kernel implementations stay uncounted, so a
            # kernel count is the number of calls into the kernel layer.
            if mod_name.startswith("superflag.kernels."):
                continue
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, original))
                elif isinstance(value, dict):
                    self._rebind_registry(value, original, new)

    def _rebind_registry(self, registry, original, new):
        for key, value in list(registry.items()):
            if isinstance(value, tuple) and any(v is original for v in value):
                registry[key] = tuple(new if v is original else v
                                      for v in value)
                self._undo.append((registry, key, value))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """{metric: value} for every name in ``metric_units()``, and the
        base of each ratio as {ratio: text}."""
        n = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        counts = dict(self.counts)
        for layer, seen in self.distinct.items():
            counts[f"{layer}.distinct"] = len(seen)
        values = {}
        for metric in metric_units():
            if metric in RATIOS:
                continue
            layer, kind = metric.rsplit(".", 1)
            if kind == "self_s":
                values[metric] = self_s.get(layer, 0.0)
            elif layer in calls:
                values[metric] = calls[layer]
            else:
                values[metric] = counts.get(layer, 0)
        bases = {}
        for metric, (num, den, wording) in RATIOS.items():
            top, bottom = counts.get(num, 0), values[f"{den}.calls"]
            values[metric] = top / bottom if bottom else 0.0
            bases[metric] = f"{top} / {bottom}, {wording}"
        return values, bases

    def write_spans(self, path, meta):
        """Write the spans: one JSON header line, then the raw columns."""
        header = dict(meta, names=self.names, spans=len(self.span_start),
                      columns=[["name", "i"], ["parent", "i"], ["job", "i"],
                               ["start", "d"], ["end", "d"]])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_job,
                           self.span_start, self.span_end):
                column.tofile(fh)
