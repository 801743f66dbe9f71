"""Per-layer tracing of one CLI job, from outside the package.

Run as ``python benchmarks/tracer.py SPANS_OUT -- <cli args>`` with
``src`` on PYTHONPATH.  It wraps the public functions of ``bell``,
``labeled``, ``unlabeled`` and ``egf`` and the arithmetic of ``PolyVar``,
``WeightPoly`` and ``ExpSeries``, then imports ``seriesforge.cli`` and
calls its ``main``, so the job does what ``python -m seriesforge.cli``
would.  Every wrapped call becomes a span ``[name, start_ns, end_ns,
parent, attr]`` held in memory; the list is written to SPANS_OUT as JSON
when the job ends, also when it ends with an exception.

Order matters: ``seriesforge.cli`` binds family functions into
``COUNT_FAMILIES`` and ``TABLE_FAMILIES`` at import, and ``labeled``,
``unlabeled`` and ``egf`` import ``bell`` functions by value, so the
wrappers are installed, and those names rebound, before the CLI is
imported.  ``__rmul__``/``__radd__`` and ``__mul__``/``__add__`` are one
function under two names; each name gets its own wrapper, so a call is
counted once, under the name Python dispatched it by.

:func:`layer_metrics` turns the span files of a workload's jobs into the
per-layer metrics.
"""

from __future__ import annotations

import ast
import inspect
import json
import sys
import time

LAYERS = ("cli", "labeled", "unlabeled", "bell", "rings", "weights", "egf")
# Calls from the CLI into these layers are the "family calls".
FAMILY_LAYERS = ("labeled", "unlabeled")

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")
CLASS_METHODS = {
    ("rings", "PolyVar"): _OPERATORS + (
        "map_coeffs", "scale_exact", "substitute", "eval_at", "__call__", "compose",
        "shift_down"),
    ("weights", "WeightPoly"): _OPERATORS + (
        "substitute", "degree_mass", "to_jsonable", "to_json"),
    ("egf", "ExpSeries"): (
        "__add__", "__sub__", "__neg__", "__mul__", "mul", "tail", "from_tail", "zero",
        "one", "identity", "truncate", "scale", "add_const", "reciprocal", "pow",
        "integrate", "differentiate", "compose", "invert", "to_json"),
}


class Tracer:
    """Span recorder.  ``spans[i] = [name_id, start_ns, end_ns, parent, attr]``."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []

    def wrap(self, name: str, fn, attr_of_args=None, attr_of_result=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1,
                   attr_of_args(args, kwargs) if attr_of_args else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attr_of_result:
                rec[4] = attr_of_result(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path: str, job: str):
        with open(path, "w") as fh:
            json.dump({"job": job, "names": self.names, "spans": self.spans}, fh)


def _args_key(args, kwargs) -> str:
    return repr((args, sorted(kwargs.items())))


def install(tracer: Tracer) -> None:
    """Wrap every production layer except ``cli``, which must not be
    imported yet."""
    import seriesforge
    from seriesforge import bell, egf, labeled, rings, unlabeled, weights

    modules = {"bell": bell, "egf": egf, "labeled": labeled, "unlabeled": unlabeled}
    replaced = {}
    for layer, mod in modules.items():
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != mod.__name__:
                continue
            key = _args_key if layer in FAMILY_LAYERS else None
            replaced[fn] = tracer.wrap(f"{layer}.{name}", fn, attr_of_args=key)
    # rebind names imported by value, including the package's re-exports
    for mod in (*modules.values(), seriesforge):
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, name, replaced[value])

    layer_modules = {"rings": rings, "weights": weights, "egf": egf}
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(layer_modules[layer], cls_name)
        for method in methods:
            raw = cls.__dict__[method]
            name = f"{layer}.{cls_name}.{method}"
            peak = (lambda r: len(r.terms)) if (cls_name, method) in (
                ("WeightPoly", "__mul__"), ("WeightPoly", "__rmul__")) else None
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, method, tracer.wrap(name, raw, attr_of_result=peak))


def main(argv: list) -> int:
    spans_out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- <seriesforge cli args>")
    tracer = Tracer()
    install(tracer)
    from seriesforge import cli

    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.dump(spans_out, " ".join(cli_args))


# ---------------------------------------------------------------------------
# Aggregation, run by run.py.
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.family_calls": "count",
    "cli.distinct_call_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "labeled.calls": "count",
    "labeled.self_s": "s",
    "bell.self_s": "s",
    "bell.partial_calls": "count",
    "bell.partial_s": "s",
    "bell.sequence_calls": "count",
    "bell.inverse_calls": "count",
    "bell.inverse_s": "s",
    "rings.self_s": "s",
    "rings.polyvar_mul_calls": "count",
    "rings.polyvar_mul_s": "s",
    "rings.polyvar_add_calls": "count",
    "weights.self_s": "s",
    "weights.mul_calls": "count",
    "weights.mul_s": "s",
    "weights.add_s": "s",
    "weights.peak_terms": "count",
    "unlabeled.self_s": "s",
    "unlabeled.refined_polys_calls": "count",
    "unlabeled.refined_polys_s": "s",
    "unlabeled.levels_built": "count",
    "unlabeled.level_useful_ratio": "ratio",
    "egf.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# span names whose calls (count) and inclusive time (seconds) are reported
_CALLS = {
    "bell.partial_calls": ("bell.bell_partial",),
    "bell.sequence_calls": ("bell.derangement_count", "bell.assoc_stirling2",
                            "bell.stirling2"),
    "bell.inverse_calls": ("bell.bell_inverse_recursive", "bell.bell_inverse_closed"),
    "rings.polyvar_mul_calls": ("rings.PolyVar.__mul__", "rings.PolyVar.__rmul__"),
    "rings.polyvar_add_calls": ("rings.PolyVar.__add__", "rings.PolyVar.__radd__"),
    "weights.mul_calls": ("weights.WeightPoly.__mul__", "weights.WeightPoly.__rmul__"),
    "unlabeled.refined_polys_calls": ("unlabeled.refined_polys",),
}
_SECONDS = {
    "bell.partial_s": _CALLS["bell.partial_calls"],
    "bell.inverse_s": _CALLS["bell.inverse_calls"],
    "rings.polyvar_mul_s": _CALLS["rings.polyvar_mul_calls"],
    "weights.mul_s": _CALLS["weights.mul_calls"],
    "weights.add_s": ("weights.WeightPoly.__add__", "weights.WeightPoly.__radd__"),
    "unlabeled.refined_polys_s": _CALLS["unlabeled.refined_polys_calls"],
}


def layer_metrics(traces: list, stdout_bytes: int, overhead_ratio: float) -> dict:
    """Per-layer metrics summed over the span files of one pass of a mix.

    Self time is a span's duration minus its children's; a reported
    ``*_s`` time is the inclusive time of the outermost spans with the
    named names, so a nested call is not counted twice.
    """
    self_ns = dict.fromkeys(LAYERS, 0)
    calls: dict = {}
    incl_ns: dict = {}
    family_calls = distinct_calls = levels_built = distinct_levels = peak_terms = 0
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        keys = set()
        job_levels = 0
        for i, (name_id, start, end, parent, attr) in enumerate(spans):
            name = names[name_id]
            layer = name.split(".", 1)[0]
            self_ns[layer] += end - start - child_ns[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0 or names[spans[parent][0]] != name:
                incl_ns[name] = incl_ns.get(name, 0) + end - start
            if layer in FAMILY_LAYERS and parent >= 0 and names[spans[parent][0]] == "cli.main":
                family_calls += 1
                keys.add((name, attr))
            if name == "unlabeled.refined_polys":
                up_to_s = ast.literal_eval(attr)[0][0]
                levels_built += up_to_s
                job_levels = max(job_levels, up_to_s)
            elif name in _CALLS["weights.mul_calls"]:
                peak_terms = max(peak_terms, attr)
        distinct_calls += len(keys)
        distinct_levels += job_levels

    out = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    out.update({metric: sum(calls.get(n, 0) for n in span_names)
                for metric, span_names in _CALLS.items()})
    out.update({metric: sum(incl_ns.get(n, 0) for n in span_names) / 1e9
                for metric, span_names in _SECONDS.items()})
    out["cli.family_calls"] = family_calls
    out["cli.distinct_call_ratio"] = distinct_calls / family_calls if family_calls else 1.0
    out["cli.stdout_bytes"] = stdout_bytes
    out["labeled.calls"] = sum(c for n, c in calls.items() if n.startswith("labeled."))
    out["weights.peak_terms"] = peak_terms
    out["unlabeled.levels_built"] = levels_built
    # no level built means no level wasted
    out["unlabeled.level_useful_ratio"] = (
        distinct_levels / levels_built if levels_built else 1.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in PER_LAYER_UNITS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
