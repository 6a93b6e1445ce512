"""Outside-in tracer for qknot, installed by the benchmark in a traced pass.

It wraps the public functions and methods of every ``qknot.*`` module from
outside the library and rebinds every place that holds the original: module
globals (including ``from .x import y`` copies), values in module-level
dicts, lists and tuples (such as ``verify._DISPATCH``), class attributes
(including ``__rmul__ = __mul__`` aliases) and function defaults.

* Functions and the methods of non-kernel classes become *spans*: one record
  (name, item, parent, start, end, self time, kernel counters) per call.
* The methods of the kernel classes (``XLaurent``, ``QSeries``, ``CycloNum``,
  ``Mono``) are too hot for one record per call; each call is folded into
  ``[calls, self_s]`` counters on the enclosing span.

Self time is a call's duration minus the time of the spans and kernel calls
it made.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

KERNEL_CLASSES = frozenset({"XLaurent", "QSeries", "CycloNum", "Mono"})
# Dunder methods that are arithmetic (or builder calls); the rest, such as
# __init__, __eq__ and __repr__, are left alone.
TRACED_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__call__", "__getitem__",
})
BIG_PRODUCT = 1 << 13  # term pairs from which a Laurent product counts as big

# verify.check_* function -> check family, as named by the suite.
FAMILIES = {
    "check_duality": "duality",
    "check_jones_f_agreement": "jones-agreement",
    "check_bernoulli_formula": "bernoulli",
    "check_hecke_match": "hecke",
    "check_hecke_double": "hecke-double",
    "check_hecke_stability": "hecke-stability",
    "check_cyclotomic_coeffs": "cyclotomic",
    "check_habiro_roundtrip": "habiro",
    "check_jones_consistency": "jones-consistency",
    "check_golden_vectors": "golden",
    "check_theta_product": "theta",
    "check_bailey_named": "bailey-verify",
    "check_bailey_step": "bailey-step",
    "check_bailey_pipeline": "bailey-pipeline",
    "check_bailey_limit": "bailey-limit",
    "check_bailey_conjugate": "bailey-conjugate",
}

# Span record fields, in order.
NAME, ITEM, PARENT, START, END, SELF, KERNEL = range(7)


def qknot_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("qknot") and m is not None]


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_public_callable(name: str, obj, module_name: str) -> bool:
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
    )


class Tracer:
    def __init__(self) -> None:
        self.root = ["root", None, None, 0.0, 0.0, 0.0, None]
        self.spans: list[list] = []
        self.stack: list[list] = [[0.0, self.root]]  # frames: [child_s, span record]
        self.item: str | None = None
        self.mul_stats = [0, 0, 0]  # Laurent products: term pairs, 1x1 count, big count
        self.peak_terms = 0
        self.serialize_bytes = 0
        self._patches: list[tuple[object, object, object]] = []  # (container, key, original)
        self._originals: dict[int, object] = {}
        self._wrappers: set[int] = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, on_result=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = [name, tracer.item, parent[1], 0.0, 0.0, 0.0, None]
            spans.append(rec)
            frame = [0.0, rec]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[0] += t1 - t0
                rec[START], rec[END], rec[SELF] = t0, t1, t1 - t0 - frame[0]
            if on_result is not None:
                on_result(result, parent[1])
            return result

        return wrapper

    def _kernel(self, fn, op: str, before=None, after=None):
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            rec = parent[1]
            frame = [0.0, rec]
            stack.append(frame)
            if before is not None:
                before(args)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[0] += dt
                counters = rec[KERNEL]
                if counters is None:
                    counters = rec[KERNEL] = {}
                c = counters.get(op)
                if c is None:
                    counters[op] = [1, dt - frame[0]]
                else:
                    c[0] += 1
                    c[1] += dt - frame[0]
            if after is not None:
                after(result)
            return result

        return wrapper

    def _laurent_mul_sizes(self, laurent_cls):
        stats = self.mul_stats

        def before(args):
            a = len(args[0].coeffs)
            b = len(args[1].coeffs) if isinstance(args[1], laurent_cls) else 1
            stats[0] += a * b
            if a * b == 1:
                stats[1] += 1
            elif a * b >= BIG_PRODUCT:
                stats[2] += 1

        return before

    def _series_size(self, series_cls):
        def after(result):
            if isinstance(result, series_cls) and len(result.terms) > self.peak_terms:
                self.peak_terms = len(result.terms)

        return after

    def _serialized(self, result, parent_rec) -> None:
        if isinstance(result, str) and not parent_rec[NAME].startswith("serialize."):
            self.serialize_bytes += len(result.encode())

    # -- install / uninstall ------------------------------------------------

    def _wrap_function(self, module_name: str, name: str, fn):
        layer = _layer(module_name)
        on_result = self._serialized if layer == "serialize" else None
        w = functools.update_wrapper(self._span(fn, f"{layer}.{name}", on_result), fn)
        self._remember(fn, w)
        if hasattr(fn, "cache_info"):
            w.cache_info, w.cache_clear = fn.cache_info, fn.cache_clear
        return w

    def _wrap_class(self, module, cls) -> dict[str, object]:
        layer = _layer(module.__name__)
        kernel = cls.__name__ in KERNEL_CLASSES
        new: dict[str, object] = {}
        seen: dict[int, object] = {}  # original function -> wrapper, so aliases share one
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if binder else raw
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in seen:
                op = fn.__name__.strip("_")
                label = f"{layer}.{cls.__name__}.{op}"
                if kernel:
                    before = after = None
                    if label == "laurent.XLaurent.mul":
                        before = self._laurent_mul_sizes(cls)
                    if cls.__name__ == "QSeries":
                        after = self._series_size(cls)
                    seen[id(fn)] = self._kernel(fn, label, before, after)
                else:
                    seen[id(fn)] = self._span(fn, label)
                self._remember(fn, seen[id(fn)])
            w = seen[id(fn)]
            new[name] = binder(w) if binder else w
        return new

    def _remember(self, original, wrapper) -> None:
        self._originals[id(original)] = original
        self._wrappers.add(id(wrapper))

    def _set(self, container, key, value) -> None:
        if isinstance(container, type):
            old = vars(container)[key]
            setattr(container, key, value)
        elif isinstance(container, (dict, list)):
            old = container[key]
            container[key] = value
        else:
            raise TypeError(container)
        self._patches.append((container, key, old))

    def install(self) -> None:
        """Wrap every public callable of every loaded qknot module."""
        modules = qknot_modules()
        replacement: dict[int, object] = {}  # id(original) -> wrapper
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr, w in self._wrap_class(module, obj).items():
                        self._set(obj, attr, w)
                elif _is_public_callable(name, obj, module.__name__):
                    replacement[id(obj)] = self._wrap_function(module.__name__, name, obj)
        # Rebind every copy of a wrapped function held anywhere in qknot; a
        # copy inside a tuple cannot be rebound and is left for unwrapped().
        for holder, key, value, _ in list(_bindings(modules)):
            if id(value) in replacement and not isinstance(holder, tuple):
                self._set(holder, key, replacement[id(value)])

    def uninstall(self) -> None:
        for container, key, old in reversed(self._patches):
            if isinstance(container, type):
                setattr(container, key, old)
            else:
                container[key] = old
        self._patches.clear()

    def unwrapped(self) -> list[str]:
        """Places in qknot that still bind a traced original or another
        public qknot function that the tracer did not wrap."""
        missed = []
        for _, _, value, where in _bindings(qknot_modules()):
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if id(value) in self._originals:
                missed.append(f"{where} binds the unwrapped original")
            elif (
                isinstance(value, types.FunctionType)
                and id(value) not in self._wrappers
                and (value.__module__ or "").startswith("qknot")
                and (not value.__name__.startswith("_") or value.__name__ in TRACED_DUNDERS)
            ):
                missed.append(f"{where} binds {value.__qualname__}, which is not traced")
        return missed

    # -- items, metrics, output ---------------------------------------------

    def run_item(self, item_id: str, fn):
        self.item = item_id
        try:
            return self._span(fn, "item")()
        finally:
            self.item = None

    def aggregates(self) -> tuple[dict, dict]:
        """Per span name ``[calls, self_s, total_s]`` and per kernel op ``[calls, self_s]``."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        ops: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for rec in (*self.spans, self.root):
            if rec is not self.root:
                s = spans[rec[NAME]]
                s[0] += 1
                s[1] += rec[SELF]
                s[2] += rec[END] - rec[START]
            for op, (calls, self_s) in (rec[KERNEL] or {}).items():
                o = ops[op]
                o[0] += calls
                o[1] += self_s
        return spans, ops

    def layer_metrics(self, wall_s: float, untraced_wall_s: float, caches: dict) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json; ``caches`` maps
        qualified names to qknot's ``lru_cache`` objects."""
        spans, ops = self.aggregates()

        def calls(*names):
            return sum(spans[n][0] if n in spans else ops[n][0] for n in names)

        def self_s(*names):
            return sum(spans[n][1] if n in spans else ops[n][1] for n in names)

        def hit_ratio(name):
            if name not in caches:
                return 0.0
            info = caches[name].cache_info()
            asked = info.hits + info.misses
            return info.hits / asked if asked else 0.0

        mul = calls("laurent.XLaurent.mul")
        m = {
            "laurent.mul.calls": mul,
            "laurent.mul.self_s": self_s("laurent.XLaurent.mul"),
            "laurent.mul.term_products": self.mul_stats[0],
            "laurent.mul.unit_share": self.mul_stats[1] / mul if mul else 0.0,
            "laurent.mul.big_share": self.mul_stats[2] / mul if mul else 0.0,
            "laurent.divexact.calls": calls("laurent.XLaurent.divexact"),
            "laurent.divexact.self_s": self_s("laurent.XLaurent.divexact"),
            "laurent.qbinomial.hit_ratio": hit_ratio("qknot.laurent.qbinomial"),
            "laurent.poch_q.hit_ratio": hit_ratio("qknot.laurent.poch_q"),
            "laurent.cache_entries": sum(
                c.cache_info().currsize for n, c in caches.items() if n.startswith("qknot.laurent.")
            ),
            "series.mul.calls": calls("series.QSeries.mul"),
            "series.mul.self_s": self_s("series.QSeries.mul"),
            "series.invert.calls": calls("series.QSeries.invert"),
            "series.invert.self_s": self_s("series.QSeries.invert"),
            "series.qpochhammer.self_s": self_s("series.qpochhammer"),
            "series.peak_terms": self.peak_terms,
            "cyclo.mul.calls": calls("cyclo.CycloNum.mul"),
            "cyclo.mul.self_s": self_s("cyclo.CycloNum.mul"),
            "cyclo.inverse.calls": calls("cyclo.CycloNum.inverse"),
            "cyclo.cyclo_eval.self_s": self_s("cyclo.cyclo_eval"),
            "cyclotomic_coeffs.c_product.self_s": self_s("cyclotomic_coeffs.c_product"),
            "cyclotomic_coeffs.c_multisum.self_s": self_s("cyclotomic_coeffs.c_multisum"),
            "cyclotomic_coeffs.c_series.self_s": self_s("cyclotomic_coeffs.c_series"),
            "cyclotomic_coeffs.c_product.hit_ratio": hit_ratio("qknot.cyclotomic_coeffs.c_product"),
            "jones.jones_hyper.self_s": self_s("jones.jones_hyper"),
            "jones.jones_left.self_s": self_s("jones.jones_left"),
            "jones.jones_morton.self_s": self_s("jones.jones_morton"),
            "jones.habiro.self_s": self_s("jones.habiro_inverse", "jones.habiro_reconstruct"),
            "useries.eval_f_at_root.self_s": self_s("useries.eval_f_at_root"),
            "useries.u_eval_at_root.self_s": self_s("useries.u_eval_at_root"),
            "useries.u_series.self_s": self_s("useries.u_series"),
            "modular.theta_phi.self_s": self_s("modular.theta_phi"),
            "modular.bernoulli.self_s": self_s("modular.bernoulli_lhs", "modular.bernoulli_rhs"),
            "hecke.self_s": self_s(*(n for n in spans if n.startswith("hecke."))),
            "bailey.beta.calls": calls("bailey.BaileyPair.beta"),
            "bailey.beta.self_s": self_s("bailey.BaileyPair.beta"),
            "bailey.alpha.self_s": self_s("bailey.BaileyPair.alpha"),
            "bailey.verify.self_s": self_s("bailey.bailey_verify"),
            "bailey.limit.self_s": self_s("bailey.bailey_limit_identity"),
            "bailey.conjugate.self_s": self_s("bailey.conjugate_identity_check"),
        }
        for fn_name, family in FAMILIES.items():
            m[f"verify.{family}.total_s"] = spans[f"verify.{fn_name}"][2] if f"verify.{fn_name}" in spans else 0.0
        m["verify.mutation.total_s"] = spans["verify.mutation_controls"][2] if "verify.mutation_controls" in spans else 0.0
        diffs = ("report.diff_cyclo", "report.diff_qseries", "report.diff_xlaurent")
        m["report.diff.calls"] = calls(*diffs)
        m["report.diff.self_s"] = self_s(*diffs)
        m["serialize.self_s"] = self_s(*(n for n in spans if n.startswith("serialize.")))
        m["serialize.bytes"] = self.serialize_bytes
        m["cli.main.self_s"] = self_s("cli.main")
        m["trace.spans"] = len(self.spans)
        m["trace.wall_s"] = wall_s
        m["trace.overhead_s"] = wall_s - untraced_wall_s
        return m

    def write(self, path, items: list[str]) -> None:
        """All spans and per-name aggregates as one JSON file."""
        spans, ops = self.aggregates()
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [r[NAME], r[ITEM], index.get(id(r[PARENT])), r[START], r[END], r[SELF], r[KERNEL]]
            for r in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "items": items,
                    "span_fields": ["name", "item", "parent", "start", "end", "self_s", "kernel"],
                    "spans": rows,
                    "span_totals": spans,
                    "kernel_totals": ops,
                    "outside_spans": self.root[KERNEL],
                },
                fh,
            )


def _bindings(modules):
    """Every (holder, key, value, where) through which qknot code can reach a callable."""
    for module in modules:
        for name, obj in vars(module).items():
            if name == "__builtins__":
                continue
            where = f"{module.__name__}.{name}"
            yield module.__dict__, name, obj, where
            if isinstance(obj, dict):
                yield from ((obj, k, v, f"{where}[{k!r}]") for k, v in obj.items())
            elif isinstance(obj, (list, tuple)):
                yield from ((obj, i, v, f"{where}[{i}]") for i, v in enumerate(obj) if callable(v))
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                yield from ((obj, k, v, f"{where}.{k}") for k, v in vars(obj).items())
            if isinstance(obj, types.FunctionType):
                for i, v in enumerate(obj.__defaults__ or ()):
                    if callable(v) and not isinstance(v, type):
                        yield obj.__defaults__, i, v, f"{where} default {i}"
