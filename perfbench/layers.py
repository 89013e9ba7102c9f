"""Per-layer timing for the traced run.

Each span wraps a module attribute that painlevekit's callers look up
at call time (``_accel.darboux_candidate_flags`` inside ``dvariety``,
``numint.compile_system`` inside ``numint.integrate``, and so on), so
the program itself is not touched.  Counts are read from arguments and
return values only.  Spans nest: the time a layer spends inside another
is recorded per (outer, inner) pair, which gives the self times the
README names (the search minus the filter, integrate minus dopri5).
"""

import time
from collections import defaultdict

from painlevekit import _accel, catalog, cli, dvariety, field, numint, transforms


def _rows(args):
    return len(args[2])


# (module, attribute, layer, {counter: f(args, result)})
SPANS = (
    (_accel, "darboux_candidate_flags", "accel.filter",
     {"candidates": lambda a, r: _rows(a), "survivors": lambda a, r: int(r.sum())}),
    (_accel, "dopri5_path", "accel.dopri5",
     {"accepted_steps": lambda a, r: len(r[0]) - 1}),
    (dvariety, "darboux_search", "dvariety.search",
     {"certificates": lambda a, r: len(r)}),
    (dvariety, "verify_darboux", "dvariety.verify_darboux", {}),
    (dvariety, "first_integral_search", "dvariety.first_integral_search", {}),
    (dvariety, "exact_divide", "field.exact_divide", {}),
    (field, "exact_divide", "field.exact_divide", {}),
    (field, "parse", "field.parse", {}),
    (field, "parse_poly", "field.parse", {}),
    (cli, "parse", "field.parse", {}),
    (cli, "parse_poly", "field.parse", {}),
    (numint, "integrate", "numint.integrate", {}),
    (numint, "compile_system", "numint.compile_system", {}),
    (numint, "invariant_drift", "numint.drift",
     {"samples": lambda a, r: len(a[0])}),
    (numint, "relation_probe", "numint.probe", {}),
    (transforms, "verify_transform", "transforms.verify_transform", {}),
    (transforms, "hamiltonian_check", "transforms.hamiltonian_check", {}),
    (catalog, "instantiate", "catalog.instantiate", {}),
    (catalog, "classify", "catalog.classify", {}),
    (cli, "main", "cli.main", {}),
)


class Tracer:
    """Accumulates busy time, calls and counts per layer while installed."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.nested = defaultdict(float)   # (outer, inner) -> seconds
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, counters):
        stack = self._stack

        def span(*args, **kwargs):
            if layer in stack:   # parse_poly -> parse: count the outer call
                return fn(*args, **kwargs)
            stack.append(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.time[layer] += dt
                self.calls[layer] += 1
                for outer in set(stack):
                    self.nested[(outer, layer)] += dt
            for name, count in counters.items():
                self.counts[f"{layer}.{name}"] += count(args, result)
            return result

        return span

    def install(self):
        for module, attr, layer, counters in SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, counters))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self, ops):
        """Per-layer metrics per operation of the traced phase."""
        T, C, N = self.time, self.calls, self.counts

        def per_op(v):
            return v / ops

        def rate(n, s):
            return n / s if s else 0.0

        return {
            "accel.filter_s": per_op(T["accel.filter"]),
            "accel.filter_calls": per_op(C["accel.filter"]),
            "accel.filter_candidates": per_op(N["accel.filter.candidates"]),
            "accel.filter_survivors": per_op(N["accel.filter.survivors"]),
            "accel.filter_candidates_per_s": rate(N["accel.filter.candidates"],
                                                  T["accel.filter"]),
            "accel.dopri5_s": per_op(T["accel.dopri5"]),
            "accel.dopri5_calls": per_op(C["accel.dopri5"]),
            "accel.dopri5_accepted_steps": per_op(N["accel.dopri5.accepted_steps"]),
            "accel.dopri5_steps_per_s": rate(N["accel.dopri5.accepted_steps"],
                                             T["accel.dopri5"]),
            "dvariety.search_s": per_op(T["dvariety.search"]),
            "dvariety.search_self_s": per_op(
                T["dvariety.search"]
                - self.nested[("dvariety.search", "accel.filter")]),
            "dvariety.certificates": per_op(N["dvariety.search.certificates"]),
            "dvariety.verify_darboux_s": per_op(T["dvariety.verify_darboux"]),
            "dvariety.first_integral_search_s": per_op(
                T["dvariety.first_integral_search"]),
            "numint.integrate_s": per_op(T["numint.integrate"]),
            "numint.integrate_self_s": per_op(
                T["numint.integrate"]
                - self.nested[("numint.integrate", "accel.dopri5")]),
            "numint.compile_system_s": per_op(T["numint.compile_system"]),
            "numint.drift_s": per_op(T["numint.drift"]),
            "numint.drift_samples": per_op(N["numint.drift.samples"]),
            "numint.probe_s": per_op(T["numint.probe"]),
            "transforms.verify_transform_s": per_op(
                T["transforms.verify_transform"]),
            "transforms.verify_transform_calls": per_op(
                C["transforms.verify_transform"]),
            "transforms.hamiltonian_check_s": per_op(
                T["transforms.hamiltonian_check"]),
            "catalog.instantiate_s": per_op(T["catalog.instantiate"]),
            "catalog.instantiate_calls": per_op(C["catalog.instantiate"]),
            "catalog.classify_s": per_op(T["catalog.classify"]),
            "field.parse_s": per_op(T["field.parse"]),
            "field.exact_divide_s": per_op(T["field.exact_divide"]),
            "cli.main_s": per_op(T["cli.main"]),
        }
