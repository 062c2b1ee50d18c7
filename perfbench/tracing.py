"""Spans around calls into the public functions of the qcft modules.

A Tracer replaces each target function with a wrapper, wherever a qcft module
holds it: as a module attribute, as a name another module bound with
`from ... import`, as a FracQSeries or VermaGram method, or as an entry of
`checks.GROUPS`.  Each call records (name, start, end, parent span, operation
id) in memory; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SHORT_ORDER = 64  # series.mul / series.invert split: .short is order <= 64


def _series_order(args) -> int:
    return min(a.order for a in args[:2] if hasattr(a, "order"))


def _mul(args, kwargs, result):
    n = _series_order(args)
    band = "short" if n <= SHORT_ORDER else "long"
    return f"series.mul.{band}", {"series.mul.terms": n * (n + 1) // 2}


def _invert(args, kwargs, result):
    band = "short" if args[0].order <= SHORT_ORDER else "long"
    return f"series.invert.{band}", None


def _gram(args, kwargs, result):
    return f"virasoro.gram_matrix.L{result.level}", {"virasoro.gram.dim": result.dimension}


def _determinant(args, kwargs, result):
    return f"virasoro.determinant.L{args[0].level}", None


def _count_partitions(args, kwargs, result):
    walked = sum(result.values[:61])  # the oracle enumerates every partition of n <= 60
    return None, {"partitions.oracle_partitions": walked}


def _lattice(args, kwargs, result):
    lx, ly = args[0].sites
    return None, {"boson.lattice.sites": lx * ly}


def _extract(args, kwargs, result):
    from qcft.mock import DEFAULT_Z_LIST
    z_list = args[1] if len(args) > 1 else kwargs.get("z_list", DEFAULT_Z_LIST)
    return None, {"mock.remainder_samples": len(z_list) * result.grid}


def _report_bytes(args, kwargs, result):
    return None, {"reports.bytes": len(result)}


# (module, attribute, span name, extra) -- `extra(args, kwargs, result)` returns
# an alias span name (timed and counted like the span) and counter increments.
FUNCTIONS = [
    ("special", "rr_product", "special.rr_product", None),
    ("special", "dedekind_eta", "special.dedekind_eta", None),
    ("special", "eisenstein", "special.eisenstein", None),
    ("special", "eta_eval", "special.eta_eval", None),
    ("special", "evaluate_series", "special.evaluate_series", None),
    ("partitions", "count_partitions", "partitions.count_partitions", _count_partitions),
    ("partitions", "gordon_check", "partitions.gordon_check", None),
    ("regularization", "oscillator_partition_series",
     "regularization.oscillator_partition_series", None),
    ("regularization", "twisted_oscillator_series",
     "regularization.twisted_oscillator_series", None),
    ("virasoro", "gram_matrix", "virasoro.gram_matrix", _gram),
    ("virasoro", "ode_residual", "virasoro.ode_residual", None),
    ("virasoro", "character_25", "virasoro.character_25", None),
    ("virasoro", "torus_partition_function_25", "virasoro.torus_partition_function_25", None),
    ("boson", "boson_partition_function", "boson.boson_partition_function", None),
    ("boson", "theta_lattice_sum", "boson.theta_lattice_sum", None),
    ("boson", "twisted_boson_partition_function", "boson.twisted_boson_partition_function",
     None),
    ("boson", "lattice_determinant_ratio", "boson.lattice_determinant_ratio", _lattice),
    ("boson", "continuum_determinant_ratio", "boson.continuum_determinant_ratio", None),
    ("mock", "jacobi_theta", "mock.jacobi_theta", None),
    ("mock", "appell_lerch_mu", "mock.appell_lerch_mu", None),
    ("mock", "elliptic_genus_k3", "mock.elliptic_genus_k3", None),
    ("mock", "mock_remainder", "mock.mock_remainder", None),
    ("mock", "extract_mock_coefficients", "mock.extract_mock_coefficients", _extract),
    ("reports", "reports_to_bytes", "reports.reports_to_bytes", _report_bytes),
]

METHODS = [
    ("series", "FracQSeries", "__mul__", "series.mul", _mul),
    ("series", "FracQSeries", "invert", "series.invert", _invert),
    ("series", "FracQSeries", "mul_sparse", "series.mul_sparse", None),
    ("series", "FracQSeries", "q_derivative", "series.q_derivative", None),
    ("series", "FracQSeries", "__add__", "series.add", None),
    ("virasoro", "VermaGram", "determinant", "virasoro.determinant", _determinant),
]


class Tracer:
    """Records spans for calls into qcft; owns the patches it installs."""

    def __init__(self):
        self.spans: list = []       # (name, alias, start, end, parent, op_id, outermost)
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self.active = True          # False while the benchmark checks outputs
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list = []    # (holder, attribute or key, original)

    # -- installation ----------------------------------------------------------------

    def _wrap(self, fn, name: str, extra):
        spans, stack, depth, counters = self.spans, self._stack, self._depth, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outermost = depth[name] == 0
            depth[name] += 1
            result = alias = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                if extra is not None and result is not None:
                    alias, counts = extra(args, kwargs, result)
                    for key, value in (counts or {}).items():
                        counters[key] += value
                spans[index] = (name, alias, start, end, parent, self.op_id, outermost)

        return traced

    def install(self) -> None:
        from qcft import checks
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "qcft" or key.startswith("qcft.")) and m is not None]
        for mod_name, attr, name, extra in FUNCTIONS:
            original = getattr(sys.modules[f"qcft.{mod_name}"], attr)
            wrapper = self._wrap(original, name, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for mod_name, cls_name, attr, name, extra in METHODS:
            cls = getattr(sys.modules[f"qcft.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(original, name, extra)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    self._patch(cls, key, wrapper)
        for group, fn in list(checks.GROUPS.items()):
            self._patches.append((checks.GROUPS, group, fn))
            checks.GROUPS[group] = self._wrap(fn, f"checks.{group}", None)

    def _patch(self, holder, key, wrapper) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------

    def span_totals(self) -> dict[str, float]:
        """Per span name (and alias): calls, busy seconds and self seconds."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, alias, start, end, parent, _, outermost) in enumerate(self.spans):
            duration = end - start
            for key in (name, alias) if alias else (name,):
                out[f"{key}.calls"] += 1
                if outermost:
                    out[f"{key}.s"] += duration
                out[f"{key}.self_s"] += duration - child_time[index]
        return out

    def metrics(self) -> dict[str, float]:
        """Span totals and counters."""
        totals = self.span_totals()
        totals.update(self.counters)
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for index, (name, alias, start, end, parent, op_id, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": alias or name, "start": start,
                                     "end": end, "parent": parent, "op": op_id}) + "\n")
