"""In-memory span recorder for the traced benchmark pass, and the per-layer
metrics derived from its spans.

The recorder wraps public functions of the ``defring_audit`` modules from
outside.  A function imported with ``from .ff import name`` is bound once in
every module that imported it, so ``install`` replaces each binding of the
same function object, the defining module's own global included; calls made
inside that module (the root scan calling ``mk_field``) are then seen too.
``MatrixFF.__init__`` and ``MatrixFF.__mul__`` are wrapped on the class.

A span is ``(name, start, end, parent, item)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``item`` the scenario, criterion or
library call the span belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

from workloads import VERIFY_CRITERIA

LAYERS = ("cli", "acceptance", "ff", "partitions", "cohomology", "ledger", "density", "taylor")

# layer -> wrapped public functions
WRAPPED = {
    "cli": ("main", "run_scenario", "run_scenario_obj", "gn_audit"),
    "acceptance": ("run_criterion",),
    "ff": ("mk_field", "embed_field", "mat_rank", "mat_inverse", "charpoly",
           "eigenvalues_in_splitting_field"),
    "partitions": ("theta", "kernel_sequence"),
    "cohomology": ("cohomology_dims", "twisted_involution_action", "arch_lift_dim"),
    "ledger": ("framework_check", "dual_selmer_verdict"),
    "density": ("build_group", "subgroup_closure", "all_subgroups", "bound_certificate"),
    "taylor": ("eigenvalue_qpower_stable", "min_equals_type_partition",
               "satisfies_one_condition"),
}

# per-layer time metric -> span name whose outermost calls it sums
FUNCTION_TIMES = {
    "ff.mk_field.s": "ff.mk_field",
    "ff.mat_rank.s": "ff.mat_rank",
    "ff.mat_inverse.s": "ff.mat_inverse",
    "ff.charpoly.s": "ff.charpoly",
    "ff.embed_field.s": "ff.embed_field",
    "ff.eigen.s": "ff.eigenvalues_in_splitting_field",
    "partitions.theta.s": "partitions.theta",
    "partitions.kernel_sequence.s": "partitions.kernel_sequence",
    "cohomology.cohomology_dims.s": "cohomology.cohomology_dims",
    "cohomology.twisted_involution_action.s": "cohomology.twisted_involution_action",
    "cohomology.arch_lift_dim.s": "cohomology.arch_lift_dim",
    "ledger.framework_check.s": "ledger.framework_check",
    "ledger.dual_selmer_verdict.s": "ledger.dual_selmer_verdict",
    "density.build_group.s": "density.build_group",
    "density.subgroup_closure.s": "density.subgroup_closure",
    "density.all_subgroups.s": "density.all_subgroups",
    "density.bound_certificate.s": "density.bound_certificate",
    "taylor.eigenvalue_qpower_stable.s": "taylor.eigenvalue_qpower_stable",
    "taylor.min_equals_type_partition.s": "taylor.min_equals_type_partition",
    "taylor.satisfies_one_condition.s": "taylor.satisfies_one_condition",
}

# per-layer call count -> span name
CALL_COUNTS = {
    "ff.mk_field.calls": "ff.mk_field",
    "partitions.theta.calls": "partitions.theta",
    "ledger.framework_check.calls": "ledger.framework_check",
    "density.subgroup_closure.calls": "density.subgroup_closure",
}

# counters kept by the recorder itself
COUNTERS = (
    "ff.mk_field.misses", "ff.matrices_built", "ff.matrix_entries_built",
    "ff.matmul.calls", "ff.matmul.s", "ff.eigen.degree_sum",
    "density.subgroups_found", "density.elements_enumerated",
)

# field-op kernels: metric -> (p, m, op)
KERNELS = {
    "ff.add_ns.p2m10": (2, 10, "add"),
    "ff.mul_ns.p5m1": (5, 1, "mul"),
    "ff.mul_ns.p2m10": (2, 10, "mul"),
    "ff.mul_ns.p3m5": (3, 5, "mul"),
    "ff.inv_ns.p2m10": (2, 10, "inv"),
}
KERNEL_OPS = 2000
KERNEL_REPEATS = 5

class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []  # indices of the open spans
        self._layers: list[str] = []  # their layers

    def set_item(self, item) -> None:
        self.item = item

    def wrap(self, name, fn, item_of=None, observe=None):
        layer = name.split(".", 1)[0]
        spans = self.spans
        stack = self._stack
        layers = self._layers
        clock = time.perf_counter

        def traced(*args, **kwargs):
            saved = self.item
            if item_of is not None:
                self.item = item_of(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (name, start, end, parent, self.item)
                self.item = saved
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of every layer present in ``modules``."""
        scenarios = itertools.count()
        item_of = {
            "cli.run_scenario_obj": lambda args: next(scenarios),
            "acceptance.run_criterion": lambda args: args[0],
        }
        observe = {
            "ff.eigenvalues_in_splitting_field": _observe_eigen,
            "density.all_subgroups": _observe_subgroups,
            "density.bound_certificate": _observe_certificate,
        }
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and name.split(".")[0] == "defring_audit"]
        for layer, names in WRAPPED.items():
            module = modules.get(layer)
            if module is None:
                continue
            for fname in names:
                name = f"{layer}.{fname}"
                orig = getattr(module, fname)
                traced = self.wrap(name, orig, item_of.get(name), observe.get(name))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
        self._wrap_matrix(modules["ff"].MatrixFF)

    def _wrap_matrix(self, cls) -> None:
        counts = self.counts
        spans = self.spans
        stack = self._stack
        layers = self._layers
        clock = time.perf_counter
        init = cls.__init__
        mul = cls.__mul__

        def counted_init(obj, field, rows, cols, entries):
            init(obj, field, rows, cols, entries)
            counts["ff.matrices_built"] += 1
            counts["ff.matrix_entries_built"] += rows * cols

        def timed_mul(obj, other):
            start = clock()
            result = mul(obj, other)
            end = clock()
            counts["ff.matmul.calls"] += 1
            counts["ff.matmul.s"] += end - start
            # a product called from another layer is ff time inside that layer
            if not layers or layers[-1] != "ff":
                spans.append(("ff.matmul", start, end, stack[-1] if stack else -1, self.item))
            return result

        cls.__init__ = counted_init
        cls.__mul__ = timed_mul


def _observe_eigen(counts, args, result) -> None:
    counts["ff.eigen.degree_sum"] += result[0].m // args[0].field.m


def _observe_subgroups(counts, args, result) -> None:
    counts["density.subgroups_found"] += len(result)


def _observe_certificate(counts, args, result) -> None:
    counts["density.elements_enumerated"] += args[0].group_order


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: span time minus child spans into other layers.

    A span whose parent belongs to another layer (or that has no parent)
    adds its duration to its own layer and takes it away from the parent's
    layer, so nested spans of one layer are not counted twice.
    """
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        layer = layer_of(name)
        parent_layer = layer_of(spans[parent][0]) if parent >= 0 else None
        if parent_layer != layer:
            out[layer] += end - start
            if parent_layer is not None:
                out[parent_layer] -= end - start
    return dict(out)


def function_times(spans) -> dict[str, float]:
    """Total time per span name, counting only calls not nested in the same name."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] += end - start
    return dict(out)


def per_layer_names() -> list[str]:
    names = ["cli.import_s", "cli.self_s", "cli.report_bytes"]
    names += [f"acceptance.{c}_s" for c in VERIFY_CRITERIA] + ["acceptance.self_s"]
    names += [f"{layer}.self_s" for layer in LAYERS[2:]]
    names += list(FUNCTION_TIMES) + list(CALL_COUNTS) + list(COUNTERS) + list(KERNELS)
    names.append("bench.trace_overhead")
    return names


def per_layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric of a traced run's record; absent work reads 0.

    ``trace`` holds ``spans``, ``counts``, ``kernels`` and ``import_s`` as
    written by the launcher; the report size and trace overhead are added
    by the caller.
    """
    spans = trace["spans"]
    metrics = dict.fromkeys(per_layer_names(), 0.0)
    for layer, value in self_times(spans).items():
        metrics[f"{layer}.self_s"] = value
    totals = function_times(spans)
    for metric, name in FUNCTION_TIMES.items():
        metrics[metric] = totals.get(name, 0.0)
    calls = Counter(span[0] for span in spans)
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = calls[name]
    for name, start, end, _, item in spans:
        if name == "acceptance.run_criterion":
            metrics[f"acceptance.{item}_s"] += end - start
    for metric in COUNTERS:
        metrics[metric] = trace["counts"].get(metric, 0)
    metrics.update(trace["kernels"])
    metrics["cli.import_s"] = trace["import_s"]
    return metrics


# ---------------------------------------------------------------------------
# field-op kernels
# ---------------------------------------------------------------------------


def field_kernels(mk_field, seed: int) -> dict[str, float]:
    """Median nanoseconds per add/mul/inv on seeded nonzero operands."""
    rng = random.Random(f"perfbench:kernels:{seed}")
    out = {}
    for metric, (p, m, op) in KERNELS.items():
        f = mk_field(p, m)
        count = KERNEL_OPS // 10 if op == "inv" else KERNEL_OPS  # inv is a power
        xs = [rng.randrange(1, f.order) for _ in range(count)]
        ys = [rng.randrange(1, f.order) for _ in range(count)]
        fn = getattr(f, op)
        samples = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter_ns()
            if op == "inv":
                for x in xs:
                    fn(x)
            else:
                for x, y in zip(xs, ys):
                    fn(x, y)
            samples.append((time.perf_counter_ns() - start) / count)
        out[metric] = statistics.median(samples)
    return out
