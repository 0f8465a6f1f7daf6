"""Per-layer tracing of nicecover, installed from outside the library.

`Tracer.install` replaces each public function of the seven layers with a
wrapper, under every name a caller can look it up by: the module attribute
and every `from`-imported alias in the other modules, such as
`cover.parse_rational`, `analysis.run_for` or `analysis.approx_to`.  A
wrapper records one span (name, parent span, start, end, request id,
size) in memory, or, for the few functions called once per net point or
bisection row, only a count.  Constructed reals are rewrapped so every
`approx` and `regulator` call is counted.  `uninstall` restores the
originals.

Everything in nicecover is single-threaded, so spans nest strictly and a
stack gives each its parent.  No queue or contended lock exists, so no
wait time is measured.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "rational", "expressions", "crn", "machine", "analysis", "cover")

SPANNED = {
    "cli": ("dispatch",),
    "rational": ("parse_rational", "render"),
    "expressions": ("parse_expression", "eval_rational", "eval_crn"),
    "crn": ("approx_to", "compare_apart", "from_rational", "add", "sub", "negate", "mul"),
    "machine": ("parse_program", "run_for", "dovetail_enumerate"),
    "analysis": ("parse_oracle", "parse_targets", "geometric_targets", "waiting_crn",
                 "halting_reduction", "bisect_to_precision", "bisect_limit"),
    "cover": ("parse_cover", "parse_certificate", "render_certificate", "lebesgue_candidates",
              "lebesgue_number", "extract_constant_radius", "build_eps_net",
              "extract_finite_subcover", "verify_subcover", "verify_certificate"),
}
# called once per bisection row or net point: counted, not spanned
COUNTED = {"analysis": ("bisect_step",), "cover": ("find_containing_element",)}

CRN_CONSTRUCTORS = {"crn.from_rational", "crn.add", "crn.sub", "crn.negate", "crn.mul",
                    "analysis.geometric_targets", "analysis.waiting_crn", "analysis.bisect_limit"}


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _nodes(node) -> int:
    if node[0] == "rat" or node[0] == "call":
        return 1
    return 1 + sum(_nodes(child) for child in node[1:])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, parent index, start ns, end ns, request, size)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.request = -1
        self._patches: list[tuple] = []
        self._runs: dict = {}  # (program, input) -> most steps run so far in this request
        self._depth: dict[int, int] = {}  # id of a constructed real -> expression depth
        self._keep: list = []  # keeps those reals alive so their ids stay unique

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        import nicecover.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "nicecover" or name.startswith("nicecover.")]
        for layer, names in SPANNED.items():
            for name in names:
                self._patch(modules, layer, name, spanned=True)
        for layer, names in COUNTED.items():
            for name in names:
                self._patch(modules, layer, name, spanned=False)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, modules, layer: str, name: str, spanned: bool) -> None:
        original = getattr(sys.modules[f"nicecover.{layer}"], name)
        full = f"{layer}.{name}"
        wrapper = self._span(full, original) if spanned else self._count(full, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def begin_request(self, request: int) -> None:
        self.request = request
        self._runs.clear()
        self._depth.clear()
        self._keep.clear()

    # ------------------------------------------------------------ wrappers

    def _count(self, full: str, fn):
        counts = self.counts
        key = full + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, full: str, fn):
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_after_" + full.replace(".", "_"), None)
        wraps_crn = full in CRN_CONSTRUCTORS or full == "analysis.bisect_to_precision"

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            size = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if wraps_crn:
                    result = self._wrap_crn(full, args, result)
                if hook is not None:
                    size = hook(args, result)
                return result
            finally:
                stack.pop()
                spans[index] = (full, parent, start, perf_counter_ns(), self.request, size)

        return spanned

    def _wrap_crn(self, full, args, result):
        """Count calls of the returned real's programs and remember its depth."""
        value = result[0] if full == "analysis.bisect_to_precision" else result
        counts = self.counts
        approx, regulator = value.approx, value.regulator
        if not getattr(approx, "_counted", False):
            def approx_counted(i, approx=approx):
                counts["crn.approx_calls"] += 1
                return approx(i)
            approx_counted._counted = True
            approx = approx_counted
        if not getattr(regulator, "_counted", False):
            def regulator_counted(n, regulator=regulator):
                counts["crn.regulator_calls"] += 1
                return regulator(n)
            regulator_counted._counted = True
            regulator = regulator_counted
        wrapped = type(value)(approx=approx, regulator=regulator)
        operands = [a for a in args if isinstance(a, type(value))] if full.startswith("crn.") else []
        self._depth[id(wrapped)] = 1 + max(self._depth.get(id(a), 0) for a in operands) if operands else 0
        self._keep.append(wrapped)
        return (wrapped, result[1]) if full == "analysis.bisect_to_precision" else wrapped

    # per-function hooks: update counts, return the call's size (or None)

    def _after_cli_dispatch(self, args, code):
        self.counts["cli.requests"] += 1
        self.counts["cli.exit_nonzero"] += code != 0

    def _after_rational_parse_rational(self, args, q):
        self.max_bits = max(self.max_bits, _bits(q))

    def _after_rational_render(self, args, text):
        self.max_bits = max(self.max_bits, _bits(args[0]))

    def _after_expressions_parse_expression(self, args, node):
        self.counts["expressions.nodes"] += _nodes(node)

    def _after_crn_approx_to(self, args, q):
        self.max_bits = max(self.max_bits, _bits(q))
        return self._depth.get(id(args[0]), 0)

    def _after_machine_run_for(self, args, outcome):
        program, input_value = args[0], args[1]
        steps = getattr(outcome, "steps", None)
        if steps is None:
            steps = outcome.budget
            self.counts["machine.still_running"] += 1
        self.counts["machine.steps"] += steps
        before = self._runs.get((program, input_value), 0)
        self.counts["machine.replayed_steps"] += min(before, steps)
        self._runs[(program, input_value)] = max(before, steps)
        return steps

    def _after_machine_dovetail_enumerate(self, args, emitted):
        inputs = len(set(args[1]))
        self.counts["machine.dovetail.inputs"] += inputs
        self.counts["machine.dovetail.halted"] += len(emitted)
        # the sweep stops when every run has halted or the budget is spent
        self.counts["machine.dovetail.steps"] += (
            sum(s for _, s in emitted) if len(emitted) == inputs else args[2])

    def _after_cover_lebesgue_candidates(self, args, candidates):
        self.counts["cover.candidates"] += len(candidates)
        self.counts["cover.radius_evals"] += len(candidates) * len(args[0])

    def _after_cover_lebesgue_number(self, args, value):
        return len(args[0])

    def _after_cover_build_eps_net(self, args, net):
        self.counts["cover.net_points"] += len(net)

    def _after_cover_verify_certificate(self, args, problems):
        return len(args[1].net)

    # ------------------------------------------------------------ results

    def work_counts(self) -> dict[str, int]:
        """Machine-independent counts; two traced runs of one seed must agree on all of them."""
        out = dict(self.counts)
        for name, _, _, _, _, _ in self.spans:
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out["rational.max_bits"] = self.max_bits
        return dict(sorted(out.items()))

    def self_times(self) -> dict[str, int]:
        """Total self time per function in ns: span duration minus its children's."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for i, (name, _, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def sized_calls(self, name: str) -> list[tuple[int, int]]:
        """(size, whole duration in ns) of every call of `name` that reported a size."""
        return [(size, end - start) for n, _, start, end, _, size in self.spans
                if n == name and size is not None]

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("index\tparent\tname\tstart_ns\tend_ns\trequest\tsize\n")
            for i, (name, parent, start, end, request, size) in enumerate(self.spans):
                f.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{request}\t{'' if size is None else size}\n")


def log_slope(points: list[tuple[int, int]], min_size: int) -> float:
    """Least-squares slope of log(duration) against log(size); 0.0 without two sizes to fit."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s >= min_size and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# (name, unit, better).  Times and counts are per round of the workload;
# a layer that a workload never reaches reports 0 there.
PER_LAYER = [
    ("cli.dispatch.self_ms", "ms", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.exit_nonzero", "count", "lower"),
    ("rational.parse_rational.calls", "count", "lower"),
    ("rational.parse_rational.self_ms", "ms", "lower"),
    ("rational.render.calls", "count", "lower"),
    ("rational.render.self_ms", "ms", "lower"),
    ("rational.max_bits", "bits", "lower"),
    ("expressions.parse_expression.self_ms", "ms", "lower"),
    ("expressions.eval_crn.self_ms", "ms", "lower"),
    ("expressions.nodes", "count", "lower"),
    ("crn.approx_to.calls", "count", "lower"),
    ("crn.approx_to.self_ms", "ms", "lower"),
    ("crn.mul.self_ms", "ms", "lower"),
    ("crn.approx_calls", "count", "lower"),
    ("crn.regulator_calls", "count", "lower"),
    ("crn.approx_to.depth_exponent", "exponent", "lower"),
    ("machine.parse_program.self_ms", "ms", "lower"),
    ("machine.run_for.calls", "count", "lower"),
    ("machine.run_for.self_ms", "ms", "lower"),
    ("machine.run_for.steps_exponent", "exponent", "lower"),
    ("machine.steps", "count", "lower"),
    ("machine.steps_per_s", "1/s", "higher"),
    ("machine.still_running", "count", "lower"),
    ("machine.replayed_steps", "count", "lower"),
    ("machine.replayed_step_ratio", "ratio", "lower"),
    ("machine.dovetail_enumerate.self_ms", "ms", "lower"),
    ("machine.dovetail.steps", "count", "lower"),
    ("machine.dovetail.halted_ratio", "ratio", "higher"),
    ("analysis.halting_reduction.self_ms", "ms", "lower"),
    ("analysis.reduce.runs_per_call", "runs/call", "lower"),
    ("analysis.bisect_to_precision.self_ms", "ms", "lower"),
    ("analysis.bisect.rows", "count", "lower"),
    ("cover.parse_cover.self_ms", "ms", "lower"),
    ("cover.parse_certificate.self_ms", "ms", "lower"),
    ("cover.render_certificate.self_ms", "ms", "lower"),
    ("cover.lebesgue_number.self_ms", "ms", "lower"),
    ("cover.lebesgue_number.k_exponent", "exponent", "lower"),
    ("cover.candidates", "count", "lower"),
    ("cover.radius_evals", "count", "lower"),
    ("cover.extract_finite_subcover.self_ms", "ms", "lower"),
    ("cover.net_points", "count", "lower"),
    ("cover.find_containing_element.calls", "count", "lower"),
    ("cover.verify_subcover.calls", "count", "lower"),
    ("cover.verify_subcover.self_ms", "ms", "lower"),
    ("cover.verify_certificate.self_ms", "ms", "lower"),
    ("cover.verify_certificate.n_exponent", "exponent", "lower"),
] + [(f"layer.{layer}.self_share", "ratio", "lower") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]

# smallest size that enters a scaling fit, so fixed per-call costs do not flatten it
FITS = {
    "cover.lebesgue_number.k_exponent": ("cover.lebesgue_number", 10),
    "cover.verify_certificate.n_exponent": ("cover.verify_certificate", 100),
    "crn.approx_to.depth_exponent": ("crn.approx_to", 4),
    "machine.run_for.steps_exponent": ("machine.run_for", 1000),
}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, as totals over the traced requests."""
    counts = t.work_counts()
    self_ns = t.self_times()
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".self_ms"):
            out[name] = self_ns.get(base, 0) / 1e6
        elif name in counts:
            out[name] = counts[name]
        elif unit == "count":
            out[name] = 0
    for name, (function, min_size) in FITS.items():
        out[name] = log_slope(t.sized_calls(function), min_size)
    out["analysis.bisect.rows"] = counts.get("analysis.bisect_step.calls", 0)
    run_s = self_ns.get("machine.run_for", 0) / 1e9
    steps = counts.get("machine.steps", 0)
    out["machine.steps_per_s"] = steps / run_s if run_s else 0.0
    out["machine.replayed_step_ratio"] = counts.get("machine.replayed_steps", 0) / steps if steps else 0.0
    inputs = counts.get("machine.dovetail.inputs", 0)
    out["machine.dovetail.halted_ratio"] = counts.get("machine.dovetail.halted", 0) / inputs if inputs else 0.0
    reductions = counts.get("analysis.halting_reduction.calls", 0)
    out["analysis.reduce.runs_per_call"] = _runs_inside(t, "analysis.halting_reduction") / reductions if reductions else 0.0
    total = sum(self_ns.values())
    for layer in LAYERS:
        mine = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        out[f"layer.{layer}.self_share"] = mine / total if total else 0.0
    return out


def _runs_inside(t: Tracer, ancestor: str) -> int:
    """How many `machine.run_for` spans have an `ancestor` span above them."""
    found = 0
    for name, parent, *_ in t.spans:
        if name != "machine.run_for":
            continue
        while parent >= 0:
            if t.spans[parent][0] == ancestor:
                found += 1
                break
            parent = t.spans[parent][1]
    return found
