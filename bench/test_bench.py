"""Self-test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks each generator oracle against an independent path (a brute-force
grid scan for Lebesgue numbers, a separate reference interpreter for step
counts and dovetail schedules, Python's own evaluator for expressions),
runs every workload once, and asserts that every per-layer metric records
work on the workload that is meant to exercise it, so that a renamed
library function cannot silently drop a layer.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def simulate(text: str, value: int, budget: int):
    """Reference interpreter: dict registers, partition label scan; the halting step or None."""
    labels, code = {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        while ":" in line:
            head, _, line = line.partition(":")
            labels[head.strip()] = len(code)
            line = line.strip()
        if line:
            code.append(line.split())
    regs, pc = {0: value}, 0
    for step in range(1, budget + 1):
        op, *args = code[pc]
        if op == "HALT":
            return step
        if op in ("INC", "DEC"):
            r = int(args[0])
            regs[r] = max(0, regs.get(r, 0) + (1 if op == "INC" else -1))
            pc += 1
        elif op == "JZ":
            pc = labels[args[1]] if regs.get(int(args[0]), 0) == 0 else pc + 1
        else:
            pc = labels[args[0]]
        if pc >= len(code):
            return step
    return None


FAMILIES = [wl.countdown(0), wl.countdown(3), wl.MOD3, wl.SQUARE, wl.LOOPER]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_closed_form_step_counts(family):
    for v in range(40):
        want = family.steps(v)
        budget = 20_000
        assert simulate(family.text, v, budget) == (want if want is not None and want <= budget else None)


def test_dovetail_schedule_matches_round_robin():
    rng = random.Random(5)
    for _ in range(30):
        family = rng.choice(FAMILIES[:4])
        first, width, budget = rng.randint(0, 20), rng.randint(1, 12), rng.randint(1, 600)
        # round robin over step-by-step reference runs
        inputs = list(range(first, first + width))
        halts = {v: simulate(family.text, v, 10**6) for v in inputs}
        pending, done, spent, sweep = list(inputs), [], 0, 0
        while pending and spent < budget:
            sweep += 1
            survivors = []
            for v in pending:
                if spent >= budget:
                    survivors.append(v)
                    continue
                spent += 1
                (done if halts[v] == sweep else survivors).append(v)
            pending = survivors
        got = wl.dovetail_expected([family.steps(v) for v in inputs], first, budget)
        assert got == [(v, halts[v]) for v in done]


def grid_lebesgue(elements, denominator):
    """Minimum over the grid j / (2 D) of the best containment margin, exactly."""
    doubled = [(2 * lo, 2 * hi) for lo, hi in elements]
    best = min(max(min(x - lo, hi - x) for lo, hi in doubled) for x in range(2 * denominator + 1))
    witness = next(x for x in range(2 * denominator + 1)
                   if max(min(x - lo, hi - x) for lo, hi in doubled) == best)
    return F(best, 2 * denominator), F(witness, 2 * denominator)


def test_cover_oracles_against_grid_scan(monkeypatch):
    # a small denominator keeps the scan short; every breakpoint lies on the 1/(2D) grid
    monkeypatch.setattr(wl, "D", 2000)
    rng = random.Random(7)
    for trial in range(150):
        k = rng.randint(2, 14)
        gap = trial % 2 == 0
        cover = wl.make_cover(rng, k, rng.randint(8, 200), rng.randint(0, 3), gap=gap)
        best, witness = grid_lebesgue(cover.elements, 2000)
        if gap:
            assert (witness, best) == cover.gap
        else:
            assert best == cover.lebesgue
        text = wl.cover_text(cover, rng)
        parsed = [tuple(F(t) for t in line.split()) for line in text.splitlines() if not line.startswith("#")]
        assert parsed == [(F(lo, 2000), F(hi, 2000)) for lo, hi in cover.elements]


def test_expected_certificate_properties(monkeypatch):
    monkeypatch.setattr(wl, "D", 2000)
    rng = random.Random(8)
    for _ in range(20):
        cover = wl.make_cover(rng, rng.randint(2, 6), rng.randint(8, 40), rng.randint(0, 3))
        r = cover.lebesgue * F(rng.randint(15, 20), 20)
        text, failure = wl.expected_certificate(cover.elements, r)
        assert failure is None
        lines = text.splitlines()
        assert lines[0] == f"r={r}"
        intervals = [(F(lo, 2000), F(hi, 2000)) for lo, hi in cover.elements]
        points, used = [], set()
        for line in lines[1:-1]:
            m = re.fullmatch(r"net (\S+) -> element (\d+)", line)
            c, e = F(m.group(1)), int(m.group(2))
            inside = [j for j, (lo, hi) in enumerate(intervals) if lo <= c - r and c + r <= hi]
            assert inside and inside[0] == e  # the ball fits, and e is the first element it fits
            points.append(c)
            used.add(e)
        assert points == sorted(set([r * i for i in range(int(1 / r) + 1)] + [F(1)]))
        assert lines[-1] == "selected " + ",".join(map(str, sorted(used)))


def test_expression_values_match_python_evaluation():
    rng = random.Random(9)
    for _ in range(200):
        text, value = wl.gen_expression(rng, rng.randint(1, 30))
        python = re.sub(r"\d+(?:\.\d+)?", lambda m: f"F('{m.group()}')", text)
        assert eval(python, {"F": F}) == value


def test_bisection_rows_keep_the_threshold_enclosed():
    for c in (F(1, 3), F(1, 2), F(5, 7)):
        rows = wl.bisection_rows([c], F(0), F(1), 60)
        for i, (lo, hi, _) in enumerate(rows):
            assert lo < c <= hi and hi - lo == F(1, 2**i)
    assert wl.stair_limit([F(1, 4), F(3, 4)], F(0), F(1)) == F(3, 4)


# metric -> the workload that must record it
EXERCISED = {
    "cover-certify": ("cover.", "layer.cover.", "rational.parse_rational.", "rational.render.", "cli.exit_nonzero"),
    "halting-probe": ("machine.", "layer.machine.", "analysis.halting_reduction.", "analysis.reduce.",
                      "layer.analysis."),
    "real-arith": ("expressions.", "crn.", "layer.crn.", "layer.expressions.", "analysis.bisect",
                   "rational.max_bits", "layer.rational."),
}
EVERYWHERE = ("cli.dispatch.", "cli.requests", "layer.cli.")
# layers a workload never reaches, whose metrics must stay 0 there
ABSENT = {"cover-certify": ("expressions.", "crn.", "machine."), "halting-probe": ("cover.", "expressions."),
          "real-arith": ("cover.",)}


def tiny_pass(workload, tmp_path, seed, traced):
    tally = run.Tally()
    t = tracing.Tracer() if traced else None
    if t is not None:
        t.install()
    try:
        run.run_rounds(workload, seed, tmp_path, tally, rounds=1, tracer=t, tiny=True)
    finally:
        if t is not None:
            t.uninstall()
    assert tally.failed == 0, tally.failures
    return tally, t


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_runs_and_every_layer_metric_records(name, tmp_path):
    import nicecover.cli as cli

    workload = wl.WORKLOADS[name]
    readme = tmp_path / "readme"
    readme.mkdir()
    workload.files(readme)
    tally = run.Tally()
    for request in workload.readme(readme):
        outcome, _ = run.execute(request, cli)
        if request.after is not None:
            request.after(outcome)
        tally.check(request, outcome)
    assert tally.failed == 0, tally.failures

    tiny_pass(workload, tmp_path / "plain", 1, traced=False)
    _, first = tiny_pass(workload, tmp_path / "a", 1, traced=True)
    _, second = tiny_pass(workload, tmp_path / "b", 1, traced=True)
    assert first.work_counts() == second.work_counts()
    assert cli.dispatch.__module__ == "nicecover.cli"  # the tracer put every original back

    metrics = tracing.layer_metrics(first)
    assert set(metrics) == {n for n, _, _ in tracing.PER_LAYER} - {"trace.overhead_ratio"}
    wanted = [m for m in metrics if m.startswith(EXERCISED[name] + EVERYWHERE)]
    assert wanted
    assert [m for m in wanted if not metrics[m] > 0] == []
    assert [m for m in metrics if m.startswith(ABSENT[name]) and metrics[m] != 0] == []


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "real-arith", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
