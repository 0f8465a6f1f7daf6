"""nicecover benchmark: seeded CLI and library workloads, end to end and per layer.

    python3 bench/run.py --workload cover-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  The load is a closed loop: one client in one process sends a
request, waits for the answer, and sends the next.  A request is one CLI
command run in-process through `nicecover.cli.dispatch(argv)` with its
output captured, or, in `real-arith`, one library call.  Every answer is
checked against an oracle after the timed part of its round.

--trace 0 prints the end-to-end metrics.  --trace 1 replays the run's
first rounds in three fresh processes, one untraced and two traced, and
prints the per-layer metrics; the two traced replays must agree exactly on
every work count.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, Outcome, Uniq

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 11  # fresh interpreter starts per run; set-up time is their median
MIN_SAMPLES = 100  # so that at least ten latencies lie above the 90th percentile
# Median time of `probe` on the 2-core x86 sandbox where the benchmark was
# defined.  Reported times are scaled to that speed; see `probe`.
REFERENCE_PROBE_NS = 1_000_000

E2E_UNITS = {
    "throughput_rps": "req/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def probe() -> int:
    """Time a fixed piece of stdlib work (Fraction and integer arithmetic), in ns.

    The sandbox's speed drifts by tens of percent within a minute, because
    it shares cores with other machines' work.  A probe runs after every
    request; each request's time is multiplied by REFERENCE_PROBE_NS over
    the median of the probes around it, which cancels the drift while
    leaving any change in the library's own speed in place.
    """
    start = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003
    return time.perf_counter_ns() - start


def scaled(raw_ns: list[int], probes: list[int]) -> list[float]:
    """Request times in ms at the reference speed; probes[i] ran just before request i."""
    out = []
    for i, ns in enumerate(raw_ns):
        around = statistics.median(probes[max(0, i - 1) : i + 3])
        out.append(ns * REFERENCE_PROBE_NS / around / 1e6)
    return out


def execute(request, cli) -> tuple[Outcome, int]:
    """Send one request; the latency covers the dispatch or library call alone."""
    if request.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code, error = cli.dispatch(request.argv), None
            except Exception as exc:  # an uncaught exception is a failed request, not a crash
                code, error = None, exc
            elapsed = time.perf_counter_ns() - start
        return Outcome(code, out.getvalue(), err.getvalue(), error), elapsed
    start = time.perf_counter_ns()
    try:
        value, error = request.call(), None
    except Exception as exc:
        value, error = None, exc
    elapsed = time.perf_counter_ns() - start
    return Outcome(0 if error is None else None, value, "", error), elapsed


class Tally:
    """Checked requests, their latencies and the time spent sending them."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.scaled_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.rounds = 0
        self.failures: list[str] = []

    def check(self, request, outcome) -> None:
        self.attempted += 1
        try:
            reason = request.check(outcome)
        except Exception as exc:  # a malformed answer can break the oracle's parsing
            reason = f"oracle raised {exc!r}"
        if outcome.error is not None and reason is None:
            reason = f"raised {outcome.error!r}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{request.kind} {request.argv or ''}: {reason}")


def run_rounds(workload, seed: int, work: Path, tally: Tally, *, seconds: float = 0.0,
               rounds: int | None = None, tracer=None, tiny: bool = False) -> None:
    """Send whole rounds: `rounds` of them, or as many as start within `seconds`."""
    import nicecover.cli as cli

    uniq = Uniq()
    started = time.perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (
            r == 0 or time.perf_counter() - started < seconds or len(tally.latencies_ns) < MIN_SAMPLES):
        rng = random.Random(f"{workload.name}:{seed}:{r}")
        d = work / f"r{r}"
        requests = workload.round(rng, d, uniq, tiny)
        gc.collect()
        outcomes, raw, probes = [], [], [probe()]
        for request in requests:
            if tracer is not None:
                tracer.begin_request(len(tally.latencies_ns) + len(raw))
            outcome, elapsed = execute(request, cli)
            raw.append(elapsed)
            outcomes.append(outcome)
            if request.after is not None:
                request.after(outcome)
            probes.append(probe())
        tally.latencies_ns += raw
        tally.scaled_ms += scaled(raw, probes)
        tally.busy_ns += sum(raw)
        for request, outcome in zip(requests, outcomes):
            tally.check(request, outcome)
        shutil.rmtree(d)
        r += 1
    tally.rounds = r


def measure_setup(workload, d: Path, tally: Tally) -> float:
    """Median wall time, scaled like request times, of fresh `python -m nicecover`
    processes running the workload's first README command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_STARTS):
        speed = statistics.median(probe() for _ in range(5))
        start = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "nicecover", *workload.setup_argv], cwd=d, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter_ns() - start) * REFERENCE_PROBE_NS / speed / 1e9)
        tally.attempted += 1
        if proc.returncode != 0 or proc.stdout != workload.setup_stdout:
            tally.failed += 1
            tally.failures.append(f"set-up run: exit {proc.returncode}, {proc.stdout!r} {proc.stderr[-300:]!r}")
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float, work: Path) -> dict:
    import nicecover.cli as cli

    tally = Tally()
    d = work / "readme"
    d.mkdir()
    workload.files(d)
    setup_s = measure_setup(workload, d, tally)
    for request in workload.readme(d):  # warm-up, checked byte for byte, not timed
        outcome, _ = execute(request, cli)
        if request.after is not None:
            request.after(outcome)
        tally.check(request, outcome)
    run_rounds(workload, seed, work, tally, seconds=seconds)
    lat_ms = sorted(tally.scaled_ms)
    metrics = {
        "throughput_rps": len(lat_ms) / (sum(lat_ms) / 1e3),
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "ok_ratio": 1 - tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{workload.name} seed={seed}: {tally.rounds} rounds, {len(lat_ms)} timed requests, "
          f"{sum(1 for x in lat_ms if x > metrics['req_p90_ms'])} above p90, "
          f"{SETUP_STARTS} set-up starts; unscaled: {len(lat_ms) / (tally.busy_ns / 1e9):.4f} req/s, "
          f"p50 {statistics.median(tally.latencies_ns) / 1e6:.4f} ms", file=sys.stderr)
    return result(tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})


def result(tally: Tally, metrics: dict) -> dict:
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def replay(workload, seed: int, rounds: int | None, seconds: float, traced: bool, work: Path) -> dict:
    """One pass in this (fresh) process: the seed's first rounds, optionally traced."""
    import tracer as tracing

    tally = Tally()
    t = tracing.Tracer() if traced else None
    if t is not None:
        t.install()
    try:
        run_rounds(workload, seed, work, tally, seconds=seconds, rounds=rounds, tracer=t)
    finally:
        if t is not None:
            t.uninstall()
    out = {"rounds": tally.rounds, "requests": len(tally.latencies_ns), "service_ms": sum(tally.scaled_ms),
           "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}
    if t is not None:
        trace_dir = ROOT / ".bench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        t.write(trace_dir / f"{workload.name}-seed{seed}-pid{os.getpid()}.tsv")
        out["counts"] = t.work_counts()
        out["layers"] = tracing.layer_metrics(t)
    return out


def per_layer(workload, seed: int, seconds: float) -> dict:
    """Untraced, then twice traced, each in a fresh process over the same rounds."""
    import tracer as tracing

    def child(extra: list[str]) -> dict:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"replay failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    plain = child(["--replay", "plain", "--replay-seconds", str(seconds / 3)])
    rounds = ["--rounds", str(plain["rounds"])]
    first, second = child(["--replay", "traced", *rounds]), child(["--replay", "traced", *rounds])
    tally = Tally()
    for run in (plain, first, second):
        tally.attempted += run["attempted"]
        tally.failed += run["failed"]
        tally.failures += run["failures"]
    if first["counts"] != second["counts"]:
        differ = sorted(k for k in set(first["counts"]) | set(second["counts"])
                        if first["counts"].get(k) != second["counts"].get(k))
        tally.failed += 1
        tally.failures.append(f"work counts differ between two traced replays: {differ}")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = (first["service_ms"] + second["service_ms"]) / (2 * plain["service_ms"])
        else:
            value = (first["layers"][name] + second["layers"][name]) / 2
            if unit in ("ms", "count"):
                value /= plain["rounds"]
        metrics[name] = {"value": value, "unit": unit}
    print(f"{workload.name} seed={seed}: {plain['rounds']} rounds replayed, "
          f"{plain['requests']} requests per replay", file=sys.stderr)
    return result(tally, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: one replay pass of a --trace 1 run
    parser.add_argument("--replay", choices=("plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--replay-seconds", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nicecover" / "cli.py").is_file():
        print(f"error: no nicecover sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import nicecover

    if Path(nicecover.__file__).resolve().parent != ROOT / "src" / "nicecover":
        print(f"error: imported nicecover from {nicecover.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    # relative, so file names inside expressions carry no commas or parentheses from the checkout's path
    work = Path(".bench_work") / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.replay:
            out = replay(workload, args.seed, args.rounds, args.replay_seconds, args.replay == "traced", work)
        elif args.trace:
            out = per_layer(workload, args.seed, args.seconds)
        else:
            out = end_to_end(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
