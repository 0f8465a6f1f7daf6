"""Seeded request generators for the nicecover benchmark.

Every request carries the answer it must produce, and that answer is known
by construction, never by asking the library:

- covers are built so that their Lebesgue number follows from the joint
  overlaps and end margins, and certificates are rebuilt here from the
  interval endpoints in integer arithmetic;
- machine programs come from families with closed-form halting steps;
- rational expressions are evaluated with plain ``Fraction`` while they
  are generated, and bisection limits are the ``step@c`` thresholds.

A workload is a stream of rounds.  Every round of a workload has the same
composition (the same number of requests of each kind and size class);
the seed only moves the parameters inside each class.  That keeps the work
per round nearly equal across seeds, so a run's metrics are steady, while
no two requests of a run are identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------- requests


@dataclass
class Outcome:
    """What one request gave back: exit code and captured output, or a value."""

    code: int | None
    out: object  # stdout text for CLI requests, the return value for API calls
    err: str = ""
    error: BaseException | None = None


Check = Callable[[Outcome], "str | None"]


@dataclass
class Request:
    """One closed-loop request: a CLI argv or a library call, plus its oracle.

    `check` returns None when the outcome is right and a reason otherwise.
    `after` is the client acting on the answer before the next request,
    such as saving a printed certificate to a file; it is not timed as
    part of the request.
    """

    kind: str
    check: Check
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    after: Callable[[Outcome], None] | None = None
    key: tuple = field(default=())


def expect(code: int, text: str) -> Check:
    def check(o: Outcome) -> str | None:
        if o.code != code:
            return f"exit {o.code}, expected {code}"
        if o.out != text:
            return f"output {_clip(o.out)!r}, expected {_clip(text)!r}"
        return None

    return check


def _clip(text: object, limit: int = 160) -> str:
    s = str(text)
    return s if len(s) <= limit else s[:limit] + "..."


def _rat(q: F) -> str:
    """Canonical rendering, as the README documents it: `p/q`, or `p` for integers."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Uniq:
    """Rejects a request whose content repeats an earlier one in the same run."""

    def __init__(self):
        self.seen: set = set()

    def fresh(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """`count` values over [lo, hi], one from each of `count` equal slices, in random order.

    Spreading a class's sizes this way keeps each round's total work close
    to that of every other round, whatever the seed.
    """
    width = (hi - lo) / count
    values = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(values)
    return values


def int_strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    return [min(hi, int(v)) for v in strata(rng, lo, hi + 1, count)]


# ---------------------------------------------------------------- covers

D = 200_000  # denominator of every cover endpoint: 2^6 * 5^5, so each one is an exact decimal


@dataclass
class Cover:
    """Intervals in units of 1/D, in file order, with what is known about them."""

    elements: list[tuple[int, int]]
    chain: list[int]  # file index of the j-th chain element, left to right
    lebesgue: F | None  # exact Lebesgue number, None for a non-cover
    gap: tuple[F, F] | None  # (witness point, best radius) of a non-cover
    uncovered: F | None  # verify witness when every chain element is selected


def make_cover(rng: random.Random, k: int, net: int, noise: int, gap: bool = False) -> Cover:
    """A chain of k open intervals over [0, 1] plus `noise` intervals nested in them.

    Only neighbours overlap.  Joint j has overlap d_j, the ends stick out
    by margins m0 and m1, and every interval is longer than its overlaps,
    so the radius envelope dips lowest at an overlap midpoint (value
    d_j / 2) or at an end (value m).  The Lebesgue number is therefore
    min(m0, m1, d_j / 2) exactly; one of them is made tight at h, chosen
    so the lebesgue net has about `net` points.  Nested intervals are
    dominated and change nothing.  With `gap`, one joint gets a
    non-positive overlap instead, and the cover fails at its midpoint; h is
    kept below s / 6 there, so the interval left of the gap still reaches
    past its left neighbour.
    """
    s = D // k
    h = max(1, min(D // net, s // 6 if gap else s // 4))
    joints = [j * s + rng.randint(-(s // 8), s // 8) for j in range(1, k)]
    overlaps = [2 * h + rng.randint(0, h) for _ in joints]
    margins = [h + rng.randint(0, h), h + rng.randint(0, h)]
    tight = rng.randrange(k + 1)
    if tight < 2:
        margins[tight] = h
    else:
        overlaps[tight - 2] = 2 * h
    g = rng.randrange(k - 1) if gap else None
    if g is not None:
        overlaps[g] = -rng.randint(0, h)
    chain = []
    for j in range(k):
        lo = -margins[0] if j == 0 else joints[j - 1]
        hi = D + margins[1] if j == k - 1 else joints[j] + overlaps[j]
        chain.append((lo, hi))
    nested = []
    for _ in range(noise):
        lo, hi = chain[rng.randrange(k)]
        a = rng.randint(lo, hi - 2)
        nested.append((a, rng.randint(a + 1, hi)))
    order = list(range(k + noise))
    rng.shuffle(order)
    every = chain + nested
    elements = [every[i] for i in order]
    position = {orig: pos for pos, orig in enumerate(order)}
    if g is None:
        return Cover(elements, [position[j] for j in range(k)], F(h, D), None, None)
    witness = F(2 * joints[g] + overlaps[g], 2 * D)
    return Cover(
        elements,
        [position[j] for j in range(k)],
        None,
        (witness, F(overlaps[g], 2 * D)),
        F(joints[g] + overlaps[g], D),
    )


def _endpoint_text(units: int, rng: random.Random) -> str:
    if rng.random() < 0.5:
        return _rat(F(units, D))
    scaled = units * (10**6 // D)
    whole, frac = divmod(abs(scaled), 10**6)
    return f"{'-' if scaled < 0 else ''}{whole}.{frac:06d}"


def cover_text(cover: Cover, rng: random.Random) -> str:
    lines = []
    for lo, hi in cover.elements:
        if rng.random() < 0.05:
            lines.append("# nested or chained, the order is shuffled")
        lines.append(f"{_endpoint_text(lo, rng)} {_endpoint_text(hi, rng)}")
    return "\n".join(lines) + "\n"


def net_points(r: F) -> list[F]:
    """The grid 0, r, 2r, ... up to 1, with 1 appended when the grid misses it."""
    count = (F(1) / r).numerator // (F(1) / r).denominator
    net = [r * i for i in range(count + 1)]
    if net[-1] != 1:
        net.append(F(1))
    return net


def expected_certificate(elements: list[tuple[int, int]], r: F) -> tuple[str | None, str | None]:
    """The certificate the subcover command must print for radius r.

    Each net point is assigned the smallest element index whose interval
    contains its open r-ball; `selected` is the set of assigned indices.
    Returns (certificate text, None), or (None, failure message) when some
    ball fits no element.  Works in integers over the denominator D * q.
    """
    p, q = r.numerator, r.denominator
    scaled = [(lo * q, hi * q) for lo, hi in elements]  # units of 1/(D q)
    rd = p * D
    lines = [f"r={_rat(r)}"]
    used = set()
    for c in net_points(r):
        cu = c.numerator * D * q // c.denominator
        for index, (lo, hi) in enumerate(scaled):
            if lo <= cu - rd and cu + rd <= hi:
                break
        else:
            return None, (
                f"no-containing-element ball ({_rat(c - r)}, {_rat(c + r)}) fits no cover element\n"
            )
        used.add(index)
        lines.append(f"net {_rat(c)} -> element {index}")
    lines.append("selected " + ",".join(str(j) for j in sorted(used)))
    return "\n".join(lines) + "\n", None


def check_certificate(elements, r: F) -> Check:
    text, failure = expected_certificate(elements, r)

    def check(o: Outcome) -> str | None:
        if failure is not None:
            return expect(1, failure)(o)
        if o.code != 0:
            return f"exit {o.code}, expected 0"
        if o.out == text:
            return None
        got, want = str(o.out).splitlines(), text.splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"certificate line {i}: {a!r}, expected {b!r}"
        return f"certificate has {len(got)} lines, expected {len(want)}"

    return check


def check_invalid_certificate(required: str, exact: bool) -> Check:
    """Exit 1, every line a `certificate-invalid:` problem, and the one the mutation must cause."""

    def check(o: Outcome) -> str | None:
        if o.code != 1:
            return f"exit {o.code}, expected 1"
        lines = str(o.out).splitlines()
        want = f"certificate-invalid: {required}"
        if any(not line.startswith("certificate-invalid: ") for line in lines):
            return f"unexpected line in {_clip(o.out)!r}"
        if exact and lines != [want]:
            return f"output {_clip(o.out)!r}, expected only {want!r}"
        if want not in lines:
            return f"missing {want!r} in {_clip(o.out)!r}"
        return None

    return check


def mutate_certificate(text: str, elements, rng: random.Random) -> tuple[str, str, bool]:
    """A broken copy of a printed certificate, the problem it must cause, and
    whether that problem is the only one."""
    lines = text.splitlines()
    r = F(lines[0][2:])
    nets = [i for i, line in enumerate(lines) if line.startswith("net ")]
    kind = rng.choice(("drop", "reassign", "selected"))
    if kind == "drop" and len(nets) >= 5:
        # an interior grid point whose right neighbour is exactly r away
        i = rng.choice(nets[1:-3])
        point = F(lines[i][4:].split(" -> ")[0])
        del lines[i]
        return "\n".join(lines) + "\n", f"net with radius {_rat(r)} leaves {_rat(point)} uncovered", False
    if kind in ("drop", "reassign"):
        i = rng.choice(nets)
        point_text, _ = lines[i][4:].split(" -> element ")
        c = F(point_text)
        for e in rng.sample(range(len(elements)), len(elements)):
            lo, hi = F(elements[e][0], D), F(elements[e][1], D)
            if not (lo <= c - r and c + r <= hi):
                lines[i] = f"net {point_text} -> element {e}"
                problem = (
                    f"ball ({_rat(c - r)}, {_rat(c + r)}) around net point {_rat(c)} "
                    f"is not inside element {e} ({_rat(lo)}, {_rat(hi)})"
                )
                return "\n".join(lines) + "\n", problem, False
    selected = lines[-1][len("selected ") :].split(",")
    if len(selected) < 2:
        selected.append(str(len(elements)))
    else:
        del selected[rng.randrange(len(selected))]
    lines[-1] = "selected " + ",".join(selected)
    return "\n".join(lines) + "\n", "selected list does not match the set of assigned elements", True


# ---------------------------------------------------------------- machine programs


@dataclass(frozen=True)
class Family:
    """A program text with its halting step in closed form (None: never halts)."""

    name: str
    text: str
    steps: Callable[[int], "int | None"]
    inverse: Callable[[int], int]  # an input whose halting step is about the given count


def countdown(pad: int) -> Family:
    body = "".join("      INC 1\n" for _ in range(pad))
    text = f"# drain register 0, {pad} padding steps a lap\nloop: JZ 0 end\n      DEC 0\n{body}      GOTO loop\nend:  HALT\n"
    lap = 3 + pad
    return Family(f"countdown{pad}", text, lambda v: lap * v + 2, lambda s: max(0, (s - 2) // lap))


MOD3 = Family(
    "mod3",
    "top:  JZ 0 spin\n      DEC 0\n      JZ 0 done\n      DEC 0\n      JZ 0 done\n"
    "      DEC 0\n      GOTO top\nspin: GOTO spin\ndone: HALT\n",
    lambda v: None if v % 3 == 0 else 7 * (v // 3) + (4 if v % 3 == 1 else 6),
    lambda s: 3 * max(0, s // 7) + 1,
)

LOOPER = Family("looper", "loop: GOTO loop\n", lambda v: None, lambda s: s)

# r0 = v; each outer lap with r0 = i moves i - 1 units to r1 and back, 8i - 4 steps
SQUARE = Family(
    "square",
    "outer: JZ 0 end\n       DEC 0\nmv:    JZ 0 back\n       DEC 0\n       INC 1\n       GOTO mv\n"
    "back:  JZ 1 outer\n       DEC 1\n       INC 0\n       GOTO back\nend:   HALT\n",
    lambda v: 4 * v * v + 2,
    lambda s: math.isqrt(max(0, (s - 2) // 4)),
)

COUNTDOWN_README = "loop: JZ 0 end\n      DEC 0\n      GOTO loop\nend:  HALT\n"


def dovetail_expected(steps: list["int | None"], first: int, budget: int) -> list[tuple[int, int]]:
    """Closed form of the round-robin schedule.

    In sweep s every pending input takes its s-th step, in input order.  An
    input halting at step s therefore runs that step after sum_j min(S_j,
    s - 1) steps of earlier sweeps plus one step for each smaller input
    still pending, and it is emitted only if fewer than `budget` steps were
    spent before it.
    """
    out = []
    for i, s in enumerate(steps):
        if s is None:
            continue
        before = sum(min(t, s - 1) if t is not None else s - 1 for t in steps)
        before += sum(1 for t in steps[:i] if t is None or t >= s)
        if before < budget:
            out.append((s, first + i))
    return [(v, s) for s, v in sorted(out)]


# ---------------------------------------------------------------- bisection


def stair_limit(thresholds: list[F], lo: F, hi: F) -> F:
    """The point bisection converges to: the largest threshold in (lo, hi]."""
    return max(c for c in thresholds if lo < c <= hi)


def bisection_rows(thresholds: list[F], lo: F, hi: F, count: int) -> list[tuple[F, F, str]]:
    """Rows 0..count of the halving that keeps endpoint labels apart, upper half first."""

    def label(t: F) -> int:
        return sum(1 for c in thresholds if c <= t)

    rows = [(lo, hi, "init")]
    for _ in range(count):
        lo, hi = rows[-1][0], rows[-1][1]
        mid = (lo + hi) / 2
        rows.append((mid, hi, "upper") if label(mid) != label(hi) else (lo, mid, "lower"))
    return rows


def bisection_index(width: F, m: int) -> int:
    """First row whose width is below 2^-m."""
    i = 0
    while not width / 2**i < F(1, 2**m):
        i += 1
    return i


# ---------------------------------------------------------------- expressions


def _literal(rng: random.Random) -> tuple[str, F]:
    form = rng.random()
    if form < 0.4:
        n = rng.randint(0, 99)
        return str(n), F(n)
    if form < 0.75:
        p, q = rng.randint(0, 99), rng.randint(1, 64)
        return f"{p}/{q}", F(p, q)
    whole, digits = rng.randint(0, 9), rng.randint(1, 3)
    frac = rng.randint(0, 10**digits - 1)
    return f"{whole}.{frac:0{digits}d}", F(whole * 10**digits + frac, 10**digits)


def gen_expression(rng: random.Random, leaves: int, atoms: Callable[[], tuple[str, F]] | None = None) -> tuple[str, F]:
    """A random + - * expression over `leaves` leaves, and its exact value.

    Leaves are rational literals, or, with probability 1/4 when `atoms` is
    given, a builtin call whose limit `atoms` returns.  Products are kept
    rarer than sums so values stay small enough to print.
    """
    if leaves <= 1:
        if atoms is not None and rng.random() < 0.25:
            text, value = atoms()
        else:
            text, value = _literal(rng)
        if rng.random() < 0.1:
            return f"-({text})", -value
        return text, value
    left_n = rng.randint(1, leaves - 1)
    lt, lv = gen_expression(rng, left_n, atoms)
    rt, rv = gen_expression(rng, leaves - left_n, atoms)
    op = rng.choices("+-*", weights=(4, 3, 2))[0]
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    space = " " if rng.random() < 0.7 else ""
    return f"({lt}{space}{op}{space}{rt})", value


# ---------------------------------------------------------------- workloads


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class Workload:
    name = ""
    why = ""
    # the first README command, run in fresh processes to time set-up
    setup_argv: list[str] = []
    setup_stdout = ""

    def files(self, d: Path) -> None:
        """README example files, written once per run."""
        _write(d / "countdown.cm", COUNTDOWN_README)
        _write(d / "looper.cm", "loop: GOTO loop\n")
        _write(d / "cover.txt", "-0.1 0.6\n0.4 1.1\n")

    def readme(self, d: Path) -> list[Request]:
        raise NotImplementedError

    def round(self, rng: random.Random, d: Path, uniq: Uniq, tiny: bool) -> list[Request]:
        raise NotImplementedError


class CoverCertify(Workload):
    name = "cover-certify"
    why = (
        "the only workload that reaches the cover layer: cubic Lebesgue numbers, "
        "quadratic certificate checks, extraction beside verification, passing beside failing inputs"
    )
    setup_argv = ["cover", "lebesgue", "--cover", "cover.txt"]
    setup_stdout = "lebesgue-number=1/10\n"

    def readme(self, d: Path) -> list[Request]:
        c = str(d / "cover.txt")
        cert = d / "readme-cert.txt"
        elements = [(-20_000, 120_000), (80_000, 220_000)]
        readme_lines = ["r=1/10", "net 0 -> element 0", "net 1/10 -> element 0", "net 1 -> element 1", "selected 0,1"]
        full = check_certificate(elements, F(1, 10))

        def shown(o: Outcome) -> str | None:
            lines = str(o.out).splitlines()
            if lines[:3] + lines[-2:] != readme_lines:
                return f"certificate differs from the README: {_clip(o.out)!r}"
            return full(o)

        return [
            Request("readme cover lebesgue", expect(0, "lebesgue-number=1/10\n"), argv=["cover", "lebesgue", "--cover", c]),
            Request("readme cover subcover", shown, argv=["cover", "subcover", "--cover", c],
                    after=lambda o: cert.write_text(str(o.out))),
            Request("readme cover verify", expect(0, "covered\n"), argv=["cover", "verify", "--cover", c, "--selected", "0,1"]),
            Request("readme cover verify-cert", expect(0, "certificate-ok\n"),
                    argv=["cover", "verify-cert", "--cover", c, "--cert", str(cert)]),
        ]

    # (chain length, lebesgue net size, nested intervals, const net size or 0, count)
    # Lebesgue numbers cost about 9 us * k^3 and certificate checks 1.4 us * N^2
    # on a 2-core x86 sandbox at this commit, so the tails stop at k = 50
    # and N = 1300 to keep a round near 10 s.
    SHAPES = [
        ((4, 12), (16, 60), 2, 0, 6),
        ((18, 21), (60, 160), 4, 0, 5),
        ((28, 34), (160, 300), 6, 0, 2),
        ((8, 12), (40, 80), 2, (1240, 1280), 1),  # the net-size tail
        ((47, 49), (200, 240), 0, 0, 1),  # the cover-size tail
    ]
    TINY = [((3, 6), (12, 30), 1, 0, 2), ((10, 14), (100, 150), 1, (300, 400), 2)]
    NON_COVERS = 4

    def round(self, rng, d, uniq, tiny):
        requests: list[Request] = []
        pipelines = 0
        for (k_lo, k_hi), (n_lo, n_hi), noise, const, count in (self.TINY if tiny else self.SHAPES):
            ks, nets = int_strata(rng, k_lo, k_hi, count), int_strata(rng, n_lo, n_hi, count)
            consts = int_strata(rng, *const, count) if const else [0] * count
            for k, net, const_net in zip(ks, nets, consts):
                requests += self._pipeline(rng, d / f"c{pipelines}", uniq, k, net, noise, const_net)
                pipelines += 1
        for i, k in enumerate(int_strata(rng, 4, 14, 1 if tiny else self.NON_COVERS)):
            requests += self._non_cover(rng, d / f"n{i}", uniq, k)
        return requests

    def _fresh_cover(self, rng, uniq, k, net, noise, gap=False) -> tuple[Cover, str]:
        while True:
            cover = make_cover(rng, k, net, noise, gap)
            text = cover_text(cover, rng)
            if uniq.fresh(("cover", text)):
                return cover, text

    def _pipeline(self, rng, d: Path, uniq, k, net, noise, const_net) -> list[Request]:
        d.mkdir(parents=True)
        cover, text = self._fresh_cover(rng, uniq, k, net, noise)
        cf = _write(d / "cover.txt", text)
        lebesgue = cover.lebesgue
        cert, const_cert, broken = d / "cert.txt", d / "const-cert.txt", d / "broken-cert.txt"
        mutation: dict[str, object] = {}

        def save_and_break(o: Outcome) -> None:
            cert.write_text(str(o.out))
            try:
                broken_text, problem, exact = mutate_certificate(str(o.out), cover.elements, rng)
            except (ValueError, IndexError, ZeroDivisionError):
                broken_text, problem, exact = str(o.out), "certificate could not be mutated", True
            broken.write_text(broken_text)
            mutation.update(problem=problem, exact=exact)

        subcover = ["cover", "subcover", "--cover", cf]
        if rng.random() < 0.3:
            samples = sorted({F(rng.randint(0, 20), 20) for _ in range(rng.randint(1, 4))})
            subcover += ["--samples", ",".join(_rat(s) for s in samples)]
        if const_net:
            radius = min(F(1, const_net), lebesgue)
        else:
            radius = lebesgue * F(rng.randint(15, 20), 20)
        chain = list(cover.chain)
        drop = rng.randrange(k)
        witness = F(0) if drop == 0 else F(cover.elements[cover.chain[drop - 1]][1], D)
        too_small = chain[:drop] + chain[drop + 1 :]
        rng.shuffle(chain)
        rng.shuffle(too_small)
        verify = ["cover", "verify", "--cover", cf, "--selected"]
        verify_cert = ["cover", "verify-cert", "--cover", cf, "--cert"]
        requests = [
            Request("cover lebesgue", expect(0, f"lebesgue-number={_rat(lebesgue)}\n"),
                    argv=["cover", "lebesgue", "--cover", cf]),
            Request("cover subcover lebesgue", check_certificate(cover.elements, lebesgue), argv=subcover,
                    after=save_and_break),
            Request("cover verify-cert", expect(0, "certificate-ok\n"), argv=verify_cert + [str(cert)]),
            Request("cover subcover const", check_certificate(cover.elements, radius),
                    argv=["cover", "subcover", "--cover", cf, "--modulus", f"const:{_rat(radius)}"],
                    after=lambda o: const_cert.write_text(str(o.out))),
            Request("cover verify-cert", expect(0, "certificate-ok\n"), argv=verify_cert + [str(const_cert)]),
            Request("cover verify", expect(0, "covered\n"), argv=verify + [",".join(map(str, chain))]),
            Request("cover verify too-small", expect(1, f"uncovered {_rat(witness)}\n"),
                    argv=verify + [",".join(map(str, too_small))]),
            Request("cover verify-cert mutated",
                    # the mutation is made from the certificate printed just before
                    lambda o: check_invalid_certificate(mutation.get("problem", "?"), mutation.get("exact", True))(o),
                    argv=verify_cert + [str(broken)]),
        ]
        if rng.random() < 0.5:
            # a radius above the Lebesgue number: some ball may fit nowhere, and the oracle says which
            big = lebesgue * F(rng.randint(5, 12), 4)
            requests.append(Request("cover subcover too-big", check_certificate(cover.elements, big),
                                    argv=["cover", "subcover", "--cover", cf, "--modulus", f"const:{_rat(big)}"]))
        return requests

    def _non_cover(self, rng, d: Path, uniq, k) -> list[Request]:
        d.mkdir(parents=True)
        cover, text = self._fresh_cover(rng, uniq, k, rng.randint(20, 200), rng.randint(0, 3), gap=True)
        cf = _write(d / "cover.txt", text)
        witness, best = cover.gap
        message = f"not-a-cover point {_rat(witness)} of [0,1] has no interior margin (best radius {_rat(best)})\n"
        return [
            Request("cover lebesgue non-cover", expect(1, message), argv=["cover", "lebesgue", "--cover", cf]),
            Request("cover subcover non-cover", expect(1, message), argv=["cover", "subcover", "--cover", cf]),
            Request("cover verify non-cover", expect(1, f"uncovered {_rat(cover.uncovered)}\n"),
                    argv=["cover", "verify", "--cover", cf, "--selected", ",".join(map(str, cover.chain))]),
        ]


class HaltingProbe(Workload):
    name = "halting-probe"
    why = (
        "machine-bound: bounded runs, wide dovetails, waiting values and halting probes "
        "over program families with closed-form step counts, 10^2 to 10^6 steps"
    )
    setup_argv = ["machine", "run", "--prog", "countdown.cm", "--input", "2", "--budget", "100"]
    setup_stdout = "halted steps=8\n"

    def readme(self, d: Path) -> list[Request]:
        cd, lp = str(d / "countdown.cm"), str(d / "looper.cm")
        return [
            Request("readme machine run", expect(0, "halted steps=8\n"),
                    argv=["machine", "run", "--prog", cd, "--input", "2", "--budget", "100"]),
            Request("readme machine dovetail",
                    expect(0, "input=0 steps=2\ninput=1 steps=5\ninput=2 steps=8\ninput=3 steps=11\n"),
                    argv=["machine", "dovetail", "--prog", cd, "--inputs", "0..3", "--budget", "1000"]),
            Request("readme waiting approx", expect(0, "127/128 ± 2^-6\n"),
                    argv=["waiting", "approx", "--prog", cd, "--input", "2", "--prec", "6"]),
            Request("readme reduce halts", expect(0, "halts-at steps=8\n"),
                    argv=["reduce", "--prog", cd, "--input", "2", "--prec", "10"]),
            Request("readme reduce loops", expect(0, "no-halt-within steps=11\n"),
                    argv=["reduce", "--prog", lp, "--input", "0", "--prec", "10"]),
        ]

    # log10 step ranges of each request class, and how many of each a round holds
    RUNS = [((2, 3), 24), ((3, 4), 12), ((4, 5), 5), ((5, 5.5), 2), ((5.98, 6.0), 1)]
    DOVETAILS = [((10, 40), (3, 4), 6), ((60, 120), (4, 5), 3), ((150, 250), (5, 5.4), 1)]
    WAITS = [((1.5, 3.6), 10)]
    REDUCES = [((1.5, 3.5), 8), ((4, 5), 3), ((5.2, 5.5), 1)]
    TINY_RUNS, TINY_DOVETAILS, TINY_WAITS, TINY_REDUCES = (
        [((1, 2.5), 2), ((3.2, 4), 3)], [((3, 6), (1.5, 2.5), 2)], [((1, 2), 2)], [((1, 2.5), 2)])

    def round(self, rng, d, uniq, tiny):
        d.mkdir(parents=True)
        families = [countdown(rng.randint(0, 3)), countdown(rng.randint(4, 7)), MOD3, SQUARE, LOOPER]
        paths = {f.name: _write(d / f"{f.name}.cm", f.text) for f in families}
        requests = []
        runs, dovetails, waits, reduces = (
            (self.TINY_RUNS, self.TINY_DOVETAILS, self.TINY_WAITS, self.TINY_REDUCES) if tiny
            else (self.RUNS, self.DOVETAILS, self.WAITS, self.REDUCES))
        for make, classes in ((self._run, runs), (self._waiting, waits), (self._reduce, reduces)):
            for (lo, hi), count in classes:
                for e in strata(rng, lo, hi, count):
                    requests.append(make(rng, uniq, families, paths, int(10**e)))
        for (w_lo, w_hi), (lo, hi), count in dovetails:
            for width, e in zip(int_strata(rng, w_lo, w_hi, count), strata(rng, lo, hi, count)):
                requests.append(self._dovetail(rng, uniq, families, paths, width, int(10**e)))
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _pick(rng, uniq, families, target, key):
        while True:
            f = rng.choice(families)
            v = f.inverse(target) + rng.randint(0, 2)
            if uniq.fresh((key, f.name, v, target)):
                return f, v

    def _run(self, rng, uniq, families, paths, target):
        f, v = self._pick(rng, uniq, families, target, "run")
        s = f.steps(v)
        budget = target + rng.randint(0, target) if rng.random() < 0.7 else max(1, target // 2)
        want = f"halted steps={s}\n" if s is not None and s <= budget else f"still-running budget={budget}\n"
        return Request("machine run", expect(0, want),
                       argv=["machine", "run", "--prog", paths[f.name], "--input", str(v), "--budget", str(budget)])

    def _dovetail(self, rng, uniq, families, paths, width, budget):
        while True:
            f = rng.choice([x for x in families if x.name != "looper"])
            first = rng.randint(0, 3 * width)
            if uniq.fresh(("dovetail", f.name, first, width, budget)):
                break
        steps = [f.steps(v) for v in range(first, first + width)]
        want = "".join(f"input={v} steps={s}\n" for v, s in dovetail_expected(steps, first, budget))
        return Request("machine dovetail", expect(0, want),
                       argv=["machine", "dovetail", "--prog", paths[f.name], "--inputs",
                             f"{first}..{first + width - 1}", "--budget", str(budget)])

    def _waiting(self, rng, uniq, families, paths, prec):
        f, v = self._pick(rng, uniq, families, prec, "waiting")
        s, m = f.steps(v), prec + 1
        argv = ["waiting", "approx", "--prog", paths[f.name], "--input", str(v), "--prec", str(prec)]
        if rng.random() < 0.3:
            argv += ["--targets", "geometric"]
        cap = None
        if rng.random() < 0.3:
            cap = m + rng.randint(-m // 2, m)
            argv += ["--max-steps", str(cap)]
        if cap is not None and m > cap:
            return Request("waiting approx capped",
                           expect(1, f"budget-exceeded index {m} needs {m} steps; cap is {cap}\n"), argv=argv)
        exp = s if s is not None and s <= m else m
        return Request("waiting approx", expect(0, f"{_rat(1 - F(1, 2**exp))} ± 2^-{prec}\n"), argv=argv)

    def _reduce(self, rng, uniq, families, paths, prec):
        f, v = self._pick(rng, uniq, families, prec, "reduce")
        s, window = f.steps(v), prec + 1
        argv = ["reduce", "--prog", paths[f.name], "--input", str(v), "--prec", str(prec)]
        if rng.random() < 0.3:
            argv += ["--oracle", rng.choice(["step@1/3", "stair:1/4,3/4", "step@0.9"])]
        want = f"halts-at steps={s}\n" if s is not None and s <= window else f"no-halt-within steps={window}\n"
        return Request("reduce", expect(0, want), argv=argv)


class RealArith(Workload):
    name = "real-arith"
    why = (
        "computable reals: expression parsing, CRN approximation of trees and shared DAGs, "
        "bisection to 2000 halvings and rational bit growth, with little machine work and no covers"
    )
    setup_argv = ["rat", "1/2 + 1/3"]
    setup_stdout = "5/6\n"

    def readme(self, d: Path) -> list[Request]:
        rows = d / "rows.tsv"
        want_rows = "0\t0\t1\tinit\n1\t0\t1/2\tlower\n2\t1/4\t1/2\tupper\n3\t1/4\t3/8\tlower\n4\t5/16\t3/8\tupper\n"

        def transcript(o: Outcome) -> str | None:
            bad = expect(0, "steps=4\nlo=5/16\nhi=3/8\nwidth=1/16\n")(o)
            return bad or (None if rows.read_text() == want_rows else "README transcript differs")

        return [
            Request("readme rat", expect(0, "5/6\n"), argv=["rat", "1/2 + 1/3"]),
            Request("readme rat decimal", expect(0, "1/2\n"), argv=["rat", "2*(0.5 - 1/4)"]),
            Request("readme crn approx", expect(0, "2/3 ± 2^-8\n"), argv=["crn", "approx", "--expr", "1/3 + 1/3", "--prec", "8"]),
            Request("readme crn bisect_limit", expect(0, "3071/4096 ± 2^-10\n"),
                    argv=["crn", "approx", "--expr", "bisect_limit(stair:1/4,3/4, 0, 1)", "--prec", "10"]),
            Request("readme bisect", transcript,
                    argv=["bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "4", "--transcript", str(rows)]),
        ]

    # (kind, size range, count): leaves for expressions, precision for bisection, depth for DAGs
    MIX = [
        ("rat", (3, 40), 16),
        ("crn tree", (3, 60), 14),
        ("crn builtins", (3, 20), 6),
        ("crn bisect_limit", (300, 2000), 5),
        ("bisect", (100, 1500), 4),
        ("bisect not-separated", (0, 0), 1),
        ("crn waiting", (20, 400), 3),
        ("api approx dag", (10, 13), 8),
        ("api approx dag", (14, 16), 2),
        ("api approx dag bisect", (5, 8), 2),
        ("api compare dag", (10, 13), 4),
        ("api compare dag bisect", (5, 8), 1),
    ]
    TINY = [("rat", (3, 6), 2), ("crn tree", (3, 6), 2), ("crn builtins", (3, 5), 2),
            ("crn bisect_limit", (20, 40), 1), ("bisect", (5, 20), 1), ("bisect not-separated", (0, 0), 1),
            ("crn waiting", (5, 20), 1), ("api approx dag", (4, 6), 2), ("api approx dag bisect", (4, 5), 1),
            ("api compare dag", (4, 6), 1), ("api compare dag bisect", (4, 5), 1)]

    def round(self, rng, d, uniq, tiny):
        d.mkdir(parents=True)
        self._dir = d
        prog = _write(d / "countdown.cm", COUNTDOWN_README)
        requests = []
        for kind, (lo, hi), count in (self.TINY if tiny else self.MIX):
            for i, size in enumerate(int_strata(rng, lo, hi, count)):
                while True:
                    req = getattr(self, "_" + kind.replace(" ", "_").replace("-", "_"))(rng, size, prog, d / f"{kind[0]}{i}")
                    if uniq.fresh(req.key):
                        break
                requests.append(req)
        rng.shuffle(requests)
        return requests

    def _rat(self, rng, leaves, prog, path):
        text, value = gen_expression(rng, leaves)
        return Request("rat", expect(0, f"{_rat(value)}\n"), argv=["rat", text], key=("rat", text))

    def _crn_tree(self, rng, leaves, prog, path):
        text, value = gen_expression(rng, leaves)
        n = rng.randint(4, 200)
        return Request("crn approx tree", expect(0, f"{_rat(value)} ± 2^-{n}\n"),
                       argv=["crn", "approx", "--expr", text, "--prec", str(n)], key=("crn", text, n))

    def _atom(self, rng, prog):
        if rng.random() < 0.25:
            v = rng.randint(0, 12)
            return f"waiting({prog}, {v})", 1 - F(1, 2 ** (3 * v + 2))
        lo, hi = F(rng.randint(0, 10), 20), F(rng.randint(11, 20), 20)
        if rng.random() < 0.6:
            c = lo + (hi - lo) * F(rng.randint(1, 1000), 1000)
            return f"bisect_limit(step@{_rat(c)}, {_rat(lo)}, {_rat(hi)})", c
        cs = sorted({F(rng.randint(1, 99), 100) for _ in range(rng.randint(2, 4))} | {hi - F(1, 100)})
        return f"bisect_limit(stair:{','.join(_rat(c) for c in cs)}, {_rat(lo)}, {_rat(hi)})", stair_limit(cs, lo, hi)

    def _crn_builtins(self, rng, leaves, prog, path):
        text, value = gen_expression(rng, leaves, atoms=lambda: self._atom(rng, prog))
        n = rng.randint(8, 120)

        def check(o: Outcome) -> str | None:
            if o.code != 0:
                return f"exit {o.code}, expected 0"
            head, sep, tail = str(o.out).partition(" ± 2^-")
            if not sep or tail != f"{n}\n":
                return f"malformed {_clip(o.out)!r}"
            if not abs(F(head) - value) < F(1, 2**n):
                return f"{head} is not within 2^-{n} of {_rat(value)}"
            return None

        return Request("crn approx builtins", check, argv=["crn", "approx", "--expr", text, "--prec", str(n)],
                       key=("crn", text, n))

    def _crn_bisect_limit(self, rng, n, prog, path):
        q = rng.randint(2, 999)
        c = F(rng.randint(1, q - 1), q)
        lo, hi = F(0), F(1)
        rows = bisection_rows([c], lo, hi, bisection_index(hi - lo, n + 1))
        text = f"bisect_limit(step@{_rat(c)}, 0, 1)"
        return Request("crn approx bisect_limit", expect(0, f"{_rat(rows[-1][0])} ± 2^-{n}\n"),
                       argv=["crn", "approx", "--expr", text, "--prec", str(n)], key=("crn", text, n))

    def _bisect(self, rng, steps, prog, path):
        lo, hi = F(-rng.randint(0, 8), 8), F(rng.randint(9, 16), 8)
        if rng.random() < 0.5:
            thresholds = [F(rng.randint(1, 997), 997)]
            oracle = f"step@{_rat(thresholds[0])}"
        else:
            thresholds = sorted({F(rng.randint(1, 99), 100) for _ in range(rng.randint(2, 5))})
            oracle = "stair:" + ",".join(_rat(c) for c in thresholds)
        rows = bisection_rows(thresholds, lo, hi, steps)
        tsv = "".join(f"{i}\t{_rat(a)}\t{_rat(b)}\t{branch}\n" for i, (a, b, branch) in enumerate(rows))
        last_lo, last_hi, _ = rows[-1]
        stdout = f"steps={steps}\nlo={_rat(last_lo)}\nhi={_rat(last_hi)}\nwidth={_rat(last_hi - last_lo)}\n"
        transcript = Path(f"{path}.tsv")
        plain = expect(0, stdout)

        def check(o: Outcome) -> str | None:
            bad = plain(o)
            if bad:
                return bad
            return None if transcript.read_text() == tsv else "transcript differs from the reference bisection"

        argv = ["bisect", "--oracle", oracle, f"--lo={_rat(lo)}", f"--hi={_rat(hi)}", "--steps", str(steps),
                "--transcript", str(transcript)]
        return Request("bisect", check, argv=argv, key=("bisect", oracle, lo, hi, steps))

    def _bisect_not_separated(self, rng, _size, prog, path):
        c = F(rng.randint(500, 999), 1000)
        lo, hi = F(rng.randint(0, 200), 1000), F(rng.randint(201, 499), 1000)
        message = f"not-separated labels agree at both endpoints: f({_rat(lo)}) = f({_rat(hi)})\n"
        return Request("bisect not-separated", expect(1, message),
                       argv=["bisect", "--oracle", f"step@{_rat(c)}", "--lo", _rat(lo), "--hi", _rat(hi), "--steps", "8"],
                       key=("bisect", c, lo, hi))

    def _crn_waiting(self, rng, n, prog, path):
        v = rng.randint(0, 150)
        s = 3 * v + 2
        value = 1 - F(1, 2 ** min(s, n + 1))
        text = f"waiting({prog}, {v})"
        return Request("crn approx waiting", expect(0, f"{_rat(value)} ± 2^-{n}\n"),
                       argv=["crn", "approx", "--expr", text, "--prec", str(n)], key=("crn", text, n))

    @staticmethod
    def _dag(depth: int, base: F | None, c: F):
        """y = y + y, `depth` times, over a rational or a bisection limit; all lookups are late-bound."""
        import nicecover.analysis
        import nicecover.crn

        if base is not None:
            y = nicecover.crn.from_rational(base)
        else:
            y = nicecover.analysis.bisect_limit(nicecover.analysis.StepMap(c), F(0), F(1))
        for _ in range(depth):
            y = y + y
        return y

    def _api_approx_dag_bisect(self, rng, depth, prog, path):
        return self._api_approx_dag(rng, depth, prog, path, exact=False)

    def _api_compare_dag_bisect(self, rng, depth, prog, path):
        return self._api_compare_dag(rng, depth, prog, path, exact=False)

    def _api_approx_dag(self, rng, depth, prog, path, exact=True):
        """approx_to on a shared DAG; over a bisection limit its regulator costs a loop per call, so those stay shallow."""
        n = rng.randint(8, 64)
        c = F(rng.randint(1, 998), 999)
        base = c if exact else None
        value = c * 2**depth

        def call():
            import nicecover.crn

            return nicecover.crn.approx_to(self._dag(depth, base, c), n)

        def check(o: Outcome) -> str | None:
            if o.error is not None:
                return f"raised {o.error!r}"
            if exact and o.out != value:
                return f"{o.out} != {value}"
            if not abs(o.out - value) < F(1, 2**n):
                return f"{o.out} is not within 2^-{n} of {value}"
            return None

        return Request("api approx_to dag", check, call=call, key=("dag", depth, exact, c, n))

    def _api_compare_dag(self, rng, depth, prog, path, exact=True):
        n = rng.randint(8, 64)
        c = F(rng.randint(1, 998), 999)
        delta = rng.choice([F(0), F(1, 2 ** (n + 3)), -F(1, 2 ** (n + 3)),
                            F(rng.randint(3, 40), 2 ** (n + 1)), -F(rng.randint(3, 40), 2 ** (n + 1))])
        other = c * 2**depth + delta

        def call():
            import nicecover.crn

            return nicecover.crn.compare_apart(self._dag(depth, c if exact else None, c),
                                               nicecover.crn.from_rational(other), n).name

        def check(o: Outcome) -> str | None:
            if o.error is not None:
                return f"raised {o.error!r}"
            claim = {"LESS": delta > 0, "GREATER": delta < 0, "INDISTINGUISHABLE": abs(delta) <= F(1, 2**n)}
            if o.out not in claim or not claim[o.out]:
                return f"claimed {o.out} for a difference of {delta}"
            if o.out == "INDISTINGUISHABLE" and abs(delta) > F(1, 2**n):
                return "apart values called indistinguishable"
            return None

        return Request("api compare_apart dag", check, call=call, key=("cmp", depth, exact, c, n, delta))


WORKLOADS = {w.name: w for w in (CoverCertify(), HaltingProbe(), RealArith())}
