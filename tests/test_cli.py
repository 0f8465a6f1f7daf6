import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import ceil, floor, isqrt, prod
from pathlib import Path

import pytest

from conftest import certificate_bounds
from nicecover import analysis, cover as cover_mod, crn, machine, rational
from nicecover.cli import dispatch

TWO_INTERVAL_COVER = "-1/10 6/10\n4/10 11/10\n"


@pytest.fixture
def cover_file(tmp_path):
    path = tmp_path / "cover.txt"
    path.write_text(TWO_INTERVAL_COVER)
    return str(path)


def digits(n: int) -> str:
    """Decimal text of an int of any length, by a path that bypasses str(int)."""
    return format(Decimal(n), "f")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRat:
    def test_value(self, capsys):
        assert run(capsys, "rat", "1/2 + 1/3") == (0, "5/6\n", "")

    def test_canonical_output(self, capsys):
        assert run(capsys, "rat", "2/4 + 2/4")[1] == "1\n"

    def test_parse_error_exits_2(self, capsys):
        code, out, err = run(capsys, "rat", "1 +")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_zero_denominator_exits_2(self, capsys):
        code, _, err = run(capsys, "rat", "1/0")
        assert code == 2
        assert "error:" in err

    def test_answer_longer_than_4300_digits(self, capsys):
        factors = [10**199 + 7919 * k for k in range(25)]
        assert run(capsys, "rat", "*".join(map(str, factors))) == (0, digits(prod(factors)) + "\n", "")


    def test_leading_minus(self, capsys):
        assert run(capsys, "rat", "--", "-1/2") == (0, "-1/2\n", "")
        assert run(capsys, "rat", "-1/2")[0] == 2  # read as an option

    # `--` and `--expr=` keep argparse from reading a leading `-` as an option
    EXPRESSION_COMMANDS = {
        "rat": (lambda text: ["rat", "--", text], "{}\n"),
        "crn": (lambda text: ["crn", "approx", "--prec", "8", f"--expr={text}"], "{} ± 2^-8\n"),
    }

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "+".join(["1"] * 3000)],
        ids=["parens", "unary-minus", "flat-sum"],
    )
    @pytest.mark.parametrize("command", EXPRESSION_COMMANDS)
    def test_deep_expression_exits_2(self, capsys, command, text):
        argv, _ = self.EXPRESSION_COMMANDS[command]
        assert run(capsys, *argv(text)) == (2, "", "error: expression nests deeper than 200 levels\n")

    @pytest.mark.parametrize(
        "text,value",
        [("(" * 199 + "1" + ")" * 199, "1"), ("-" * 199 + "1", "-1"), ("+".join(["1"] * 200), "200")],
        ids=["parens", "unary-minus", "flat-sum"],
    )
    @pytest.mark.parametrize("command", EXPRESSION_COMMANDS)
    def test_expression_at_depth_cap_evaluates(self, capsys, command, text, value):
        argv, out = self.EXPRESSION_COMMANDS[command]
        assert run(capsys, *argv(text)) == (0, out.format(value), "")

class TestCrnApprox:
    def test_plain_expression(self, capsys):
        code, out, _ = run(capsys, "crn", "approx", "--expr", "1/3 + 1/3", "--prec", "8")
        assert (code, out) == (0, "2/3 ± 2^-8\n")

    def test_call_free_expression_is_printed_as_folded(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("approx_to asked for an exact value")

        monkeypatch.setattr(crn, "approx_to", refuse)
        assert run(capsys, "crn", "approx", "--expr", "1/3 + 1/3", "--prec", "8") == (0, "2/3 ± 2^-8\n", "")

    def test_leading_minus(self, capsys):
        assert run(capsys, "crn", "approx", "--expr=-1/3", "--prec", "3") == (0, "-1/3 ± 2^-3\n", "")
        assert run(capsys, "crn", "approx", "--expr", "-1/3", "--prec", "3")[0] == 2  # read as an option

    def test_waiting_builtin(self, capsys, countdown_file):
        code, out, _ = run(
            capsys, "crn", "approx",
            "--expr", f"waiting({countdown_file}, 2) + 1/256", "--prec", "8",
        )
        assert (code, out) == (0, "1 ± 2^-8\n")

    def test_bisect_builtin_with_stair_commas(self, capsys):
        code, out, _ = run(
            capsys, "crn", "approx",
            "--expr", "bisect_limit(stair:1/4,3/4, 0, 1)", "--prec", "10",
        )
        assert (code, out) == (0, "3071/4096 ± 2^-10\n")

    def test_call_free_expression_is_its_exact_value(self, capsys):
        # a balanced expression of 4,096 random leaves and no builtin call
        rng = random.Random(4096)

        def tree(leaves):
            if leaves == 1:
                form = rng.randrange(3)
                text = (str(rng.randint(0, 99)) if form == 0 else
                        f"{rng.randint(0, 99)}/{rng.randint(1, 64)}" if form == 1 else
                        f"{rng.randint(0, 9)}.{rng.randint(0, 999):03d}")
                return f"-{text}" if rng.random() < 0.1 else text
            half = leaves // 2
            return f"({tree(half)} {rng.choice('+-*')} {tree(leaves - half)})"

        expr = tree(4096)
        code, exact, _ = run(capsys, "rat", expr)
        assert code == 0
        assert run(capsys, "crn", "approx", "--expr", expr, "--prec", "10") == (0, f"{exact[:-1]} ± 2^-10\n", "")

    def test_call_free_factor_of_a_builtin_call(self, capsys):
        # what one CRN node per operator printed
        assert run(capsys, "crn", "approx", "--expr", "(1/3 + 1/3) * bisect_limit(step@1/3, 0, 1)", "--prec", "20") == (
            0, "1864135/8388608 ± 2^-20\n", "")

    def test_lazy_bisection_rows_are_capped(self, capsys):
        assert run(
            capsys, "crn", "approx", "--expr", "bisect_limit(step@1/3, 0, 1)", "--prec", "100000",
        ) == (1, "budget-exceeded bisection row 100002 is past MAX_BISECT_STEPS = 10000\n", "")

    def test_waiting_builtin_answer_longer_than_4300_digits(self, capsys, looper_file):
        want = f"{digits(2**14501 - 1)}/{digits(2**14501)} ± 2^-14500\n"
        assert run(capsys, "crn", "approx", "--expr", f"waiting({looper_file}, 0)", "--prec", "14500") == (
            0, want, "")

    def test_waiting_builtin_default_step_cap(self, capsys, looper_file):
        assert run(capsys, "crn", "approx", "--expr", f"waiting({looper_file}, 0)", "--prec", "1000000") == (
            1, "budget-exceeded index 1000001 needs 1000001 steps; cap is 100000\n", "")

    def test_bad_precision_exits_2(self, capsys):
        code, _, err = run(capsys, "crn", "approx", "--expr", "1", "--prec", "-3")
        assert code == 2


class TestMachine:
    def test_run_halts(self, capsys, countdown_file):
        code, out, _ = run(
            capsys, "machine", "run",
            "--prog", str(countdown_file), "--input", "2", "--budget", "100",
        )
        assert (code, out) == (0, "halted steps=8\n")

    def test_run_still_running(self, capsys, looper_file):
        code, out, _ = run(
            capsys, "machine", "run",
            "--prog", str(looper_file), "--input", "0", "--budget", "1000",
        )
        assert (code, out) == (0, "still-running budget=1000\n")

    def test_dovetail(self, capsys, countdown_file):
        code, out, _ = run(
            capsys, "machine", "dovetail",
            "--prog", str(countdown_file), "--inputs", "0..3", "--budget", "1000",
        )
        assert code == 0
        assert out == "input=0 steps=2\ninput=1 steps=5\ninput=2 steps=8\ninput=3 steps=11\n"

    def test_bad_program_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cm"
        bad.write_text("FLY 0\n")
        code, _, err = run(capsys, "machine", "run", "--prog", str(bad), "--input", "0", "--budget", "1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text,message", [
        ("INC ²\n", "line 1: bad register '²'"),
        ("INC 1000000000\n", "line 1: register 1000000000 is above MAX_REGISTER = 1023"),
    ])
    def test_bad_register_exits_2(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.cm"
        bad.write_text(text, encoding="utf-8")
        for argv in (["machine", "run", "--input", "0", "--budget", "1"],
                     ["machine", "dovetail", "--inputs", "0..3", "--budget", "10"]):
            assert run(capsys, *argv, "--prog", str(bad)) == (2, "", f"error: {message}\n")

    def test_missing_program_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "machine", "run",
            "--prog", str(tmp_path / "nope.cm"), "--input", "0", "--budget", "1",
        )
        assert code == 2

    def test_dovetail_input_count_cap(self, capsys, countdown_file):
        # a billion inputs: refused before any run state is built
        assert run(
            capsys, "machine", "dovetail",
            "--prog", str(countdown_file), "--inputs", "0..999999999", "--budget", "10",
        ) == (1, "budget-exceeded more inputs than MAX_DOVETAIL_INPUTS = 100000\n", "")

    def test_program_over_the_instruction_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        at_cap = tmp_path / "at-cap.cm"
        at_cap.write_text("start: INC 1\nDEC 0\n# stop\nHALT\n")
        past_cap = tmp_path / "past-cap.cm"
        past_cap.write_text(at_cap.read_text() + "HALT 0\n")  # refused before the bad operand is read
        monkeypatch.setattr(machine, "MAX_INSTRUCTIONS", 3)
        assert run(capsys, "machine", "run", "--prog", str(at_cap), "--input", "2", "--budget", "10") == (
            0, "halted steps=3\n", "",
        )
        commands = [["machine", "run", "--input", "2", "--budget", "10"],
                    ["machine", "dovetail", "--inputs", "0..3", "--budget", "10"],
                    ["waiting", "approx", "--input", "2", "--prec", "4"],
                    ["reduce", "--input", "2", "--prec", "4"]]
        for command in commands:
            assert run(capsys, *command, "--prog", str(past_cap)) == (
                1, "budget-exceeded program has more than MAX_INSTRUCTIONS = 3 instructions\n", "",
            )

    def test_program_over_the_label_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        at_cap = tmp_path / "at-cap.cm"
        at_cap.write_text("a:\nb:\n# none\nc: HALT\n")
        past_cap = tmp_path / "past-cap.cm"
        past_cap.write_text("HALT 0\nd:\n" + at_cap.read_text())  # refused before the bad operand is read
        monkeypatch.setattr(machine, "MAX_INSTRUCTIONS", 3)
        argv = ["machine", "run", "--input", "2", "--budget", "10", "--prog"]
        assert run(capsys, *argv, str(at_cap)) == (0, "halted steps=1\n", "")
        assert run(capsys, *argv, str(past_cap)) == (
            1, "budget-exceeded program has more than MAX_INSTRUCTIONS = 3 labels\n", "",
        )

    def test_dovetail_register_cap(self, capsys, tmp_path, monkeypatch):
        program = tmp_path / "wide.cm"
        program.write_text("INC 1023\nHALT\n")
        argv = ["machine", "dovetail", "--prog", str(program), "--budget", "100"]
        monkeypatch.setattr(machine, "MAX_DOVETAIL_REGISTERS", 2048)
        assert run(capsys, *argv, "--inputs", "5..6") == (0, "input=5 steps=2\ninput=6 steps=2\n", "")
        assert run(capsys, *argv, "--inputs", "5..7") == (1, "budget-exceeded 3 inputs of 1024 registers each "
                                                            "need more than MAX_DOVETAIL_REGISTERS = 2048 registers\n", "")

    def test_bad_inputs_range_exits_2(self, capsys, countdown_file):
        code, _, _ = run(
            capsys, "machine", "dovetail",
            "--prog", str(countdown_file), "--inputs", "3..1", "--budget", "10",
        )
        assert code == 2


class TestWaitingAndReduce:
    def test_waiting_approx(self, capsys, countdown_file):
        code, out, _ = run(
            capsys, "waiting", "approx",
            "--prog", str(countdown_file), "--input", "2", "--prec", "6",
        )
        assert (code, out) == (0, "127/128 ± 2^-6\n")

    def test_waiting_budget_cap_is_domain_error(self, capsys, looper_file):
        code, out, _ = run(
            capsys, "waiting", "approx",
            "--prog", str(looper_file), "--input", "0", "--prec", "6", "--max-steps", "5",
        )
        assert code == 1
        assert out.startswith("budget-exceeded")

    def test_waiting_answer_longer_than_4300_digits(self, capsys, looper_file):
        assert run(
            capsys, "waiting", "approx", "--prog", str(looper_file), "--input", "0", "--prec", "14500",
        ) == (0, f"{digits(2**14501 - 1)}/{digits(2**14501)} ± 2^-14500\n", "")

    def test_waiting_default_step_cap(self, capsys, looper_file):
        assert run(
            capsys, "waiting", "approx", "--prog", str(looper_file), "--input", "0", "--prec", "1000000",
        ) == (1, "budget-exceeded index 1000001 needs 1000001 steps; cap is 100000\n", "")

    def test_waiting_max_steps_zero_is_a_cap(self, capsys, countdown_file):
        assert run(
            capsys, "waiting", "approx",
            "--prog", str(countdown_file), "--input", "2", "--prec", "6", "--max-steps", "0",
        ) == (1, "budget-exceeded index 7 needs 7 steps; cap is 0\n", "")

    def test_waiting_help_names_the_default_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help to the terminal width
        code, out, _ = run(capsys, "waiting", "approx", "-h")
        assert code == 0
        assert f"cap on machine steps per entry (default {analysis.MAX_WAITING_STEPS})\n" in out

    def test_reduce_halts(self, capsys, countdown_file):
        code, out, _ = run(
            capsys, "reduce", "--prog", str(countdown_file), "--input", "2", "--prec", "10",
        )
        assert (code, out) == (0, "halts-at steps=8\n")

    def test_reduce_no_halt(self, capsys, looper_file):
        code, out, _ = run(
            capsys, "reduce", "--prog", str(looper_file), "--input", "0", "--prec", "10",
        )
        assert (code, out) == (0, "no-halt-within steps=11\n")

    def test_interpreted_step_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(machine, "MAX_INTERPRETED_STEPS", 10**4)
        nest = tmp_path / "nest.cm"
        nest.write_text("outer: INC 1\nINC 1\ninner: JZ 1 next\nDEC 1\nGOTO inner\nnext: GOTO outer\n")
        refused = (1, "budget-exceeded more than MAX_INTERPRETED_STEPS = 10000 steps would run one by one\n", "")
        for argv in (["machine", "run", "--input", "0", "--budget", "1000000000000"],
                     ["machine", "dovetail", "--inputs", "0..3", "--budget", "1000000000000"],
                     ["reduce", "--input", "0", "--prec", "1000000000"],
                     ["waiting", "approx", "--input", "0", "--prec", "20000", "--max-steps", "1000000000"]):
            assert run(capsys, *argv, "--prog", str(nest)) == refused


    def test_reduce_oracle_does_not_change_the_verdict(self, capsys, countdown_file):
        argv = ["reduce", "--prog", str(countdown_file), "--input", "2", "--prec", "10"]
        plain = run(capsys, *argv)
        assert plain == (0, "halts-at steps=8\n", "")
        assert run(capsys, *argv, "--oracle", "stair:1/4,3/4") == plain
        assert run(capsys, *argv, "--oracle", "nope")[0] == 2


class TestBisect:
    def test_enclosure_output(self, capsys):
        code, out, _ = run(
            capsys, "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "4",
        )
        assert code == 0
        assert out == "steps=4\nlo=5/16\nhi=3/8\nwidth=1/16\n"

    def test_transcript_file(self, capsys, tmp_path):
        transcript = tmp_path / "rows.tsv"
        code, _, _ = run(
            capsys, "bisect", "--oracle", "step@1/3",
            "--lo", "0", "--hi", "1", "--steps", "4", "--transcript", str(transcript),
        )
        assert code == 0
        assert transcript.read_text() == (
            "0\t0\t1\tinit\n"
            "1\t0\t1/2\tlower\n"
            "2\t1/4\t1/2\tupper\n"
            "3\t1/4\t3/8\tlower\n"
            "4\t5/16\t3/8\tupper\n"
        )

    def test_enclosure_builds_only_the_last_row(self, capsys, monkeypatch):
        built = []
        row = analysis.Transcript.row
        monkeypatch.setattr(analysis.Transcript, "row", lambda transcript, i: built.append(i) or row(transcript, i))
        code, out, _ = run(capsys, "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "10000")
        assert code == 0 and out.startswith("steps=10000\nlo=")
        assert built == [10000]

    @pytest.mark.slow
    def test_transcript_at_the_row_cap_ends_in_the_printed_enclosure(self, capsys, tmp_path):
        transcript = tmp_path / "rows.tsv"
        steps = analysis.MAX_BISECT_STEPS
        code, out, _ = run(capsys, "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", str(steps),
                           "--transcript", str(transcript))
        with transcript.open() as rows:
            for count, last in enumerate(rows, 1):
                pass
        index, lo, hi, _ = last.rstrip("\n").split("\t")
        assert (code, count, index) == (0, steps + 1, str(steps))
        assert out.splitlines()[1:3] == [f"lo={lo}", f"hi={hi}"]

    def test_transcript_path_is_a_directory(self, capsys, tmp_path):
        assert run(
            capsys, "bisect", "--oracle", "step@1/3",
            "--lo", "0", "--hi", "1", "--steps", "4", "--transcript", str(tmp_path),
        ) == (2, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")

    def test_not_separated_is_domain_error(self, capsys):
        code, out, _ = run(
            capsys, "bisect", "--oracle", "step@1/3", "--lo", "1/2", "--hi", "1", "--steps", "3",
        )
        assert code == 1
        assert out.startswith("not-separated")

    def test_bad_oracle_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "bisect", "--oracle", "blip@1", "--lo", "0", "--hi", "1", "--steps", "1",
        )
        assert code == 2

    def test_steps_over_the_cap_are_refused(self, capsys):
        assert run(
            capsys, "bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "10001",
        ) == (1, "budget-exceeded transcript of 10001 steps is longer than MAX_BISECT_STEPS = 10000\n", "")


class TestCover:
    def test_lebesgue(self, capsys, cover_file):
        assert run(capsys, "cover", "lebesgue", "--cover", cover_file) == (
            0, "lebesgue-number=1/10\n", "",
        )

    def test_not_a_cover_is_domain_error(self, capsys, tmp_path):
        gap = tmp_path / "gap.txt"
        gap.write_text("0 1/2\n1/2 1\n")
        code, out, _ = run(capsys, "cover", "lebesgue", "--cover", str(gap))
        assert code == 1
        assert out.startswith("not-a-cover")

    def test_subcover_certificate_text(self, capsys, cover_file):
        code, out, _ = run(capsys, "cover", "subcover", "--cover", cover_file)
        assert code == 0
        assert out.startswith("r=1/10\n")
        assert out.endswith("selected 0,1\n")
        assert out.count("\n") == 13

    def test_subcover_is_deterministic(self, capsys, cover_file):
        first = run(capsys, "cover", "subcover", "--cover", cover_file)
        second = run(capsys, "cover", "subcover", "--cover", cover_file)
        assert first == second

    def test_subcover_with_explicit_lebesgue_modulus(self, capsys, cover_file):
        assert run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "lebesgue") == run(
            capsys, "cover", "subcover", "--cover", cover_file)

    def test_subcover_with_constant_modulus(self, capsys, cover_file):
        code, out, _ = run(
            capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:1/10",
        )
        assert code == 0
        assert out.startswith("r=1/10\n")

    def test_net_over_the_size_cap_is_refused(self, capsys, cover_file):
        # a billion-point net: refused before any point is built
        assert run(
            capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:1/1000000000",
        ) == (
            1,
            "budget-exceeded net spacing 1/1000000000 needs 1000000001 points, "
            "more than MAX_NET_POINTS = 1000000\n",
            "",
        )

    def test_non_constant_oracle_modulus_rejected_at_usage_level(self, capsys, cover_file):
        code, _, _ = run(
            capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "wavy",
        )
        assert code == 2

    def test_verify_covered(self, capsys, cover_file):
        assert run(capsys, "cover", "verify", "--cover", cover_file, "--selected", "0,1") == (
            0, "covered\n", "",
        )

    def test_verify_uncovered_exits_1(self, capsys, cover_file):
        code, out, _ = run(capsys, "cover", "verify", "--cover", cover_file, "--selected", "0")
        assert (code, out) == (1, "uncovered 3/5\n")

    def test_verify_index_out_of_range_exits_2(self, capsys, cover_file):
        code, _, _ = run(capsys, "cover", "verify", "--cover", cover_file, "--selected", "0,5")
        assert code == 2

    def test_subcover_verify_cert_round_trip(self, capsys, cover_file, tmp_path):
        _, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file)
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        assert run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert)) == (
            0, "certificate-ok\n", "",
        )

    @pytest.mark.slow
    def test_certificate_at_the_net_point_cap_reads_back_as_extracted(self, capsys, cover_file, tmp_path):
        radius = Fraction(1, cover_mod.MAX_NET_POINTS - 1)
        code, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", f"const:{radius}")
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        extracted = cover_mod.extract_finite_subcover(cover_mod.parse_cover(Path(cover_file)),
                                                      cover_mod.ConstantModulus(radius))
        assert code == 0 and cover_mod.parse_certificate(cert) == extracted

    @pytest.mark.slow
    def test_prime_denominator_cover_round_trip(self, capsys, tmp_path):
        # 40 intervals whose 80 ends have distinct prime denominators above 1000
        primes = [n for n in range(1001, 2000) if all(n % d for d in range(2, isqrt(n) + 1))][:80]
        step = Fraction(1, 39)
        ends = [((i - Fraction(7, 10)) * step, (i + Fraction(7, 10)) * step) for i in range(40)]
        cover = tmp_path / "primes.txt"
        cover.write_text("".join(f"{Fraction(floor(lo * p), p)} {Fraction(ceil(hi * q), q)}\n"
                                 for (lo, hi), p, q in zip(ends, primes[::2], primes[1::2])))
        code, cert_text, _ = run(capsys, "cover", "subcover", "--cover", str(cover), "--modulus", "const:1/99999")
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        assert code == 0
        assert run(capsys, "cover", "verify-cert", "--cover", str(cover), "--cert", str(cert)) == (
            0, "certificate-ok\n", "")

    @pytest.mark.parametrize("line,error", [("0 1/0", "1/0"), ("0 1/x", "not a rational: '1/x'")])
    def test_a_malformed_rational_names_its_line(self, capsys, tmp_path, line, error):
        cover = tmp_path / "cover.txt"
        cover.write_text(f"-1 1/2\n{line}\n")
        assert run(capsys, "cover", "lebesgue", "--cover", str(cover)) == (2, "", f"error: line 2: {error}\n")

    def test_a_certificate_line_past_the_line_cap_is_not_printed(self, capsys, tmp_path, monkeypatch):
        # 22-digit denominators give the radius and the net points parts of about 42 digits
        q, s = 10**21 + 3, 10**21 + 7
        cover = tmp_path / "cover.txt"
        cover.write_text(f"-1 {6 * q // 10 + 1}/{q}\n{4 * s // 10 - 1}/{s} 2\n")
        code, cert_text, _ = run(capsys, "cover", "subcover", "--cover", str(cover))
        longest = max(len(line) for line in cert_text.splitlines())
        bound, _ = certificate_bounds(Fraction(cert_text.split("\n", 1)[0][len("r="):]))
        assert code == 0 and 100 < longest <= bound
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        # refused, with nothing printed, exactly when the bound is past the cap
        monkeypatch.setattr(rational, "MAX_LINE_CHARS", bound - 1)
        assert run(capsys, "cover", "subcover", "--cover", str(cover)) == (
            1, f"budget-exceeded certificate lines may need {bound} characters, "
               f"more than MAX_LINE_CHARS = {bound - 1}\n", "")
        monkeypatch.setattr(rational, "MAX_LINE_CHARS", bound)
        assert run(capsys, "cover", "subcover", "--cover", str(cover)) == (0, cert_text, "")
        assert run(capsys, "cover", "verify-cert", "--cover", str(cover), "--cert", str(cert)) == (
            0, "certificate-ok\n", "")
        monkeypatch.setattr(rational, "MAX_LINE_CHARS", longest - 1)
        assert run(capsys, "cover", "verify-cert", "--cover", str(cover), "--cert", str(cert))[0] == 1

    def test_a_certificate_past_the_input_cap_is_not_printed(self, capsys, cover_file, tmp_path, monkeypatch):
        code, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:1/1000")
        _, bound = certificate_bounds(Fraction(1, 1000))
        assert code == 0 and len(cert_text) <= bound
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        monkeypatch.setattr(rational, "MAX_INPUT_CHARS", bound - 1)
        assert run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:1/1000") == (
            1, f"budget-exceeded certificate of 1001 net lines may need {bound} characters, "
               f"more than MAX_INPUT_CHARS = {bound - 1}\n", "")
        monkeypatch.setattr(rational, "MAX_INPUT_CHARS", bound)
        assert run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:1/1000") == (0, cert_text, "")
        monkeypatch.setattr(rational, "MAX_INPUT_CHARS", len(cert_text))
        assert run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert)) == (
            0, "certificate-ok\n", "")
        monkeypatch.setattr(rational, "MAX_INPUT_CHARS", len(cert_text) - 1)
        assert run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert)) == (
            1, f"budget-exceeded input has more than MAX_INPUT_CHARS = {len(cert_text) - 1} characters\n", "")

    def test_certificate_over_the_net_line_cap_is_refused(self, capsys, cover_file, tmp_path, monkeypatch):
        _, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file)
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        monkeypatch.setattr(cover_mod, "MAX_NET_POINTS", 10)
        assert run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert)) == (
            1, "budget-exceeded certificate has more than MAX_NET_POINTS = 10 net lines\n", "",
        )

    def test_cover_over_the_element_cap_is_refused(self, capsys, cover_file, tmp_path, monkeypatch):
        _, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file)
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text)
        at_cap = tmp_path / "at-cap.txt"
        at_cap.write_text("# three intervals\n" + TWO_INTERVAL_COVER + "\n0 1/2  # redundant\n")
        past_cap = tmp_path / "past-cap.txt"
        past_cap.write_text(at_cap.read_text() + "x 1\n")  # refused before the bad line is read
        monkeypatch.setattr(cover_mod, "MAX_COVER_ELEMENTS", 3)
        commands = [["lebesgue"], ["subcover", "--modulus", "const:1/10"], ["verify", "--selected", "0,1"],
                    ["verify-cert", "--cert", str(cert)]]
        for command in commands:
            assert run(capsys, "cover", command[0], "--cover", str(at_cap), *command[1:])[0] == 0
            assert run(capsys, "cover", command[0], "--cover", str(past_cap), *command[1:]) == (
                1, "budget-exceeded cover has more than MAX_COVER_ELEMENTS = 3 intervals\n", "",
            )

    def test_certificate_from_a_pipe(self, cover_file):
        # a pipe can be read only once
        def nicecover(*argv, **kwargs):
            done = subprocess.run([sys.executable, "-m", "nicecover", *argv], capture_output=True, text=True, **kwargs)
            return done.returncode, done.stdout, done.stderr

        code, cert_text, _ = nicecover("cover", "subcover", "--cover", cover_file)
        verify = ["cover", "verify-cert", "--cover", cover_file, "--cert", "/dev/stdin"]
        assert code == 0 and nicecover(*verify, input=cert_text) == (0, "certificate-ok\n", "")
        assert nicecover(*verify, input=cert_text + "junk\n") == (
            2, "", f"error: line {len(cert_text.splitlines()) + 1}: unexpected certificate line: 'junk'\n",
        )

    def test_tampered_cert_exits_1(self, capsys, cover_file, tmp_path):
        _, cert_text, _ = run(capsys, "cover", "subcover", "--cover", cover_file)
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_text.replace("net 0 -> element 0", "net 0 -> element 1"))
        code, out, _ = run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert))
        assert code == 1
        assert "certificate-invalid:" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(capsys, "rat", "1", "--fancy")[0] == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "nicecover" in out

    @pytest.mark.parametrize("argv", [
        ["bisect", "--oracle=--", "--lo", "0", "--hi", "1", "--steps", "3"],
        ["bisect", "--oracle", "step@1/3", "--lo=--", "--hi", "1", "--steps", "3"],
        ["crn", "approx", "--expr", "1/2", "--prec=--"],
    ])
    def test_double_dash_value_is_a_usage_error(self, capsys, argv):
        # argparse before 3.13 hands such a value over as [] without parsing it
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(("error: ", "usage: ")) and err.endswith("\n")


class TestNumbersPastTheDigitLimit:
    """A precision of 4,300 nines is accepted, and prec + 1 has 4,301 digits."""

    NINES = "9" * 4300
    TEN_POW = digits(10**4300)

    def test_reduce_reports_the_whole_window(self, capsys, looper_file):
        assert run(capsys, "reduce", "--prog", str(looper_file), "--input", "0", "--prec", self.NINES) == (
            0, f"no-halt-within steps={self.TEN_POW}\n", "")

    def test_waiting_index_over_the_step_cap(self, capsys, looper_file):
        want = (1, f"budget-exceeded index {self.TEN_POW} needs {self.TEN_POW} steps; cap is 100000\n", "")
        assert run(capsys, "waiting", "approx", "--prog", str(looper_file), "--input", "0",
                   "--prec", self.NINES) == want
        assert run(capsys, "crn", "approx", "--expr", f"waiting({looper_file}, 0)", "--prec", self.NINES) == want

    def test_bisection_row_over_the_cap(self, capsys):
        assert run(capsys, "crn", "approx", "--expr", "bisect_limit(step@1/3, 0, 1)", "--prec", self.NINES) == (
            1, f"budget-exceeded bisection row {digits(10**4300 + 1)} is past MAX_BISECT_STEPS = 10000\n", "")

    def test_net_over_the_size_cap(self, capsys, cover_file):
        spacing = "1/" + digits(10**4400)
        assert run(capsys, "cover", "subcover", "--cover", cover_file, "--modulus", "const:" + spacing) == (
            1,
            f"budget-exceeded net spacing {spacing} needs {digits(10**4400 + 1)} points, "
            "more than MAX_NET_POINTS = 1000000\n",
            "",
        )

    def test_certificate_element_out_of_range(self, capsys, cover_file, tmp_path):
        cert = tmp_path / "cert.txt"
        cert.write_text(f"r=1/2\nnet 0 -> element 0\nnet 1/2 -> element {LONG}\nnet 1 -> element 1\n"
                        f"selected 0,1,{LONG}\n")
        assert run(capsys, "cover", "verify-cert", "--cover", cover_file, "--cert", str(cert)) == (
            1,
            "certificate-invalid: ball (-1/2, 1/2) around net point 0 is not inside element 0 (-1/10, 3/5)\n"
            f"certificate-invalid: assignment 1: element {LONG} out of range\n"
            "certificate-invalid: ball (1/2, 3/2) around net point 1 is not inside element 1 (2/5, 11/10)\n",
            "",
        )


# Every exit-2 path with its exact stderr; `{prog}`, `{cover}` and `{missing}`
# stand for an existing program, an existing cover and a path that does not exist.
LONG = "1" * 5000  # past the interpreter's default limit of 4,300 digits for int()
TOO_LONG = "natural number of 5000 digits is over the interpreter's limit of 4300\n"

USAGE_ERRORS = [
    (["crn", "approx", "--expr", "1", "--prec", "x"],
     "usage: nicecover crn approx [-h] --expr EXPR --prec PREC\n"
     "nicecover crn approx: error: argument --prec: not a natural number: 'x'\n"),
    (["machine", "run", "--prog", "{prog}", "--input", "1.5", "--budget", "1"],
     "usage: nicecover machine run [-h] --prog PROG --input INPUT --budget BUDGET\n"
     "nicecover machine run: error: argument --input: not a natural number: '1.5'\n"),
    (["bisect", "--oracle", "step@1/3", "--lo", "x", "--hi", "1", "--steps", "1"],
     "usage: nicecover bisect [-h] --oracle ORACLE --lo LO --hi HI --steps STEPS [--transcript TRANSCRIPT]\n"
     "nicecover bisect: error: argument --lo: not a rational: 'x'\n"),
    (["bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1/0", "--steps", "1"],
     "usage: nicecover bisect [-h] --oracle ORACLE --lo LO --hi HI --steps STEPS [--transcript TRANSCRIPT]\n"
     "nicecover bisect: error: argument --hi: 1/0\n"),
    (["machine", "dovetail", "--prog", "{prog}", "--inputs", "1-3", "--budget", "10"],
     "usage: nicecover machine dovetail [-h] --prog PROG --inputs INPUTS --budget BUDGET\n"
     "nicecover machine dovetail: error: argument --inputs: expected A..B, got '1-3'\n"),
    (["machine", "dovetail", "--prog", "{prog}", "--inputs", "3..1", "--budget", "10"],
     "usage: nicecover machine dovetail [-h] --prog PROG --inputs INPUTS --budget BUDGET\n"
     "nicecover machine dovetail: error: argument --inputs: empty input range '3..1'\n"),
    (["cover", "verify", "--cover", "{cover}", "--selected", "a,b"],
     "usage: nicecover cover verify [-h] --cover COVER --selected SELECTED\n"
     "nicecover cover verify: error: argument --selected: expected comma-separated indices, got 'a,b'\n"),
    (["cover", "verify", "--cover", "{cover}", "--selected", ","],
     "usage: nicecover cover verify [-h] --cover COVER --selected SELECTED\n"
     "nicecover cover verify: error: argument --selected: expected comma-separated indices, got ','\n"),
    (["waiting", "approx", "--prog", "{prog}", "--input", "0", "--prec", "3", "--targets", "harmonic"],
     "usage: nicecover waiting approx [-h] --prog PROG --input INPUT [--targets TARGETS] --prec PREC"
     " [--max-steps MAX_STEPS]\n"
     "nicecover waiting approx: error: argument --targets: unknown target sequence 'harmonic'"
     " (expected: geometric)\n"),
    (["reduce", "--prog", "{prog}", "--input", "2", "--prec", "10", "--oracle", "nope"],
     "usage: nicecover reduce [-h] --prog PROG --input INPUT --prec PREC [--targets TARGETS] [--oracle ORACLE]\n"
     "nicecover reduce: error: argument --oracle: unknown oracle 'nope' (expected step@<r> or stair:<r1>,...)\n"),
    (["reduce", "--prog", "{prog}", "--input", "2", "--prec", "10", "--oracle", "step@1/0"],
     "usage: nicecover reduce [-h] --prog PROG --input INPUT --prec PREC [--targets TARGETS] [--oracle ORACLE]\n"
     "nicecover reduce: error: argument --oracle: 1/0\n"),
    (["bisect", "--oracle", "stair:", "--lo", "0", "--hi", "1", "--steps", "1"],
     "usage: nicecover bisect [-h] --oracle ORACLE --lo LO --hi HI --steps STEPS [--transcript TRANSCRIPT]\n"
     "nicecover bisect: error: argument --oracle: stair oracle needs at least one threshold\n"),
    (["cover", "subcover", "--cover", "{cover}", "--modulus", "wavy"],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --modulus: expected `lebesgue` or `const:<rational>`,"
     " got 'wavy'\n"),
    (["cover", "subcover", "--cover", "{cover}", "--modulus", "const:x"],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --modulus: not a rational: 'x'\n"),
    (["cover", "subcover", "--cover", "{cover}", "--modulus", "const:1/0"],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --modulus: 1/0\n"),
    (["cover", "subcover", "--cover", "{cover}", "--samples", ","],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --samples: expected comma-separated rationals\n"),
    (["cover", "subcover", "--cover", "{cover}", "--samples", "1/2,x"],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --samples: not a rational: 'x'\n"),
    (["cover", "subcover", "--cover", "{cover}", "--samples", "0,1/0"],
     "usage: nicecover cover subcover [-h] --cover COVER [--modulus MODULUS] [--samples SAMPLES]\n"
     "nicecover cover subcover: error: argument --samples: 1/0\n"),
    (["machine", "run", "--prog", "{missing}", "--input", "0", "--budget", "1"],
     "error: [Errno 2] No such file or directory: '{missing}'\n"),
    (["cover", "lebesgue", "--cover", "{missing}"],
     "error: [Errno 2] No such file or directory: '{missing}'\n"),
    (["cover", "verify", "--cover", "{cover}", "--selected", "0,5"],
     "error: selected index 5 out of range\n"),
    (["bisect", "--oracle", "step@1/3", "--lo", "1", "--hi", "0", "--steps", "1"],
     "error: bisection needs lo < hi\n"),
    (["rat", "1/0"], "error: 1/0\n"),
    (["crn", "approx", "--expr", "waiting({missing}, 0)", "--prec", "3"],
     "error: cannot read program '{missing}': [Errno 2] No such file or directory: '{missing}'\n"),
    (["crn", "approx", "--expr", "bisect_limit(step@1/3, 0)", "--prec", "3"],
     "error: bisect_limit expects (ORACLE, LO, HI)\n"),
    # numbers longer than the interpreter converts are refused without echoing them
    (["machine", "run", "--prog", "{prog}", "--input", LONG, "--budget", "1"],
     "usage: nicecover machine run [-h] --prog PROG --input INPUT --budget BUDGET\n"
     "nicecover machine run: error: argument --input: " + TOO_LONG),
    (["crn", "approx", "--expr", "1/2", "--prec", LONG],
     "usage: nicecover crn approx [-h] --expr EXPR --prec PREC\n"
     "nicecover crn approx: error: argument --prec: " + TOO_LONG),
    (["machine", "dovetail", "--prog", "{prog}", "--inputs", "0.." + LONG, "--budget", "10"],
     "usage: nicecover machine dovetail [-h] --prog PROG --inputs INPUTS --budget BUDGET\n"
     "nicecover machine dovetail: error: argument --inputs: " + TOO_LONG),
    (["cover", "verify", "--cover", "{cover}", "--selected", "0," + LONG],
     "usage: nicecover cover verify [-h] --cover COVER --selected SELECTED\n"
     "nicecover cover verify: error: argument --selected: " + TOO_LONG),
    (["machine", "run", "--prog", "{wide}", "--input", "0", "--budget", "1"],
     "error: line 1: " + TOO_LONG),
    (["crn", "approx", "--expr", f"waiting({{prog}}, {LONG})", "--prec", "3"],
     "error: " + TOO_LONG),
]


@pytest.mark.parametrize("argv,stderr", USAGE_ERRORS,
                         ids=[" ".join(a).replace(LONG, "<5000 digits>") for a, _ in USAGE_ERRORS])
def test_usage_error_stderr(capsys, monkeypatch, tmp_path, countdown_file, cover_file, argv, stderr):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage line to the terminal width
    wide = tmp_path / "wide.prog"
    wide.write_text(f"INC {LONG}\nHALT\n")
    paths = {"prog": str(countdown_file), "cover": cover_file, "missing": str(tmp_path / "missing"), "wide": str(wide)}
    argv = [arg.format(**paths) for arg in argv]
    assert run(capsys, *argv) == (2, "", stderr.format(**paths))


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nicecover", "rat", "1/2 + 1/4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3/4\n"


# Run in a fresh interpreter: what the command ran, by name after "nicecover.",
# then any of `dataclasses` and `inspect` that it imported.  A layer the
# package registered but nothing has read yet is still a lazy module, whose
# type is a subclass of types.ModuleType.
LAYERS_RUN = """
import sys, types
before = set(sys.modules)
from nicecover.cli import dispatch
code = dispatch(sys.argv[1:])
ran = sorted(name[len("nicecover."):] for name, module in sys.modules.items()
             if name.startswith("nicecover.") and type(module) is types.ModuleType)
print(code, *ran, *sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""

ANALYSIS_RAN = "0 analysis cli crn errors machine rational"


@pytest.mark.parametrize("argv,ran", [
    (["rat", "1/2 + 1/3"], "0 cli errors expressions rational"),
    (["crn", "approx", "--expr", "1/3 + 1/3", "--prec", "5"], "0 cli errors expressions rational"),
    (["crn", "approx", "--expr", "1/3 + bisect_limit(step@1/3, 0, 1)", "--prec", "5"],
     "0 analysis cli crn errors expressions machine rational"),
    (["cover", "lebesgue", "--cover", "{cover}"], "0 cli cover errors rational"),
    (["cover", "subcover", "--cover", "{cover}"], "0 cli cover errors rational"),
    (["cover", "verify", "--cover", "{cover}", "--selected", "0,1"], "0 cli cover errors rational"),
    (["cover", "verify-cert", "--cover", "{cover}", "--cert", "{cert}"], "0 cli cover errors rational"),
    (["machine", "run", "--prog", "{prog}", "--input", "2", "--budget", "100"], "0 cli errors machine rational"),
    (["machine", "dovetail", "--prog", "{prog}", "--inputs", "0..3", "--budget", "100"],
     "0 cli errors machine rational"),
    (["waiting", "approx", "--prog", "{prog}", "--input", "2", "--prec", "5"], ANALYSIS_RAN),
    (["reduce", "--prog", "{prog}", "--input", "2", "--prec", "5"], ANALYSIS_RAN),
    (["bisect", "--oracle", "step@1/3", "--lo", "0", "--hi", "1", "--steps", "4"], ANALYSIS_RAN),
], ids=["rat", "crn approx call-free", "crn approx", "cover lebesgue", "cover subcover", "cover verify",
        "cover verify-cert", "machine run", "machine dovetail", "waiting approx", "reduce", "bisect"])
def test_command_runs_only_the_layers_it_uses(countdown_file, cover_file, tmp_path, argv, ran):
    cert = tmp_path / "cert.txt"
    intervals = cover_mod.parse_cover(TWO_INTERVAL_COVER)
    cert.write_text("".join(cover_mod.render_certificate(
        cover_mod.extract_finite_subcover(intervals, cover_mod.LebesgueModulus(intervals)))))
    argv = [arg.format(prog=countdown_file, cover=cover_file, cert=cert) for arg in argv]
    result = subprocess.run([sys.executable, "-c", LAYERS_RUN, *argv], capture_output=True, text=True)
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == ran


def test_explicit_imports_find_every_layer():
    script = """
import sys, types
from fractions import Fraction
import nicecover.cli
print(*(name for name in ("rational", "expressions", "crn", "machine", "analysis", "cover")
        if "nicecover." + name not in sys.modules))
import nicecover.crn
print(type(nicecover.crn) is types.ModuleType, nicecover.crn.approx_to(nicecover.crn.from_rational(Fraction(1, 3)), 5))
from nicecover import cover
print(cover.lebesgue_number(cover.parse_cover("-1/10 6/10\\n4/10 11/10\\n")))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.stdout, result.stderr) == ("\nTrue 1/3\n1/10\n", "")
