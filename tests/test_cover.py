import re
import weakref
from fractions import Fraction
from itertools import count, islice, repeat
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nicecover.cover as cover_mod
from conftest import NOT_LINE_ENDS, certificate_bounds
from nicecover.cli import dispatch
from nicecover.cover import (
    DEFAULT_SAMPLE_POINTS,
    ConstantModulus,
    Covered,
    LebesgueModulus,
    OpenInterval,
    OracleModulus,
    SubcoverCertificate,
    Uncovered,
    build_eps_net,
    extract_constant_radius,
    extract_finite_subcover,
    find_containing_element,
    lebesgue_candidates,
    lebesgue_number,
    parse_certificate,
    parse_cover,
    render_certificate,
    uniform_radius_at,
    verify_certificate,
    verify_subcover,
)
from nicecover.errors import (
    BudgetExceeded,
    NoContainingElement,
    NonpositiveRadius,
    NotACover,
    NotNiceCover,
    ParseError,
    ZeroDenominator,
)
from nicecover.rational import parse_rational, render

F = Fraction

TWO_INTERVALS = [OpenInterval(F(-1, 10), F(6, 10)), OpenInterval(F(4, 10), F(11, 10))]
ONE_INTERVAL = [OpenInterval(F(-1, 2), F(3, 2))]
GAP_AT_HALF = [OpenInterval(F(0), F(1, 2)), OpenInterval(F(1, 2), F(1))]


def certificate_of_net(radius, net, elements, selected):
    """The certificate of rational net points, whose points and unit are read back from the text of the net;
    BudgetExceeded past MAX_SCALED_BITS."""
    read = parse_certificate("".join([f"r={render(radius)}\n", *(f"net {render(c)} -> element 0\n" for c in net),
                                      "selected\n"]))
    return SubcoverCertificate(radius, read.points, read.unit, tuple(elements), tuple(selected))


def unreduced_text(certificate, scales):
    """The text of `certificate` with net point k written as an equal fraction, its numerator and denominator
    times scales[k]; with every scale 1, `render_certificate`'s text."""
    net = (render(c) if s == 1 else f"{c.numerator * s}/{c.denominator * s}" for c, s in zip(certificate.net, scales))
    return "".join([f"r={render(certificate.radius)}\n",
                    *(f"net {x} -> element {j}\n" for x, j in zip(net, certificate.elements)),
                    "selected " + ",".join(map(str, certificate.selected)) + "\n"])


# scales for `unreduced_text`: 1 leaves a point as rendered
UNREDUCING = [1, 2, 3, 7, 10**3]


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=1000)
# certificate-shaped text: a radius line, then lines with damaged fields
certificate_fields = st.sampled_from(["0", "1", "1/10", "1/0", "²", "0,²", "x", "", "1" * 5000])
certificate_texts = st.builds(
    lambda radius, lines: "\n".join(["r=" + radius, *lines]),
    certificate_fields,
    st.lists(st.tuples(st.sampled_from(["net ", "selected ", ""]), certificate_fields,
                       st.sampled_from(["", " -> element "]), certificate_fields).map("".join), max_size=4),
)


class TestIntervals:
    def test_membership_is_strict(self):
        iv = OpenInterval(F(0), F(1, 2))
        assert not iv.contains_point(F(0))
        assert iv.contains_point(F(1, 4))
        assert not iv.contains_point(F(1, 2))

    def test_ball_containment_is_closed(self):
        iv = OpenInterval(F(-1, 10), F(6, 10))
        assert iv.contains_ball(F(1, 2), F(1, 10))  # touches the endpoint
        assert not iv.contains_ball(F(1, 2), F(11, 100))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            OpenInterval(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            OpenInterval(F(1), F(0))


class TestParsing:
    def test_parse_with_comments(self):
        text = "# cover of [0,1]\n-1/10 6/10\n\n4/10 11/10  # second\n"
        assert parse_cover(text) == TWO_INTERVALS

    def test_decimal_endpoints(self):
        assert parse_cover("-0.1 0.6\n") == [OpenInterval(F(-1, 10), F(6, 10))]

    @pytest.mark.parametrize(
        "text", ["", "# nothing\n", "1/2\n", "0 1/2 1\n", "x 1\n", "1/2 1/2\n", "1 0\n"]
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_cover(text)

    def test_load_cover(self, tmp_path):
        path = tmp_path / "cov.txt"
        path.write_text("-1/10 6/10\n4/10 11/10\n")
        assert parse_cover(path) == TWO_INTERVALS

    @pytest.mark.parametrize("line", ["1 0", "1/2 1/2", "0.5 1/2", "2/4 0.5", "-0 0"])
    def test_ends_out_of_order_name_their_line(self, line):
        with pytest.raises(ParseError, match="^line 2: interval needs lo < hi$"):
            parse_cover(f"-1 2\n{line}\n")

    def test_interval_cap(self, monkeypatch):
        monkeypatch.setattr(cover_mod, "MAX_COVER_ELEMENTS", 3)
        at_cap = "# three\n-1/10 6/10\n\n4/10 11/10\n0 1/2  # redundant\n"
        assert parse_cover(at_cap) == [*TWO_INTERVALS, OpenInterval(F(0), F(1, 2))]
        # refused though an earlier line is malformed, which is reported only within the cap
        with pytest.raises(ParseError, match="^line 1: expected `lo hi`, got 'x'$"):
            parse_cover("x\n" + at_cap.replace("0 1/2", "#"))
        with pytest.raises(BudgetExceeded, match="^cover has more than MAX_COVER_ELEMENTS = 3 intervals$"):
            parse_cover("x\n" + at_cap)

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_lines_end_as_in_a_file(self, tmp_path, char):
        path = tmp_path / "cov.txt"
        text = f"# note{char}0 1\r\n-1/10 6/10{char}\r4/10 11/10\n"
        path.write_bytes(text.encode())
        assert parse_cover(text) == parse_cover(path) == TWO_INTERVALS
        for text, error in [(f"-1/10 6/10{char}4/10 11/10\n", "line 1: expected `lo hi`"),
                            (f"#{char}\n1 0\n", "line 2: interval needs lo < hi")]:
            path.write_bytes(text.encode())
            for source in (text, path):
                with pytest.raises(ParseError, match=f"^{re.escape(error)}"):
                    parse_cover(source)


class TestLebesgue:
    def test_uniform_radius_at_points(self):
        assert uniform_radius_at(TWO_INTERVALS, F(0)) == F(1, 10)
        assert uniform_radius_at(TWO_INTERVALS, F(1, 2)) == F(1, 10)
        assert uniform_radius_at(TWO_INTERVALS, F(6, 10)) == F(1, 5)
        assert uniform_radius_at(TWO_INTERVALS, F(1)) == F(1, 10)

    def test_candidates_cover_the_critical_points(self):
        candidates = lebesgue_candidates(TWO_INTERVALS)
        assert candidates == sorted(candidates)
        assert F(0) in candidates and F(1) in candidates
        assert F(6, 10) in candidates and F(4, 10) in candidates
        # midpoint of (-1/10, 11/10) where the two margins tie
        assert F(1, 2) in candidates

    def test_two_interval_example(self):
        assert lebesgue_number(TWO_INTERVALS) == F(1, 10)

    def test_single_generous_interval(self):
        assert lebesgue_number(ONE_INTERVAL) == F(1, 2)

    def test_touching_intervals_are_not_a_cover(self):
        with pytest.raises(NotACover):
            lebesgue_number(GAP_AT_HALF)

    def test_missing_endpoint_is_not_a_cover(self):
        with pytest.raises(NotACover):
            lebesgue_number([OpenInterval(F(0), F(2))])

    def test_result_is_a_lower_bound_at_candidates(self):
        value = lebesgue_number(TWO_INTERVALS)
        candidates = lebesgue_candidates(TWO_INTERVALS)
        inside = [c for c in candidates if 0 <= c <= 1]
        assert all(uniform_radius_at(TWO_INTERVALS, c) >= value for c in inside)
        assert any(uniform_radius_at(TWO_INTERVALS, c) == value for c in inside)

    @given(unit_rationals)
    def test_every_point_admits_the_radius(self, x):
        value = lebesgue_number(TWO_INTERVALS)
        assert uniform_radius_at(TWO_INTERVALS, x) >= value
        assert any(iv.contains_ball(x, value) for iv in TWO_INTERVALS)


class TestModuli:
    def test_constant_modulus(self):
        m = ConstantModulus(F(1, 8))
        assert m.radius_at(F(0)) == m.radius_at(F(1)) == F(1, 8)

    def test_lebesgue_modulus_matches_lebesgue_number(self):
        m = LebesgueModulus(TWO_INTERVALS)
        assert m.radius_at(F(0)) == lebesgue_number(TWO_INTERVALS)
        assert m.radius_at(F(1, 3)) == m.radius_at(F(0))

    def test_extract_constant_radius_accepts_uniform_oracle(self):
        m = OracleModulus(lambda x: F(1, 10))
        assert extract_constant_radius(m) == F(1, 10)

    def test_non_constant_oracle_is_rejected_with_witnesses(self):
        m = OracleModulus(lambda x: F(1, 10) if x < F(1, 2) else F(1, 20))
        with pytest.raises(NotNiceCover) as excinfo:
            extract_constant_radius(m)
        err = excinfo.value
        assert (err.p, err.q) == (DEFAULT_SAMPLE_POINTS[0], F(1, 2))
        assert (err.radius_p, err.radius_q) == (F(1, 10), F(1, 20))
        assert str(err) == "radius oracle disagrees: 1/10 at 0 vs 1/20 at 1/2"

    def test_disagreeing_radii_longer_than_4300_digits(self):
        tiny = F(1, 10**5000)  # str() refuses ints of more than 4,300 digits
        m = OracleModulus(lambda x: tiny if x < F(1, 2) else tiny / 2)
        with pytest.raises(NotNiceCover, match=r"^radius oracle disagrees: 1/10{5000} at 0 vs 1/20{5000} at 1/2$"):
            extract_constant_radius(m)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonpositiveRadius):
            extract_constant_radius(ConstantModulus(F(0)))


class TestEpsNet:
    def test_even_tenth_grid(self):
        net = build_eps_net(F(1, 10))
        assert len(net) == 11
        assert net[0] == F(0) and net[-1] == F(1)
        assert net == [F(k, 10) for k in range(11)]

    def test_grid_hitting_one_exactly(self):
        assert build_eps_net(F(1, 3)) == [F(0), F(1, 3), F(2, 3), F(1)]

    def test_one_appended_when_missed(self):
        assert build_eps_net(F(2, 5)) == [F(0), F(2, 5), F(4, 5), F(1)]

    def test_huge_radius(self):
        assert build_eps_net(F(2)) == [F(0), F(1)]

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveRadius):
            build_eps_net(F(0))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(cover_mod, "MAX_NET_POINTS", 10)
        assert len(build_eps_net(F(1, 9))) == 10
        with pytest.raises(BudgetExceeded, match="needs 11 points, more than MAX_NET_POINTS = 10"):
            build_eps_net(F(1, 10))
        with pytest.raises(BudgetExceeded, match="needs 11 points"):
            build_eps_net(F(2, 19))  # 0, 2/19, ..., 18/19, then 1

    @given(unit_rationals, st.fractions(min_value="1/64", max_value=2, max_denominator=64))
    def test_density(self, x, eps):
        net = build_eps_net(eps)
        assert min(abs(x - c) for c in net) < eps


class TestAssignment:
    def test_first_match_wins(self):
        assert find_containing_element(TWO_INTERVALS, F(1, 2), F(1, 10)) == 0
        assert find_containing_element(TWO_INTERVALS, F(7, 10), F(1, 10)) == 1

    def test_no_containing_element(self):
        cover = [OpenInterval(F(0), F(13, 20)), OpenInterval(F(7, 20), F(1))]
        with pytest.raises(NoContainingElement):
            find_containing_element(cover, F(1, 2), F(1, 5))


class TestSubcoverPipeline:
    def test_two_interval_certificate(self):
        cert = extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))
        assert cert.radius == F(1, 10)
        assert cert.net == tuple(F(k, 10) for k in range(11))
        assert cert.selected == (0, 1)
        assert cert.elements == (0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1)

    def test_redundant_element_left_out(self):
        cover = [OpenInterval(F(-1, 2), F(3, 2)), OpenInterval(F(1, 10), F(2, 10))]
        cert = extract_finite_subcover(cover, LebesgueModulus(cover))
        assert cert.radius == F(1, 2)
        assert cert.net == (F(0), F(1, 2), F(1))
        assert cert.selected == (0,)

    def test_verify_accepts_extracted_subcover(self):
        cert = extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))
        assert verify_subcover(TWO_INTERVALS, cert.selected) == Covered()

    def test_verify_finds_witness(self):
        assert verify_subcover(TWO_INTERVALS, [0]) == Uncovered(F(6, 10))
        assert verify_subcover(TWO_INTERVALS, [1]) == Uncovered(F(0))
        assert verify_subcover(TWO_INTERVALS, []) == Uncovered(F(0))

    def test_verify_orders_do_not_matter(self):
        assert verify_subcover(TWO_INTERVALS, [1, 0]) == Covered()

    def test_verify_rejects_bad_index(self):
        with pytest.raises(ValueError, match="^selected index 5 out of range$"):
            verify_subcover(TWO_INTERVALS, [0, 5])

    def test_witness_is_honest(self):
        verdict = verify_subcover(TWO_INTERVALS, [0])
        assert isinstance(verdict, Uncovered)
        assert not any(TWO_INTERVALS[j].contains_point(verdict.witness) for j in [0])


class TestCertificateText:
    def expected_text(self):
        return (
            "r=1/10\n"
            "net 0 -> element 0\n"
            "net 1/10 -> element 0\n"
            "net 1/5 -> element 0\n"
            "net 3/10 -> element 0\n"
            "net 2/5 -> element 0\n"
            "net 1/2 -> element 0\n"
            "net 3/5 -> element 1\n"
            "net 7/10 -> element 1\n"
            "net 4/5 -> element 1\n"
            "net 9/10 -> element 1\n"
            "net 1 -> element 1\n"
            "selected 0,1\n"
        )

    def test_render(self):
        cert = extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))
        assert "".join(render_certificate(cert)) == self.expected_text()

    def test_round_trip(self):
        cert = extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))
        assert parse_certificate("".join(render_certificate(cert))) == cert

    def test_parse_is_exact_about_shape(self):
        assert parse_certificate(self.expected_text()) == extract_finite_subcover(
            TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS)
        )

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t.replace("r=1/10\n", ""),
            lambda t: t.replace("selected 0,1\n", ""),
            lambda t: t.replace("net 1/2 -> element 0", "net 1/2 element 0"),
            lambda t: t.replace("r=1/10", "r=ten"),
            lambda t: t + "trailing junk\n",
            lambda t: "",
            lambda t: t + "net 1 -> element 1\n",
            lambda t: t.replace("net 1 -> element 1", "net 1 -> element ²"),
            lambda t: t + "selected 0,1\n",
            lambda t: t.replace("selected 0,1", "selected 0,x"),
            lambda t: t.replace("selected 0,1", "selected 0,²"),
        ],
    )
    def test_parse_rejects_damage(self, mutation):
        with pytest.raises(ParseError):
            parse_certificate(mutation(self.expected_text()))

    def test_indices_longer_than_4300_digits(self):
        ones = "1" * 5000  # int() refuses more than 4,300 digits on CPython 3.10.7 and later
        cert = parse_certificate(f"r=1/2\nnet 0 -> element {ones}\nselected {ones}\n")
        assert cert.elements == ((10**5000 - 1) // 9,) and cert.selected == ((10**5000 - 1) // 9,)

    def test_net_lines_in_any_accepted_form(self):
        written = "r=0.1\nnet 000 -> element 0\nnet  2/20 -> element  0\nnet 0.2 -> element 00\n"
        canonical = parse_certificate(self.expected_text())
        cert = parse_certificate(written + self.expected_text().split("\n", 4)[4])
        # 2/20 is not in lowest terms, and the unit is the one it is written over, 20
        assert cert.unit == 20 and (cert.radius, cert.net, cert.elements, cert.selected) == (
            canonical.radius, canonical.net, canonical.elements, canonical.selected)

    def test_net_line_cap(self, monkeypatch):
        monkeypatch.setattr(cover_mod, "MAX_NET_POINTS", 11)
        assert parse_certificate(self.expected_text()).elements == (0,) * 6 + (1,) * 5
        monkeypatch.setattr(cover_mod, "MAX_NET_POINTS", 10)
        with pytest.raises(BudgetExceeded, match="^certificate has more than MAX_NET_POINTS = 10 net lines$"):
            parse_certificate(self.expected_text())
        # the first bad line ends the read: a malformed net line before the cap is the error reported,
        for bad in ("net x -> element 0", "net 1/0 -> element 0"):
            with pytest.raises(ParseError, match="^line 7: "):
                parse_certificate(self.expected_text().replace("net 1/2 -> element 0", bad))
        # and the net line past the cap is, whatever follows it
        with pytest.raises(BudgetExceeded, match="^certificate has more than MAX_NET_POINTS = 10 net lines$"):
            parse_certificate(self.expected_text().replace("selected 0,1", "junk"))

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_lines_end_as_in_a_file(self, tmp_path, char):
        path = tmp_path / "cert.txt"
        text = self.expected_text().replace("\n", f"{char}\r\n")
        path.write_bytes(text.encode())
        assert parse_certificate(text) == parse_certificate(path) == parse_certificate(self.expected_text())
        text = self.expected_text().replace("element 0\n", f"element 0{char}", 1)
        path.write_bytes(text.encode())
        for source in (text, path):
            with pytest.raises(ParseError, match="^line 2: bad net line: 'net 0 -> element 0"):
                parse_certificate(source)

    @given(st.lists(st.sampled_from(["", " ", "\t\xa0", "\u2003", "\u3000"]), min_size=4, max_size=4),
           st.sampled_from(["0", "-7", "07/3", "7/0", "-0.25", "\u0663/\u0667", "\u0661/\u0662", "\u0661.\u0665",
                            "7.", ".5", "+1", "1e3", "1 /2", "1/ 2", "--1", "-", "1/2/3", "x", "",
                            "1 -> element 2"]),
           st.sampled_from([" -> element ", "-> element ", " ->element ", " -> element", " ->  element ",
                            " -> Element ", " -> ELEMENT ", " => element ", " \u2003-> element "]),
           st.sampled_from(["0", "12", "\u0663", "\u0661\u0662", "-1", "+1", "1 2", "", "x", "1 -> element 2"]))
    def test_net_line_reads_as_its_pieces(self, spaces, point, arrow, element):
        line = f"net {spaces[0]}{point}{spaces[1]}{arrow}{spaces[2]}{element}{spaces[3]}".strip()

        def pieces():
            point_text, arrow, element_text = line[len("net ") :].partition(" -> element ")
            try:
                if not (arrow and element_text.strip().isdecimal()):
                    raise ParseError(f"bad net line: {line!r}")
                return parse_rational(point_text), int(element_text)
            except ParseError as exc:
                raise ParseError(f"line 2: {exc}") from None

        def read():
            certificate = parse_certificate(f"r=1\n{line}\nselected 0\n")
            return certificate.net[0], certificate.elements[0]

        answers = []
        for reading in (pieces, read):
            try:
                answers.append(reading())
            except (ParseError, ZeroDenominator) as exc:
                answers.append((type(exc), str(exc)))
        assert answers[0] == answers[1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10**40), st.integers(1, 300), st.booleans())
    def test_a_certificate_keeps_to_the_bounds_worked_out_before_its_net(self, k, n, spread):
        # radius k / (k n + 1): n + 1 net points over a denominator of up to 43 digits.  Spread, 10^4 elements
        # that hold no ball come first, then one element per net point that holds its ball alone, so every
        # index has 5 digits and the `selected` line names one a net point
        radius = F(k, k * n + 1)
        if spread:
            cover = [OpenInterval(F(5), F(6))] * 10**4 + [
                OpenInterval(x - radius * 4 / 3, x + radius * 4 / 3) for x in build_eps_net(radius)]
        else:
            cover = [OpenInterval(F(-2), F(3))]
        text = "".join(render_certificate(extract_finite_subcover(cover, ConstantModulus(radius))))
        longest, chars = certificate_bounds(radius)
        *lines, selected = text.splitlines()  # `selected` has at most 5 digits and a comma a net point
        assert max(map(len, lines)) <= longest and len(selected) <= 8 + 6 * (len(lines) - 1) and len(text) <= chars

    @given(st.one_of(st.text(), certificate_texts))
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        try:
            parse_certificate(text)
        except (ParseError, ZeroDenominator):
            pass


class TestCertificateVerification:
    def cert(self):
        return extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))

    def test_valid_certificate_has_no_problems(self):
        assert verify_certificate(TWO_INTERVALS, self.cert()) == []

    def test_zero_radius_reported(self):
        c = self.cert()
        bad = certificate_of_net(F(0), c.net, c.elements, c.selected)
        assert any("positive" in p for p in verify_certificate(TWO_INTERVALS, bad))

    def test_wrong_assignment_reported(self):
        c = self.cert()
        elements = (1,) + c.elements[1:]  # element 1 does not contain the ball at 0
        bad = certificate_of_net(c.radius, c.net, elements, c.selected)
        assert verify_certificate(TWO_INTERVALS, bad)

    def test_selected_mismatch_reported(self):
        c = self.cert()
        bad = certificate_of_net(c.radius, c.net, c.elements, (0,))
        assert verify_certificate(TWO_INTERVALS, bad)

    def test_sparse_net_reported(self):
        # drop the net point at 1/2; the remaining balls leave it uncovered
        c = self.cert()
        net = c.net[:5] + c.net[6:]
        elements = c.elements[:5] + c.elements[6:]
        bad = certificate_of_net(c.radius, net, elements, c.selected)
        assert verify_certificate(TWO_INTERVALS, bad)

    def test_out_of_range_element_reported_not_crashed(self):
        c = self.cert()
        bad = certificate_of_net(c.radius, c.net, (7,) * len(c.net), (7,))
        assert verify_certificate(TWO_INTERVALS, bad)

    def test_net_and_elements_of_different_lengths_refused_when_built(self):
        c = self.cert()
        for elements in (c.elements + (0,), c.elements[:-1], ()):
            with pytest.raises(ValueError, match=f"11 net points but {len(elements)} assigned"):
                certificate_of_net(c.radius, c.net, elements, c.selected)

    def test_wrong_cover_detected(self):
        problems = verify_certificate(ONE_INTERVAL, self.cert())
        assert problems


# The scans that the sweeps in nicecover.cover must agree with: the
# candidate scan for the Lebesgue number, the rescan loop for coverage and
# a per-point first match for assignment.


def scan_lebesgue_number(cover):
    best = witness = None
    for x in lebesgue_candidates(cover):
        value = uniform_radius_at(cover, x)
        if best is None or value < best:
            best, witness = value, x
    if best <= 0:
        raise NotACover(
            f"point {render(witness)} of [0,1] has no interior margin "
            f"(best radius {render(best)})"
        )
    return best


def rescan_verify_subcover(cover, selected):
    elements = [cover[j] for j in selected]
    reach = F(0)
    while True:
        extensions = [e.hi for e in elements if e.lo < reach < e.hi]
        if not extensions:
            return Uncovered(reach)
        reach = max(extensions)
        if reach > 1:
            return Covered()


def scan_subcover(cover, radius):
    net = build_eps_net(radius)
    elements = tuple(find_containing_element(cover, point, radius) for point in net)
    return certificate_of_net(radius, tuple(net), elements, tuple(sorted(set(elements))))


def rescan_verify_certificate(cover, certificate):
    """verify_certificate with both coverage checks done by the rescan loop."""
    problems = []
    r = certificate.radius
    if r <= 0:
        return [f"radius {render(r)} is not positive"]
    for net_index, (point, element) in enumerate(zip(certificate.net, certificate.elements)):
        if not 0 <= element < len(cover):
            problems.append(f"assignment {net_index}: element {element} out of range")
            continue
        e = cover[element]
        if not e.contains_ball(point, r):
            problems.append(
                f"ball ({render(point - r)}, {render(point + r)}) around net point "
                f"{render(point)} is not inside element {element} "
                f"({render(e.lo)}, {render(e.hi)})"
            )
    if certificate.selected != tuple(sorted(set(certificate.elements))):
        problems.append("selected list does not match the set of assigned elements")
    balls = [OpenInterval(c - r, c + r) for c in certificate.net]
    density = rescan_verify_subcover(balls, range(len(balls)))
    if isinstance(density, Uncovered):
        problems.append(f"net with radius {render(r)} leaves {render(density.witness)} uncovered")
    in_range = sorted({j for j in certificate.elements if 0 <= j < len(cover)})
    coverage = rescan_verify_subcover(cover, in_range)
    if isinstance(coverage, Uncovered):
        problems.append(f"selected elements leave {render(coverage.witness)} uncovered")
    return problems


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NotACover, NoContainingElement) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def ends(draw):
    """A fraction of [-1, 2] over at most 12, as `st.fractions` draws it, from strategies that Hypothesis builds
    once: `st.fractions` builds a strategy per fraction, which would take most of the time of the tests below."""
    denominator = draw(st.integers(1, 12))
    return F(draw(st.integers(-denominator, 2 * denominator)), denominator)


@st.composite
def covers(draw, max_size=10):
    """Few distinct endpoints, so nested, touching and repeated intervals are common."""
    pool = draw(st.lists(ends(), min_size=2, max_size=8, unique=True))
    # two distinct ends of the pool, as an index and a nonzero step from it
    n = len(pool)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=1, max_size=max_size))
    return [OpenInterval(*sorted((pool[i], pool[(i + step) % n]))) for i, step in pairs]


radii = st.fractions(min_value="1/24", max_value="3/2", max_denominator=24)


def sweep_oracles():
    """The sweeps-against-scans properties as a fresh class: Hypothesis ties each @given test to one class."""

    class SweepsMatchScans:
        @given(covers())
        def test_lebesgue_number(self, cover):
            assert outcome(lebesgue_number, cover) == outcome(scan_lebesgue_number, cover)

        @given(covers(), st.data())
        def test_verify_subcover(self, cover, data):
            selected = data.draw(st.lists(st.integers(0, len(cover) - 1), max_size=2 * len(cover)))
            assert verify_subcover(cover, selected) == rescan_verify_subcover(cover, selected)

        @given(covers(), radii)
        def test_assignment(self, cover, radius):
            expected = outcome(scan_subcover, cover, radius)
            for elements in (cover, iter(cover)):
                assert outcome(extract_finite_subcover, elements, ConstantModulus(radius)) == expected

        # one Random draws the damage: a strategy built per net point would take most of the test's time
        @given(covers(), radii, st.randoms(use_true_random=True))
        def test_verify_certificate_on_damaged_nets(self, cover, radius, rng):
            net = build_eps_net(radius)
            elements = []
            for point in net:
                try:
                    elements.append(find_containing_element(cover, point, radius))
                except NoContainingElement:
                    elements.append(rng.randint(0, len(cover)))  # may be out of range
            damage = rng.choice(["none", "shuffle", "drop", "repeat", "shift"])
            if damage == "shuffle":
                rng.shuffle(net)
            elif damage == "drop" and len(net) > 2:
                del net[rng.randrange(len(net))]
            elif damage == "repeat":
                net.append(rng.choice(net))
                elements.append(0)
            elif damage == "shift":
                denominator = rng.randint(1, 90)  # a fraction of [-radius, radius] over at most 90
                net[rng.randrange(len(net))] += F(rng.randint(ceil(-radius * denominator), floor(radius * denominator)),
                                                  denominator)
            radius *= rng.choice([1, 1, F(1, 2), F(3, 2)])
            elements = tuple(elements[: len(net)])
            selected = tuple(sorted(set(elements)))
            if rng.random() < 0.5 and selected:
                selected = selected[1:]
            certificate = certificate_of_net(radius, tuple(net), elements, selected)
            problems = verify_certificate(cover, certificate)
            assert problems == rescan_verify_certificate(cover, certificate)
            # with some of its points written over larger denominators, the net reads the same, with the same problems
            scales = [*map(rng.choice, repeat(UNREDUCING, len(net)))]
            unreduced = parse_certificate(unreduced_text(certificate, scales))
            assert unreduced.net == certificate.net and verify_certificate(cover, unreduced) == problems

    return SweepsMatchScans


class TestSweepsMatchScans(sweep_oracles()):
    pass


class TestSweepsMatchScansOnFractions(sweep_oracles()):
    """The same properties with _END_BITS at 0, so every sweep over cover ends compares the Fractions."""

    @pytest.fixture(autouse=True, scope="class")
    def fractions_only(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cover_mod, "_END_BITS", 0)
            yield


def primes_above(start, count):
    found = []
    n = start
    while len(found) < count:
        n += 1
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            found.append(n)
    return found


def lcm_past_256_bits(values):
    """Whether the values' least common denominator has more than 256 bits."""
    return lcm(*(v.denominator for v in values)).bit_length() > 256


def prime_chain(k):
    """k overlapping intervals across [0, 1]; each end is rounded outwards over its own prime."""
    ps = primes_above(1000, 2 * k)
    step = F(1, k - 1)
    return [
        OpenInterval(F(floor((i - F(7, 10)) * step * ps[2 * i]), ps[2 * i]),
                     F(ceil((i + F(7, 10)) * step * ps[2 * i + 1]), ps[2 * i + 1]))
        for i in range(k)
    ]


def singular_cover():
    """A Tseitin-Zaslavskii singular cover, without end: the e-th interval has width
    2^-(e+2) around a point with a prime denominator, so the total length is below 1/2."""
    p = 1000
    for e in count():
        p = primes_above(p, 1)[0]
        centre, half = F((37 * e + 11) % p, p), F(1, 2 ** (e + 3))
        yield OpenInterval(centre - half, centre + half)


def singular_prefix(length):
    return list(islice(singular_cover(), length))


def farey_cover(width):
    """Intervals of the given width around the rationals of [0, 1] in Farey order, without end."""
    for q in count(1):
        for p in range(q + 1):
            if gcd(p, q) == 1:
                yield OpenInterval(F(p, q) - width / 2, F(p, q) + width / 2)


class TestHostileDenominators:
    """Pairwise coprime denominators make the common denominator of the ends, or of a written net, huge."""

    def test_prime_chain_lebesgue_number(self):
        cover = prime_chain(40)
        assert lcm_past_256_bits([v for e in cover for v in (e.lo, e.hi)])
        assert lebesgue_number(cover) == scan_lebesgue_number(cover) > 0
        gapped = cover[:20] + cover[21:]
        assert outcome(lebesgue_number, gapped) == outcome(scan_lebesgue_number, gapped)
        assert outcome(lebesgue_number, gapped)[0] == "NotACover"

    def test_singular_prefix_is_refused_with_its_least_uncovered_point(self):
        cover = singular_prefix(40)
        assert lcm_past_256_bits([v for e in cover for v in (e.lo, e.hi)])
        assert outcome(lebesgue_number, cover) == outcome(scan_lebesgue_number, cover)
        everything = range(len(cover))
        assert verify_subcover(cover, everything) == rescan_verify_subcover(cover, everything)
        assert isinstance(verify_subcover(cover, everything), Uncovered)

    def test_cover_past_the_end_bits_is_answered_over_fractions(self):
        cover = prime_chain(240)
        ends = [v for e in cover for v in (e.lo, e.hi)]
        assert len(ends) * lcm(*(v.denominator for v in ends)).bit_length() > cover_mod._END_BITS
        gapped = cover[:100] + cover[101:]
        answers = [outcome(lebesgue_number, c) for c in (cover, gapped)]
        assert answers[0] > 0 and answers[1][0] == "NotACover"
        for c in (cover, gapped):
            everything = range(len(c))
            assert verify_subcover(c, everything) == rescan_verify_subcover(c, everything)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cover_mod, "_END_BITS", 2**40)
            assert [outcome(lebesgue_number, c) for c in (cover, gapped)] == answers

    @pytest.mark.parametrize("cover", [TWO_INTERVALS, prime_chain(40)], ids=["two-intervals", "prime-chain"])
    def test_certificate_with_prime_denominators(self, cover):
        n = 120
        # the gap between neighbours is below 1/n + 1/p < 6/(5n), twice the radius
        net = [F(round(F(k, n) * p), p) for k, p in enumerate(primes_above(5 * n, n + 1))]
        radius = F(6, 10 * n)
        assert lcm_past_256_bits(net)
        elements = []
        for point in net:
            try:
                elements.append(find_containing_element(cover, point, radius))
            except NoContainingElement:
                elements.append(0)

        def certificate(points):
            return certificate_of_net(
                radius, tuple(points), tuple(elements[: len(points)]), tuple(sorted(set(elements)))
            )

        whole, sparse = certificate(net), certificate(net[:60] + net[62:])
        for c in (whole, sparse):
            assert verify_certificate(cover, c) == rescan_verify_certificate(cover, c)
        if cover is TWO_INTERVALS:
            assert verify_certificate(cover, whole) == []
        assert any("uncovered" in p for p in verify_certificate(cover, sparse))

    def test_points_over_the_radius_denominator_cost_no_scaled_bits(self, monkeypatch):
        # a 319-bit radius denominator: only denominators beyond it count against the cap
        monkeypatch.setattr(cover_mod, "MAX_SCALED_BITS", 0)
        radius = F(10**90 + 1, 99 * 10**90)
        certificate = extract_finite_subcover(TWO_INTERVALS, ConstantModulus(radius))
        assert len(certificate.points) == 100 and certificate.unit == radius.denominator
        assert parse_certificate("".join(render_certificate(certificate))) == certificate
        rebuilt = certificate_of_net(radius, certificate.net, certificate.elements, certificate.selected)
        assert rebuilt == certificate and verify_certificate(TWO_INTERVALS, rebuilt) == []

    def test_two_thousand_point_net_with_pairwise_coprime_denominators(self, monkeypatch):
        n = 2000
        net = [F(round(F(k, n) * p), p) for k, p in enumerate(primes_above(5 * n, n + 1))]
        radius = F(6, 10 * n)
        assert lcm_past_256_bits(net)
        elements = [find_containing_element(TWO_INTERVALS, point, radius) for point in net]
        whole = certificate_of_net(radius, net, elements, (0, 1))
        assert verify_certificate(TWO_INTERVALS, whole) == []
        text = "".join(render_certificate(whole))
        assert parse_certificate(text) == whole
        elements[7] = 1  # its ball is not inside element 1
        damaged = certificate_of_net(radius, net[:40] + net[42:], elements[:40] + elements[42:], (0, 1))
        problems = verify_certificate(TWO_INTERVALS, damaged)
        assert problems == rescan_verify_certificate(TWO_INTERVALS, damaged)
        assert len(problems) == 2 and "uncovered" in problems[1]
        monkeypatch.setattr(cover_mod, "MAX_SCALED_BITS", 10**6)
        for build in (lambda: certificate_of_net(radius, net, elements, (0, 1)),
                      lambda: parse_certificate(text)):
            with pytest.raises(BudgetExceeded, match="^2001 net points over their common denominator need more than "
                                                     "MAX_SCALED_BITS = 1000000 bits beyond the radius's denominator$"):
                build()


class TestEndlessCovers:
    """Extraction reads a cover in order and stops at the first prefix that assigns the whole net."""

    def test_nice_cover_gives_a_verified_certificate(self):
        radius = F(1, 1000)
        certificate = extract_finite_subcover(farey_cover(4 * radius), ConstantModulus(radius))
        assert len(certificate.selected) == 701 and certificate.selected[-1] == 33982
        assert verify_certificate(list(islice(farey_cover(4 * radius), 33983)), certificate) == []

    def test_singular_cover_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(cover_mod, "MAX_COVER_ELEMENTS", 40)
        radius, prefix = F(1, 64), singular_prefix(40)
        least = next(c for c in build_eps_net(radius) if not any(e.contains_ball(c, radius) for e in prefix))
        assert least > 0

        def endless():  # a search that ignores the cap fails here instead of running on
            yield from islice(singular_cover(), 41)
            raise AssertionError("read past MAX_COVER_ELEMENTS + 1 elements")

        with pytest.raises(BudgetExceeded, match=f"^net point {least} is unassigned after "
                                                 "MAX_COVER_ELEMENTS = 40 cover elements$"):
            extract_finite_subcover(endless(), ConstantModulus(radius))
        # the same elements as a finite cover name the same point's ball
        with pytest.raises(NoContainingElement, match=f"^ball \\({least - radius}, {least + radius}\\) fits"):
            extract_finite_subcover(prefix, ConstantModulus(radius))

    def test_search_keeps_no_element_it_has_read(self):
        # one element, read anew without end, at the real cap: only its run of the
        # net is ever claimed, and no element before the last one read stays alive
        survivors, earlier, last = 0, None, None

        def endless():
            nonlocal survivors, earlier, last
            while True:
                survivors += earlier is not None and earlier() is not None
                element = OpenInterval(F(9, 10), F(19, 20))
                earlier, last = last, weakref.ref(element)
                yield element

        with pytest.raises(BudgetExceeded, match="^net point 0 is unassigned after "
                                                 "MAX_COVER_ELEMENTS = 100000 cover elements$"):
            extract_finite_subcover(endless(), ConstantModulus(F(1, 64)))
        assert survivors == 0

    def test_reading_stops_at_the_first_covering_prefix(self):
        too_narrow = OpenInterval(F(1, 3), F(2, 5))  # holds no ball of radius 1/10

        def elements():
            yield too_narrow
            yield from TWO_INTERVALS
            raise AssertionError("read past the covering prefix")

        modulus = ConstantModulus(F(1, 10))
        certificate = extract_finite_subcover(elements(), modulus)
        assert certificate == extract_finite_subcover([too_narrow, *TWO_INTERVALS], modulus)
        assert certificate.selected == (1, 2)


@given(
    st.one_of(covers(), st.integers(1, 40).map(lambda count: singular_prefix(count) + [OpenInterval(F(-1), F(2))])),
    st.fractions(min_value="1/300", max_value="3/2", max_denominator=300),
)
def test_extracted_certificates_survive_their_text(cover, radius):
    try:
        certificate = extract_finite_subcover(cover, ConstantModulus(radius))
    except NoContainingElement:
        return
    assert parse_certificate("".join(render_certificate(certificate))) == certificate


@pytest.mark.parametrize("damage", ["none", "wrong-element", "sparse", "selected"])
def test_verify_cert_command_reads_unreduced_net_points_alike(tmp_path, capsys, damage):
    c = extract_finite_subcover(TWO_INTERVALS, LebesgueModulus(TWO_INTERVALS))
    net, elements, selected = c.net, c.elements, c.selected
    if damage == "wrong-element":
        elements = (1,) + elements[1:]
    elif damage == "sparse":
        net, elements = net[:5] + net[6:], elements[:5] + elements[6:]
    elif damage == "selected":
        selected = (0,)
    certificate = certificate_of_net(c.radius, net, elements, selected)
    assert unreduced_text(certificate, [1] * len(net)) == "".join(render_certificate(certificate))
    (tmp_path / "cover").write_text("".join(f"{render(e.lo)} {render(e.hi)}\n" for e in TWO_INTERVALS))
    answers = []
    for scales in ([1] * len(net), [UNREDUCING[k % len(UNREDUCING)] for k in range(len(net))]):
        (tmp_path / "cert").write_text(unreduced_text(certificate, scales))
        code = dispatch(["cover", "verify-cert", "--cover", str(tmp_path / "cover"), "--cert", str(tmp_path / "cert")])
        answers.append((code, *capsys.readouterr()))
    assert answers[0] == answers[1] and answers[0][0] == (0 if damage == "none" else 1)


# The definition the checkers answer to, by brute force and sharing no code
# with their sweep: open intervals cover [0, 1] exactly when they cover every
# critical point, that is 0, 1, every end in [0, 1] and the midpoint of each
# pair of neighbouring critical points.  Between two neighbours no end
# falls, so each interval holds all of the open stretch or none of it.


def inside_some(spans, x):
    return any(lo < x < hi for lo, hi in spans)


def critical_points(spans):
    ends = sorted({F(0), F(1), *(v for span in spans for v in span if 0 <= v <= 1)})
    return sorted({*ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))})


def oracle_covers(spans):
    return all(inside_some(spans, x) for x in critical_points(spans))


def assert_least_uncovered(spans, witness):
    """The witness is uncovered and every critical point below it is covered."""
    assert not inside_some(spans, witness)
    assert all(inside_some(spans, x) for x in critical_points(spans) if x < witness)


def claimed_witness(problems, pattern):
    """The point named by the one problem matching `pattern`, or None."""
    found = [m[1] for m in map(re.compile(pattern).fullmatch, problems) if m]
    assert len(found) <= 1
    return parse_rational(found[0]) if found else None


class TestCheckersAgainstTheDefinition:
    @given(covers(max_size=8), st.data())
    def test_verify_subcover(self, cover, data):
        selected = data.draw(st.lists(st.integers(0, len(cover) - 1), max_size=2 * len(cover)))
        spans = [(cover[j].lo, cover[j].hi) for j in selected]
        verdict = verify_subcover(cover, selected)
        assert (verdict == Covered()) == oracle_covers(spans)
        if isinstance(verdict, Uncovered):
            assert_least_uncovered(spans, verdict.witness)

    @given(covers(max_size=8), radii, st.data())
    def test_verify_certificate_witnesses(self, cover, radius, data):
        grid = build_eps_net(radius)
        net = data.draw(st.lists(st.sampled_from(grid) | st.fractions(min_value=-1, max_value=2, max_denominator=24),
                                 min_size=1, max_size=len(grid) + 2))
        elements = data.draw(st.lists(st.integers(0, len(cover)), min_size=len(net), max_size=len(net)))
        problems = verify_certificate(cover, certificate_of_net(radius, net, elements, sorted(set(elements))))
        balls = [(c - radius, c + radius) for c in net]
        assigned = [(cover[j].lo, cover[j].hi) for j in set(elements) if j < len(cover)]
        for spans, pattern in ((balls, r"net with radius \S+ leaves (\S+) uncovered"),
                               (assigned, r"selected elements leave (\S+) uncovered")):
            witness = claimed_witness(problems, pattern)
            assert (witness is None) == oracle_covers(spans)
            if witness is not None:
                assert_least_uncovered(spans, witness)
