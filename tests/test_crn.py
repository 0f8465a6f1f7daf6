import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nicecover.analysis import StepMap, bisect_limit
from nicecover.crn import (
    CRN,
    Apartness,
    add,
    approx_to,
    compare_apart,
    from_rational,
    mul,
    negate,
    probe_offsets,
    sub,
    validate_regulator,
)
from nicecover.rational import pow2

rationals = st.fractions(max_denominator=10**4)


def geometric() -> CRN:
    # limit 1, one fresh halving per index
    return CRN(approx=lambda i: 1 - pow2(-i), regulator=lambda n: n)


class TestEmbeddingAndApprox:
    @given(rationals, st.integers(min_value=0, max_value=80))
    def test_rational_embedding_is_exact(self, q, n):
        assert approx_to(from_rational(q), n) == q

    def test_approx_queries_one_level_deeper(self):
        calls = []

        def alpha(i):
            calls.append(("alpha", i))
            return Fraction(0)

        def beta(n):
            calls.append(("beta", n))
            return 7

        approx_to(CRN(approx=alpha, regulator=beta), 5)
        assert calls == [("beta", 6), ("alpha", 7)]

    @pytest.mark.parametrize("n", range(0, 30, 3))
    def test_geometric_within_bound(self, n):
        assert abs(approx_to(geometric(), n) - 1) < pow2(-n)


class TestArithmetic:
    @given(rationals, rationals, st.integers(min_value=0, max_value=48))
    def test_ops_on_embeddings_are_exact(self, p, q, n):
        x, y = from_rational(p), from_rational(q)
        assert approx_to(add(x, y), n) == p + q
        assert approx_to(sub(x, y), n) == p - q
        assert approx_to(mul(x, y), n) == p * q
        assert approx_to(negate(x), n) == -p

    @pytest.mark.parametrize("n", range(0, 24, 4))
    def test_sum_of_limits(self, n):
        two = add(geometric(), geometric())
        assert abs(approx_to(two, n) - 2) < pow2(-n)

    @pytest.mark.parametrize("n", range(0, 24, 4))
    def test_difference_of_equal_limits(self, n):
        zero = sub(geometric(), geometric())
        assert abs(approx_to(zero, n)) < pow2(-n)

    @pytest.mark.parametrize("n", range(0, 24, 4))
    def test_product_of_limits(self, n):
        one = mul(geometric(), geometric())
        assert abs(approx_to(one, n) - 1) < pow2(-n)

    @pytest.mark.parametrize("n", range(0, 16, 3))
    def test_product_with_large_magnitude(self, n):
        # the magnitude shift in the product regulator must absorb the 1000
        big = mul(from_rational(Fraction(1000)), geometric())
        assert abs(approx_to(big, n) - 1000) < pow2(-n)

    def test_operator_sugar_matches_functions(self):
        x, y = geometric(), from_rational(Fraction(1, 3))
        for n in (0, 5, 12):
            assert approx_to(x + y, n) == approx_to(add(x, y), n)
            assert approx_to(x - y, n) == approx_to(sub(x, y), n)
            assert approx_to(x * y, n) == approx_to(mul(x, y), n)

    def test_composites_keep_regulator_law(self):
        g = geometric()
        composites = [
            add(g, g),
            sub(g, from_rational(Fraction(7, 3))),
            mul(add(g, g), sub(g, g)),
            mul(mul(g, g), mul(g, from_rational(Fraction(-5)))),
        ]
        for value in composites:
            report = validate_regulator(value, levels=range(0, 10), probes_per_level=4)
            assert report.ok, report.violations


class TestCompareApart:
    def test_distant_values(self):
        assert compare_apart(from_rational(Fraction(0)), from_rational(Fraction(1)), 0) is Apartness.LESS
        assert compare_apart(from_rational(Fraction(1)), from_rational(Fraction(0)), 0) is Apartness.GREATER

    def test_equal_values(self):
        x = from_rational(Fraction(2, 7))
        for n in (0, 3, 10, 30):
            assert compare_apart(x, from_rational(Fraction(2, 7)), n) is Apartness.INDISTINGUISHABLE

    def test_gap_below_resolution(self):
        x = from_rational(Fraction(0))
        y = from_rational(pow2(-10))
        assert compare_apart(x, y, 2) is Apartness.INDISTINGUISHABLE
        assert compare_apart(x, y, 20) is Apartness.LESS

    @given(rationals, rationals, st.integers(min_value=0, max_value=40))
    def test_sound_on_embeddings(self, p, q, n):
        verdict = compare_apart(from_rational(p), from_rational(q), n)
        if verdict is Apartness.LESS:
            assert p < q
        elif verdict is Apartness.GREATER:
            assert p > q
        else:
            assert abs(p - q) <= pow2(-n)


class TestValidateRegulator:
    def test_probe_offsets_schedule(self):
        assert probe_offsets(1) == [0]
        assert probe_offsets(2) == [0, 1]
        assert probe_offsets(3) == [0, 1, 2]
        assert probe_offsets(5) == [0, 1, 2, 4, 8]
        offsets = probe_offsets(8)
        assert len(offsets) == 8
        assert offsets == sorted(set(offsets))

    def test_honest_crn_passes(self):
        report = validate_regulator(geometric(), levels=range(0, 12))
        assert report.ok
        assert report.violations == ()
        assert report.levels == tuple(range(0, 12))

    def test_lying_regulator_is_caught(self):
        liar = CRN(approx=lambda i: pow2(-i), regulator=lambda n: 0)
        report = validate_regulator(liar, levels=[0, 1, 2])
        assert not report.ok
        found = [(v.level, v.i, v.j, v.gap) for v in report.violations]
        # alpha(0)=1 and alpha(1)=1/2 sit a full 1/2 apart, too wide for level 2
        assert (2, 0, 1, Fraction(1, 2)) in found
        assert all(v.level != 0 for v in report.violations)
        for v in report.violations:
            assert v.gap >= pow2(-v.level)

    def test_probe_indices_follow_schedule(self):
        seen = []

        def alpha(i):
            seen.append(i)
            return Fraction(0)

        validate_regulator(
            CRN(approx=alpha, regulator=lambda n: 10), levels=[3], probes_per_level=3
        )
        assert sorted(set(seen)) == [10, 11, 12]


# ---------------------------------------------------------------- memoized composites

# The composites as plain tree walks, without the remembered answers of
# `nicecover.crn`: the reference the memoized nodes must agree with.
def tree_add(x, y):
    return CRN(lambda i: x.approx(i) + y.approx(i), lambda n: max(x.regulator(n + 1), y.regulator(n + 1)))


def tree_sub(x, y):
    return CRN(lambda i: x.approx(i) - y.approx(i), lambda n: max(x.regulator(n + 1), y.regulator(n + 1)))


def tree_negate(x):
    return CRN(lambda i: -x.approx(i), x.regulator)


def tree_mul(x, y):
    bound_x = abs(approx_to(x, 0)) + 1
    bound_y = abs(approx_to(y, 0)) + 1
    shift = 0
    while 2**shift < bound_x + bound_y + 1:
        shift += 1
    return CRN(lambda i: x.approx(i) * y.approx(i),
               lambda n: max(x.regulator(n + shift), y.regulator(n + shift)))


MEMOIZED = {"add": add, "sub": sub, "mul": mul, "neg": lambda x, _: negate(x)}
TREE = {"add": tree_add, "sub": tree_sub, "mul": tree_mul, "neg": lambda x, _: tree_negate(x)}


def third_limit():
    return bisect_limit(StepMap(Fraction(1, 3)), Fraction(0), Fraction(1))


LEAVES = [geometric, third_limit, lambda: from_rational(Fraction(-3, 7)), lambda: from_rational(Fraction(5, 2))]

# a DAG as a list of steps; each step combines two earlier nodes (by
# index), so later steps share their operands with each other
dag_steps = st.lists(
    st.tuples(st.sampled_from(sorted(MEMOIZED)), st.integers(min_value=0), st.integers(min_value=0)),
    min_size=1, max_size=6,
)
queries = st.lists(
    st.tuples(st.sampled_from(["approx", "regulator", "approx_to"]), st.integers(min_value=0), st.integers(0, 24)),
    min_size=1, max_size=12,
)


def build(ops, steps):
    nodes = [leaf() for leaf in LEAVES]
    for op, a, b in steps:
        nodes.append(ops[op](nodes[a % len(nodes)], nodes[b % len(nodes)]))
    return nodes


class TestMemoizedComposites:
    @given(dag_steps, queries)
    def test_dag_matches_unmemoized_tree(self, steps, asked):
        memo, tree = build(MEMOIZED, steps), build(TREE, steps)
        # mixed nodes and arguments in one sequence, so a remembered call
        # is often the wrong one for the next question
        for kind, which, k in asked:
            a, b = memo[which % len(memo)], tree[which % len(tree)]
            if kind == "approx_to":
                assert approx_to(a, k) == approx_to(b, k)
            else:
                assert getattr(a, kind)(k) == getattr(b, kind)(k)

    def test_shared_dag_costs_its_depth(self):
        calls = []
        leaf = CRN(
            approx=lambda i: calls.append("approx") or Fraction(3, 7),
            regulator=lambda n: calls.append("regulator") or 0,
        )
        depth = 64
        y = leaf
        for _ in range(depth):
            y = y + y
        assert approx_to(y, 10) == Fraction(3, 7) * 2**depth
        # a tree walk would make 2^64 leaf calls of each kind
        assert calls.count("approx") <= 2 * depth
        assert calls.count("regulator") <= 2 * depth

    @staticmethod
    def mixed_shift_chain(depth):
        # y = y * 1/2 + y: the product asks y at a larger level shift than
        # the sum does, so each node is asked at several levels per query
        asked = {"approx": [], "regulator": []}
        leaf = CRN(approx=lambda i: asked["approx"].append(i) or 1 - pow2(-i),
                   regulator=lambda n: asked["regulator"].append(n) or n)
        half, y = from_rational(Fraction(1, 2)), leaf
        for _ in range(depth):
            y = mul(y, half) + y
        asked["approx"].clear()
        asked["regulator"].clear()
        return y, asked

    def test_mixed_shift_dag_costs_at_most_depth_squared(self):
        y, asked = self.mixed_shift_chain(14)
        approx_to(y, 10)
        # one remembered level per node made 1,728 leaf regulator calls here
        assert len(asked["regulator"]) <= 14**2

    def test_deep_mixed_shift_dag_is_exact(self):
        depth = 40
        y, asked = self.mixed_shift_chain(depth)
        got = approx_to(y, 30)
        # composites are pointwise: the answer is the leaf's one approximation times (3/2)^40
        [i] = set(asked["approx"])
        assert got == (1 - pow2(-i)) * Fraction(3, 2) ** depth
        assert abs(got - Fraction(3, 2) ** depth) < pow2(-30)

    def test_threads_sharing_a_dag_get_the_sequential_answers(self):
        def dag():
            y = add(third_limit(), geometric())
            for _ in range(24):
                y = y + y
            return mul(y, sub(y, negate(third_limit())))

        precisions = [3, 40, 11, 0, 27, 40, 5, 18] * 3
        want = {n: approx_to(dag(), n) for n in set(precisions)}
        shared = dag()
        got: list[list] = [[] for _ in range(8)]

        def worker(slot):
            order = precisions[slot:] + precisions[:slot]
            got[slot] = [(n, approx_to(shared, n)) for n in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for answers in got:
            assert len(answers) == len(precisions)
            assert all(q == want[n] for n, q in answers)
