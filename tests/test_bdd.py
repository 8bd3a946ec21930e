"""One-hot ROBDD baseline: canonicity, boolean algebra, encodings."""
import itertools
import random

import pytest

from aobs.bdd import (
    BddManager,
    BoolVarMap,
    ValueOutOfRange,
    bdd_apply_action,
    bdd_size,
    encode_action,
    encode_condition,
    encode_state,
)
from aobs.oracle import Action, Condition


@pytest.fixture
def manager():
    return BddManager(6)


def _truth_table(manager, f, num_bools):
    return tuple(
        manager.evaluate(f, bits)
        for bits in itertools.product([False, True], repeat=num_bools)
    )


class TestApply:
    def test_contradiction(self, manager):
        x = manager.var(0)
        not_x = manager.apply("diff", manager.true, x)
        assert manager.apply("and", x, not_x) is manager.false

    def test_diff_matches_truth_tables(self, manager):
        # random functions on 6 booleans, each a union of its minterms;
        # diff must be the brute-force f and not g, and canonical
        rng = random.Random(61)
        n = manager.num_bools
        rows = list(itertools.product([False, True], repeat=n))

        def build(table):
            f = manager.false
            for bits, bit in zip(rows, table):
                if bit:
                    cube = manager.true
                    for k in reversed(range(n)):
                        cube = (manager.node(k, manager.false, cube) if bits[k]
                                else manager.node(k, cube, manager.false))
                    f = manager.apply("or", f, cube)
            return f

        tables = [tuple(rng.random() < 0.5 for _ in rows) for _ in range(20)]
        tables += [(False,) * len(rows), (True,) * len(rows)]
        for tf in tables:
            f = build(tf)
            assert manager.apply("diff", f, f) is manager.false
            assert manager.apply("diff", manager.true, f) is build(
                tuple(not x for x in tf))
            for tg in rng.sample(tables, 5):
                want = tuple(x and not y for x, y in zip(tf, tg))
                got = manager.apply("diff", f, build(tg))
                assert _truth_table(manager, got, n) == want
                assert got is build(want)

    def test_or_identity(self, manager):
        f = manager.apply("and", manager.var(0), manager.var(1))
        assert manager.apply("or", f, manager.false) is f

    def test_support_factorizes_to_one_constraint(self):
        # a three-variable support with b, c unconstrained reduces to the
        # one-hot constraint on a alone
        vmap = BoolVarMap(3, 2)
        manager = BddManager(vmap.num_bools)
        f = manager.false
        for b in range(2):
            for c in range(2):
                f = manager.apply(
                    "or", f,
                    encode_state(manager, vmap, {0: 0, 1: b, 2: c}),
                )
        g = encode_condition(
            manager, vmap, Condition({0: [0], 1: [0, 1], 2: [0, 1]})
        )
        assert f is g


class TestNotExists:
    def test_double_negation(self, manager):
        f = manager.apply("or", manager.var(0), manager.var(2))
        not_f = manager.apply("diff", manager.true, f)
        assert manager.apply("diff", manager.true, not_f) is f

    def test_exists_drops_variable(self, manager):
        xy = manager.apply("and", manager.var(0), manager.var(1))
        assert manager.exists({0}, xy) is manager.var(1)

    def test_projection_keeps_other_constraints(self):
        vmap = BoolVarMap(3, 3)
        manager = BddManager(vmap.num_bools)
        f = manager.false
        for state in [{0: 0, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 0}]:
            f = manager.apply("or", f, encode_state(manager, vmap, state))
        dropped = vmap.var_indices(1) + vmap.var_indices(2)
        got = manager.exists(dropped, f)
        assert got is encode_condition(manager, vmap, Condition({0: [0]}))


class TestEncodings:
    def test_action_two_outcomes(self):
        vmap = BoolVarMap(3, 3)
        manager = BddManager(vmap.num_bools)
        a = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
        f = encode_action(manager, vmap, a)
        expected = manager.apply(
            "or",
            encode_state(manager, vmap, {1: 2, 2: 1}),
            encode_state(manager, vmap, {1: 2, 2: 0}),
        )
        assert f is expected

    def test_empty_condition_is_true(self, manager):
        vmap = BoolVarMap(2, 3)
        m = BddManager(vmap.num_bools)
        assert encode_condition(m, vmap, Condition({})) is m.true

    def test_one_hot_literal_count(self):
        vmap = BoolVarMap(3, 3)
        manager = BddManager(vmap.num_bools)
        f = encode_state(manager, vmap, {0: 0, 1: 0, 2: 0})
        # 3 variables, 3 values each: a cube of 9 boolean literals
        assert bdd_size(f) == 9

    def test_value_out_of_range(self):
        vmap = BoolVarMap(2, 2)
        manager = BddManager(vmap.num_bools)
        with pytest.raises(ValueOutOfRange):
            encode_state(manager, vmap, {0: 2})


class TestApplyAction:
    def _support(self, manager, vmap, f):
        out = set()
        for values in itertools.product(range(vmap.num_values),
                                        repeat=vmap.num_vars):
            bits = [False] * vmap.num_bools
            for v, u in enumerate(values):
                bits[vmap.index(v, u)] = True
            if manager.evaluate(f, bits):
                out.add(values)
        return out

    def test_unconditional_overwrite(self):
        vmap = BoolVarMap(3, 3)
        manager = BddManager(vmap.num_bools)
        b = manager.apply(
            "or",
            encode_state(manager, vmap, {0: 0, 1: 0, 2: 0}),
            encode_state(manager, vmap, {0: 0, 1: 1, 2: 0}),
        )
        a = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
        got = bdd_apply_action(
            manager, b, manager.true, encode_action(manager, vmap, a),
            vmap.var_indices(1) + vmap.var_indices(2),
        )
        assert self._support(manager, vmap, got) == {(0, 2, 1), (0, 2, 0)}

    def test_false_condition_is_identity(self):
        vmap = BoolVarMap(2, 2)
        manager = BddManager(vmap.num_bools)
        b = encode_state(manager, vmap, {0: 0, 1: 0})
        a = encode_action(manager, vmap, Action((1,), ((1.0, (1,)),)))
        got = bdd_apply_action(manager, b, manager.false, a,
                               vmap.var_indices(1))
        assert got is b

    def test_random_support_matches_enumeration(self):
        rng = random.Random(47)
        vmap = BoolVarMap(3, 3)
        for _ in range(30):
            manager = BddManager(vmap.num_bools)
            support = {
                tuple(rng.randrange(3) for _ in range(3))
                for _ in range(rng.randint(1, 5))
            }
            b = manager.false
            for values in support:
                b = manager.apply(
                    "or", b,
                    encode_state(manager, vmap, dict(enumerate(values))),
                )
            c = Condition({0: rng.sample(range(3), rng.randint(1, 2))})
            a = Action((1,), ((0.5, (rng.randrange(3),)),
                              (0.5, (rng.randrange(3),))))
            got = bdd_apply_action(
                manager, b, encode_condition(manager, vmap, c),
                encode_action(manager, vmap, a), vmap.var_indices(1),
            )
            expected = set()
            for values in support:
                if values[0] in c.allowed[0]:
                    for _, (u,) in a.outcomes:
                        expected.add((values[0], u, values[2]))
                else:
                    expected.add(values)
            assert self._support(manager, vmap, got) == expected


class TestSizeAndCanonicity:
    def test_terminal_size(self, manager):
        assert bdd_size(manager.true) == 0

    def test_literal_size(self, manager):
        assert bdd_size(manager.var(3)) == 1

    def test_size_matches_recursive_walk(self):
        vmap = BoolVarMap(3, 2)
        manager = BddManager(vmap.num_bools)
        f = manager.false
        for b in range(2):
            for c in range(2):
                f = manager.apply(
                    "or", f,
                    encode_state(manager, vmap, {0: 0, 1: b, 2: c}),
                )

        def walk(node, seen):
            if node.low is None or node.id in seen:
                return 0
            seen.add(node.id)
            return 1 + walk(node.low, seen) + walk(node.high, seen)

        assert bdd_size(f) == walk(f, set())

    def test_equal_functions_share_node(self):
        rng = random.Random(53)
        n = 5
        manager = BddManager(n)
        seen = {}
        for _ in range(40):
            table = tuple(rng.random() < 0.5 for _ in range(2 ** n))
            f = manager.false
            for i, bit in enumerate(table):
                if not bit:
                    continue
                literals = {
                    k: bool((i >> (n - 1 - k)) & 1) for k in range(n)
                }
                cube = manager.true
                for k in sorted(literals, reverse=True):
                    if literals[k]:
                        cube = manager.node(k, manager.false, cube)
                    else:
                        cube = manager.node(k, cube, manager.false)
                f = manager.apply("or", f, cube)
            assert _truth_table(manager, f, n) == table
            if table in seen:
                assert seen[table] is f
            else:
                assert all(g is not f for g in seen.values())
                seen[table] = f
