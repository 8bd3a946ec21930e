"""The condition pass, condition probability and substate selection."""
import random
from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from aobs import acting, query
from aobs.acting import apply_action, normalize
from aobs.core import (AND, LIT, Aobs, ExpansionTooLarge, Node, Store,
                       UnknownVariable, enumerate_states, fold, from_tabular,
                       iter_nodes)
from aobs.oracle import Action, Condition, tab_canonical, tab_equal, tab_prob
from aobs.optimize import greedy_optimize
from aobs.query import (INCLUDED, MIXED, condition_pass, probability,
                        select_substate)

from conftest import enum_canonical, label_nodes, random_aobs, random_dag


class TestProbability:
    def test_conjunction(self, three_var_state):
        c = Condition({1: [1], 2: [0]})
        assert abs(probability(three_var_state, c) - 0.42) < 1e-12

    def test_empty_condition(self, three_var_state):
        assert probability(three_var_state, Condition({})) == 1.0

    def test_factored_marginal(self, two_var_left):
        assert abs(probability(two_var_left, Condition({1: [1]})) - 0.8) < 1e-12

    def test_unknown_variable(self, three_var_state):
        with pytest.raises(UnknownVariable):
            probability(three_var_state, Condition({9: [0]}))

    def test_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(50):
            s, _ = random_aobs(rng)
            c = Condition({
                v: rng.sample(range(3), rng.randint(1, 2))
                for v in rng.sample(range(4), rng.randint(1, 3))
            })
            assert abs(probability(s, c) - tab_prob(enum_canonical(s), c)) < 1e-9

    def test_invariant_under_rewrites(self):
        rng = random.Random(19)
        for _ in range(30):
            s, _ = random_aobs(rng)
            c = Condition({0: rng.sample(range(3), 2)})
            p = probability(s, c)
            assert abs(probability(normalize(s), c) - p) < 1e-9
            assert abs(probability(greedy_optimize(s), c) - p) < 1e-9

    def test_partition_sums_to_one(self):
        rng = random.Random(31)
        for _ in range(30):
            s, _ = random_aobs(rng)
            total = sum(
                probability(s, Condition({2: [u]})) for u in range(3)
            )
            assert abs(total - 1.0) < 1e-9

    def test_range(self, three_var_state):
        for var in three_var_state.universe:
            for value in range(3):
                p = probability(three_var_state, Condition({var: [value]}))
                assert 0.0 <= p <= 1.0


class TestSelectSubstate:
    def test_selected_rows(self, three_var_state):
        got = select_substate(three_var_state, Condition({1: [0]}))
        assert tab_equal(got, [
            (0.28, ((0, 0), (1, 0), (2, 0))),
            (0.12, ((0, 0), (1, 0), (2, 1))),
        ])

    def test_zero_mass_empty(self, three_var_state):
        assert select_substate(three_var_state, Condition({0: [1]})) == []

    def test_empty_condition_full_state(self, three_var_state):
        got = select_substate(three_var_state, Condition({}))
        assert tab_equal(got, enum_canonical(three_var_state))

    def test_mass_equals_probability(self):
        # each case cold, then warm: after a probability whose condition
        # pass the select reuses
        rng = random.Random(37)
        for _ in range(50):
            s, _ = random_aobs(rng)
            c = Condition({
                v: rng.sample(range(3), rng.randint(1, 2))
                for v in rng.sample(range(4), 2)
            })
            want = tab_canonical([(p, st) for p, st in enumerate_states(s.root)
                                  if c.satisfied_by(st)])
            s.store.last_pass = None
            cold = select_substate(s, c)
            s.store.last_pass = None
            prob = probability(s, c)
            entry = s.store.last_pass
            warm = select_substate(s, c)
            assert s.store.last_pass is entry
            for rows in (cold, warm):
                assert tab_equal(rows, want)
                assert abs(sum(p for p, _ in rows) - prob) < 1e-9

    def test_zero_probability_condition_expands_nothing(self, store):
        # twelve two-valued variables beside one the condition rules out:
        # the pass excludes the root, so nothing is expanded and the cap
        # on the 4,096 rows of the other variables is never reached
        halves = [store.make_or([(0.5, store.make_lit(v, 0)),
                                 (0.5, store.make_lit(v, 1))])
                  for v in range(13)]
        s = Aobs(store.make_and(halves), store, tuple(range(13)))
        assert select_substate(s, Condition({12: [2]}), cap=1000) == []

    def test_cap(self, three_var_state):
        with pytest.raises(ExpansionTooLarge):
            select_substate(three_var_state, Condition({}), cap=2)


def _reference_probability(s, c) -> float:
    """The float fold ``probability`` ran before the condition pass, kept
    as the reference for the pass's selected mass (unclamped)."""
    allowed = c.allowed
    cvars = c.variables
    memo: Dict[int, float] = {}

    def leaf(node: Node) -> Optional[float]:
        if cvars.isdisjoint(node.omega):
            return node.mass
        if node.kind == AND:
            for ch in node.children:
                if ch.kind == LIT:
                    vals = allowed.get(ch.var)
                    if vals is not None and ch.value not in vals:
                        return 0.0
                    memo[ch.key] = 1.0
        elif node.kind == LIT:
            return 1.0 if node.value in allowed[node.var] else 0.0
        return None

    def step(node: Node) -> float:
        if node.kind == AND:
            out = 1.0
            for ch in node.children:
                out *= memo[ch.key]
            return out
        return sum([w * memo[ch.key]
                    for w, ch in zip(node.weights, node.children)])

    return fold(s.root, memo, step, leaf)


class _Reads(dict):
    """Labels that record every key a reader looks up."""

    def __init__(self, labels):
        super().__init__(labels)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _arity_condition(rng, num_vars, num_values):
    """A condition on 0 to 3 variables: several variables make pruned
    products whose other children the condition can see."""
    return Condition({
        v: rng.sample(range(num_values), rng.randint(1, num_values))
        for v in rng.sample(range(num_vars), rng.randint(0, min(3, num_vars)))
    })


def _random_action(rng, num_vars, num_values):
    avars = tuple(rng.sample(range(num_vars), rng.randint(1, 2)))
    raw = [rng.random() + 0.1 for _ in range(rng.randint(1, 3))]
    return Action(avars, tuple(
        (p / sum(raw), tuple(rng.randrange(num_values) for _ in avars))
        for p in raw))


class TestConditionPass:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(
        ["dag", "tabular", "optimized"]))
    def test_agrees_with_the_reference(self, seed, shape):
        rng = random.Random(seed)
        if shape == "dag":
            num_vars, num_values = rng.randint(3, 8), 2
            raw = random_dag(rng, num_vars)  # inner ORs unnormalized
            unit = Aobs(raw.store.make_or([(1.0 / raw.root.mass, raw.root)]),
                        raw.store, raw.universe)
            states = [raw, normalize(unit)]
        else:
            num_vars, num_values = rng.randint(3, 5), 3
            s, _ = random_aobs(rng, num_vars, num_values, max_rows=10)
            states = [greedy_optimize(s) if shape == "optimized" else s]
        for s in states:
            for _ in range(3):
                self._check(s, _arity_condition(rng, num_vars, num_values),
                            _random_action(rng, num_vars, num_values))

    @staticmethod
    def _check(s, c, a):
        ref = label_nodes(s.root, c)
        s.store.last_pass = None
        labels, root_label, mass, meets = condition_pass(s, c)
        for key, label in labels.items():
            assert ref[key] == label
        assert root_label == ref[s.root.key]
        assert mass == _reference_probability(s, c)
        p = probability(s, c)
        assert p == min(max(mass, 0.0), 1.0)
        if abs(s.root.mass - 1.0) > 1e-9:  # apply_action needs unit mass
            return

        # the readers in apply_action look up only labelled nodes or nodes
        # that avoid the condition, and read the reference label
        reads = _Reads(labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(acting, "condition_pass",
                       lambda s, c: (reads, root_label, mass, meets))
            res = apply_action(s, c, a)
        assert res.selected_mass == p
        nodes = {n.key: n for n in iter_nodes(s.root)}
        for key in reads.read:
            assert key in labels or c.variables.isdisjoint(nodes[key].omega)
            assert reads.get(key, INCLUDED) == ref.get(key, INCLUDED)
        got = apply_action(s, c, a)  # served from the store's entry
        assert got.selected_mass == p
        assert got.state.root is res.state.root

    def test_settles_a_product_the_condition_meets_only_in_literals(self):
        # AND(a=0, b=1, OR over c) under {a: [0]}: its literal on the
        # condition settles it, so the pass visits none of its other children
        store = Store()
        a0, b1 = store.make_lit(0, 0), store.make_lit(1, 1)
        c0, c1 = store.make_lit(2, 0), store.make_lit(2, 1)
        or_c = store.make_or([(0.3, c0), (0.7, c1)])
        root = store.make_and([a0, b1, or_c])
        s = Aobs(root, store, (0, 1, 2))
        labels, label, mass, meets = condition_pass(s, Condition({0: [0]}))
        assert label == INCLUDED and mass == root.mass
        assert labels == {root.key: INCLUDED, a0.key: INCLUDED}
        assert meets == {}  # a settled AND is not recorded
        labels, label, mass, meets = condition_pass(s, Condition({2: [1]}))
        assert label == MIXED and mass == 0.7
        assert meets == {root.key: or_c}  # its one child on the condition
        assert {a0.key, b1.key, or_c.key, c1.key} <= labels.keys()


class TestPassMemo:
    @pytest.fixture
    def runs(self, monkeypatch):
        """The number of condition passes run, not served from a store."""
        count = [0]
        inner = query._pass

        def counted(root, allowed):
            count[0] += 1
            return inner(root, allowed)

        monkeypatch.setattr(query, "_pass", counted)
        return count

    @staticmethod
    def _state(store=None):
        rows = [(0.2, {0: 0, 1: 1, 2: 0}), (0.3, {0: 1, 1: 1, 2: 1}),
                (0.5, {0: 1, 1: 0, 2: 0})]
        return from_tabular(store or Store(), rows, (0, 1, 2))

    ACT = Action((2,), ((0.4, (0,)), (0.6, (1,))))

    def test_read_then_act_runs_one_pass(self, runs):
        s = self._state()
        p = probability(s, Condition({1: [1]}))
        res = apply_action(s, Condition({1: [1]}), self.ACT)
        assert runs[0] == 1
        assert res.selected_mass == p == pytest.approx(0.5)

    def test_another_root_gets_a_fresh_pass(self, runs):
        s = self._state()
        c = Condition({1: [1]})
        probability(s, c)
        t = apply_action(s, c, self.ACT).state
        assert runs[0] == 1
        assert probability(t, c) == pytest.approx(0.5)
        assert runs[0] == 2

    def test_another_store_gets_a_fresh_pass(self, runs):
        c = Condition({1: [1]})
        s, t = self._state(), self._state()
        assert s.root.key == t.root.key and s.root is not t.root
        probability(s, c)
        probability(t, c)
        assert runs[0] == 2

    def test_unequal_condition_gets_a_fresh_pass(self, runs):
        s = self._state()
        assert probability(s, Condition({1: [1]})) == pytest.approx(0.5)
        assert probability(s, Condition({1: [0]})) == pytest.approx(0.5)
        assert probability(s, Condition({0: [1]})) == pytest.approx(0.8)
        assert runs[0] == 3

    def test_conditions_are_immutable_and_hash_by_value(self, runs):
        # the store's entry is keyed on the condition itself, so a
        # condition must not change once made
        c = Condition({0: [0], 2: [1, 0]})
        with pytest.raises(TypeError):
            c.allowed[0] = frozenset({1})
        with pytest.raises(TypeError):
            c.allowed[1] = frozenset({1})
        equal = Condition({2: (0, 1), 0: [0]})
        assert equal == c and hash(equal) == hash(c)
        assert len({c, equal, Condition({0: [1]})}) == 2
        s = self._state()
        assert probability(s, c) == probability(s, equal)
        assert runs[0] == 1

    def test_unknown_variable_stores_nothing(self, runs):
        # the condition pass checks the condition before it runs; an
        # action checks its own variables before the pass
        s = self._state()
        unknown = Condition({9: [0]})
        with pytest.raises(UnknownVariable, match="condition"):
            probability(s, unknown)
        with pytest.raises(UnknownVariable, match="condition"):
            select_substate(s, unknown)
        with pytest.raises(UnknownVariable, match="condition"):
            apply_action(s, unknown, self.ACT)
        with pytest.raises(UnknownVariable, match="action"):
            apply_action(s, Condition({1: [1]}),
                         Action((9,), ((1.0, (0,)),)))
        assert s.store.last_pass is None and runs[0] == 0

    def test_served_labels_are_never_changed(self, runs):
        s = self._state()
        c = Condition({1: [1], 2: [0]})
        probability(s, c)
        labels = dict(s.store.last_pass[2][0])
        first = apply_action(s, c, self.ACT).state
        second = apply_action(s, c, self.ACT).state
        assert runs[0] == 1
        assert dict(s.store.last_pass[2][0]) == labels
        fresh = apply_action(self._state(), c, self.ACT).state
        assert first.root.digest == second.root.digest == fresh.root.digest
