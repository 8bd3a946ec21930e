"""Semantic invariants over random states: a condition's probability is the
mass of the rows it selects, rewriting a state never changes it, acting
never changes the total mass, every node an action builds passes the
store's full checks, an action leaves no node in the store that its
result does not reach, and a state's digest, DOT text, optimized form and
acted-on form do not depend on the store that built it."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from aobs.acting import action_subgraph, apply_action, normalize
from aobs.cli import to_dot
from aobs.core import Aobs, Store, enumerate_states, iter_nodes
from aobs.optimize import greedy_optimize
from aobs.oracle import Action, Condition, tab_apply_action, tab_equal
from aobs.query import probability

from conftest import (
    assert_interned,
    assert_well_formed,
    enum_canonical,
    random_aobs,
    random_dag,
    total_mass,
)

SEEDS = st.integers(0, 2**32 - 1)


def _condition(rng, num_vars, num_values):
    return Condition.of({
        v: rng.sample(range(num_values), rng.randint(1, num_values - 1))
        for v in rng.sample(range(num_vars), rng.randint(1, 2))
    })


def _action(rng, num_vars, num_values):
    avars = tuple(rng.sample(range(num_vars), rng.randint(1, 2)))
    raw = [rng.random() + 0.1 for _ in range(rng.randint(1, 3))]
    return Action(avars, tuple(
        (p / sum(raw), tuple(rng.randrange(num_values) for _ in avars))
        for p in raw))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, num_avars=st.integers(1, 3),
       num_outcomes=st.integers(1, 4), num_values=st.integers(1, 3))
def test_action_subgraph_is_the_general_union(seed, num_avars, num_outcomes,
                                              num_values):
    # the union of an action's outcomes, each product built unchecked over
    # the action's variables, is the node the general constructors give, in
    # one store, and its weights and mass are theirs bit for bit in another;
    # few values make outcomes repeat
    rng = random.Random(seed)
    avars = tuple(rng.sample(range(5), num_avars))
    raw = [rng.random() + 0.1 for _ in range(num_outcomes)]
    a = Action(avars, tuple(
        (p / sum(raw), tuple(rng.randrange(num_values) for _ in avars))
        for p in raw))

    def general(store):
        return store.make_or([
            (p, store.make_and([store.make_lit(v, u)
                                for v, u in zip(a.vars, values)]))
            for p, values in a.outcomes])

    store = Store()
    got = action_subgraph(store, a)
    assert general(store) is got
    want = general(Store())
    assert ((got.digest, got.kind, got.weights, got.mass, got.omega)
            == (want.digest, want.kind, want.weights, want.mass, want.omega))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS)
def test_normalize_keeps_probability(seed):
    rng = random.Random(seed)
    s, _ = random_aobs(rng, num_vars=5, max_rows=10)
    out = normalize(s)
    for _ in range(3):
        c = _condition(rng, 5, 3)
        assert probability(out, c) == pytest.approx(probability(s, c),
                                                    abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, num_vars=st.integers(3, 8))
def test_probability_is_the_selected_rows_mass(seed, num_vars):
    rng = random.Random(seed)
    s = random_dag(rng, num_vars)  # OR weights below the root unnormalized
    rows = enumerate_states(s.root, merge=True)
    for _ in range(3):
        c = _condition(rng, num_vars, 2)
        selected = sum(p for p, state in rows if c.satisfied_by(state))
        assert probability(s, c) == pytest.approx(min(selected, 1.0),
                                                  abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, num_vars=st.integers(3, 8))
def test_greedy_optimize_keeps_probability(seed, num_vars):
    rng = random.Random(seed)
    s = random_dag(rng, num_vars)  # OR weights below the root unnormalized
    out = greedy_optimize(s)
    for _ in range(3):
        c = _condition(rng, num_vars, 2)
        assert probability(out, c) == pytest.approx(probability(s, c),
                                                    abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, optimize=st.booleans())
def test_apply_action_conserves_mass(seed, optimize):
    rng = random.Random(seed)
    s, _ = random_aobs(rng, num_vars=5, max_rows=10)
    for _ in range(4):
        c = _condition(rng, 5, 3)
        result = apply_action(s, c, _action(rng, 5, 3))
        assert result.selected_mass == pytest.approx(probability(s, c),
                                                     abs=1e-12)
        s = greedy_optimize(result.state) if optimize else result.state
        assert total_mass(s) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, num_vars=st.integers(2, 7), dag=st.booleans(),
       optimize=st.booleans())
def test_acted_states_are_well_formed(seed, num_vars, dag, optimize):
    # an action builds each product over the variables of the node it
    # replaces and checks only the factors it changed; every node it
    # makes must still pass the store's full checks, masses bit for bit,
    # and still be the store's node for its structure after the sweep
    rng = random.Random(seed)
    if dag:
        s = random_dag(rng, num_vars)
        s = normalize(Aobs(s.store.make_or([(1.0 / s.root.mass, s.root)]),
                           s.store, s.universe))
    else:
        s, _ = random_aobs(rng, num_vars=num_vars)
    assert_well_formed(s.root)
    for _ in range(4):
        result = apply_action(s, _condition(rng, num_vars, 2),
                              _action(rng, num_vars, 2))
        assert_well_formed(result.state.root)
        assert_interned(result.state)
        s = greedy_optimize(result.state) if optimize else result.state
        assert_well_formed(s.root)


def test_actions_intern_what_their_results_keep():
    # 300 random states, half of them optimized, each acted on three times:
    # no node an action leaves in the store is unreachable from its result
    rng = random.Random(7)
    interned = dead = 0
    for i in range(300):
        num_vars = rng.randint(2, 6)
        s = random_dag(rng, num_vars)
        store = s.store
        s = normalize(Aobs(store.make_or([(1.0 / s.root.mass, s.root)]),
                           store, s.universe))
        if i % 2:
            s = greedy_optimize(s)
        for _ in range(3):
            c = Condition.of({
                v: [rng.randrange(2)]
                for v in rng.sample(range(num_vars),
                                    rng.randint(0, min(3, num_vars)))})
            avars = tuple(rng.sample(range(num_vars),
                                     rng.randint(1, min(3, num_vars))))
            raw = [rng.random() + 0.1 for _ in range(rng.randint(1, 3))]
            a = Action(avars, tuple(
                (p / sum(raw), tuple(rng.randrange(2) for _ in avars))
                for p in raw))
            before = len(store)
            res = apply_action(s, c, a)
            kept = {n.key for n in iter_nodes(res.state.root)}
            new = list(store._nodes.values())[before:]
            interned += len(new)
            dead += sum([n.key not in kept for n in new])
            assert tab_equal(enum_canonical(res.state),
                             tab_apply_action(enum_canonical(s), c, a))
            s = res.state
    assert interned > 3000
    assert dead == 0


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, num_vars=st.integers(2, 7))
def test_store_history_changes_no_digest(seed, num_vars):
    # the copy's store first holds other nodes: literals of values the
    # state never takes, then the state's own literals in shuffled order,
    # so every id differs and ids come in another order
    rng = random.Random(seed)
    s = random_dag(rng, num_vars)
    store = Store()
    for i in range(len(s.store)):
        store.make_lit(i % num_vars, 2 + i // num_vars)
    for v, u in rng.sample([(v, u) for v in range(num_vars) for u in (0, 1)],
                           2 * num_vars):
        store.make_lit(v, u)
    copy = Aobs(store.reintern(s.root), store, s.universe)
    assert min([n.key for n in iter_nodes(copy.root)]) >= len(s.store)
    assert copy.root.digest == s.root.digest
    assert to_dot(copy) == to_dot(s)
    assert greedy_optimize(copy).root.digest == greedy_optimize(s).root.digest
    # an action splits mixed ANDs the same way in both stores
    c, a = _condition(rng, num_vars, 2), _action(rng, num_vars, 2)
    acted = [apply_action(normalize(Aobs(t.store.make_or(
        [(1.0 / t.root.mass, t.root)]), t.store, t.universe)), c, a).state
        for t in (s, copy)]
    assert acted[0].root.digest == acted[1].root.digest
