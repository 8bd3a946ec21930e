"""Semantic invariants over random states: a condition's probability is the
mass of the rows it selects, rewriting a state never changes it, and acting
never changes the total mass."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from aobs.acting import apply_action, normalize
from aobs.core import enumerate_states
from aobs.optimize import greedy_optimize
from aobs.oracle import Action, Condition
from aobs.query import probability

from conftest import random_aobs, random_dag, total_mass

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
