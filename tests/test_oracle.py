"""Tabular reference implementation: canonicalization, probability, acting."""
import math
import random

import pytest

from aobs.acting import apply_action
from aobs.core import EPS_P, AobsError, Store, UnknownVariable, from_tabular
from aobs.oracle import (
    Action,
    Condition,
    tab_apply_action,
    tab_canonical,
    tab_equal,
    tab_prob,
)

from conftest import enum_canonical, random_tabular

FOUR_ROW_TABLE = [
    (0.28, ((0, 0), (1, 0), (2, 0))),
    (0.12, ((0, 0), (1, 0), (2, 1))),
    (0.42, ((0, 0), (1, 1), (2, 0))),
    (0.18, ((0, 0), (1, 1), (2, 1))),
]

# two-row belief over X, Y, Z and the action overwriting Y, Z
INITIAL = [(0.4, ((0, 0), (1, 0), (2, 0))), (0.6, ((0, 0), (1, 1), (2, 0)))]
ACTION_YZ = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
RESULT = [(0.3, ((0, 0), (1, 2), (2, 0))), (0.7, ((0, 0), (1, 2), (2, 1)))]

THREE_ROW_TABLE = [(0.2, ((0, 0), (1, 0))),
            (0.3, ((0, 0), (1, 1))),
            (0.5, ((0, 1), (1, 1)))]


class TestCondition:
    def test_allows_unconstrained(self):
        # an unconstrained variable accepts any value
        c = Condition.of({1: [1]})
        assert c.satisfied_by(((0, 5), (1, 1)))
        assert c.satisfied_by(((0, 0), (1, 1)))
        assert not c.satisfied_by(((0, 5), (1, 0)))

    def test_satisfied_by(self):
        c = Condition.of({1: [1], 2: [0]})
        assert c.satisfied_by(FOUR_ROW_TABLE[2][1])
        assert not c.satisfied_by(FOUR_ROW_TABLE[3][1])

    def test_check_within(self):
        with pytest.raises(UnknownVariable):
            Condition.of({9: [0]}).check_within([0, 1, 2])

    @pytest.mark.parametrize("known", [[0, 1, 2], (0, 1, 2),
                                       frozenset({0, 1, 2})])
    def test_check_within_any_collection(self, known):
        # the known variables may be a universe or a root's variable set
        Condition.of({2: [0]}).check_within(known)
        with pytest.raises(UnknownVariable,
                           match=r"^condition on unknown variables \[9\]$"):
            Condition.of({2: [0], 9: [0]}).check_within(known)


class TestAction:
    def test_valid(self):
        assert ACTION_YZ.variables == frozenset({1, 2})

    @pytest.mark.parametrize("known", [[0, 1, 2], frozenset({0, 1, 2})])
    def test_check_within(self, known):
        ACTION_YZ.check_within(known)
        with pytest.raises(UnknownVariable,
                           match=r"^action on unknown variables \[5, 7\]$"):
            Action((7, 1, 5), ((1.0, (0, 0, 0)),)).check_within(known)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(AobsError):
            Action((0,), ((0.5, (0,)), (0.6, (1,))))

    def test_probs_summing_to_one_kept_as_given(self):
        assert ACTION_YZ.outcomes == ((0.7, (2, 1)), (0.3, (2, 0)))

    def test_probs_off_within_tolerance_are_divided(self):
        # three thirds to 7 digits sum to 0.9999999, which the action
        # accepts; acting must still keep the root's mass within EPS_P
        a = Action((1,), tuple((0.3333333, (u,)) for u in range(3)))
        total = sum([0.3333333] * 3)
        assert a.outcomes == tuple((0.3333333 / total, (u,)) for u in range(3))
        rows = [(0.4, ((0, 1), (1, 0))), (0.6, ((0, 0), (1, 1)))]
        c = Condition.of({0: [1]})
        expected = tab_apply_action(rows, c, a)
        assert abs(sum(p for p, _ in expected) - 1.0) <= EPS_P
        s = from_tabular(Store(), [(p, dict(row)) for p, row in rows], [0, 1])
        assert tab_equal(enum_canonical(apply_action(s, c, a).state), expected)

    def test_acts_off_below_eps_p_keep_mass_in_sequence(self):
        # each total is 6e-10 short, under EPS_P, but two acts on disjoint
        # variables over the whole state would leave the root 1.2e-9 short
        a0, a1 = (Action((v,), ((0.5, (0,)), (0.5 - 6e-10, (1,))))
                  for v in (0, 1))
        assert sum(p for p, _ in a0.outcomes) == pytest.approx(1.0, abs=1e-15)
        rows = [(1.0, ((0, 0), (1, 0)))]
        everything = Condition({})
        s = from_tabular(Store(), [(p, dict(row)) for p, row in rows], [0, 1])
        for a in (a0, a1):
            s = apply_action(s, everything, a).state
            rows = tab_apply_action(rows, everything, a)
        assert abs(s.root.mass - 1.0) <= 1e-15
        assert tab_equal(enum_canonical(s), rows)

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_probability_rejected(self, probs):
        # NaN fails every comparison, so a test of p <= 0 alone let it in
        with pytest.raises(AobsError, match="must be positive"):
            Action((0,), tuple(zip(probs, ((0,), (1,)))))

    def test_wrong_arity_rejected(self):
        with pytest.raises(AobsError):
            Action((0, 1), ((1.0, (0,)),))

    def test_duplicate_vars_rejected(self):
        with pytest.raises(AobsError):
            Action((0, 0), ((1.0, (0, 0)),))


class TestTabCanonical:
    def test_duplicate_merge(self):
        s = ((0, 0),)
        assert tab_canonical([(0.3, s), (0.2, s)]) == [(0.5, s)]

    def test_sort_determinism(self):
        shuffled = [FOUR_ROW_TABLE[2], FOUR_ROW_TABLE[0], FOUR_ROW_TABLE[3], FOUR_ROW_TABLE[1]]
        assert tab_canonical(shuffled) == FOUR_ROW_TABLE

    def test_idempotent(self):
        assert tab_canonical(FOUR_ROW_TABLE) == FOUR_ROW_TABLE


class TestTabProb:
    def test_conjunction(self):
        assert abs(tab_prob(FOUR_ROW_TABLE, Condition.of({1: [1], 2: [0]})) - 0.42) < 1e-12

    def test_empty_condition(self):
        assert tab_prob(FOUR_ROW_TABLE, Condition.of({})) == 1.0

    def test_zero_mass_value(self):
        assert tab_prob(FOUR_ROW_TABLE, Condition.of({0: [1]})) == 0.0

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable,
                           match=r"^condition on unknown variables \[7\]$"):
            tab_prob(FOUR_ROW_TABLE, Condition.of({7: [0]}))

    def test_monotone_under_relaxation(self):
        rng = random.Random(2)
        for _ in range(50):
            rows = random_tabular(rng, 4, 3, rng.randint(1, 8))
            tab = tab_canonical([
                (p, tuple(sorted(a.items()))) for p, a in rows
            ])
            constraints = {
                v: rng.sample(range(3), rng.randint(1, 2))
                for v in rng.sample(range(4), 2)
            }
            full = Condition.of(constraints)
            dropped = dict(constraints)
            dropped.pop(next(iter(dropped)))
            relaxed = Condition.of(dropped)
            assert tab_prob(tab, relaxed) >= tab_prob(tab, full) - 1e-12


class TestTabApplyAction:
    def test_unconditional_overwrite(self):
        got = tab_apply_action(INITIAL, Condition.of({}), ACTION_YZ)
        assert tab_equal(got, RESULT)

    def test_zero_selection_is_identity(self):
        got = tab_apply_action(INITIAL, Condition.of({0: [9]}), ACTION_YZ)
        assert tab_equal(got, tab_canonical(INITIAL))

    def test_conditional_merge(self):
        got = tab_apply_action(
            THREE_ROW_TABLE, Condition.of({1: [1]}), Action((1,), ((1.0, (2,)),))
        )
        assert tab_equal(got, [(0.2, ((0, 0), (1, 0))),
                               (0.3, ((0, 0), (1, 2))),
                               (0.5, ((0, 1), (1, 2)))])

    def test_mass_conserved(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = random_tabular(rng, 4, 3, rng.randint(1, 8))
            tab = tab_canonical([
                (p, tuple(sorted(a.items()))) for p, a in rows
            ])
            c = Condition.of({0: rng.sample(range(3), rng.randint(1, 2))})
            a = Action((1, 2), ((0.5, (0, 0)), (0.5, (1, 2))))
            out = tab_apply_action(tab, c, a)
            assert abs(sum(p for p, _ in out) - 1.0) < 1e-9

    def test_full_overwrite_yields_outcome_distribution(self):
        a = Action((0, 1, 2), ((0.25, (0, 0, 0)), (0.75, (1, 1, 1))))
        got = tab_apply_action(FOUR_ROW_TABLE, Condition.of({}), a)
        assert tab_equal(got, [(0.25, ((0, 0), (1, 0), (2, 0))),
                               (0.75, ((0, 1), (1, 1), (2, 1)))])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable,
                           match=r"^action on unknown variables \[9\]$"):
            tab_apply_action(INITIAL, Condition.of({}),
                             Action((9,), ((1.0, (0,)),)))
        with pytest.raises(UnknownVariable,
                           match=r"^condition on unknown variables \[8\]$"):
            tab_apply_action(INITIAL, Condition.of({8: [0]}), ACTION_YZ)


class TestTabEqual:
    def test_reflexive(self):
        assert tab_equal(FOUR_ROW_TABLE, FOUR_ROW_TABLE)

    def test_within_tolerance(self):
        wobble = [(0.7000000001, RESULT[1][1]), (0.3, RESULT[0][1])]
        assert tab_equal(tab_canonical(wobble), RESULT, eps=1e-6)

    def test_different_states(self):
        assert not tab_equal(RESULT, tab_canonical(INITIAL))

    def test_probability_gap(self):
        off = [(p + 1e-6, s) for p, s in FOUR_ROW_TABLE]
        assert not tab_equal(off, FOUR_ROW_TABLE)


class TestRandomTabular:
    def test_more_rows_than_states_raises(self):
        # three binary variables have eight states; drawing distinct states
        # until there are nine would never end
        with pytest.raises(ValueError):
            random_tabular(random.Random(0), 3, 2, 9)
        rows = random_tabular(random.Random(0), 3, 2, 8)
        assert len({tuple(sorted(a.items())) for _, a in rows}) == 8
