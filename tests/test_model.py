"""A model-based test of one long-lived store.

A ``hypothesis.stateful`` machine builds, acts on, optimizes, reads,
selects from, round-trips and unites belief states, all in one
:class:`~aobs.core.Store`, and keeps each state beside its tabular model
(``aobs.oracle``).  States are persistent, so every rule may take any state
made so far, not only the newest, and the store's shared state
(``last_pass``, ``factored``, ``refcounts`` and each action's sweep) meets
roots of every age.  After every rule, every state made so far must still
equal its model, be well formed and in normal form, keep its structural
digest, and have every node it reaches held by the store.
"""
import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, rule,
)

from aobs.acting import apply_action
from aobs.cli import state_from_json, state_to_json
from aobs.core import (
    Store, _digest_node, fold, from_physical_state, from_tabular, iter_nodes,
    union_roots,
)
from aobs.optimize import greedy_optimize
from aobs.oracle import (
    Action, Condition, tab_apply_action, tab_canonical, tab_equal, tab_prob,
)
from aobs.query import probability, select_substate

from conftest import (
    assert_interned, assert_normal_form, assert_well_formed, enum_canonical,
)

#: the number of values of each variable of the universe
VALUES = (2, 3, 2, 3)
UNIVERSE = tuple(range(len(VALUES)))

assignments = st.tuples(*[st.integers(0, n - 1) for n in VALUES])
# a weight per row or outcome, as a small integer that is then normalized
weights = st.integers(1, 4)
# a state made so far, counted back from the newest, modulo their number
picks = st.integers(0, 1 << 16)


@st.composite
def conditions(draw):
    variables = draw(st.sets(st.sampled_from(UNIVERSE), min_size=1,
                             max_size=2))
    return Condition.of({
        v: draw(st.sets(st.integers(0, VALUES[v] - 1), min_size=1))
        for v in sorted(variables)})


@st.composite
def actions(draw):
    variables = tuple(sorted(draw(st.sets(st.sampled_from(UNIVERSE),
                                          min_size=1, max_size=2))))
    raw = draw(st.lists(st.tuples(weights, st.tuples(
        *[st.integers(0, VALUES[v] - 1) for v in variables])),
        min_size=1, max_size=3))
    total = sum(w for w, _ in raw)
    return Action(variables, tuple((w / total, values) for w, values in raw))


def _rows(raw):
    """Weighted assignments as ``from_tabular`` rows and as a model."""
    total = sum(w for w, _ in raw)
    rows = [(w / total, dict(enumerate(values))) for w, values in raw]
    return rows, tab_canonical([(p, tuple(sorted(a.items())))
                                for p, a in rows])


class Entry:
    """A state made by the machine, its model and its digest when made."""

    def __init__(self, state, table):
        self.state = state
        self.table = table
        self.digest = state.root.digest


class OneStore(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = Store()
        self.entries = []
        self.condition = None  # the condition the last rule read with

    def condition_for(self, c, repeat):
        """``c``, or if ``repeat``, a copy of the last rule's condition, so
        that the store's last condition pass may answer for another state."""
        if repeat and self.condition is not None:
            c = Condition.of(self.condition.allowed)
        self.condition = c
        return c

    def pick(self, i):
        return self.entries[-1 - i % len(self.entries)]

    def add(self, state, table):
        self.entries.append(Entry(state, table))

    @initialize(start=assignments)
    def physical_state(self, start):
        state = from_physical_state(self.store, dict(enumerate(start)),
                                    UNIVERSE)
        self.add(state, [(1.0, tuple(enumerate(start)))])

    @rule(raw=st.lists(st.tuples(weights, assignments), min_size=1,
                       max_size=5, unique_by=lambda row: row[1]))
    def tabular_state(self, raw):
        rows, table = _rows(raw)
        self.add(from_tabular(self.store, rows, UNIVERSE), table)

    @rule(i=picks, c=conditions(), repeat=st.booleans(), a=actions(),
          read_first=st.booleans())
    def act(self, i, c, repeat, a, read_first):
        e = self.pick(i)
        c = self.condition_for(c, repeat)
        if read_first:  # the act then reuses the read's condition pass
            assert abs(probability(e.state, c) - tab_prob(e.table, c)) <= 1e-9
            kept = self.store.last_pass
        before = {n.key for n in self.store._nodes.values()}
        result = apply_action(e.state, c, a)
        if read_first:
            assert self.store.last_pass is kept
        assert abs(result.selected_mass - tab_prob(e.table, c)) <= 1e-9
        # the action keeps only the new nodes its result reaches
        made = {n.key for n in self.store._nodes.values()} - before
        assert made <= {n.key for n in iter_nodes(result.state.root)}
        self.add(result.state, tab_apply_action(e.table, c, a))

    @rule(i=picks)
    def optimize(self, i):
        e = self.pick(i)
        self.add(greedy_optimize(e.state), e.table)

    @rule(i=picks, c=conditions(), repeat=st.booleans())
    def read(self, i, c, repeat):
        e = self.pick(i)
        c = self.condition_for(c, repeat)
        assert abs(probability(e.state, c) - tab_prob(e.table, c)) <= 1e-9

    @rule(i=picks, c=conditions(), repeat=st.booleans())
    def select(self, i, c, repeat):
        e = self.pick(i)
        c = self.condition_for(c, repeat)
        assert tab_equal(select_substate(e.state, c),
                         [(p, s) for p, s in e.table if c.satisfied_by(s)])

    @rule(i=picks)
    def round_trip(self, i):
        # a node table read into the store that holds its graph is that graph
        e = self.pick(i)
        doc = json.loads(json.dumps(state_to_json(e.state)))
        assert state_from_json(doc, self.store).root is e.state.root

    @rule(i=picks, j=picks, w=st.sampled_from([0.25, 0.5, 0.9]))
    def union(self, i, j, w):
        a, b = self.pick(i), self.pick(j)
        table = tab_canonical([(w * p, s) for p, s in a.table]
                              + [((1.0 - w) * p, s) for p, s in b.table])
        self.add(union_roots(a.state, b.state, w), table)

    @invariant()
    def states_keep_their_meaning(self):
        for e in self.entries:
            assert tab_equal(enum_canonical(e.state), e.table)
            assert_well_formed(e.state.root)
            assert_normal_form(e.state)
            assert_interned(e.state)
            # digested afresh: every node below the root is digested again
            assert fold(e.state.root, {}, _digest_node) == e.digest


OneStore.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, derandomize=True, deadline=None)
TestOneStore = OneStore.TestCase
