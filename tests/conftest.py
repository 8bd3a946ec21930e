import math

import pytest

from aobs.core import (AND, LIT, OR, Aobs, Store, enumerate_states, fold,
                       from_tabular, iter_nodes)
from aobs.oracle import tab_canonical
from aobs.query import EXCLUDED, INCLUDED, MIXED


@pytest.fixture
def store():
    return Store()


@pytest.fixture
def three_var_state(store):
    """The three-variable example state: a=0, P(b=1)=0.6, P(c=0)=0.7."""
    a = store.make_lit(0, 0)
    or_b = store.make_or([(0.4, store.make_lit(1, 0)),
                          (0.6, store.make_lit(1, 1))])
    or_c = store.make_or([(0.7, store.make_lit(2, 0)),
                          (0.3, store.make_lit(2, 1))])
    root = store.make_and([a, or_b, or_c])
    return Aobs(root, store, (0, 1, 2), ("a", "b", "c"))


@pytest.fixture
def two_row_state(store):
    """Two-state belief over X, Y, Z: 0.4 (0,0,0) + 0.6 (0,1,0)."""
    return from_tabular(
        store,
        [(0.4, {0: 0, 1: 0, 2: 0}), (0.6, {0: 0, 1: 1, 2: 0})],
        (0, 1, 2),
        ("X", "Y", "Z"),
    )


@pytest.fixture
def two_var_left(store):
    """Two-variable state 0.2 (0,0) + 0.3 (0,1) + 0.5 (1,1), factored on a=0."""
    left = store.make_and([
        store.make_lit(0, 0),
        store.make_or([(0.4, store.make_lit(1, 0)),
                       (0.6, store.make_lit(1, 1))]),
    ])
    right = store.make_and([store.make_lit(0, 1), store.make_lit(1, 1)])
    root = store.make_or([(0.5, left), (0.5, right)])
    return Aobs(root, store, (0, 1), ("a", "b"))


@pytest.fixture
def two_var_right(store):
    """The same distribution as two_var_left, factored on b=1 instead."""
    left = store.make_and([store.make_lit(0, 0), store.make_lit(1, 0)])
    right = store.make_and([
        store.make_or([(0.375, store.make_lit(0, 0)),
                       (0.625, store.make_lit(0, 1))]),
        store.make_lit(1, 1),
    ])
    root = store.make_or([(0.2, left), (0.8, right)])
    return Aobs(root, store, (0, 1), ("a", "b"))


def enum_canonical(s):
    """Canonical tabular expansion of a belief state."""
    return tab_canonical(enumerate_states(s.root, merge=True))


def label_nodes(root, c):
    """The complete reference labelling: every reachable node labelled
    included, excluded, or mixed.

    A node is included when all of its substate satisfies the condition,
    excluded when none of it does, mixed otherwise.  Keys are node ids
    (``Node.key``), which name a node only within its store.  The walk
    does not descend below a node whose variables avoid the condition's,
    so the nodes under it are left out of the plain dict it returns; like
    that node they are included, and read so through
    ``labels.get(key, INCLUDED)``.

    The pipeline labels with :func:`aobs.query.condition_pass`, which also
    leaves out the children of an AND that a rejected literal child
    excludes and the other children of an AND it settles; where both label
    a node, they agree.
    """
    allowed = c.allowed
    cvars = c.variables
    labels = {}

    def leaf(node):
        if cvars.isdisjoint(node.omega):
            return INCLUDED
        if node.kind != LIT:
            return None
        return INCLUDED if node.value in allowed[node.var] else EXCLUDED

    def step(node):
        kids = [labels[ch.key] for ch in node.children]
        if node.kind == AND:
            if EXCLUDED in kids:
                return EXCLUDED
            return MIXED if MIXED in kids else INCLUDED
        # an OR whose children agree has their label, else it is mixed
        return kids[0] if len(set(kids)) == 1 else MIXED

    fold(root, labels, step, leaf)
    return labels


def total_mass(s):
    return sum(p for p, _ in enumerate_states(s.root, merge=True))


def assert_normal_form(s, eps=1e-9):
    """No AND under AND, no OR under OR, no AND of one child, no OR of one
    edge, every OR's weights sum to 1."""
    for node in iter_nodes(s.root):
        if node.kind == AND:
            assert all(ch.kind != AND for ch in node.children), \
                "AND node has an AND child"
            assert len(node.children) != 1, "AND node has one child"
        elif node.kind == OR:
            assert all(ch.kind != OR for ch in node.children), \
                "OR node has an OR child"
            assert len(node.children) != 1, "OR node has one edge"
            assert abs(sum(node.weights) - 1.0) <= eps, \
                f"OR weights sum to {sum(node.weights)}"


def assert_well_formed(root):
    """Every node below ``root`` is what the store's full checks would
    make it: an AND's or OR's children are in strictly increasing key
    order, an AND's variables are the disjoint union of its children's,
    an OR's children range over its variables, and each mass equals the
    product or weighted sum of the children's, recomputed in child order,
    bit for bit."""
    for node in iter_nodes(root):
        kids = node.children
        keys = [ch.key for ch in kids]
        assert all(a < b for a, b in zip(keys, keys[1:])), \
            f"{node} keeps its children out of key order"
        if node.kind == LIT:
            assert node.omega == {node.var} and node.mass == 1.0
        elif node.kind == AND:
            omegas = [ch.omega for ch in kids]
            assert sum(map(len, omegas)) == len(node.omega), \
                "AND children share variables"
            assert frozenset().union(*omegas) == node.omega, \
                "AND children do not cover its variables"
            assert node.mass == math.prod([ch.mass for ch in kids], start=1.0)
        else:
            assert all(ch.omega == node.omega for ch in kids), \
                "OR children range over other variables"
            assert node.mass == sum([w * ch.mass for w, ch
                                     in zip(node.weights, kids)])


def assert_interned(state):
    """Every node reachable from the state's root is still the node its
    store's table holds for its structure."""
    table = {id(n) for n in state.store._nodes.values()}
    assert all(id(n) in table for n in iter_nodes(state.root)), \
        "a reachable node was dropped from the store"


def random_tabular(rng, num_vars, num_values, num_rows):
    """Random canonical tabular belief state with the given bounds.

    Raises ValueError when there are fewer distinct states than ``num_rows``.
    """
    if num_rows > num_values ** num_vars:
        raise ValueError(f"{num_rows} rows asked of "
                         f"{num_values ** num_vars} distinct states")
    states = set()
    while len(states) < num_rows:
        states.add(tuple(rng.randrange(num_values) for _ in range(num_vars)))
    raw = [rng.random() + 0.05 for _ in states]
    total = sum(raw)
    return [
        (p / total, {v: u for v, u in enumerate(values)})
        for p, values in zip(raw, sorted(states))
    ]


def random_aobs(rng, num_vars=4, num_values=3, max_rows=6):
    """Random belief state built as a tree of unions over random tabular rows."""
    store = Store()
    rows = random_tabular(rng, num_vars, num_values, rng.randint(1, max_rows))
    return from_tabular(store, rows, tuple(range(num_vars))), rows


def random_dag(rng, num_vars):
    """A random state whose AND nodes share many children over several
    levels: a variable takes one of three substates, and substates built
    over a block of variables are reused at random.  Inner OR weights are
    not normalized, so the state's mass is not 1."""
    store = Store()
    menus = {}
    for v in range(num_vars):
        lits = [store.make_lit(v, 0), store.make_lit(v, 1)]
        menus[(v,)] = lits + [store.make_or([(0.3, lits[0]), (0.7, lits[1])])]
    pools = {}

    def build(block, depth):
        if len(block) == 1:
            return rng.choice(menus[block])
        pool = pools.setdefault(block, [])
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        if depth > 0 and rng.random() < 0.4:
            node = store.make_or([(rng.random() + 0.1, build(block, depth - 1))
                                  for _ in range(rng.randint(2, 3))])
        else:
            cuts = sorted(rng.sample(range(1, len(block)),
                                     rng.randint(len(block) // 2, len(block) - 1)))
            parts = [block[i:j] for i, j in zip([0] + cuts, cuts + [len(block)])]
            node = store.make_and([build(part, max(depth - 1, 0))
                                   for part in parts])
        pool.append(node)
        return node

    weights = [rng.random() + 0.1 for _ in range(4)]
    total = sum(weights)
    universe = tuple(range(num_vars))
    root = store.make_or([(w / total, build(universe, 3)) for w in weights])
    return Aobs(root, store, universe)


def level_chain(store, levels):
    """A state over ``levels`` uniform independent variables, built as a
    chain: level ``v`` is an OR over ``v = 0`` and ``v = 1``, each an AND
    with the level below, so the graph is about ``2 * levels`` nodes deep
    and its tree expansion has ``2 ** levels`` leaves."""
    node = store.make_or([(0.5, store.make_lit(0, 0)),
                          (0.5, store.make_lit(0, 1))])
    for v in range(1, levels):
        node = store.make_or([
            (0.5, store.make_and([store.make_lit(v, 0), node])),
            (0.5, store.make_and([store.make_lit(v, 1), node])),
        ])
    return Aobs(node, store, tuple(range(levels)))
