"""Node construction, interning, semantics, and size metric."""
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from aobs.acting import apply_action, normalize
from aobs.cli import state_from_json, state_to_json
from aobs.core import (
    AND,
    LIT,
    OR,
    Aobs,
    AobsError,
    MismatchedUniverse,
    OverlappingSubspaces,
    MismatchedSubspaces,
    PartialAssignment,
    ExpansionTooLarge,
    RefCounts,
    UnknownVariable,
    WEIGHT_DIGITS,
    Store,
    _or_edges,
    count_states,
    enumerate_states,
    from_physical_state,
    fold,
    from_tabular,
    iter_nodes,
    size_metric,
    union_roots,
)
from aobs.optimize import greedy_optimize
from aobs.oracle import Action, Condition, tab_canonical, tab_equal
from aobs.query import probability

from conftest import (
    assert_normal_form, enum_canonical, level_chain, random_aobs, random_dag,
    random_tabular, total_mass,
)

FOUR_ROW_TABLE = [
    (0.28, ((0, 0), (1, 0), (2, 0))),
    (0.12, ((0, 0), (1, 0), (2, 1))),
    (0.42, ((0, 0), (1, 1), (2, 0))),
    (0.18, ((0, 0), (1, 1), (2, 1))),
]


class TestMakeLit:
    def test_leaf(self, store):
        n = store.make_lit(0, 0)
        assert n.kind == LIT and n.var == 0 and n.value == 0
        assert enumerate_states(n) == [(1.0, ((0, 0),))]

    def test_interning_idempotent(self, store):
        assert store.make_lit(0, 0) is store.make_lit(0, 0)

    def test_subspace(self, store):
        assert store.make_lit(2, 1).omega == frozenset({2})


class TestMakeAnd:
    def test_three_variable_root(self, three_var_state):
        assert three_var_state.root.kind == AND
        assert len(three_var_state.root.children) == 3
        assert three_var_state.root.omega == frozenset({0, 1, 2})

    def test_singleton_collapse(self, store):
        lit = store.make_lit(0, 0)
        assert store.make_and([lit]) is lit

    def test_overlap_rejected(self, store):
        with pytest.raises(OverlappingSubspaces):
            store.make_and([store.make_lit(0, 0), store.make_lit(0, 1)])

    def test_empty_and_identity(self, store):
        e = store.make_and(())
        assert e.kind == AND and not e.children and e.omega == frozenset()
        assert enumerate_states(e) == [(1.0, ())]
        # identity element: dropped from products
        lit = store.make_lit(0, 0)
        assert store.make_and([lit, e]) is lit

    def test_child_order_irrelevant(self, store):
        a, b = store.make_lit(0, 0), store.make_lit(1, 1)
        assert store.make_and([a, b]) is store.make_and([b, a])

    @pytest.mark.parametrize("vouched", [False, True])
    def test_and_node_sorts_and_collapses(self, vouched):
        # make_and takes its children in any order and sorts them, on a
        # miss as on a hit; _and_sorted, given them in key order, finds
        # the same node, vouched or not, and collapses one child and no
        # children the same way
        rng = random.Random(11)
        for _ in range(20):
            store = Store()
            lits = [store.make_lit(v, rng.randrange(2)) for v in range(6)]
            node = store.make_and(rng.sample(lits, len(lits)))  # a miss
            assert [c.key for c in node.children] == sorted(
                c.key for c in lits)
            assert store.make_and(rng.sample(lits, len(lits))) is node
            omega = frozenset(range(6)) if vouched else None
            assert store._and_sorted(node.children, omega) is node  # a hit
            # a lone child is returned as it is
            assert store._and_sorted([lits[0]], lits[0].omega if vouched
                                     else None) is lits[0]
            assert store.make_and([lits[0]]) is lits[0]
        empty = Store()._and_sorted([])
        assert empty.kind == AND and not empty.children
        assert empty.omega == frozenset() and empty.mass == 1.0

    @pytest.mark.parametrize("vouched", [False, True])
    def test_and_sorted_matches_and_node(self, vouched):
        # on a miss, _and_sorted makes the node make_and would make, with
        # the vouched variable set or the one it computes, and the
        # children's mass product; make_and then finds it
        rng = random.Random(12)
        for _ in range(20):
            store = Store()
            lits = [store.make_lit(v, rng.randrange(2)) for v in range(6)]
            omega = frozenset(range(6)) if vouched else None
            ordered = sorted(lits, key=lambda c: c.key)
            made = store._and_sorted(ordered, omega)  # a miss
            assert made is store.make_and(rng.sample(lits, len(lits)))
            assert store._and_sorted(tuple(ordered), omega) is made  # a hit
            assert made.omega == frozenset(range(6)) and made.mass == 1.0
            assert store._and_sorted([lits[3]]) is lits[3]
            assert store._and_sorted([]) is store.make_and([])


class TestMakeOr:
    def test_two_values(self, store):
        n = store.make_or([(0.4, store.make_lit(1, 0)),
                           (0.6, store.make_lit(1, 1))])
        assert n.kind == OR
        assert abs(sum(n.weights) - 1.0) < 1e-12

    def test_singleton_weight_one_collapse(self, store):
        lit = store.make_lit(0, 0)
        assert store.make_or([(1.0, lit)]) is lit

    def test_edges_splice_as_the_union_would(self, store):
        # an OR that takes a union's edges in the union's place gets the
        # edges it would splice from the union, bit for bit, also where the
        # union merges a child met twice, splices an OR child, or is one
        # child
        a, b, c = (store.make_lit(0, u) for u in range(3))
        inner = store.make_or([(0.3, a), (0.7, b)])
        for union in ([(0.1, a), (0.25, b), (0.15, a), (0.5, inner)],
                      [(0.3, a), (0.7 + 1e-12, a)]):
            kids, weights = _or_edges(union)
            edges = [(0.4 * w, k) for w, k in zip(weights, kids)]
            assert (_or_edges(edges + [(0.6, c)])
                    == _or_edges([(0.4, store.make_or(union)), (0.6, c)]))
        assert _or_edges([(0.3, a), (0.7 + 1e-12, a)]) == ((a,), (1.0,))

    def test_duplicate_children_merged(self, store):
        lit = store.make_lit(0, 0)
        other = store.make_lit(0, 1)
        n = store.make_or([(0.3, lit), (0.2, lit), (0.5, other)])
        merged = {c.key: w for w, c in n.edges()}
        assert abs(merged[lit.key] - 0.5) < 1e-12

    def test_subspace_mismatch_rejected(self):
        # an OR keeps its children in key order, the order they were made
        # in, so the odd child, over fewer or as many variables, is compared
        # first, in the middle or last.  The rows of one table share one
        # variable-set object, which the check compares by identity first.
        for odd_vars, odd_at in itertools.product([(1,), (0, 2)],
                                                   [0, 1, 2, None]):
            store = Store()

            def odd():
                return store.make_and([store.make_lit(v, 3) for v in odd_vars])

            if odd_at is None:  # after two rows that share one set
                rows = [(0.5, {0: u, 1: u}) for u in range(2)]
                kids = list(from_tabular(store, rows, [0, 1]).root.children)
                assert kids[0].omega is kids[1].omega
                kids.append(odd())
            else:
                kids = [odd() if i == odd_at else store.make_and(
                    [store.make_lit(0, i), store.make_lit(1, i)])
                    for i in range(3)]
            assert [k.key for k in kids] == sorted(k.key for k in kids)
            assert kids[-1 if odd_at is None else odd_at].omega == frozenset(
                odd_vars)
            with pytest.raises(MismatchedSubspaces):
                store.make_or([(1 / 3, k) for k in kids])

    def test_nonpositive_weight_rejected(self, store):
        with pytest.raises(AobsError):
            store.make_or([(0.0, store.make_lit(0, 0))])

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, store, w):
        # NaN fails every comparison, so a test of w <= 0 alone let it in
        with pytest.raises(AobsError):
            store.make_or([(w, store.make_lit(0, 0)),
                           (0.5, store.make_lit(0, 1))])

    def test_tiny_weights_keep_relative_precision(self, store):
        # keyed to 12 decimal places, both weights read 0.000000000000 and
        # the second union came back with the first one's weights
        a, b = store.make_lit(0, 0), store.make_lit(0, 1)
        first = store.make_or([(1e-14, a), (1 - 1e-14, b)])
        second = store.make_or([(4e-14, a), (1 - 4e-14, b)])
        assert second is not first
        assert dict(zip(second.children, second.weights))[a] == 4e-14

    @settings(max_examples=300, deadline=None)
    @given(w=st.floats(1e-14, 1.0), v=st.floats(1e-14, 1.0),
           rel=st.floats(-2e-11, 2e-11))
    def test_weights_intern_by_their_rendering(self, w, v, rel):
        # splicing multiplies weights; a key keeps WEIGHT_DIGITS significant
        # digits of each, so two unions share a node exactly when those agree
        store = Store()
        a, b = store.make_lit(0, 0), store.make_lit(0, 1)
        w2 = w * (1.0 + rel)
        first = store.make_or([(w, a), (v, b)])
        second = store.make_or([(w2, a), (v, b)])
        fmt = f".{WEIGHT_DIGITS - 1}e"
        assert (first is second) == (format(w, fmt) == format(w2, fmt))


class TestNormalForm:
    """The store splices as it builds: no AND under an AND, no OR under an
    OR."""

    def test_and_is_associative(self, store):
        a, b, c = (store.make_lit(v, 0) for v in range(3))
        left = store.make_and([store.make_and([a, b]), c])
        assert left is store.make_and([a, store.make_and([b, c])])
        assert left.children == tuple(sorted((a, b, c), key=lambda n: n.key))

    def test_or_over_or_is_the_flat_or(self, store):
        a, b, c = (store.make_lit(0, u) for u in range(3))
        inner = store.make_or([(0.25, a), (0.75, b)])
        nested = store.make_or([(0.4, inner), (0.6, c)])
        assert nested is store.make_or([(0.1, a), (0.3, b), (0.6, c)])
        assert dict(zip(nested.children, nested.weights)) == pytest.approx(
            {a: 0.4 * 0.25, b: 0.4 * 0.75, c: 0.6})

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(1, 5))
    def test_random_nested_constructions(self, seed, num_vars):
        rng = random.Random(seed)
        desc = _describe(rng, tuple(range(num_vars)), 3)
        store = Store()
        root = _build(store, desc)
        for node in iter_nodes(root):
            assert all(ch.kind != node.kind for ch in node.children
                       if node.kind != LIT)
            sub = Aobs(node, store, tuple(sorted(node.omega)))
            assert node.mass == pytest.approx(total_mass(sub), rel=1e-12)
        got = enum_canonical(Aobs(root, store, tuple(range(num_vars))))
        assert tab_equal(got, tab_canonical(_expand(desc)), eps=1e-12)


def _describe(rng, block, depth):
    """A random nested description over the variables ``block``: ANDs may
    sit under ANDs (with empty ones among them) and ORs under ORs, weights
    need not sum to 1."""
    if depth > 0 and rng.random() < 0.45:
        return ("or", [(rng.uniform(0.05, 2.0), _describe(rng, block, depth - 1))
                       for _ in range(rng.randint(1, 3))])
    if len(block) == 1 and (depth == 0 or rng.random() < 0.5):
        return ("lit", block[0], rng.randrange(2))
    cuts = sorted(rng.sample(range(1, len(block)),
                             rng.randint(0, len(block) - 1)))
    parts = [block[i:j] for i, j in zip([0] + cuts, cuts + [len(block)])]
    kids = [_describe(rng, part, max(depth - 1, 0)) for part in parts]
    if rng.random() < 0.2:
        kids.append(("and", []))
    return ("and", kids)


def _build(store, desc):
    if desc[0] == "lit":
        return store.make_lit(desc[1], desc[2])
    if desc[0] == "and":
        return store.make_and([_build(store, d) for d in desc[1]])
    return store.make_or([(w, _build(store, d)) for w, d in desc[1]])


def _expand(desc):
    """The (probability, state) rows of a description, expanded directly."""
    if desc[0] == "lit":
        return [(1.0, ((desc[1], desc[2]),))]
    if desc[0] == "and":
        rows = [(1.0, ())]
        for d in desc[1]:
            rows = [(p * q, tuple(sorted(s + t)))
                    for p, s in rows for q, t in _expand(d)]
        return rows
    return [(w * p, s) for w, d in desc[1] for p, s in _expand(d)]


class TestVarSubspace:
    def test_root(self, three_var_state):
        assert three_var_state.root.omega == frozenset({0, 1, 2})

    def test_or_child(self, three_var_state):
        ors = [n for n in iter_nodes(three_var_state.root) if n.kind == OR]
        assert {n.omega for n in ors} == {
            frozenset({1}), frozenset({2})
        }


class TestNodeMass:
    def test_unit_leaves(self, store):
        assert store.make_lit(0, 0).mass == 1.0
        assert store.make_and(()).mass == 1.0

    def test_matches_expansion_on_random_dags(self):
        # random_dag leaves its inner OR weights unnormalized, so most
        # subgraphs carry a mass other than 1
        rng = random.Random(31)
        off_one = 0
        for _ in range(20):
            s = random_dag(rng, rng.randint(3, 7))
            for node in iter_nodes(s.root):
                sub = Aobs(node, s.store, tuple(sorted(node.omega)))
                assert node.mass == pytest.approx(total_mass(sub), rel=1e-12)
                off_one += abs(node.mass - 1.0) > 1e-6
        assert off_one > 20


class TestEnumerateStates:
    def test_four_rows(self, three_var_state):
        assert tab_equal(enum_canonical(three_var_state), FOUR_ROW_TABLE)

    def test_two_var_three_rows(self, two_var_left):
        expected = [(0.2, ((0, 0), (1, 0))),
                    (0.3, ((0, 0), (1, 1))),
                    (0.5, ((0, 1), (1, 1)))]
        assert tab_equal(enum_canonical(two_var_left), expected)

    def test_duplicates_kept_without_merge(self, store):
        lit = store.make_lit(0, 0)
        dup = store.make_or([(0.5, store.make_and([lit, store.make_lit(1, 0)])),
                             (0.5, store.make_and([store.make_lit(1, 0), lit]))])
        # both branches intern to the same AND, merged at construction already
        assert len(enumerate_states(dup)) == 1

    def test_cap(self, three_var_state):
        with pytest.raises(ExpansionTooLarge):
            enumerate_states(three_var_state.root, cap=2)


class TestCountStates:
    def test_four(self, three_var_state):
        assert count_states(three_var_state.root) == 4

    def test_lit(self, store):
        assert count_states(store.make_lit(0, 0)) == 1

    def test_factored_two_rows(self, store):
        root = store.make_and([
            store.make_lit(0, 0),
            store.make_lit(1, 2),
            store.make_or([(0.7, store.make_lit(2, 1)),
                           (0.3, store.make_lit(2, 0))]),
        ])
        assert count_states(root) == 2

    def test_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            s, _ = random_aobs(rng)
            assert count_states(s.root) == len(enumerate_states(s.root))


def _postorder(root, leaf=None):
    """The nodes ``fold`` steps, in the order it steps them."""
    order = []

    def step(node):
        order.append(node)
        return len(order) - 1

    fold(root, {}, step, leaf)
    return order


class TestFold:
    def test_children_first_each_node_once(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_dag(rng, 6)
            order = _postorder(s.root)
            position = {n.key: i for i, n in enumerate(order)}
            assert len(position) == len(order)
            assert set(position) == {n.key for n in iter_nodes(s.root)}
            assert order[-1] is s.root
            assert all(position[c.key] < i
                       for i, n in enumerate(order) for c in n.children)

    def test_steps_in_recursive_order(self):
        # greedy_optimize records extra memo entries as it steps, so its
        # results depend on the order of the steps
        def recursive(node, seen, order):
            if node.key not in seen:
                for c in node.children:
                    recursive(c, seen, order)
                seen.add(node.key)
                order.append(node)
            return order

        rng = random.Random(4)
        for _ in range(20):
            s = random_dag(rng, 6)
            assert _postorder(s.root) == recursive(s.root, set(), [])

    def test_deep_chain(self, store):
        # 3,000 nodes deep, deeper than the interpreter's recursion limit;
        # alternating ORs and ANDs, which the store cannot splice together
        root = level_chain(store, 1500).root
        order = _postorder(root)
        assert len(order) == 5 * 1500 - 2
        position = {n.key: i for i, n in enumerate(order)}
        assert len(position) == len(order)
        assert set(position) == {n.key for n in iter_nodes(root)}
        assert order[-1] is root
        assert all(position[c.key] < i
                   for i, n in enumerate(order) for c in n.children)

    def test_leaf_answered_nodes_are_not_descended(self, three_var_state):
        root = three_var_state.root  # AND(a=0, OR over b, OR over c)
        memo = {}
        stepped = []

        def step(node):
            stepped.append(node)
            return "stepped"

        got = fold(root, memo, step,
                   lambda n: "cut" if n.kind == OR else None)
        assert got == "stepped"
        assert [n.kind for n in stepped] == [LIT, AND]
        assert sorted(memo.values()) == ["cut", "cut", "stepped", "stepped"]

    def test_leaf_cuts_random_dags(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_dag(rng, 6)
            cut = {n.key for n in iter_nodes(s.root)
                   if n is not s.root and n.kind == OR}
            # the nodes reachable from the root without passing a cut one
            free, stack = set(), [s.root]
            while stack:
                n = stack.pop()
                if n.key not in free:
                    free.add(n.key)
                    stack.extend(c for c in n.children if c.key not in cut)
            stepped = []

            def step(node):
                stepped.append(node.key)

            fold(s.root, {}, step, lambda n: n.key in cut or None)
            assert sorted(stepped) == sorted(free)

    def test_memo_entries_are_not_revisited(self, three_var_state):
        root = three_var_state.root
        memo = {c.key: "given" for c in root.children}
        stepped = []

        def step(node):
            stepped.append(node)
            return "stepped"

        assert fold(root, memo, step) == "stepped"
        assert stepped == [root]


def _walk_size(g):
    """Independent size computation by explicit node and edge walk."""
    nodes = list(iter_nodes(g.root))
    edges = sum(len(n.children) for n in nodes)
    lits = sum(1 for n in nodes if n.kind == LIT)
    internal = len(nodes) - lits
    return edges + internal + 2 * lits


class TestSizeMetric:
    def test_three_var_graph_is_20(self, three_var_state):
        # 1 AND + 2 OR + 5 LIT + 7 edges -> 7 + 3 + 10
        assert size_metric(three_var_state) == 20

    def test_single_lit(self, store):
        g = Aobs(store.make_lit(0, 5), store, (0,))
        assert size_metric(g) == 2

    def test_matches_structural_walk(self, store):
        root = store.make_and([
            store.make_lit(0, 0),
            store.make_or([
                (0.7, store.make_and([store.make_lit(1, 2),
                                      store.make_lit(2, 1)])),
                (0.3, store.make_and([store.make_lit(1, 2),
                                      store.make_lit(2, 0)])),
            ]),
        ])
        g = Aobs(root, store, (0, 1, 2))
        assert size_metric(g) == _walk_size(g)

    def test_shared_subgraphs_counted_once(self):
        rng = random.Random(11)
        for _ in range(30):
            s, _ = random_aobs(rng)
            assert size_metric(s) == _walk_size(s)

    def test_physical_state_is_the_floor(self, store):
        # V literals (2 each), V root edges and the root AND: 3V + 1
        for num_vars in (2, 3, 10, 50):
            g = from_physical_state(store, {v: v % 4 for v in range(num_vars)},
                                    range(num_vars))
            assert size_metric(g) == 3 * num_vars + 1

    def test_single_variable_floor_is_its_literal(self, store):
        g = from_physical_state(store, {0: 3}, [0])
        assert g.root.kind == LIT and size_metric(g) == 2

    def test_no_graph_below_the_floor(self):
        rng = random.Random(12)
        for _ in range(30):
            s, _ = random_aobs(rng)
            assert size_metric(s) >= 3 * len(s.universe) + 1


def _reference_counts(root):
    """Edges into each node reachable from ``root``, plus 1 for the root."""
    counts = {root.key: 1}
    for node in iter_nodes(root):
        for ch in node.children:
            counts[ch.key] = counts.get(ch.key, 0) + 1
    return counts


class TestRefCounts:
    def test_counts_and_size_follow_the_root(self):
        # roots of one store that share subgraphs: tabular unions, unions of
        # two of those, DAGs with shared ANDs and a 1,000-level chain
        rng = random.Random(21)
        store = Store()
        roots = [from_tabular(store, random_tabular(rng, 4, 3, rng.randint(1, 8)),
                              tuple(range(4))).root for _ in range(8)]
        roots += [store.make_or([(0.5, a), (0.5, b)])
                  for a, b in zip(roots, roots[1:])]
        roots += [store.reintern(random_dag(rng, 4).root) for _ in range(6)]
        roots.append(level_chain(store, 1000).root)
        table = RefCounts()
        assert table.root is None and table.size == 0
        for _ in range(60):
            root = rng.choice(roots)
            size = table.move(root)
            assert table.root is root
            assert size == table.size == size_metric(
                Aobs(root, store, tuple(root.omega)))
            assert table.counts == _reference_counts(root)

    def test_store_starts_untracked(self, store):
        assert store.refcounts.root is None and not store.refcounts.counts


class TestUnionRoots:
    def test_self_union_preserves_mass(self, three_var_state):
        u = union_roots(three_var_state, three_var_state, 0.5)
        assert tab_equal(enum_canonical(u), enum_canonical(three_var_state))

    def test_equivalent_representations(self, two_var_left, two_var_right):
        u = union_roots(two_var_left, two_var_right, 0.5)
        assert tab_equal(enum_canonical(u), enum_canonical(two_var_left))

    def test_universe_mismatch(self, store):
        a = from_physical_state(store, {0: 0, 1: 0}, [0, 1])
        b = from_physical_state(store, {0: 0, 2: 0}, [0, 2])
        with pytest.raises(MismatchedUniverse):
            union_roots(a, b, 0.5)

    def test_weight_range(self, three_var_state):
        with pytest.raises(AobsError):
            union_roots(three_var_state, three_var_state, 1.0)

    def test_cross_store(self, three_var_state):
        other = Store()
        b = from_tabular(other, [(1.0, {0: 0, 1: 1, 2: 0})], (0, 1, 2))
        u = union_roots(three_var_state, b, 0.9)
        assert abs(sum(p for p, _ in enum_canonical(u)) - 1.0) < 1e-9


class TestFromPhysicalState:
    def test_star_of_lits(self, store):
        g = from_physical_state(store, {0: 0, 1: 0, 2: 0}, [0, 1, 2])
        assert g.root.kind == AND and count_states(g.root) == 1

    def test_enumeration(self, store):
        g = from_physical_state(store, {0: 0, 1: 0, 2: 0}, [0, 1, 2])
        assert enum_canonical(g) == [(1.0, ((0, 0), (1, 0), (2, 0)))]

    def test_partial_rejected(self, store):
        with pytest.raises(PartialAssignment):
            from_physical_state(store, {0: 0, 1: 0}, [0, 1, 2])

    @pytest.mark.parametrize("universe, root", [
        pytest.param([3], "lit", id="one-variable"),
        pytest.param([], "empty-and", id="no-variable"),
    ])
    def test_small_universes(self, store, universe, root):
        g = from_physical_state(store, {v: 1 for v in universe}, universe)
        expected = (store.make_lit(3, 1) if root == "lit"
                    else store.make_and(()))
        assert g.root is expected

    def test_repeated_variable_rejected(self, store):
        # a universe that names a variable twice asks for two literals of it
        with pytest.raises(OverlappingSubspaces):
            from_physical_state(store, {0: 0, 1: 0}, [0, 1, 0])

    @pytest.mark.parametrize("num_vars", [1, 2, 5])
    def test_is_the_one_row_table(self, num_vars):
        # the same nodes, made in the same order, as from_tabular over the
        # one-row table: its union of one product is that product
        rng = random.Random(num_vars)
        universe = rng.sample(range(8), num_vars)
        state = {v: rng.randrange(3) for v in universe}
        g = from_physical_state(Store(), state, universe)
        t = from_tabular(Store(), [(1.0, state)], universe)
        assert [(n.key, n.kind, n.var, n.value) for n in iter_nodes(g.root)] \
            == [(n.key, n.kind, n.var, n.value) for n in iter_nodes(t.root)]
        assert len(g.store) == len(t.store) == num_vars + (num_vars > 1)
        size = len(g.store)
        assert from_tabular(g.store, [(1.0, state)], universe).root is g.root
        assert len(g.store) == size


class TestAobsUniverse:
    @pytest.mark.parametrize("universe", [
        pytest.param((0, 0, 1), id="repeat"),
        pytest.param((0, 1, 1), id="repeat-last"),
        pytest.param((0, 0), id="repeat-leaving-one-out"),
        pytest.param((0, 0, 1, 2), id="repeat-and-unknown"),
    ])
    def test_repeated_variable_rejected(self, store, universe):
        # a state document lists each variable once; a universe that
        # repeats one would be written and then refused on reading
        root = from_physical_state(store, {0: 1, 1: 0}, [0, 1]).root
        with pytest.raises(MismatchedUniverse):
            Aobs(root, store, universe)


class TestWithRoot:
    def test_keeps_universe_and_names(self, three_var_state):
        s = three_var_state
        store = s.store
        other = store.make_and([store.make_lit(0, 1), store.make_lit(1, 0),
                                store.make_lit(2, 1)])
        t = s.with_root(other)
        assert t.root is other and t.store is store
        assert t.universe == s.universe and t.var_names == s.var_names
        assert t == Aobs(other, store, s.universe, s.var_names)
        # an action's and the optimizer's results are the input over a new
        # root
        res = apply_action(s, Condition({1: [1]}),
                           Action((2,), ((0.5, (0,)), (0.5, (1,)))))
        for out in (res.state, greedy_optimize(res.state)):
            assert out.root is not s.root
            assert out.universe is s.universe and out.var_names is s.var_names

    def test_root_over_other_variables_rejected(self, three_var_state):
        store = three_var_state.store
        lit = store.make_lit
        for root in (store.make_and([lit(0, 0), lit(1, 0)]),
                     store.make_and([lit(0, 0), lit(1, 0), lit(3, 0)])):
            with pytest.raises(MismatchedUniverse):
                three_var_state.with_root(root)


class TestHashConsing:
    def test_reintern_reproduces_keys(self):
        rng = random.Random(3)
        for _ in range(20):
            s, _ = random_aobs(rng)
            fresh = Store()
            assert fresh.reintern(s.root).digest == s.root.digest

    def test_structural_rebuild_same_ref(self, three_var_state):
        store = three_var_state.store

        def rebuild(n):
            if n.kind == LIT:
                return store.make_lit(n.var, n.value)
            if n.kind == AND:
                return store.make_and([rebuild(c) for c in n.children])
            return store.make_or([(w, rebuild(c)) for w, c in n.edges()])

        assert rebuild(three_var_state.root) is three_var_state.root


class TestIds:
    """A node's key is an id its store hands out; its digest, the name it
    has in every store, is computed only when something reads it."""

    def test_ids_count_up_in_the_order_nodes_are_made(self, store):
        b, a = store.make_lit(5, 1), store.make_lit(0, 0)
        ab = store.make_and([a, b])
        assert [b.key, a.key, ab.key] == [0, 1, 2]
        assert ab.children == (b, a)  # in key order

    def test_an_and_never_hits_a_literal(self, store):
        # the AND of the nodes with ids 0 and 1 must not be taken for the
        # literal x0 = 1, whose table key is (0, 1)
        both = store.make_and([store.make_lit(0, 0), store.make_lit(1, 1)])
        lit = store.make_lit(0, 1)
        assert lit.kind == LIT and lit is not both

    def test_pipeline_never_digests(self, monkeypatch):
        # reading documents, acting on conditions of arity 1-3, factoring
        # without a tie and writing documents intern by id only
        rng = random.Random(5)
        states, docs = [], []
        for _ in range(30):
            num_vars = rng.randint(3, 6)
            s = random_dag(rng, num_vars)
            s = normalize(Aobs(s.store.make_or([(1.0 / s.root.mass, s.root)]),
                               s.store, s.universe))
            states.append(s)
            docs.append(json.loads(json.dumps(state_to_json(s))))
        rows = random_tabular(rng, 4, 3, 12)
        docs.append({"universe": list("abcd"), "rows": [
            [p, {"abcd"[v]: u for v, u in state.items()}]
            for p, state in rows]})
        # p shares six zeros with q and five with r: one group gains most
        store = Store()
        p, q, r = (store.make_and([store.make_lit(v, int(v in ones))
                                   for v in range(10)])
                   for ones in (set(), set(range(6, 10)), set(range(5))))
        untied = Aobs(store.make_or([(0.2, p), (0.3, q), (0.5, r)]), store,
                      tuple(range(10)))

        def digest(payload):
            raise AssertionError(f"digested {payload!r}")

        monkeypatch.setattr("aobs.core._digest", digest)
        for doc in docs:
            state_to_json(state_from_json(doc))
        acted = 0
        for s in states:
            num_vars = len(s.universe)
            for arity in (1, 2, 3):
                c = Condition({v: [rng.randrange(2)] for v in
                               rng.sample(range(num_vars), arity)})
                a = Action((rng.randrange(num_vars),),
                           ((0.4, (0,)), (0.6, (1,))))
                probability(s, c)
                out = apply_action(s, c, a).state
                acted += out.root is not s.root
                state_to_json(out)
        assert acted > 45
        assert greedy_optimize(untied).root is not untied.root


class TestInterning:
    """The unique table is keyed by structure; a hit builds nothing."""

    def test_literal_hit(self, store):
        first = store.make_lit(3, 1)
        size = len(store)
        assert store.make_lit(3, 1) is first
        assert len(store) == size

    def test_and_hit_from_permuted_and_nested_children(self, store):
        a, b, c = (store.make_lit(v, 0) for v in range(3))
        first = store.make_and([a, b, c])
        size = len(store)
        assert store.make_and([c, a, b]) is first
        # a nested AND is spliced before the lookup, so the nested product
        # is the node itself; only the inner AND is new
        inner = store.make_and([c, b])
        assert len(store) == size + 1
        assert store.make_and([a, inner]) is first
        assert store.make_and([inner, a]) is first
        assert len(store) == size + 1

    def test_or_hit_from_permuted_and_nested_edges(self, store):
        a, b, c = (store.make_lit(0, u) for u in range(3))
        first = store.make_or([(0.2, a), (0.3, b), (0.5, c)])
        size = len(store)
        assert store.make_or([(0.5, c), (0.2, a), (0.3, b)]) is first
        # splicing multiplies the nested weights: 0.4 * 0.5 and 0.6 * 0.5
        inner = store.make_or([(0.4, a), (0.6, b)])
        assert len(store) == size + 1
        assert store.make_or([(0.5, c), (0.5, inner)]) is first
        assert store.make_or([(0.5, inner), (0.5, c)]) is first
        assert len(store) == size + 1

    def test_hit_computes_no_digest(self, store, monkeypatch):
        a, b = store.make_lit(0, 0), store.make_lit(1, 0)
        prod = store.make_and([a, b])
        union = store.make_or([(0.5, prod), (0.5, store.make_and(
            [store.make_lit(0, 1), b]))])

        def digest(payload):
            raise AssertionError(f"digested {payload!r} on a hit")

        monkeypatch.setattr("aobs.core._digest", digest)
        assert store.make_lit(0, 0) is a
        assert store.make_and([b, a]) is prod
        assert store.make_or([(0.5, store.make_and([b, store.make_lit(0, 1)])),
                              (0.5, prod)]) is union

    def test_overlap_interns_nothing(self, store):
        lit = store.make_lit
        with pytest.raises(OverlappingSubspaces):
            store.make_and([lit(0, 0), lit(0, 1)])
        valid = store.make_and([lit(0, 0), lit(1, 0)])
        size = len(store)
        for bad in ([lit(0, 0), lit(0, 1)], [valid, lit(0, 1)],
                    [lit(0, 0), lit(1, 0), lit(0, 0)]):
            with pytest.raises(OverlappingSubspaces):
                store.make_and(bad)
            assert len(store) == size

    def test_mismatched_or_interns_nothing(self, store):
        a, b, c = store.make_lit(0, 0), store.make_lit(0, 1), store.make_lit(1, 0)
        store.make_or([(0.5, a), (0.5, b)])
        size = len(store)
        for bad in ([(0.5, a), (0.5, c)], [(0.25, a), (0.25, b), (0.5, c)]):
            with pytest.raises(MismatchedSubspaces):
                store.make_or(bad)
            assert len(store) == size

    @pytest.mark.parametrize("w", [0.0, float("nan")])
    def test_bad_weight_interns_nothing(self, store, w):
        a, b = store.make_lit(0, 0), store.make_lit(0, 1)
        with pytest.raises(AobsError):
            store.make_or([(w, a), (0.5, b)])
        assert len(store) == 2
        valid = store.make_or([(0.5, a), (0.5, b)])
        size = len(store)
        for bad in ([(w, a), (0.5, b)], [(0.5, a), (0.5, b), (w, a)],
                    [(w, valid)]):
            with pytest.raises(AobsError):
                store.make_or(bad)
            assert len(store) == size

    def test_keys_are_the_structural_digests(self, store):
        lit = store.make_lit
        assert lit(0, 0).digest == "02c66d4834ef6830807978890899ee38"
        assert (store.make_and([lit(0, 0), lit(1, 1)]).digest
                == "836e3ca5ceb61e98746eb96ccd0f4f9f")
        assert (store.make_or([(0.25, lit(0, 0)), (0.75, lit(0, 1))]).digest
                == "f8a3a758a127a4cc70cb54e7c5aa450d")

    def test_tabular_store_holds_only_reachable_nodes(self, store):
        # 256 rows over 12 variables with 4 values: 3,072 literal requests
        # for at most 48 distinct literals
        rows = random_tabular(random.Random(13), 12, 4, 256)
        s = from_tabular(store, rows, tuple(range(12)))
        reached = list(iter_nodes(s.root))
        assert len(store) == len(reached)
        assert sum(n.kind == LIT for n in reached) <= 48
        assert len(s.root.children) == 256


class TestSweep:
    """A sweep drops the nodes made since its mark that its root does not
    reach, and keeps every node made before the mark."""

    def test_drops_what_the_root_does_not_reach(self, store):
        lit = store.make_lit
        old = store.make_and([lit(0, 0), lit(1, 0)])
        before = set(store._nodes.values())
        mark = store.mark()
        dead = store.make_and([lit(0, 1), lit(1, 0)])
        kept = store.make_and([lit(0, 1), lit(1, 1)])
        root = store.make_or([(0.5, old), (0.5, kept)])
        store.make_or([(0.5, dead), (0.5, kept)])
        store.sweep(root, mark)
        assert set(store._nodes.values()) == before | set(iter_nodes(root))
        assert len(store) == 7
        # a structure swept away and built again is a new node
        again = store.make_and([lit(0, 1), lit(1, 0)])
        assert again is not dead and again.key > root.key

    @pytest.mark.parametrize("root", ["none", "old"])
    def test_no_new_root_drops_every_new_node(self, store, root):
        a = store.make_or([(0.5, store.make_lit(0, 0)),
                           (0.5, store.make_lit(0, 1))])
        size = len(store)
        mark = store.mark()
        store.make_and([a, store.make_lit(1, 0)])
        store.make_or([(0.3, store.make_lit(0, 0)),
                       (0.7, store.make_lit(0, 2))])
        store.sweep(None if root == "none" else a, mark)
        assert len(store) == size
        assert store.make_lit(0, 0) in a.children

    def test_random_dags_keep_exactly_the_reachable_new_nodes(self):
        rng = random.Random(71)
        for _ in range(30):
            store = Store()
            old = store.reintern(random_dag(rng, 4).root)
            before = set(store._nodes.values())
            mark = store.mark()
            roots = [store.reintern(random_dag(rng, 4).root) for _ in range(3)]
            root = store.make_or(
                [(1.0, r) for r in rng.sample(roots, rng.randint(1, 3))]
                + [(1.0, old)])
            store.sweep(root, mark)
            assert set(store._nodes.values()) == before | set(iter_nodes(root))

    def test_chain_deeper_than_the_recursion_limit(self, store):
        mark = store.mark()
        root = level_chain(store, 1000).root
        size = len(store)
        store.sweep(root, mark)
        assert len(store) == size
        store.sweep(None, mark)
        assert len(store) == 0


class TestTabularRoundTrip:
    def test_mass_one(self):
        rng = random.Random(5)
        for _ in range(40):
            s, rows = random_aobs(rng)
            got = enum_canonical(s)
            assert abs(sum(p for p, _ in got) - 1.0) < 1e-9
            expected = tab_canonical([
                (p, tuple(sorted(a.items()))) for p, a in rows
            ])
            assert tab_equal(got, expected)

    def test_thousand_rows_count_and_depth(self, store):
        rows = random_tabular(random.Random(5), 50, 4, 1053)
        s = from_tabular(store, rows, tuple(range(50)))
        assert count_states(s.root) == 1053
        depth, level = 0, [s.root]
        while any(n.kind == OR for n in level):
            depth += 1
            level = [ch for n in level if n.kind == OR for ch in n.children]
        assert depth == 1  # one union over the rows

    def test_rows_off_one_give_unit_mass(self, store):
        # the rows sum to 1 + 5e-7, which the check accepts; an action runs
        # on the state without a rescaling pass, so its root must be exact
        rows = [(0.2, {0: 0, 1: 0}), (0.3, {0: 0, 1: 1}),
                (0.5 + 5e-7, {0: 1, 1: 1})]
        s = from_tabular(store, rows, (0, 1))
        assert abs(s.root.mass - 1.0) <= 1e-12
        res = apply_action(s, Condition({0: [0]}),
                           Action((1,), ((0.5, (0,)), (0.5, (1,)))))
        assert res.selected_mass > 0
        assert_normal_form(res.state)

    def test_empty_rejected(self, store):
        with pytest.raises(AobsError):
            from_tabular(store, [], (0,))

    def test_mass_checked(self, store):
        with pytest.raises(AobsError):
            from_tabular(store, [(0.5, {0: 0})], (0,))

    def test_partial_row_rejected(self, store):
        rows = [(0.5, {0: 0, 1: 0}), (0.25, {0: 1}), (0.25, {0: 1, 1: 0, 2: 1})]
        with pytest.raises(PartialAssignment, match=r"missing variables \[1\]"):
            from_tabular(store, rows, (0, 1))

    def test_unknown_variable_row_rejected(self, store):
        rows = [(0.5, {0: 0, 1: 0}), (0.25, {0: 1, 1: 0, 2: 1}), (0.25, {0: 1})]
        with pytest.raises(UnknownVariable, match=r"unknown variables \[2\]"):
            from_tabular(store, rows, (0, 1))

    def test_ids_as_make_and_over_make_lit(self):
        # each row's literals in universe order, then its product, then the
        # union: the order in which make_and over make_lit makes them
        rng = random.Random(21)
        for _ in range(20):
            universe = tuple(rng.sample(range(8), rng.randint(1, 6)))
            rows = [(p, {universe[v]: u for v, u in a.items()})
                    for p, a in random_tabular(rng, len(universe), 3,
                                               rng.randint(1, 3))]
            if rng.random() < 0.5:  # each row twice, at half its weight
                rows = [(p / 2, a) for p, a in rows for _ in (0, 1)]
            s = from_tabular(Store(), rows, universe)
            store = Store()
            total = sum(p for p, _ in rows)
            root = store.make_or([
                (p / total, store.make_and([store.make_lit(v, a[v])
                                            for v in universe]))
                for p, a in rows])
            got = [(n.key, n.kind, n.var, n.value, n.mass, n.omega,
                    [c.key for c in n.children], n.weights)
                   for n in iter_nodes(s.root)]
            assert got == [(n.key, n.kind, n.var, n.value, n.mass, n.omega,
                            [c.key for c in n.children], n.weights)
                           for n in iter_nodes(root)]
            assert len(s.store) == len(store)

    def test_zero_row_dropped_after_its_check(self, store):
        rows = [(0.25, {0: 0, 1: 0}), (0.0, {0: 2, 1: 2}), (0.75, {0: 1, 1: 0})]
        s = from_tabular(store, rows, (0, 1))
        assert s.root is from_tabular(store, rows[::2], (0, 1)).root
        assert store.make_lit(0, 2).key == len(store) - 1  # made only now
        with pytest.raises(PartialAssignment):
            from_tabular(store, rows + [(0.0, {0: 1})], (0, 1))

    def test_rows_are_physical_states(self, store):
        rows = random_tabular(random.Random(8), 5, 3, 20)
        s = from_tabular(store, rows, tuple(range(5)))
        assert [ch.key for ch in s.root.children] == sorted(
            from_physical_state(store, state, range(5)).root.key
            for _, state in rows)
