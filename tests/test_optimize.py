"""Greedy factoring of shared AND children."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from aobs.acting import apply_action
from aobs.bench import ExperimentConfig, gen_experiment
from aobs.core import (
    AND, LIT, Aobs, Store, from_physical_state, iter_nodes, size_metric,
)
from aobs.oracle import tab_equal
from aobs.optimize import greedy_optimize

from conftest import enum_canonical, random_aobs


def _reference_best(root, threshold):
    """Full-rescan pair selection: of the reachable AND pairs sharing more
    than ``threshold`` children, the largest intersection, ties going to the
    larger, then lower-keyed first node and then the lower-keyed second."""
    ands = [n for n in iter_nodes(root) if n.kind == AND and len(n.children) >= 2]
    ands.sort(key=lambda n: (-len(n.children), n.key))
    by_child = {}
    for n in ands:
        for ch in n.children:
            by_child.setdefault(ch.key, []).append(n)
    child_sets = {n.key: frozenset(c.key for c in n.children) for n in ands}
    by_key = {n.key: n for n in ands}
    best = None
    best_size = threshold
    for a in ands:
        if len(a.children) <= best_size:
            break
        partners = {b.key for ch in a.children for b in by_child[ch.key]
                    if b.key != a.key}
        for bkey in sorted(partners):
            inter = child_sets[a.key] & child_sets[bkey]
            if len(inter) > best_size:
                best_size = len(inter)
                best = (a, by_key[bkey], inter)
    return best


def _reference_rebuild(node, targets, inter, store, memo):
    """Rebuild every node, moving ``inter`` of each target into a shared AND."""
    got = memo.get(node.key)
    if got is not None:
        return got
    if node.kind == LIT:
        out = node
    elif node.kind == AND:
        kids = [_reference_rebuild(ch, targets, inter, store, memo)
                for ch in node.children]
        if node.key in targets:
            shared = store.make_and(
                [k for k, ch in zip(kids, node.children) if ch.key in inter])
            out = store.make_and(
                [k for k, ch in zip(kids, node.children) if ch.key not in inter]
                + [shared])
        else:
            out = store.make_and(kids)
    else:
        out = store.make_or(
            [(w, _reference_rebuild(ch, targets, inter, store, memo))
             for w, ch in node.edges()])
    memo[node.key] = out
    return out


def _reference_optimize(s, threshold=2):
    """The optimizer as one full rescan and one whole-graph rebuild per
    extraction: the sequence the incremental optimizer must reproduce."""
    root = s.root
    for _ in range(10 * len(list(iter_nodes(root))) + 100):
        found = _reference_best(root, threshold)
        if found is None:
            break
        a, b, inter = found
        new_root = _reference_rebuild(root, {a.key, b.key}, inter, s.store, {})
        if new_root.key == root.key:
            break
        root = new_root
    return Aobs(root, s.store, s.universe, s.var_names)


def _assert_matches_reference(s, threshold=2):
    want = _reference_optimize(s, threshold)
    got = greedy_optimize(s, threshold=threshold)
    assert got.root.key == want.root.key
    assert size_metric(got) == size_metric(want)
    return got


def _random_dag(rng, num_vars):
    """A random state whose AND nodes share many children over several
    levels: a variable takes one of three substates, and substates built
    over a block of variables are reused at random."""
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


def _two_ands(store, values_a, values_b):
    """An OR over two ANDs of literals with the given per-variable values."""
    mk = lambda vals: store.make_and(
        [store.make_lit(v, u) for v, u in enumerate(vals)]
    )
    root = store.make_or([(0.5, mk(values_a)), (0.5, mk(values_b))])
    return Aobs(root, store, tuple(range(len(values_a))))


class TestGreedyOptimize:
    def test_shared_pair_extracted_at_low_threshold(self, store):
        # ANDs {a=0,b=0,c=0} and {a=0,b=0,c=1} share two children
        s = _two_ands(store, (0, 0, 0), (0, 0, 1))
        out = greedy_optimize(s, threshold=1)
        shared = [
            n for n in iter_nodes(out.root)
            if n.kind == AND and n.omega == frozenset({0, 1})
        ]
        assert len(shared) == 1
        parents = [
            n for n in iter_nodes(out.root)
            if n.kind == AND and shared[0] in n.children
        ]
        assert len(parents) == 2
        assert tab_equal(enum_canonical(out), enum_canonical(s))

    def test_triple_extracted_at_default_threshold(self, store):
        s = _two_ands(store, (0, 0, 0, 0), (0, 0, 0, 1))
        before = size_metric(s)
        out = greedy_optimize(s)
        assert tab_equal(enum_canonical(out), enum_canonical(s))
        shared = [
            n for n in iter_nodes(out.root)
            if n.kind == AND and n.omega == frozenset({0, 1, 2})
        ]
        assert len(shared) == 1
        assert size_metric(out) <= before

    def test_no_shared_children_unchanged(self, store):
        s = _two_ands(store, (0, 0), (1, 1))
        assert greedy_optimize(s).root is s.root

    def test_small_intersection_below_default_threshold(self, store):
        s = _two_ands(store, (0, 0, 0), (0, 0, 1))
        assert greedy_optimize(s).root is s.root

    def test_threshold_validation(self, three_var_state):
        with pytest.raises(ValueError):
            greedy_optimize(three_var_state, threshold=0)

    def test_never_grows_and_preserves_semantics(self):
        rng = random.Random(43)
        for _ in range(60):
            s, _ = random_aobs(rng, num_vars=5, max_rows=8)
            out = greedy_optimize(s)
            assert size_metric(out) <= size_metric(s)
            assert tab_equal(enum_canonical(out), enum_canonical(s))


class TestMatchesFullRescan:
    """The incremental optimizer picks the same pairs in the same order as a
    full rescan per extraction, so it yields the same root node."""

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_random_states(self, threshold):
        rng = random.Random(100 + threshold)
        for _ in range(40):
            s, _ = random_aobs(rng, num_vars=6, num_values=2, max_rows=12)
            _assert_matches_reference(s, threshold)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(3, 8),
           threshold=st.integers(1, 3))
    def test_random_dags(self, seed, num_vars, threshold):
        s = _random_dag(random.Random(seed), num_vars)
        out = _assert_matches_reference(s, threshold)
        assert tab_equal(enum_canonical(out), enum_canonical(s))

    def test_subset_node_is_its_own_shared_node(self, store):
        # a's children are all shared with b, so a stays and b points to it
        x, y, z = (store.make_lit(v, 0) for v in range(3))
        a = store.make_and([x, y, z])
        b = store.make_and([x, y, z, store.make_lit(3, 0)])
        c = store.make_and([a, store.make_lit(3, 1)])
        s = Aobs(store.make_or([(0.5, b), (0.5, c)]), store, (0, 1, 2, 3))
        out = _assert_matches_reference(s)
        reachable = list(iter_nodes(out.root))
        assert a in reachable
        assert b not in reachable
        assert sum(a in n.children for n in reachable) == 2
        assert tab_equal(enum_canonical(out), enum_canonical(s))

    def test_rebuilt_node_collides_with_reachable_one(self, store):
        # moving x, y, z of b1 into a shared AND rebuilds b1 as r, which the
        # root already holds, so the two OR edges merge
        x, y, z = (store.make_lit(v, 0) for v in range(3))
        p, q = store.make_lit(3, 0), store.make_lit(3, 1)
        b1 = store.make_and([x, y, z, p])
        b2 = store.make_and([x, y, z, q])
        r = store.make_and([store.make_and([x, y, z]), p])
        s = Aobs(store.make_or([(0.3, b1), (0.3, b2), (0.4, r)]), store,
                 (0, 1, 2, 3))
        out = _assert_matches_reference(s)
        assert len(out.root.children) == 2
        assert r in out.root.children
        assert tab_equal(enum_canonical(out), enum_canonical(s))

    def test_bench_script(self):
        cfg = ExperimentConfig(num_vars=30, num_values=4, num_actions=20,
                               condition_arity=1)
        script = gen_experiment(cfg, 3)
        state = from_physical_state(Store(), script.initial, range(cfg.num_vars))
        changed = 0
        for condition, action in script.steps:
            plain = apply_action(state, condition, action).state
            state = _assert_matches_reference(plain)
            changed += state.root is not plain.root
        assert changed > 0
