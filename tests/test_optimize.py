"""Greedy factoring of shared products out of unions."""
import random

from hypothesis import given, settings, strategies as st

from aobs.acting import apply_action, normalize
from aobs.bench import ExperimentConfig, gen_experiment
from aobs.core import (
    LIT, Aobs, Node, Store, from_physical_state, iter_nodes, size_metric,
)
from aobs.oracle import Action, Condition, tab_apply_action, tab_equal
from aobs.optimize import greedy_optimize

from conftest import (
    assert_normal_form, enum_canonical, level_chain, random_aobs, random_dag,
)


def _two_ands(store, values_a, values_b):
    """An OR over two ANDs of literals with the given per-variable values."""
    mk = lambda vals: store.make_and(
        [store.make_lit(v, u) for v, u in enumerate(vals)]
    )
    root = store.make_or([(0.5, mk(values_a)), (0.5, mk(values_b))])
    return Aobs(root, store, tuple(range(len(values_a))))


def _assert_exact(s, out):
    """Same distribution as ``s``, and no larger."""
    assert size_metric(out) <= size_metric(s)
    assert tab_equal(enum_canonical(out), enum_canonical(s))


# one OR of products over five variables; each factor is a literal or a
# fixed union of two literals, so products share factors often
_PRODUCTS = st.lists(
    st.tuples(st.integers(1, 9), st.tuples(*[st.integers(0, 3)] * 5)),
    min_size=1, max_size=12,
)


class TestGreedyOptimize:
    def test_triple_extracted_at_default_threshold(self, store):
        # OR(AND(a0,b0,c0,d0), AND(a0,b0,c0,d1)) -> AND(a0,b0,c0,OR(d0,d1))
        s = _two_ands(store, (0, 0, 0, 0), (0, 0, 0, 1))
        assert size_metric(s) == 23
        out = greedy_optimize(s)
        d = store.make_or([(0.5, store.make_lit(3, 0)),
                           (0.5, store.make_lit(3, 1))])
        assert out.root is store.make_and(
            [store.make_lit(v, 0) for v in range(3)] + [d])
        assert size_metric(out) == 18
        assert tab_equal(enum_canonical(out), enum_canonical(s))

    def test_no_shared_children_unchanged(self, store):
        s = _two_ands(store, (0, 0), (1, 1))
        assert greedy_optimize(s).root is s.root

    def test_negative_gain_unchanged(self, store):
        # X = {a0}, so the gain is (2 - 1) * 1 - 4 = -3
        s = _two_ands(store, (0, 0, 0), (0, 1, 1))
        assert greedy_optimize(s).root is s.root

    def test_break_even_is_exact(self, store):
        # next to a gain of 5 on variables 0-3, the gain of -3 on variables
        # 4-6 is not taken, although the call shrinks the graph as a whole
        left = _two_ands(store, (0, 0, 0, 0), (0, 0, 0, 1))
        right = store.make_or([
            (0.5, store.make_and([store.make_lit(v, u)
                                  for v, u in zip((4, 5, 6), vals)]))
            for vals in ((0, 0, 0), (0, 1, 1))])
        s = Aobs(store.make_and([left.root, right]), store, tuple(range(7)))
        out = greedy_optimize(s)
        assert out.root is store.make_and(
            list(greedy_optimize(left).root.children) + [right])
        _assert_exact(s, out)

    def test_kept_only_if_size_does_not_grow(self, store):
        # OR(p1, p2) gains 5 locally, but p1 and p2 stay reachable through
        # the other two unions, so factoring it grows the graph by 3
        lit = store.make_lit
        p1, p2, p4, p5 = (store.make_and([lit(v, u) for v, u in enumerate(vals)])
                          for vals in ((0, 0, 0, 0), (0, 0, 0, 1),
                                       (1, 1, 1, 1), (2, 2, 2, 2)))
        unions = [store.make_or([(0.5, a), (0.5, b)])
                  for a, b in ((p1, p2), (p1, p4), (p2, p5))]
        root = store.make_or([(w, store.make_and([lit(4, u), o]))
                              for w, u, o in zip((0.2, 0.3, 0.5), range(3),
                                                 unions)])
        s = Aobs(root, store, tuple(range(5)))
        assert greedy_optimize(s) is s
        assert greedy_optimize(Aobs(unions[0], store, (0, 1, 2, 3))).root \
            is not unions[0]

    def test_ties_go_to_lowest_factor_key(self, store):
        # p is all zeros; it shares the five lowest-keyed zero literals (set
        # a) with q and the other five (set b) with r, a gain of 1 either way
        zeros = sorted((store.make_lit(v, 0) for v in range(10)),
                       key=lambda n: n.key)
        a = {n.var for n in zeros[:5]}
        p, q, r = (
            store.make_and([store.make_lit(v, int(v in ones))
                            for v in range(10)])
            for ones in (set(), set(range(10)) - a, a))
        s = Aobs(store.make_or([(0.2, p), (0.3, q), (0.5, r)]), store,
                 tuple(range(10)))
        out = greedy_optimize(s)
        grouped = next(ch for ch in out.root.children if zeros[0] in ch.children)
        assert {n.var for n in grouped.children if n.kind == LIT} == a
        _assert_exact(s, out)

    def test_never_grows_and_preserves_semantics(self):
        rng = random.Random(43)
        for _ in range(60):
            s, _ = random_aobs(rng, num_vars=5, max_rows=8)
            _assert_exact(s, greedy_optimize(s))

    def test_output_in_normal_form(self):
        rng = random.Random(44)
        for num_values in (2, 3):
            for _ in range(40):
                s, _ = random_aobs(rng, num_vars=6, num_values=num_values,
                                   max_rows=16)
                s = normalize(s)
                out = greedy_optimize(s)
                assert_normal_form(out)
                _assert_exact(s, out)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(3, 8))
    def test_random_dags(self, seed, num_vars):
        s = random_dag(random.Random(seed), num_vars)
        _assert_exact(s, greedy_optimize(s))

    @settings(max_examples=200, deadline=None)
    @given(products=_PRODUCTS)
    def test_unions_of_products(self, products):
        store = Store()
        menus = []
        for v in range(5):
            lits = [store.make_lit(v, u) for u in range(3)]
            menus.append(lits + [store.make_or([(0.4, lits[0]),
                                                (0.6, lits[1])])])
        total = sum(w for w, _ in products)
        root = store.make_or([
            (w / total, store.make_and([menus[v][i] for v, i in enumerate(pick)]))
            for w, pick in products
        ])
        s = Aobs(root, store, tuple(range(5)))
        out = greedy_optimize(s)
        assert_normal_form(out)
        _assert_exact(s, out)

    def test_warm_memo_matches_fresh_store(self):
        cfg = ExperimentConfig(num_vars=20, num_values=3, num_actions=20,
                               condition_arity=1)
        script = gen_experiment(cfg, 5)
        state = from_physical_state(Store(), script.initial, range(cfg.num_vars))
        for condition, action in script.steps:
            plain = apply_action(state, condition, action).state
            state = greedy_optimize(plain)
            fresh = Store()
            cold = greedy_optimize(
                Aobs(fresh.reintern(plain.root), fresh, plain.universe))
            assert cold.root.key == state.root.key
        assert len(state.store.factored) > 0

    def test_bench_script(self):
        cfg = ExperimentConfig(num_vars=10, num_values=3, num_actions=20,
                               condition_arity=1)
        script = gen_experiment(cfg, 3)
        state = from_physical_state(Store(), script.initial, range(cfg.num_vars))
        tab = enum_canonical(state)
        changed = 0
        for condition, action in script.steps:
            plain = apply_action(state, condition, action).state
            state = greedy_optimize(plain)
            tab = tab_apply_action(tab, condition, action)
            assert tab_equal(enum_canonical(state), tab)
            assert_normal_form(state)
            changed += state.root is not plain.root
        assert changed > 0


def _size(store, node):
    return size_metric(Aobs(node, store, tuple(node.omega)))


def _shared_products(store, values=(0, 1, 2)):
    """The state of ``test_kept_only_if_size_does_not_grow``, with its three
    values renamed to ``values``: factoring the union of p1 and p2 gains
    locally but grows the graph, since both stay reachable elsewhere."""
    lit = lambda v, u: store.make_lit(v, values[u])
    p1, p2, p4, p5 = (store.make_and([lit(v, u) for v, u in enumerate(vals)])
                      for vals in ((0, 0, 0, 0), (0, 0, 0, 1),
                                   (1, 1, 1, 1), (2, 2, 2, 2)))
    unions = [store.make_or([(0.5, a), (0.5, b)])
              for a, b in ((p1, p2), (p1, p4), (p2, p5))]
    root = store.make_or([(w, store.make_and([lit(4, u), o]))
                          for w, u, o in zip((0.2, 0.3, 0.5), range(3),
                                             unions)])
    return Aobs(root, store, tuple(range(5)))


def _shifted_steps(steps, k):
    """A script's steps with every variable moved up by ``k``."""
    return [(Condition({v + k: vals for v, vals in c.allowed.items()}),
             Action(tuple(v + k for v in a.vars), a.outcomes))
            for c, a in steps]


def _checked_optimize(s):
    """``greedy_optimize(s)``, checked against the whole-graph guard: the
    result is the factored root exactly when its ``size_metric`` does not
    exceed the input's, and the store's table holds the size of the root it
    tracks.  Returns the output, whether the fold changed the root, and
    whether the guard rejected the change."""
    out = greedy_optimize(s)
    candidate = s.store.factored[s.root.key]
    keep = _size(s.store, candidate) <= size_metric(s)
    assert out.root is (candidate if keep else s.root)
    table = s.store.refcounts
    if table.root is not None:
        assert table.size == _size(s.store, table.root)
    return out, candidate is not s.root, not keep


class TestSizeGuard:
    def test_rejection_moves_the_table_back(self, store):
        s = _shared_products(store)
        assert greedy_optimize(s) is s
        grown = store.factored[s.root.key]
        assert _size(store, grown) > size_metric(s)
        assert store.refcounts.root is s.root
        assert store.refcounts.size == size_metric(s)

    def test_decisions_match_size_metric_over_branching_runs(self):
        # scripts whose actions start from random earlier states of one
        # store, optimized or not, with optimizer calls on earlier states
        # and on renamed copies of a state the guard rejects
        changed = rejected = 0
        for seed in range(24):
            rng = random.Random(seed)
            cfg = ExperimentConfig(num_vars=6, num_values=3, num_actions=20,
                                   condition_arity=1 + seed % 3)
            script = gen_experiment(cfg, seed)
            store = Store()
            history = [from_physical_state(store, script.initial,
                                           range(cfg.num_vars))]
            for condition, action in script.steps:
                state = apply_action(rng.choice(history), condition,
                                     action).state
                if rng.random() < 0.7:
                    state, ch, rej = _checked_optimize(state)
                    changed += ch
                    rejected += rej
                history.append(state)
                if rng.random() < 0.3:
                    target = rng.choice(history)
                    if rng.random() < 0.3:
                        target = _shared_products(
                            store, tuple(rng.sample(range(3), 3)))
                    _, ch, rej = _checked_optimize(target)
                    changed += ch
                    rejected += rej
        assert rejected > 0 and changed > rejected

    def test_warm_call_does_not_walk_the_untouched_factor(self, monkeypatch):
        # a 200-level factor F that no action touches sits next to a bench
        # script's variables; once the table is warm, an optimizer call
        # reads the children of fewer nodes than F holds
        store = Store()
        factor = level_chain(store, 200).root
        factor_size = sum(1 for _ in iter_nodes(factor))
        cfg = ExperimentConfig(num_vars=6, num_values=3, num_actions=20,
                               condition_arity=2)
        script = gen_experiment(cfg, 7)
        shift = {v + 200: u for v, u in script.initial.items()}
        state = Aobs(store.make_and(
            [factor, from_physical_state(store, shift,
                                         sorted(shift)).root]),
            store, tuple(range(206)))

        read = set()
        slot = Node.__dict__["children"]

        class CountedChildren:
            def __get__(self, node, owner=None):
                if node is None:
                    return self
                read.add(id(node))
                return slot.__get__(node, owner)

            def __set__(self, node, value):
                slot.__set__(node, value)

        guarded = 0
        for condition, action in _shifted_steps(script.steps, 200):
            plain = apply_action(state, condition, action).state
            warm = store.refcounts.root is not None
            read.clear()
            with monkeypatch.context() as m:
                m.setattr(Node, "children", CountedChildren())
                state = greedy_optimize(plain)
            if warm and state.root is not plain.root:
                guarded += 1
                assert len(read) < factor_size
        assert guarded > 0
