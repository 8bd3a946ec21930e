"""Action application pipeline: labeling, minimal subgraphs, isolation,
erasure, grafting, and normalization."""
import random

import pytest

from aobs.acting import (
    EXCLUDED,
    INCLUDED,
    MIXED,
    MassLeak,
    action_subgraph,
    apply_action,
    erase_action_vars,
    find_minimal_subgraphs,
    isolate,
    normalize,
)
from aobs.core import (
    AND,
    LIT,
    OR,
    Aobs,
    Node,
    OverlappingSubspaces,
    Store,
    enumerate_states,
    from_physical_state,
    from_tabular,
    iter_nodes,
    size_metric,
)
from aobs.bench import ExperimentConfig, gen_experiment
from aobs.optimize import greedy_optimize
from aobs import query
from aobs.query import MANY, condition_pass, probability
from aobs.oracle import (
    Action,
    Condition,
    tab_apply_action,
    tab_canonical,
    tab_equal,
)

from conftest import (
    assert_normal_form,
    assert_well_formed,
    enum_canonical,
    label_nodes,
    random_aobs,
    random_dag,
    total_mass,
)


def _node_enum(node):
    return tab_canonical(enumerate_states(node, merge=True))


def _random_step(rng, num_vars=4, num_values=3):
    """A random (condition, action) pair over the random_aobs universe."""
    c = Condition({
        v: rng.sample(range(num_values), rng.randint(1, 2))
        for v in rng.sample(range(num_vars), rng.randint(1, 2))
    })
    avars = tuple(sorted(rng.sample(range(num_vars), rng.randint(1, 2))))
    raw = [rng.random() + 0.1 for _ in range(rng.randint(1, 3))]
    t = sum(raw)
    a = Action(avars, tuple(
        (p / t, tuple(rng.randrange(num_values) for _ in avars)) for p in raw
    ))
    return c, a


def _cond_b1():
    return Condition({1: [1]})


class TestLabelNodes:
    def test_hand_trace(self, three_var_state):
        store = three_var_state.store
        labels = label_nodes(three_var_state.root, _cond_b1())
        assert labels[store.make_lit(1, 1).key] == INCLUDED
        assert labels[store.make_lit(1, 0).key] == EXCLUDED
        for var, value in [(0, 0), (2, 0), (2, 1)]:
            assert labels.get(store.make_lit(var, value).key,
                              INCLUDED) == INCLUDED
        ors = {n for n in iter_nodes(three_var_state.root) if n.kind == OR}
        by_omega = {next(iter(n.omega)): n for n in ors}
        assert labels[by_omega[1].key] == MIXED
        assert labels[by_omega[2].key] == INCLUDED
        assert labels[three_var_state.root.key] == MIXED

    def test_empty_condition_all_included(self, three_var_state):
        labels = label_nodes(three_var_state.root, Condition({}))
        assert set(labels.values()) == {INCLUDED}

    def test_zero_mass_root_excluded(self, three_var_state):
        labels = label_nodes(three_var_state.root, Condition({0: [1]}))
        assert labels[three_var_state.root.key] == EXCLUDED

    def test_soundness_against_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            s, _ = random_aobs(rng)
            c = Condition({
                v: rng.sample(range(3), rng.randint(1, 2))
                for v in rng.sample(range(4), rng.randint(1, 2))
            })
            labels = label_nodes(s.root, c)
            for node in iter_nodes(s.root):
                # restrict the condition to the node's own variables
                sub = Condition({
                    v: vals for v, vals in c.allowed.items() if v in node.omega
                })
                sat = [sub.satisfied_by(st) for _, st in _node_enum(node)]
                if all(sat):
                    assert labels[node.key] == INCLUDED
                elif not any(sat):
                    assert labels[node.key] == EXCLUDED
                else:
                    assert labels[node.key] == MIXED


    def test_skips_what_the_condition_cannot_see(self):
        # factoring pulls the OR over b out of the union; a condition on a
        # labels that OR included without visiting its literals
        rows = [(p * q, {0: a, 1: b, 2: a})
                for a, p in ((0, 0.3), (1, 0.7)) for b, q in ((0, 0.4), (1, 0.6))]
        s = greedy_optimize(normalize(from_tabular(Store(), rows, (0, 1, 2))))
        c = Condition({0: [0]})
        labels = label_nodes(s.root, c)
        skipped = [n for n in iter_nodes(s.root) if n.key not in labels]
        assert {(n.var, n.value) for n in skipped} == {(1, 0), (1, 1)}
        for n in skipped:
            assert labels.get(n.key, INCLUDED) == INCLUDED

    def test_skipped_nodes_avoid_the_condition(self):
        rng = random.Random(5)
        pruned = 0
        for _ in range(40):
            s, _ = random_aobs(rng, num_vars=5, num_values=2, max_rows=10)
            s = greedy_optimize(normalize(s))
            c = Condition({rng.randrange(5): [0]})
            labels = label_nodes(s.root, c)
            skipped = [n for n in iter_nodes(s.root) if n.key not in labels]
            for n in skipped:
                assert c.variables.isdisjoint(n.omega)
                assert labels.get(n.key, INCLUDED) == INCLUDED
            pruned += bool(skipped)
        assert pruned >= 10


def _pass(store, n, c):
    """The condition pass of ``c`` over the state whose root is ``n``."""
    return condition_pass(Aobs(n, store, tuple(sorted(n.omega))), c)


class TestFindMinimalSubgraphs:
    # each search reads the condition pass, as apply_action does, and is
    # checked against the complete reference labelling

    def test_selected_literal_is_minimal(self, three_var_state):
        # the included literal itself covers the variable union, so the
        # enclosing OR is not minimal; the pass names the OR as the one
        # child of the root that meets the condition
        s, c = three_var_state, _cond_b1()
        ps = condition_pass(s, c)
        or_b = s.root.children[1]
        assert ps[3] == {s.root.key: or_b}
        got = find_minimal_subgraphs(s.root, frozenset({1}), c.variables, ps)
        assert got == [s.store.make_lit(1, 1)]

    def test_full_union_needs_root(self, three_var_state):
        s, c = three_var_state, Condition({})
        got = find_minimal_subgraphs(s.root, frozenset({0, 1, 2}),
                                     c.variables, condition_pass(s, c))
        assert got == [s.root]

    def test_empty_condition_reaches_below_the_root(self, three_var_state):
        # the pass labels only the root and records nothing; the nodes
        # below it still qualify, so every AND's children are tested
        s, c = three_var_state, Condition({})
        ps = condition_pass(s, c)
        assert ps[0] == {s.root.key: INCLUDED} and ps[3] == {}
        for need in ({1}, {1, 2}):
            got = find_minimal_subgraphs(s.root, frozenset(need),
                                         c.variables, ps)
            want = [(1, 0), (1, 1)] if need == {1} else [(None, None)]
            assert sorted((n.var, n.value) for n in got) == want

    def test_settled_product_is_minimal(self, store):
        # AND(a=0, OR over b, OR over c) under {a: [0]}: the pass settles
        # it as included and records nothing, so under a two-variable need
        # it is minimal without a test of its children; under a need of
        # the condition's one variable, its literal is minimal
        lit = store.make_lit
        root = store.make_and([
            lit(0, 0),
            store.make_or([(0.4, lit(1, 0)), (0.6, lit(1, 1))]),
            store.make_or([(0.7, lit(2, 0)), (0.3, lit(2, 1))])])
        s, c = Aobs(root, store, (0, 1, 2)), Condition({0: [0]})
        ps = condition_pass(s, c)
        assert ps[1] == INCLUDED and ps[3] == {}
        assert find_minimal_subgraphs(root, frozenset({0, 1}), c.variables,
                                      ps) == [root]
        assert find_minimal_subgraphs(root, frozenset({0}), c.variables,
                                      ps) == [lit(0, 0)]

    def test_two_children_meet_a_two_variable_condition(
            self, three_var_state):
        # under {b: [1], c: [0]} two children of the root meet the
        # condition, so the pass records MANY and the root is minimal
        s, c = three_var_state, Condition({1: [1], 2: [0]})
        ps = condition_pass(s, c)
        assert ps[1] == MIXED and ps[3] == {s.root.key: MANY}
        got = find_minimal_subgraphs(s.root, frozenset({1, 2}), c.variables,
                                     ps)
        assert got == [s.root]
        split = isolate(s.root, ps, s.store, {})
        _assert_pure_split(s.store, split, c)
        assert tab_equal(_node_enum(_split_node(s.store, split)),
                         _node_enum(s.root))

    def test_excluded_root_yields_nothing(self, three_var_state):
        s, c = three_var_state, Condition({0: [1]})
        assert find_minimal_subgraphs(s.root, frozenset({0, 1}), c.variables,
                                      condition_pass(s, c)) == []

    def test_existence_whenever_root_selectable(self):
        rng = random.Random(23)
        for _ in range(40):
            s, _ = random_aobs(rng)
            c = Condition({0: rng.sample(range(3), 2)})
            labels = label_nodes(s.root, c)
            avars = frozenset(rng.sample(range(4), rng.randint(1, 2)))
            need = avars | c.variables
            found = find_minimal_subgraphs(s.root, need, c.variables,
                                           condition_pass(s, c))
            if labels[s.root.key] in (INCLUDED, MIXED):
                assert found
                for n in found:
                    assert labels[n.key] in (INCLUDED, MIXED)
                    assert need <= n.omega
                    assert not any(need <= ch.omega and labels.get(
                        ch.key, INCLUDED) != EXCLUDED for ch in n.children)

    def test_mixed_minimal_subgraphs_have_only_or_parents(self):
        # a mixed OR has a child that qualifies, so a mixed minimal
        # subgraph is an AND, and the store splices an AND into its parent
        # AND: apply_action hands such a subgraph's union to its parents,
        # all ORs, as edges
        rng = random.Random(29)
        mixed = 0
        for _ in range(60):
            s = random_dag(rng, 6)
            cvars = rng.sample(range(6), rng.randint(1, 3))
            c = Condition({v: [rng.randrange(2)] for v in cvars})
            avars = frozenset(rng.sample(range(6), rng.randint(1, 3)))
            labels = label_nodes(s.root, c)
            if labels[s.root.key] == EXCLUDED:
                continue
            ps = condition_pass(s, c)
            for n in find_minimal_subgraphs(s.root, avars | c.variables,
                                            c.variables, ps):
                if labels[n.key] != MIXED:
                    continue
                mixed += 1
                assert n.kind == AND
                assert all(p.kind == OR for p in iter_nodes(s.root)
                           if any(ch is n for ch in p.children))
        assert mixed >= 20


def _product(store, factors):
    """A split's product interned."""
    return store.make_and(factors)


def _split_node(store, split):
    """The OR a split stands for, its products interned."""
    inc, exc = split
    return store.make_or([(w, _product(store, f)) for w, f in inc] + exc)


def _assert_pure_split(store, split, c):
    """Every product of the split is included and every edge excluded."""
    inc, exc = split
    for _, factors in inc:
        node = _product(store, factors)
        assert label_nodes(node, c)[node.key] == INCLUDED
    for _, g in exc:
        assert label_nodes(g, c)[g.key] == EXCLUDED


class TestIsolate:
    def test_mixed_and_becomes_or(self, store):
        c = _cond_b1()
        n = store.make_and([
            store.make_lit(0, 0),
            store.make_or([(0.4, store.make_lit(1, 0)),
                           (0.6, store.make_lit(1, 1))]),
        ])
        inc, exc = split = isolate(n, _pass(store, n, c), store, {})
        assert len(inc) == 1 and len(exc) == 1
        assert abs(inc[0][0] - 0.6) < 1e-12
        assert abs(exc[0][0] - 0.4) < 1e-12
        _assert_pure_split(store, split, c)
        assert tab_equal(_node_enum(_split_node(store, split)), _node_enum(n))

    def test_split_reuses_later_mixed_children(self, store):
        # a mixed AND of two mixed ORs, each over a mixed AND of its own, so
        # a union rebuilt from a child's split is not the child's node; the
        # first excluded term keeps the second mixed child itself
        lit = store.make_lit

        def mixed_or(u, v):
            split = store.make_or([(0.5, lit(v, 0)), (0.5, lit(v, 1))])
            return store.make_or([(0.5, store.make_and([lit(u, 0), split])),
                                  (0.5, store.make_and([lit(u, 1), lit(v, 0)]))])

        n = store.make_and([mixed_or(0, 1), mixed_or(2, 3)])
        c = Condition({1: [0], 3: [0]})
        ps = _pass(store, n, c)
        _, second = [ch for ch in n.children if ps[0][ch.key] == MIXED]
        _, exc = split = isolate(n, ps, store, {})
        assert any(ch is second for ch in exc[0][1].children)
        _assert_pure_split(store, split, c)
        assert tab_equal(_node_enum(_split_node(store, split)), _node_enum(n))

    def test_second_call_interns_nothing(self, store, monkeypatch):
        # the minimal subgraphs of one action share one memo: a second
        # call on the same mixed AND finds its mixed children's halves in
        # it, so it builds no union, and returns an equal split
        lit = store.make_lit
        n = store.make_and([store.make_or([
            (0.5, store.make_and([lit(u, 0), store.make_or(
                [(0.5, lit(v, 0)), (0.5, lit(v, 1))])])),
            (0.5, store.make_and([lit(u, 1), lit(v, 0)]))])
            for u, v in ((0, 1), (2, 3))])
        ps = _pass(store, n, Condition({1: [0], 3: [0]}))
        memo = {}
        size = len(store)
        first = isolate(n, ps, store, memo)
        assert len(store) > size  # the included halves of the mixed ORs
        unions = []
        make_or = Store.make_or
        monkeypatch.setattr(Store, "make_or", lambda self, edges: (
            unions.append(edges), make_or(self, edges))[1])
        size = len(store)
        assert isolate(n, ps, store, memo) == first
        assert len(store) == size and unions == []

    def test_soundness_on_random_graphs(self):
        # isolate splits the mixed minimal subgraphs apply_action finds;
        # unconditional acts on two variables make products of unions
        rng = random.Random(29)
        checked = 0
        while checked < 30:
            s, _ = random_aobs(rng, max_rows=3)
            for v in rng.sample(range(4), 2):
                spread = Action((v,), tuple(
                    (0.5, (u,)) for u in rng.sample(range(3), 2)))
                s = apply_action(s, Condition({}), spread).state
            c = Condition({
                v: rng.sample(range(3), rng.randint(1, 2))
                for v in rng.sample(range(4), 2)
            })
            need = c.variables | {rng.randrange(4)}
            ps = condition_pass(s, c)
            if ps[1] == EXCLUDED:
                continue
            splits = {}  # one memo for the minimal subgraphs, as an action
            for n in find_minimal_subgraphs(s.root, need, c.variables, ps):
                if ps[0].get(n.key) != MIXED or checked == 30:
                    continue
                split = isolate(n, ps, s.store, splits)
                assert split[0] and split[1]
                _assert_pure_split(s.store, split, c)
                assert tab_equal(_node_enum(_split_node(s.store, split)),
                                 _node_enum(n))
                checked += 1

    def test_small_excluded_half_has_unit_weight(self):
        # the excluded half of a mixed AND child is an OR that no later
        # pass rescales; dividing it by total - included cancels when it is
        # small, and its weights kept a relative error of about 1e-10
        rng = random.Random(37)
        c = Condition({0: [0]})
        for _ in range(50):
            store = Store()
            tail = [rng.random() * 1e-6 for _ in range(3)]
            a = store.make_or([(1.0 - sum(tail), store.make_lit(0, 0))] + [
                (w, store.make_lit(0, u)) for u, w in enumerate(tail, 1)])
            n = store.make_and([a, store.make_lit(1, 0)])
            _, exc = isolate(n, _pass(store, n, c), store, {})
            for _, term in exc:
                half = next(g for g in term.children if g.kind == OR)
                assert abs(sum(half.weights) - 1.0) <= 1e-15


class TestEraseActionVars:
    def test_partial(self, store):
        n = store.make_and([store.make_lit(0, 0), store.make_lit(1, 1)])
        got = erase_action_vars(n, frozenset({1}), store, {})
        assert got is store.make_lit(0, 0)

    def test_vanishing_or_folds_into_parent(self, store):
        n = store.make_and([
            store.make_lit(0, 0),
            store.make_or([(0.5, store.make_lit(1, 0)),
                           (0.5, store.make_lit(1, 1))]),
        ])
        got = erase_action_vars(n, frozenset({1}), store, {})
        assert got is store.make_lit(0, 0)

    def test_drops_action_only_factors_without_the_empty_and(self, store):
        # a factor over action variables only is left out of its parent and
        # nothing is interned in its place
        lit = store.make_lit
        b = store.make_or([(0.5, lit(1, 0)), (0.5, lit(1, 1))])
        n = store.make_and([lit(0, 0), b, lit(2, 0)])
        size = len(store)
        got = erase_action_vars(n, frozenset({1, 2}), store, {})
        assert got is lit(0, 0)
        assert len(store) == size
        assert not any(x.kind == AND and not x.children
                       for x in store._nodes.values())

    def test_disjoint_subgraph_returned_as_is(self, three_var_state):
        root = three_var_state.root
        or_b = next(ch for ch in root.children if ch.omega == {1})
        store = three_var_state.store
        assert erase_action_vars(or_b, frozenset({0, 2}), store, {}) is or_b
        got = erase_action_vars(root, frozenset({2}), store, {})
        assert any(ch is or_b for ch in got.children)


class TestActionSubgraph:
    def test_two_outcomes(self, store):
        a = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
        node = action_subgraph(store, a)
        assert len(store) == 6  # three literals, two outcome ANDs, the OR
        assert node.kind == OR and len(node.children) == 2
        assert all(ch.kind == AND for ch in node.children)
        assert tab_equal(_node_enum(node), [
            (0.3, ((1, 2), (2, 0))), (0.7, ((1, 2), (2, 1)))
        ])

    def test_single_outcome_collapses(self, store):
        a = Action((1,), ((1.0, (2,)),))
        node = action_subgraph(store, a)
        assert node.kind == LIT and node.var == 1 and node.value == 2


class TestNormalize:
    def test_idempotent(self, three_var_state):
        assert normalize(three_var_state).root is three_var_state.root

    def test_nested_and_spliced(self, store):
        inner = store.make_and([store.make_lit(0, 0), store.make_lit(1, 0)])
        root = store.make_and([inner, store.make_lit(2, 0)])
        got = normalize(Aobs(root, store, (0, 1, 2)))
        assert got.root.kind == AND and len(got.root.children) == 3
        assert all(ch.kind == LIT for ch in got.root.children)

    def test_or_in_or_spliced_with_weight_products(self, store):
        inner = store.make_or([(0.35, store.make_lit(0, 0)),
                               (0.35, store.make_lit(0, 1))])
        root = store.make_or([(1.0, inner), (0.3, store.make_lit(0, 2))])
        got = normalize(Aobs(root, store, (0,)))
        assert all(ch.kind == LIT for ch in got.root.children)
        weights = {ch.value: w for w, ch in got.root.edges()}
        assert abs(weights[0] - 0.35) < 1e-12
        assert abs(weights[2] - 0.3) < 1e-12
        assert tab_equal(enum_canonical(got), _node_enum(root))

    def test_undersized_or_mass_pushed_into_parent_edge(self, store):
        # an OR with mass 0.7 under an AND: the deficit climbs to the
        # nearest ancestor OR edge, the OR itself is rescaled to mass 1
        inner = store.make_or([(0.35, store.make_lit(1, 0)),
                               (0.35, store.make_lit(1, 1))])
        heavy = store.make_and([store.make_lit(0, 0), inner])
        other = store.make_and([store.make_lit(0, 1), store.make_lit(1, 0)])
        root = store.make_or([(1.0, heavy), (0.3, other)])
        got = normalize(Aobs(root, store, (0, 1)))
        by_kind = {}
        for w, ch in got.root.edges():
            inner_or = [g for g in ch.children if g.kind == OR]
            by_kind["with_or" if inner_or else "plain"] = (w, inner_or)
        w_heavy, inner_ors = by_kind["with_or"]
        assert abs(w_heavy - 0.7) < 1e-12
        assert abs(by_kind["plain"][0] - 0.3) < 1e-12
        assert all(abs(w - 0.5) < 1e-12 for w in inner_ors[0].weights)
        assert tab_equal(enum_canonical(got), _node_enum(root))

    def test_warm_memo_matches_fresh_store(self):
        rng = random.Random(17)
        for _ in range(30):
            s, _ = random_aobs(rng, max_rows=8)
            s = normalize(s)
            for _ in range(3):
                s = apply_action(s, *_random_step(rng)).state
            # the optimizer's factored nodes are new to normalize
            s = greedy_optimize(s)
            warm = normalize(s)
            fresh = Store()
            cold = normalize(Aobs(fresh.reintern(s.root), fresh, s.universe))
            assert warm.root.digest == cold.root.digest

    def test_mass_leak_detected(self, store):
        root = store.make_or([(0.5, store.make_lit(0, 0)),
                              (0.3, store.make_lit(0, 1))])
        with pytest.raises(MassLeak):
            normalize(Aobs(root, store, (0,)))


class TestApplyAction:
    def test_unconditional_overwrite(self, two_row_state):
        a = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
        res = apply_action(two_row_state, Condition({}), a)
        assert abs(res.selected_mass - 1.0) < 1e-12
        assert tab_equal(enum_canonical(res.state), [
            (0.3, ((0, 0), (1, 2), (2, 0))),
            (0.7, ((0, 0), (1, 2), (2, 1))),
        ])
        assert_normal_form(res.state)

    def test_zero_mass_condition_is_noop(self, three_var_state):
        a = Action((1,), ((1.0, (0,)),))
        res = apply_action(three_var_state, Condition({0: [1]}), a)
        assert res.state.root is three_var_state.root
        assert res.selected_mass == 0.0

    def test_conditional_on_factored_state(self, two_var_left):
        res = apply_action(
            two_var_left, _cond_b1(), Action((1,), ((1.0, (2,)),))
        )
        assert abs(res.selected_mass - 0.8) < 1e-12
        assert tab_equal(enum_canonical(res.state), [
            (0.2, ((0, 0), (1, 0))),
            (0.3, ((0, 0), (1, 2))),
            (0.5, ((0, 1), (1, 2))),
        ])
        assert_normal_form(res.state)

    def test_shared_minimal_subgraph(self, store):
        shared = store.make_or([
            (0.5, store.make_and([store.make_lit(1, 0), store.make_lit(2, 0)])),
            (0.5, store.make_and([store.make_lit(1, 1), store.make_lit(2, 1)])),
        ])
        root = store.make_or([
            (0.5, store.make_and([store.make_lit(0, 0), shared])),
            (0.5, store.make_and([store.make_lit(0, 1), shared])),
        ])
        s = Aobs(root, store, (0, 1, 2))
        c = Condition({1: [1]})
        a = Action((2,), ((0.5, (5,)), (0.5, (6,))))
        res = apply_action(s, c, a)
        expected = tab_apply_action(enum_canonical(s), c, a)
        assert tab_equal(enum_canonical(res.state), expected)
        assert_normal_form(res.state)

    def test_random_against_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            s, _ = random_aobs(rng)
            s = normalize(s)
            tab = enum_canonical(s)
            for _ in range(rng.randint(1, 4)):
                c, a = _random_step(rng)
                s = apply_action(s, c, a).state
                tab = tab_apply_action(tab, c, a)
                assert tab_equal(enum_canonical(s), tab)
                assert abs(total_mass(s) - 1.0) < 1e-9
                assert_normal_form(s)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_empty_condition_against_oracle(self, optimize):
        # the root avoids the empty condition's variables, so the labelling
        # pass answers it alone and every other node reads included
        rng = random.Random(47)
        c = Condition({})
        for _ in range(40):
            s, _ = random_aobs(rng, max_rows=8)
            s = normalize(s)
            if optimize:
                s = greedy_optimize(s)
            _, a = _random_step(rng)
            res = apply_action(s, c, a)
            assert res.selected_mass == pytest.approx(1.0, abs=1e-12)
            expected = tab_apply_action(enum_canonical(s), c, a)
            assert tab_equal(enum_canonical(res.state), expected)
            assert_normal_form(res.state)

    def test_optimized_state_against_oracle(self):
        rng = random.Random(43)
        fired = 0
        for _ in range(40):
            s, _ = random_aobs(rng, max_rows=8)
            s = greedy_optimize(normalize(s))
            c, a = _random_step(rng)
            res = apply_action(s, c, a)
            expected = tab_apply_action(enum_canonical(s), c, a)
            assert tab_equal(enum_canonical(res.state), expected)
            if res.selected_mass > 0:  # a no-op returns its input as is
                assert_normal_form(res.state)
                fired += 1
        assert fired >= 20

    def test_untouched_root_child_kept(self, three_var_state):
        root = three_var_state.root
        or_c = next(ch for ch in root.children if ch.omega == {2})
        res = apply_action(three_var_state, Condition({1: [1]}),
                           Action((1,), ((1.0, (0,)),)))
        assert res.state.root.kind == AND
        assert any(ch is or_c for ch in res.state.root.children)

    def test_unnormalized_input_raises_mass_leak(self, store):
        # apply_action expects unit-weight ORs, and normalize brings them
        # there; here the root has mass 1, but the OR over b has mass 0.8,
        # which erasing b would drop
        b = store.make_or([(0.5, store.make_lit(1, 0)),
                           (0.3, store.make_lit(1, 1))])
        root = store.make_or([
            (0.5, store.make_and([store.make_lit(0, 0), b])),
            (0.6, store.make_and([store.make_lit(0, 1), store.make_lit(1, 0)])),
        ])
        s = Aobs(root, store, (0, 1))
        c, a = Condition({0: [0]}), Action((1,), ((1.0, (1,)),))
        with pytest.raises(MassLeak):
            apply_action(s, c, a)
        res = apply_action(normalize(s), c, a)
        assert tab_equal(enum_canonical(res.state),
                         tab_apply_action(enum_canonical(normalize(s)), c, a))
        assert_normal_form(res.state)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_long_run_keeps_unit_weights(self, optimize):
        # no pass rescales an action's result, so rounding must not build
        # up: 3,000 one-variable actions on 6 binary variables
        cfg = ExperimentConfig(num_vars=6, num_values=2, num_actions=3000,
                               effects_per_action=2, assigns_per_effect=1,
                               condition_arity=1, oracle_cap=1)
        script = gen_experiment(cfg, 3)
        s = from_physical_state(Store(), script.initial, tuple(range(6)))
        fired = 0
        for c, a in script.steps:
            res = apply_action(s, c, a)
            fired += res.selected_mass > 0
            s = greedy_optimize(res.state) if optimize else res.state
            assert abs(s.root.mass - 1.0) <= 1e-12
            for node in iter_nodes(s.root):
                if node.kind == OR:
                    assert abs(sum(node.weights) - 1.0) <= 1e-9
        assert fired > 2000

    @pytest.mark.parametrize("shape", [
        "included", "telescoped", "two-minimal-unions", "half-of-two-products",
        "single-outcome", "product-inside-action"])
    def test_interns_only_what_the_result_keeps(self, store, shape,
                                                monkeypatch):
        # no node is built only to be spliced or erased by its parent;
        # three shapes still build one and leave it to the sweep: the lone
        # outcome's AND that each graft splices, the erased half's OR and
        # its products, and the outcome union spliced into the minimal
        # subgraph's union
        lit = store.make_lit
        dropped = []
        sweep = store.sweep

        def counted(root, mark):
            before = len(store)
            sweep(root, mark)
            dropped.append(before - len(store))

        monkeypatch.setattr(store, "sweep", counted)

        def coin(v, p):
            return store.make_or([(p, lit(v, 0)), (1.0 - p, lit(v, 1))])

        c = Condition({0: [0]})
        a = Action((1,), ((0.7, (0,)), (0.3, (1,))))
        if shape == "included":
            # the minimal subgraph is an included AND
            root = store.make_and([lit(0, 0), lit(1, 0), lit(2, 0)])
            a = Action((1,), ((1.0, (1,)),))
        elif shape == "telescoped":
            # a mixed AND of two mixed ORs (k = 2)
            root = store.make_and([coin(0, 0.3), coin(1, 0.4), lit(2, 0)])
            c = Condition({0: [0], 1: [0]})
            a = Action((2,), ((0.5, (1,)), (0.5, (2,))))
        elif shape == "two-minimal-unions":
            # an OR over two mixed ANDs that each cover the condition and
            # the action: each one's rebuilt union is spliced into the root
            root = store.make_or([
                (0.5, store.make_and([coin(0, 0.3), lit(1, 0), lit(2, 0)])),
                (0.5, store.make_and([coin(0, 0.6), lit(1, 1), lit(2, 1)]))])
        elif shape == "half-of-two-products":
            # the mixed child's included half has two products of two
            # factors, and the action erases both
            half = store.make_or([
                (0.5, store.make_and([coin(0, 0.3), lit(1, 0)])),
                (0.5, store.make_and([coin(0, 0.6), lit(1, 1)]))])
            root = store.make_and([half, lit(2, 0)])
            a = Action((1, 2), ((0.5, (1, 1)), (0.5, (0, 2))))
        elif shape == "single-outcome":
            # the outcome AND is spliced into each graft
            root = store.make_and([coin(0, 0.3), lit(1, 0), lit(2, 0)])
            a = Action((1, 2), ((1.0, (1, 1)),))
        else:
            # the selected product lies inside the action's variables, so
            # the outcome union is spliced into the minimal subgraph's union
            root = store.make_or([
                (0.4, store.make_and([lit(0, 0), lit(1, 0), lit(2, 0)])),
                (0.6, store.make_and([lit(0, 1), lit(1, 1), lit(2, 0)]))])
            a = Action((0, 1, 2), ((0.5, (1, 0, 0)), (0.5, (0, 1, 1))))
        s = Aobs(root, store, (0, 1, 2))
        before = {n.key for n in store._nodes.values()}
        res = apply_action(s, c, a)
        kept = {n.key for n in iter_nodes(res.state.root)}
        dead = {n.key for n in store._nodes.values()} - before - kept
        assert not dead
        if shape in ("included", "telescoped", "two-minimal-unions"):
            assert dropped == [0]
        assert tab_equal(enum_canonical(res.state),
                         tab_apply_action(enum_canonical(s), c, a))

    def test_covered_factors_are_dropped_not_erased(self, monkeypatch):
        # a factor over action variables only would erase to the empty AND;
        # a graft drops it, and erases only factors with other variables
        covered = []

        def spy(n, avars, store, memo):
            covered.append(n.omega <= avars)
            return erase_action_vars(n, avars, store, memo)

        monkeypatch.setattr("aobs.acting.erase_action_vars", spy)
        rng = random.Random(61)
        for _ in range(40):
            s, _ = random_aobs(rng)
            s = normalize(s)
            tab = enum_canonical(s)
            for _ in range(3):
                c, a = _random_step(rng)
                s = apply_action(s, c, a).state
                tab = tab_apply_action(tab, c, a)
                assert tab_equal(enum_canonical(s), tab)
        assert covered and not any(covered)

    @pytest.mark.parametrize("shape", ["root", "below-an-or"])
    def test_included_minimal_subgraph_is_grafted_whole(
            self, monkeypatch, store, shape):
        # the pass settles AND(a=0, b, c) as included, so its action is one
        # graft of the whole product, with no split
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return isolate(*args, **kwargs)

        monkeypatch.setattr("aobs.acting.isolate", spy)
        lit = store.make_lit
        or_c = store.make_or([(0.3, lit(2, 0)), (0.7, lit(2, 1))])
        root = store.make_and([lit(0, 0), lit(1, 1), or_c])
        if shape == "below-an-or":
            other = store.make_and([lit(0, 1), lit(1, 0), or_c])
            root = store.make_or([(0.4, root), (0.6, other)])
        s = Aobs(root, store, (0, 1, 2))
        c = Condition({0: [0]})
        a = Action((1, 2), ((0.5, (0, 1)), (0.5, (2, 0))))
        res = apply_action(s, c, a)
        assert not calls
        assert res.selected_mass == (1.0 if shape == "root" else 0.4)
        assert tab_equal(enum_canonical(res.state),
                         tab_apply_action(enum_canonical(s), c, a))
        assert_normal_form(res.state)
        assert_well_formed(res.state.root)

    def test_product_gains_no_empty_and(self, store):
        lit = store.make_lit
        s = Aobs(store.make_and([lit(0, 0), lit(1, 0), lit(2, 0)]), store,
                 (0, 1, 2))
        res = apply_action(s, Condition({0: [0]}),
                           Action((1,), ((0.5, (1,)), (0.5, (2,)))))
        assert not any(n.kind == AND and not n.children
                       for n in store._nodes.values())
        assert tab_equal(enum_canonical(res.state), [
            (0.5, ((0, 0), (1, 1), (2, 0))), (0.5, ((0, 0), (1, 2), (2, 0)))])

    @pytest.mark.parametrize("shape", ["one-variable", "lit-under-or"])
    def test_action_without_variables_keeps_the_state(self, store, shape):
        # an action on no variables grafts nothing onto each product, so
        # the store hands every product back whole, not as a one-child AND
        lit = store.make_lit
        if shape == "one-variable":
            s = from_tabular(store, [(0.5, {0: 0}), (0.5, {0: 1})], (0,))
            on_or, size = {0: [1]}, 7
        else:
            s = Aobs(store.make_and([lit(0, 0), store.make_or(
                [(0.5, lit(1, 0)), (0.5, lit(1, 1))])]), store, (0, 1))
            on_or, size = {1: [1]}, 12
        assert size_metric(s) == size
        noop = Action((), ((1.0, ()),))
        for c in (Condition({}), Condition(on_or)):
            res = apply_action(s, c, noop)
            assert res.state.root is s.root
            assert size_metric(res.state) == size
            assert_normal_form(res.state)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_telescoped_split_against_oracle(self, optimize):
        # unconditional one-variable actions spread three variables over
        # all their values, so a condition on two or three of them meets
        # mixed ANDs with several mixed children: _split_and's telescoped
        # terms, which no arity-1 benchmark step reaches
        rng = random.Random(53)
        telescoped = 0
        for _ in range(60):
            s, _ = random_aobs(rng, max_rows=3)
            s = normalize(s)
            for v in rng.sample(range(4), 3):
                w = [rng.random() + 0.1 for _ in range(3)]
                spread = Action((v,), tuple((p / sum(w), (u,))
                                            for u, p in enumerate(w)))
                s = apply_action(s, Condition({}), spread).state
            if optimize:
                s = greedy_optimize(s)
            c = Condition({v: rng.sample(range(3), rng.randint(1, 2))
                           for v in rng.sample(range(4), rng.randint(2, 3))})
            _, a = _random_step(rng)
            labels = label_nodes(s.root, c)
            ps = condition_pass(s, c)
            stack = ([] if labels[s.root.key] == EXCLUDED else
                     find_minimal_subgraphs(s.root, a.variables | c.variables,
                                            c.variables, ps))
            while stack:
                n = stack.pop()
                mixed = [ch for ch in n.children if labels[ch.key] == MIXED]
                if n.kind == AND and len(mixed) >= 2:
                    telescoped += 1
                    break
                stack.extend(mixed)
            res = apply_action(s, c, a)
            expected = tab_apply_action(enum_canonical(s), c, a)
            assert tab_equal(enum_canonical(res.state), expected)
            if res.selected_mass > 0:
                assert_normal_form(res.state)
        assert telescoped >= 10

    def test_shared_union_and_factor_are_split_and_erased_once(
            self, store, monkeypatch):
        # three products share a mixed union over b and a factor over
        # (c, d) that the action on c erases: one act builds the union's
        # two halves and erases the factor once, not once per product
        lit = store.make_lit
        union = store.make_or([(w, lit(1, u))
                               for u, w in enumerate((0.1, 0.2, 0.3, 0.4))])
        factor = store.make_or([
            (0.3, store.make_and([lit(2, 0), lit(3, 0)])),
            (0.7, store.make_and([lit(2, 1), lit(3, 1)]))])
        root = store.make_or([
            (w, store.make_and([lit(0, u), union, factor]))
            for u, w in enumerate((0.2, 0.3, 0.5))])
        s = Aobs(root, store, (0, 1, 2, 3))
        c = Condition({1: [0, 1]})
        a = Action((2,), ((0.5, (2,)), (0.5, (3,))))
        erased, halves = [], []

        def spy(n, avars, store, memo):
            erased.append(n)
            return erase_action_vars(n, avars, store, memo)

        make_or = Store.make_or

        def count(self, edges):
            edges = list(edges)
            if all(g.omega == union.omega for _, g in edges):
                halves.append(edges)
            return make_or(self, edges)

        monkeypatch.setattr("aobs.acting.erase_action_vars", spy)
        monkeypatch.setattr(Store, "make_or", count)
        res = apply_action(s, c, a)
        assert erased == [factor]
        assert len(halves) == 2  # the included half and the excluded half
        assert tab_equal(enum_canonical(res.state),
                         tab_apply_action(enum_canonical(s), c, a))

    def test_act_after_a_read_reuses_its_pass_record(
            self, three_var_state, monkeypatch):
        # the act finds the read's pass in the store: the minimal search
        # and the split read the record the read made, and no pass runs
        s, c = three_var_state, _cond_b1()
        runs = []
        run = query._pass
        monkeypatch.setattr(query, "_pass", lambda root, allowed: (
            runs.append(root), run(root, allowed))[1])
        p = probability(s, c)
        ps = s.store.last_pass[2]
        assert runs == [s.root]
        assert ps[3] == {s.root.key: s.root.children[1]}
        got = []
        monkeypatch.setattr(
            "aobs.acting.find_minimal_subgraphs", lambda *args: (
                got.append(args[3]), find_minimal_subgraphs(*args))[1])
        monkeypatch.setattr("aobs.acting.isolate", lambda *args: (
            got.append(args[1]), isolate(*args))[1])
        a = Action((2,), ((0.5, (0,)), (0.5, (1,))))
        res = apply_action(s, c, a)
        assert runs == [s.root] and len(got) == 2
        assert all(g is ps for g in got)
        assert res.selected_mass == p
        assert tab_equal(enum_canonical(res.state),
                         tab_apply_action(enum_canonical(s), c, a))

    def test_selected_mass_matches_oracle(self, two_var_right):
        res = apply_action(
            two_var_right, _cond_b1(), Action((0,), ((1.0, (0,)),))
        )
        assert abs(res.selected_mass - 0.8) < 1e-12


def _wide_states(store):
    """A wide AND and an OR of two wide ANDs over variables 0-5: variable
    0 is mixed under a condition on it, and variables 1 and 2 share an OR
    child, so an action on variable 1 erases a factor it does not cover."""
    lit = store.make_lit

    def coin(v, p):
        return store.make_or([(p, lit(v, 0)), (1.0 - p, lit(v, 1))])

    def pair(p):  # an OR over variables 1 and 2
        return store.make_or([(p, store.make_and([lit(1, 0), lit(2, 1)])),
                              (1.0 - p, store.make_and([lit(1, 1), lit(2, 0)]))])

    universe = tuple(range(6))
    wide = store.make_and([coin(0, 0.3), pair(0.4), lit(3, 0), coin(4, 0.8),
                           lit(5, 1)])
    other = store.make_and([coin(0, 0.6), pair(0.9), lit(3, 1), lit(4, 0),
                            coin(5, 0.5)])
    return {"wide-and": Aobs(wide, store, universe),
            "or-root": Aobs(store.make_or([(0.25, wide), (0.75, other)]),
                            store, universe)}


class TestActionShapes:
    # action_subgraph is an OR of the outcomes, or the one outcome's AND
    # or literal when they agree, and a graft must keep the outcomes in
    # each: a graft that kept only a union dropped the action whenever all
    # outcomes agreed
    SHAPES = {
        "one-outcome": (Action((1, 2), ((1.0, (1, 0)),)), AND),
        "distinct-outcomes": (Action((1, 2), ((0.6, (1, 0)), (0.4, (0, 1)))),
                              OR),
        "equal-outcomes-one-var": (Action((1,), ((0.5, (1,)), (0.5, (1,)))),
                                   LIT),
        "equal-outcomes-two-vars": (
            Action((1, 2), ((0.3, (1, 1)), (0.7, (1, 1)))), AND),
    }

    @pytest.mark.parametrize("state", ["wide-and", "or-root"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_against_oracle(self, store, state, shape):
        a, kind = self.SHAPES[shape]
        act = action_subgraph(store, a)
        assert type(act) is Node and act.kind == kind
        s = _wide_states(store)[state]
        for c in (Condition({0: [0]}), Condition({})):
            res = apply_action(s, c, a)
            assert res.selected_mass > 0
            assert tab_equal(enum_canonical(res.state),
                             tab_apply_action(enum_canonical(s), c, a))
            assert_well_formed(res.state.root)


class TestLocalCheck:
    # a product is built over the minimal subgraph's variables and checked
    # only where it changed, so an erased factor over other variables than
    # its source's minus the action's must raise, not build a graph; an
    # action that raises interns nothing
    @pytest.mark.parametrize("wrong", ["unchanged", "emptied", "elsewhere"])
    def test_wrong_erasure_raises(self, monkeypatch, store, wrong):
        def bad(n, avars, store, memo=None):
            if wrong == "unchanged":  # keeps the action variables
                return n
            if wrong == "emptied":  # loses the other variables too
                return store.make_and(())
            return store.make_lit(9, 0)  # another variable entirely

        monkeypatch.setattr("aobs.acting.erase_action_vars", bad)
        for s in _wide_states(store).values():
            size = len(store)
            with pytest.raises(OverlappingSubspaces):
                apply_action(s, Condition({0: [0]}),
                             Action((1,), ((0.5, (0,)), (0.5, (1,)))))
            assert len(store) == size

    def test_mass_leak_interns_nothing(self, store):
        # inner ORs without unit weight under a unit-mass root: the action
        # builds its result, finds its mass is not 1 and drops all of it
        lit = store.make_lit
        root = store.make_or([
            (0.5, store.make_and([lit(0, 0), store.make_or(
                [(0.5, lit(1, 0)), (0.8, lit(1, 1))])])),
            (0.5, store.make_and([lit(0, 1), store.make_or(
                [(0.3, lit(1, 0)), (0.4, lit(1, 1))])]))])
        s = Aobs(root, store, (0, 1))
        assert len(store) == 9
        with pytest.raises(MassLeak):
            apply_action(s, Condition({0: [0]}),
                         Action((1,), ((1.0, (0,)),)))
        assert len(store) == 9
