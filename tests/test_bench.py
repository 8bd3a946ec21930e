"""Experiment generation, metrics collection, oracle co-execution, fitting."""
import math

import pytest

import aobs.bench as bench
from aobs.bench import (
    ExperimentConfig,
    InsufficientSpread,
    MetricsRow,
    OracleMismatch,
    fit_exponent,
    gen_experiment,
    run_experiment,
    run_seeds,
    summarize_compression,
)
from aobs.oracle import Condition, tab_apply_action, tab_canonical, tab_prob


SMALL = ExperimentConfig(num_vars=5, num_values=3, num_actions=6,
                         effects_per_action=2, assigns_per_effect=2,
                         condition_arity=2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_vars=0, num_values=2, num_actions=1)
        with pytest.raises(ValueError):
            ExperimentConfig(num_vars=2, num_values=2, num_actions=1,
                             assigns_per_effect=3)
        with pytest.raises(ValueError):
            ExperimentConfig(num_vars=2, num_values=2, num_actions=1,
                             condition_arity=3)
        with pytest.raises(ValueError):
            ExperimentConfig(num_vars=4, num_values=2, num_actions=1,
                             oracle_cap=-1)


class TestGenExperiment:
    def test_deterministic(self):
        assert gen_experiment(SMALL, 7) == gen_experiment(SMALL, 7)

    def test_seeds_differ(self):
        assert gen_experiment(SMALL, 0) != gen_experiment(SMALL, 1)

    def test_shape(self):
        cfg = ExperimentConfig(num_vars=30, num_values=2, num_actions=35)
        script = gen_experiment(cfg, 0)
        assert len(script.steps) == 35
        for condition, action in script.steps:
            assert len(condition.allowed) == 3
            assert len(action.vars) == 3
            assert len(action.outcomes) == 3
            assert abs(sum(p for p, _ in action.outcomes) - 1.0) < 1e-9

    def test_condition_values_are_proper_subsets(self):
        script = gen_experiment(SMALL, 3)
        for condition, _ in script.steps:
            for values in condition.allowed.values():
                assert 0 < len(values) < SMALL.num_values

    def test_full_rewrite_boundary(self):
        cfg = ExperimentConfig(num_vars=3, num_values=2, num_actions=2,
                               assigns_per_effect=3, condition_arity=1)
        script = gen_experiment(cfg, 0)
        for _, action in script.steps:
            assert sorted(action.vars) == [0, 1, 2]


class TestRunExperiment:
    def test_zero_actions_single_row(self):
        cfg = ExperimentConfig(num_vars=5, num_values=3, num_actions=1)
        script = gen_experiment(cfg, 0)
        rows = run_experiment(
            bench.ExperimentScript(script.initial, ()), cfg, seed=0
        )
        assert len(rows) == 1
        assert rows[0].n_states == 1 and rows[0].n_naive == 5

    def test_small_run_passes_oracle(self):
        rows = run_experiment(gen_experiment(SMALL, 11), SMALL, seed=11)
        assert len(rows) == SMALL.num_actions + 1

    def test_branching_bound(self):
        rows = run_experiment(gen_experiment(SMALL, 5), SMALL, seed=5)
        for r in rows:
            assert r.n_states <= SMALL.effects_per_action ** r.step

    def test_selected_mass_is_the_conditions_mass(self):
        # None on step 0, which applies no action; then the mass the
        # step's condition selects before the action, as the oracle has it
        script = gen_experiment(SMALL, 11)
        rows = run_experiment(script, SMALL, seed=11)
        assert rows[0].selected_mass is None
        tab = tab_canonical([(1.0, tuple(sorted(script.initial.items())))])
        for r, (c, a) in zip(rows[1:], script.steps):
            assert r.selected_mass == pytest.approx(tab_prob(tab, c),
                                                    abs=1e-9)
            tab = tab_apply_action(tab, c, a)
        assert any(r.selected_mass == 0.0 for r in rows[1:])
        assert any(r.selected_mass > 0.0 for r in rows[1:])

    def test_bdd_columns(self):
        cfg = ExperimentConfig(num_vars=4, num_values=2, num_actions=3,
                               assigns_per_effect=2, condition_arity=2,
                               with_bdd=True)
        rows = run_experiment(gen_experiment(cfg, 1), cfg, seed=1)
        assert all(r.n_bdd is not None for r in rows)

    def test_fault_injection_detected(self, monkeypatch):
        """Negative control: corrupting the pipeline must trip the oracle."""
        real = bench.apply_action

        def corrupted(state, condition, action):
            # drop the condition, acting unconditionally
            return real(state, Condition({}), action)

        monkeypatch.setattr(bench, "apply_action", corrupted)
        failed = False
        for seed in range(20):
            try:
                run_experiment(gen_experiment(SMALL, seed), SMALL, seed=seed)
            except OracleMismatch:
                failed = True
                break
        assert failed, "corrupted pipeline passed the oracle"

    def test_run_seeds_concatenates(self):
        rows = run_seeds(SMALL, range(3))
        assert [r.seed for r in rows[:: SMALL.num_actions + 1]] == [0, 1, 2]


class TestFitExponent:
    @staticmethod
    def _rows(pairs):
        return [
            MetricsRow(seed=0, step=i + 1, n_states=1,
                       n_naive=x, n_aobs=y)
            for i, (x, y) in enumerate(pairs)
        ]

    def test_exact_power_law(self):
        rows = self._rows([
            (10 ** k, math.sqrt(10 ** k)) for k in range(2, 14)
        ])
        assert abs(fit_exponent(rows) - 0.5) < 1e-9

    def test_constant_is_flat(self):
        rows = self._rows([(10 ** k, 7) for k in range(1, 12)])
        assert abs(fit_exponent(rows)) < 1e-9

    def test_needs_points(self):
        with pytest.raises(InsufficientSpread):
            fit_exponent(self._rows([(10, 3)] * 5))

    def test_needs_spread(self):
        with pytest.raises(InsufficientSpread):
            fit_exponent(self._rows([(10 + k, 3) for k in range(12)]))

    def test_skips_initial_rows(self):
        rows = self._rows([(10 ** k, 10 ** k) for k in range(1, 12)])
        rows.append(MetricsRow(seed=0, step=0, n_states=1,
                               n_naive=1, n_aobs=999))
        assert abs(fit_exponent(rows) - 1.0) < 1e-9


class TestSummarizeCompression:
    def test_single_row_ratio(self):
        rows = [MetricsRow(seed=0, step=1, n_states=1, n_naive=100, n_aobs=20)]
        assert summarize_compression(rows)[1]["naive_over_aobs"] == 5.0

    def test_mean_of_ratios(self):
        rows = [
            MetricsRow(seed=0, step=1, n_states=1, n_naive=100, n_aobs=10),
            MetricsRow(seed=1, step=1, n_states=1, n_naive=100, n_aobs=50),
        ]
        # (10 + 2) / 2, not 200 / 60
        assert summarize_compression(rows)[1]["naive_over_aobs"] == 6.0

    def test_bdd_ratio_when_present(self):
        rows = [MetricsRow(seed=0, step=1, n_states=1, n_naive=100,
                           n_aobs=20, n_bdd=25)]
        assert summarize_compression(rows)[1]["naive_over_bdd"] == 4.0
