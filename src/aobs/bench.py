"""Simulated random policy exploration and size-metric collection.

Each experiment starts from a uniformly random physical state and applies a
sequence of random conditional actions.  After every step the naive size
(|V| times the state count), the DAG size metric, and optionally the one-hot
BDD size are recorded.  A tabular oracle runs alongside while the state count
stays below a cap and any divergence is fatal.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import bdd as bddlib
from .acting import apply_action
from .core import (
    AobsError,
    Store,
    count_states,
    enumerate_states,
    from_physical_state,
    size_metric,
)
from .optimize import greedy_optimize
from .oracle import (
    Action,
    Condition,
    tab_apply_action,
    tab_canonical,
    tab_equal,
)


class OracleMismatch(AobsError):
    """The DAG enumeration diverged from the tabular oracle (a real bug)."""


class InsufficientSpread(AobsError):
    """Not enough data or dynamic range to fit a power-law exponent."""


@dataclass(frozen=True)
class ExperimentConfig:
    num_vars: int
    num_values: int
    num_actions: int
    effects_per_action: int = 3
    assigns_per_effect: int = 3
    condition_arity: int = 3
    oracle_cap: int = 20000
    with_bdd: bool = False
    optimize: bool = True

    def __post_init__(self) -> None:
        if min(self.num_vars, self.num_values, self.num_actions,
               self.effects_per_action, self.assigns_per_effect,
               self.condition_arity) < 1:
            raise ValueError("all experiment parameters must be positive")
        if self.oracle_cap < 0:
            raise ValueError("oracle_cap must not be negative")
        if self.assigns_per_effect > self.num_vars:
            raise ValueError("cannot assign more variables than exist")
        if self.condition_arity > self.num_vars:
            raise ValueError("cannot constrain more variables than exist")


@dataclass(frozen=True)
class ExperimentScript:
    initial: Dict[int, int]
    steps: Tuple[Tuple[Condition, Action], ...]


@dataclass
class MetricsRow:
    seed: int
    step: int
    n_states: int
    n_naive: int
    n_aobs: int
    n_bdd: Optional[int] = None
    ms_aobs: float = 0.0
    ms_bdd: Optional[float] = None
    #: the mass the step's condition selected (0: the action did not
    #: fire); None on step 0, which applies no action
    selected_mass: Optional[float] = None


def gen_experiment(cfg: ExperimentConfig, seed: int) -> ExperimentScript:
    """Deterministically generate an exploration script from (config, seed).

    All sampling is uniform: the initial state, the action variable subsets
    (shared across an action's outcomes), the outcome values, and the condition
    variables.  Outcome probabilities are uniform draws normalized to 1;
    condition value sets are non-empty proper subsets of the value space, so
    conditions are never vacuous or unsatisfiable by construction.
    """
    rng = random.Random(seed)
    values = list(range(cfg.num_values))
    initial = {v: rng.choice(values) for v in range(cfg.num_vars)}
    steps: List[Tuple[Condition, Action]] = []
    for _ in range(cfg.num_actions):
        cond_vars = rng.sample(range(cfg.num_vars), cfg.condition_arity)
        constraints = {}
        for v in cond_vars:
            if cfg.num_values == 1:
                constraints[v] = frozenset({0})
                continue
            size = rng.randint(1, cfg.num_values - 1)
            constraints[v] = frozenset(rng.sample(values, size))
        condition = Condition(constraints)

        avars = tuple(sorted(rng.sample(range(cfg.num_vars),
                                        cfg.assigns_per_effect)))
        raw = [rng.random() + 1e-9 for _ in range(cfg.effects_per_action)]
        total = sum(raw)
        outcomes = tuple(
            (p / total, tuple(rng.choice(values) for _ in avars))
            for p in raw
        )
        steps.append((condition, Action(avars, outcomes)))
    return ExperimentScript(initial, tuple(steps))


def random_case_configs(
    seed: int, cases: int, optimize: bool
) -> Iterator[Tuple[int, ExperimentConfig]]:
    """The randomized verification suite: ``cases`` (case seed, config)
    pairs of small random shapes, drawn from ``seed``."""
    rng = random.Random(seed)
    for _ in range(cases):
        case_seed = rng.randrange(2**32)
        crng = random.Random(case_seed)
        num_vars = crng.randint(2, 8)
        yield case_seed, ExperimentConfig(
            num_vars=num_vars,
            num_values=crng.randint(2, 4),
            num_actions=crng.randint(1, 10),
            effects_per_action=crng.randint(1, 3),
            assigns_per_effect=crng.randint(1, min(3, num_vars)),
            condition_arity=crng.randint(1, min(3, num_vars)),
            oracle_cap=10**6,
            optimize=optimize,
        )


def run_experiment(
    script: ExperimentScript, cfg: ExperimentConfig, seed: int = 0
) -> List[MetricsRow]:
    """Apply the script step by step and collect one metrics row per step.

    While the state count stays within ``cfg.oracle_cap`` the tabular oracle is
    co-executed and the DAG enumeration must match it exactly.
    """
    store = Store()
    universe = list(range(cfg.num_vars))
    state = from_physical_state(store, script.initial, universe)

    oracle_alive = True
    tab = tab_canonical([(1.0, tuple(sorted(script.initial.items())))])

    manager = vmap = bstate = None
    if cfg.with_bdd:
        vmap = bddlib.BoolVarMap(cfg.num_vars, cfg.num_values)
        manager = bddlib.BddManager(vmap.num_bools)
        bstate = bddlib.encode_state(manager, vmap, script.initial)

    rows = [MetricsRow(
        seed=seed, step=0, n_states=1, n_naive=cfg.num_vars,
        n_aobs=size_metric(state),
        n_bdd=bddlib.bdd_size(bstate) if cfg.with_bdd else None,
        ms_bdd=0.0 if cfg.with_bdd else None,
    )]

    for step, (condition, action) in enumerate(script.steps, start=1):
        t0 = time.perf_counter()
        result = apply_action(state, condition, action)
        state = result.state
        if cfg.optimize:
            state = greedy_optimize(state)
        ms_aobs = (time.perf_counter() - t0) * 1e3

        n_states = count_states(state.root)
        if oracle_alive:
            tab = tab_apply_action(tab, condition, action)
            if n_states <= cfg.oracle_cap:
                got = tab_canonical(
                    enumerate_states(state.root, cap=cfg.oracle_cap, merge=True)
                )
                if not tab_equal(got, tab):
                    raise OracleMismatch(
                        f"seed {seed}: divergence from oracle at step {step}"
                    )
            else:
                oracle_alive = False

        n_bdd = ms_bdd = None
        if cfg.with_bdd:
            t0 = time.perf_counter()
            cbdd = bddlib.encode_condition(manager, vmap, condition)
            abdd = bddlib.encode_action(manager, vmap, action)
            avar_indices = [
                i for v in action.vars for i in vmap.var_indices(v)
            ]
            bstate = bddlib.bdd_apply_action(
                manager, bstate, cbdd, abdd, avar_indices
            )
            ms_bdd = (time.perf_counter() - t0) * 1e3
            n_bdd = bddlib.bdd_size(bstate)

        rows.append(MetricsRow(
            seed=seed, step=step,
            n_states=n_states,
            n_naive=cfg.num_vars * n_states,
            n_aobs=size_metric(state),
            n_bdd=n_bdd, ms_aobs=ms_aobs, ms_bdd=ms_bdd,
            selected_mass=result.selected_mass,
        ))
    return rows


def run_seeds(cfg: ExperimentConfig, seeds: Sequence[int]) -> List[MetricsRow]:
    """Run one experiment per seed and concatenate the rows in seed order."""
    rows: List[MetricsRow] = []
    for seed in seeds:
        script = gen_experiment(cfg, seed)
        rows.extend(run_experiment(script, cfg, seed=seed))
    return rows


def fit_exponent(rows: Sequence[MetricsRow]) -> float:
    """Least-squares slope of log(n_aobs) against log(n_naive).

    Step-0 rows are skipped (no action applied yet).  Requires at least 10
    points whose naive sizes span two decades.
    """
    points = [(r.n_naive, r.n_aobs) for r in rows if r.step > 0]
    if len(points) < 10:
        raise InsufficientSpread("need at least 10 data points")
    xs = [x for x, _ in points]
    if max(xs) < 100 * min(xs):
        raise InsufficientSpread("naive sizes must span at least two decades")
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    n = len(points)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    return sxy / sxx


def summarize_compression(
    rows: Sequence[MetricsRow]
) -> Dict[int, Dict[str, float]]:
    """Per-step mean compression ratios (mean of per-seed ratios, not the
    ratio of means), with the contributing seed counts."""
    by_step: Dict[int, List[MetricsRow]] = {}
    for r in rows:
        by_step.setdefault(r.step, []).append(r)
    out: Dict[int, Dict[str, float]] = {}
    for step, group in sorted(by_step.items()):
        entry: Dict[str, float] = {
            "seeds": float(len(group)),
            "naive_over_aobs": sum(
                r.n_naive / r.n_aobs for r in group
            ) / len(group),
        }
        with_bdd = [r for r in group if r.n_bdd]
        if with_bdd:
            entry["naive_over_bdd"] = sum(
                r.n_naive / r.n_bdd for r in with_bdd
            ) / len(with_bdd)
        out[step] = entry
    return out
