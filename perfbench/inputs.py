"""Seeded inputs for the benchmark workloads.

A workload is a fixed *skeleton*: scripts of conditional actions (or CLI
sessions) drawn once from a constant per-workload generator.  ``--seed`` then
draws a relabeling of that skeleton: a permutation of the variables, a
permutation of each variable's values, and fresh outcome and row
probabilities.  Every seed therefore hands the program different variables,
values, weights and node keys, while the work it asks for stays isomorphic.
Unconstrained random scripts grow exponentially at different rates, so their
cost differs from seed to seed by more than any regression bound could
tolerate; the skeleton keeps the figures about the program, not the draw.

The distribution mirrors the package's own experiment generator (uniform
initial states, uniform action variables and values, non-empty proper value
subsets in conditions) but does not import it, so a change to ``aobs.bench``
cannot move a workload.  Everything here is plain tuples; the runners turn
them into ``aobs`` objects.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

NUM_VALUES = 4

# condition: ((var, allowed values), ...); outcomes: ((probability, values), ...)
Cond = Tuple[Tuple[int, Tuple[int, ...]], ...]
Outcomes = Tuple[Tuple[float, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class Step:
    cond: Cond
    avars: Tuple[int, ...]
    outcomes: Outcomes


@dataclass(frozen=True)
class Script:
    initial: Tuple[int, ...]  # value of every variable, by index
    steps: Tuple[Step, ...]


@dataclass(frozen=True)
class Session:
    rows: Tuple[Tuple[float, Tuple[int, ...]], ...]
    acts: Tuple[Step, ...]
    evals: Tuple[Tuple[Cond, ...], ...]  # the reads sent before each act


@dataclass(frozen=True)
class Shape:
    num_vars: int
    scripts: int
    steps: int
    cond_sizes: Tuple[int, ...]  # how many values a condition allows
    action_vars: int = 3
    outcomes: int = 3


#: action workloads: condition arity 1, 3-var 3-outcome actions, 4 values
SHAPES: Dict[str, Shape] = {
    "deep": Shape(num_vars=50, scripts=12, steps=32, cond_sizes=(1, 2, 3)),
    "wide": Shape(num_vars=5000, scripts=4, steps=12, cond_sizes=(1,)),
    "optimized": Shape(num_vars=50, scripts=8, steps=32, cond_sizes=(1, 2, 3)),
}

#: CLI sessions: 12 variables, rows log-uniform over CLI_ROWS, a chain of
#: CLI_ACTS acts, CLI_EVALS reads before each act
CLI_VARS = 12
CLI_SESSIONS = 12
CLI_ROWS = (16, 256)
CLI_ACTS = 3
CLI_EVALS = 4


def _weights(rng: random.Random, n: int) -> Tuple[float, ...]:
    raw = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(raw)
    return tuple(p / total for p in raw)


def _cond(rng: random.Random, num_vars: int, arity: int,
          sizes: Sequence[int]) -> Cond:
    values = range(NUM_VALUES)
    return tuple(sorted(
        (v, tuple(sorted(rng.sample(values, rng.choice(sizes)))))
        for v in rng.sample(range(num_vars), arity)
    ))


def _step(rng: random.Random, num_vars: int, sizes: Sequence[int],
          action_vars: int, outcomes: int) -> Step:
    cond = _cond(rng, num_vars, 1, sizes)
    avars = tuple(sorted(rng.sample(range(num_vars), action_vars)))
    outs = tuple(
        (p, tuple(rng.randrange(NUM_VALUES) for _ in avars))
        for p in _weights(rng, outcomes)
    )
    return Step(cond, avars, outs)


def skeleton_scripts(name: str) -> List[Script]:
    shape = SHAPES[name]
    rng = random.Random(f"aobs-perfbench-{name}")
    out = []
    for _ in range(shape.scripts):
        initial = tuple(rng.randrange(NUM_VALUES) for _ in range(shape.num_vars))
        steps = tuple(
            _step(rng, shape.num_vars, shape.cond_sizes, shape.action_vars,
                  shape.outcomes)
            for _ in range(shape.steps)
        )
        out.append(Script(initial, steps))
    return out


def skeleton_sessions() -> List[Session]:
    rng = random.Random("aobs-perfbench-cli")
    lo, hi = CLI_ROWS
    out = []
    for _ in range(CLI_SESSIONS):
        n = int(round(lo * math.exp(rng.random() * math.log(hi / lo))))
        rows = tuple(
            (p, tuple(rng.randrange(NUM_VALUES) for _ in range(CLI_VARS)))
            for p in _weights(rng, n)
        )
        acts = tuple(
            _step(rng, CLI_VARS, (1, 2, 3), action_vars=3, outcomes=2)
            for _ in range(CLI_ACTS)
        )
        evals = tuple(
            tuple(_cond(rng, CLI_VARS, rng.randint(1, 2), (1, 2, 3))
                  for _ in range(CLI_EVALS))
            for _ in range(CLI_ACTS)
        )
        out.append(Session(rows, acts, evals))
    return out


class Relabel:
    """A seeded isomorphism: variable permutation, per-variable value
    permutations and a source of fresh probabilities."""

    def __init__(self, seed: int, num_vars: int) -> None:
        self.rng = random.Random(seed)
        self.var = list(range(num_vars))
        self.rng.shuffle(self.var)
        self.val = []
        for _ in range(num_vars):
            perm = list(range(NUM_VALUES))
            self.rng.shuffle(perm)
            self.val.append(perm)

    def state(self, values: Sequence[int]) -> Tuple[int, ...]:
        out = [0] * len(values)
        for v, x in enumerate(values):
            out[self.var[v]] = self.val[v][x]
        return tuple(out)

    def cond(self, cond: Cond) -> Cond:
        return tuple(sorted(
            (self.var[v], tuple(sorted(self.val[v][x] for x in allowed)))
            for v, allowed in cond
        ))

    def step(self, step: Step) -> Step:
        order = sorted(range(len(step.avars)),
                       key=lambda i: self.var[step.avars[i]])
        avars = tuple(self.var[step.avars[i]] for i in order)
        outcomes = tuple(
            (p, tuple(self.val[step.avars[i]][values[i]] for i in order))
            for p, (_, values) in zip(_weights(self.rng, len(step.outcomes)),
                                      step.outcomes)
        )
        return Step(self.cond(step.cond), avars, outcomes)


def scripts(name: str, seed: int) -> List[Script]:
    """The action-workload scripts for ``seed``."""
    relabel = Relabel(seed, SHAPES[name].num_vars)
    return [
        Script(relabel.state(s.initial),
               tuple(relabel.step(st) for st in s.steps))
        for s in skeleton_scripts(name)
    ]


def sessions(seed: int) -> List[Session]:
    """The CLI sessions for ``seed``."""
    relabel = Relabel(seed, CLI_VARS)
    out = []
    for s in skeleton_sessions():
        weights = _weights(relabel.rng, len(s.rows))
        rows = tuple((p, relabel.state(values))
                     for p, (_, values) in zip(weights, s.rows))
        out.append(Session(
            rows,
            tuple(relabel.step(st) for st in s.acts),
            tuple(tuple(relabel.cond(c) for c in group) for group in s.evals),
        ))
    return out


def probe_rows(seed: int, n: int) -> Tuple[Tuple[float, Tuple[int, ...]], ...]:
    """``n`` random CLI rows, for the crash probe outside the workload."""
    rng = random.Random(seed)
    return tuple(
        (p, tuple(rng.randrange(NUM_VALUES) for _ in range(CLI_VARS)))
        for p in _weights(rng, n)
    )
