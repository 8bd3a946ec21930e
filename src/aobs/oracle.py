"""Plain tabular belief-state reference implementation.

Deliberately naive: a belief state is a list of (probability, physical state)
rows.  Used as a brute-force correctness oracle for the DAG implementation at
desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Dict, Iterable, List, Mapping, Tuple

from .core import EPS_P, AobsError, StateTuple, UnknownVariable

# rows of (probability, sorted (var, value) tuple)
TabularPBS = List[Tuple[float, StateTuple]]

#: default cap on oracle expansion; the oracle is for desk-scale checks only
ORACLE_ROW_CAP = 10**6


@dataclass(frozen=True)
class Condition:
    """Conjunctive per-variable predicate: variable -> allowed value set.

    Unconstrained variables are simply absent.  ``allowed`` is kept as a
    read-only mapping of frozensets, so a condition cannot change once
    made, and it hashes by its items: equal conditions hash equal.
    """

    allowed: Mapping[int, frozenset]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", MappingProxyType(
            {v: frozenset(vals) for v, vals in self.allowed.items()}))

    def __hash__(self) -> int:
        return hash(frozenset(self.allowed.items()))

    @staticmethod
    def of(constraints: Mapping[int, Iterable[int]]) -> "Condition":
        return Condition(constraints)

    @property
    def variables(self) -> frozenset:
        return frozenset(self.allowed)

    def satisfied_by(self, state: StateTuple) -> bool:
        assignment = dict(state)
        for var, vals in self.allowed.items():
            if assignment[var] not in vals:
                return False
        return True

    def check_within(self, known: Collection[int]) -> None:
        """Raise :class:`~aobs.core.UnknownVariable`, naming the condition,
        unless every variable it constrains is in ``known``: a state's
        universe, or its root's variable set, which is cheapest to check."""
        _check_known("condition", self.allowed, known)


@dataclass(frozen=True)
class Action:
    """A state-independent probabilistic action.

    ``vars`` is the ordered variable set the action overwrites; each outcome is
    a (probability, values) pair where ``values`` aligns with ``vars``.  The
    probabilities must sum to 1 within 1e-6, and are divided by their total
    when it is off by more than 1e-12, so that a sequence of acts keeps
    mass 1: probabilities built as ``p / sum(raw)`` are off by a few ulps
    and are kept bit for bit as given.
    """

    vars: Tuple[int, ...]
    outcomes: Tuple[Tuple[float, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise AobsError("action needs at least one outcome")
        if len(set(self.vars)) != len(self.vars):
            raise AobsError("action variables must be distinct")
        total = 0.0
        for p, values in self.outcomes:
            if not p > 0:  # also true for NaN
                raise AobsError(f"outcome probability must be positive, got {p}")
            if len(values) != len(self.vars):
                raise AobsError("outcome must assign exactly the action variables")
            total += p
        if not abs(total - 1.0) <= 1e-6:
            raise AobsError(f"outcome probabilities sum to {total}, expected 1")
        if abs(total - 1.0) > 1e-12:
            object.__setattr__(self, "outcomes", tuple(
                (p / total, values) for p, values in self.outcomes))

    @property
    def variables(self) -> frozenset:
        return frozenset(self.vars)

    def check_within(self, known: Collection[int]) -> None:
        """Raise :class:`~aobs.core.UnknownVariable`, naming the action,
        unless every variable it overwrites is in ``known``, as
        :meth:`Condition.check_within` does."""
        _check_known("action", self.vars, known)


def _check_known(what: str, variables: Iterable[int],
                 known: Collection[int]) -> None:
    """Raise :class:`~aobs.core.UnknownVariable` if any of ``variables`` is
    not in ``known``; the message names ``what`` and the unknown variables.
    A frozen set ``known`` is checked without building a set."""
    if isinstance(known, frozenset) and known.issuperset(variables):
        return
    unknown = set(variables).difference(known)
    if unknown:
        raise UnknownVariable(f"{what} on unknown variables {sorted(unknown)}")


def tab_canonical(b: TabularPBS) -> TabularPBS:
    """Merge duplicate states by probability sum and sort deterministically."""
    acc: Dict[StateTuple, float] = {}
    for p, state in b:
        acc[state] = acc.get(state, 0.0) + p
    return [(p, s) for s, p in sorted(acc.items())]


def tab_prob(b: TabularPBS, c: Condition) -> float:
    """Probability mass of the rows satisfying the condition."""
    if b:
        c.check_within([var for var, _ in b[0][1]])
    return sum(p for p, state in b if c.satisfied_by(state))


def tab_apply_action(b: TabularPBS, c: Condition, a: Action) -> TabularPBS:
    """Apply an action to the condition-selected rows; result is canonical.

    Rows failing the condition pass through unchanged; each selected row is
    replaced by one row per outcome with the action variables overwritten.
    """
    if b:
        universe = frozenset(var for var, _ in b[0][1])
        c.check_within(universe)
        a.check_within(universe)
    out: TabularPBS = []
    for p, state in b:
        if not c.satisfied_by(state):
            out.append((p, state))
            continue
        base = dict(state)
        for q, values in a.outcomes:
            nxt = dict(base)
            for var, value in zip(a.vars, values):
                nxt[var] = value
            out.append((p * q, tuple(sorted(nxt.items()))))
    if len(out) > ORACLE_ROW_CAP:
        raise AobsError(f"oracle expansion exceeds {ORACLE_ROW_CAP} rows")
    return tab_canonical(out)


def tab_equal(a: TabularPBS, b: TabularPBS, eps: float = EPS_P) -> bool:
    """True iff both canonical tables hold the same states within tolerance."""
    if len(a) != len(b):
        return False
    for (pa, sa), (pb, sb) in zip(a, b):
        if sa != sb or abs(pa - pb) > eps:
            return False
    return True
