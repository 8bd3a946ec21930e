"""Correctness gate: everything here runs outside the timed region.

The tabular oracle (``aobs.oracle``) is the judge.  A DAG is expanded into
rows by the iterative walk below rather than by ``aobs.core``, so the check
neither shares code with what it checks nor recurses on deep graphs.
"""
from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from aobs.core import AND, LIT, OR, Node
from aobs.oracle import (
    Action,
    Condition,
    tab_apply_action,
    tab_canonical,
    tab_equal,
    tab_prob,
)

EPS = 1e-9


class TooLarge(Exception):
    """The expansion would exceed the oracle's cap."""


def postorder(root: Node) -> List[Node]:
    """Unique reachable nodes, every child before its parents."""
    order: List[Node] = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node.key in seen:
            continue
        seen.add(node.key)
        stack.append((node, True))
        stack.extend((ch, False) for ch in node.children if ch.key not in seen)
    return order


def state_problems(root: Node, normal: bool = True) -> List[str]:
    """Per-step invariants: unit mass, and normal form (no AND under an AND,
    no OR under an OR, every OR of unit weight) unless the state is an
    optimizer output, which trades normal form for sharing."""
    mass: Dict[str, float] = {}
    normal_ok = True
    for node in postorder(root):
        kids = node.children
        if node.kind == LIT:
            m = 1.0
        elif node.kind == AND:
            m = math.prod(mass[ch.key] for ch in kids)
            normal_ok = normal_ok and all(ch.kind != AND for ch in kids)
        else:
            m = sum(w * mass[ch.key] for w, ch in node.edges())
            normal_ok = normal_ok and all(ch.kind != OR for ch in kids) \
                and abs(sum(node.weights) - 1.0) <= EPS
        mass[node.key] = m
    problems = []
    if abs(mass[root.key] - 1.0) > EPS:
        problems.append(f"mass {mass[root.key]!r}, expected 1")
    if normal and not normal_ok:
        problems.append("not in normal form")
    return problems


def _flatten(frag, out: list) -> None:
    stack = [frag]
    while stack:
        f = stack.pop()
        if f and isinstance(f[0], int):
            out.append(f)
        else:
            stack.extend(f)


def expand(root: Node, cap: int) -> list:
    """Canonical (probability, state) rows of the DAG, at most ``cap`` rows
    per node.  A row's assignment is kept as nested child fragments until the
    end, so wide ANDs cost linear, not quadratic, time."""
    rows: Dict[str, list] = {}
    for node in postorder(root):
        if node.kind == LIT:
            out = [(1.0, (node.var, node.value))]
        elif node.kind == AND:
            parts = [rows[ch.key] for ch in node.children]
            if math.prod(len(p) for p in parts) > cap:
                raise TooLarge
            out = [(math.prod(p for p, _ in combo),
                    tuple(f for _, f in combo))
                   for combo in itertools.product(*parts)]
        else:
            out = [(w * p, f) for w, ch in node.edges() for p, f in rows[ch.key]]
            if len(out) > cap:
                raise TooLarge
        rows[node.key] = out
    table = []
    for p, frag in rows[root.key]:
        pairs: list = []
        _flatten(frag, pairs)
        table.append((p, tuple(sorted(pairs))))
    return tab_canonical(table)


class Oracle:
    """The tabular belief state, co-executed while both it and the DAG's
    expansion stay within ``row_cap`` rows."""

    def __init__(self, rows: Sequence[Tuple[float, Tuple[Tuple[int, int], ...]]],
                 row_cap: int) -> None:
        self.tab = tab_canonical(list(rows))
        self.row_cap = row_cap
        self.alive = True

    def act(self, c: Condition, a: Action) -> None:
        if self.alive:
            self.tab = tab_apply_action(self.tab, c, a)
            self.alive = len(self.tab) <= self.row_cap

    def prob_ok(self, c: Condition, p: float) -> bool:
        return not self.alive or abs(tab_prob(self.tab, c) - p) <= EPS

    def state_ok(self, root: Node) -> bool:
        """False only on a mismatch; past the cap the oracle retires."""
        if not self.alive:
            return True
        try:
            got = expand(root, self.row_cap)
        except TooLarge:
            self.alive = False
            return True
        return tab_equal(got, self.tab)
