"""Inference over a belief-state DAG: condition probability and substate
selection."""
from __future__ import annotations

from typing import Dict, Optional

from .core import AND, LIT, Aobs, Node, _expand, fold
from .oracle import Condition, TabularPBS, tab_canonical


def probability(s: Aobs, c: Condition) -> float:
    """Probability of the conjunctive condition holding on the belief state.

    Evaluated in one pass over the DAG: literals contribute 0 or 1, AND nodes
    multiply, OR nodes take the weighted sum.  Shared subgraphs are evaluated
    once per query.  A node whose variables avoid the condition's is its own
    ``mass`` and an AND with a literal child that the condition rejects is 0,
    both without visiting the node's children.
    """
    c.check_within(s.universe)
    allowed = c.allowed
    cvars = c.variables
    memo: Dict[str, float] = {}

    def leaf(node: Node) -> Optional[float]:
        if cvars.isdisjoint(node.omega):
            return node.mass
        if node.kind == AND:
            # the literal children are settled here, so they are not visited
            for ch in node.children:
                if ch.kind == LIT:
                    vals = allowed.get(ch.var)
                    if vals is not None and ch.value not in vals:
                        return 0.0
                    memo[ch.key] = 1.0
        elif node.kind == LIT:  # on a condition variable
            return 1.0 if node.value in allowed[node.var] else 0.0
        return None

    def step(node: Node) -> float:
        if node.kind == AND:
            out = 1.0
            for ch in node.children:
                out *= memo[ch.key]
            return out
        return sum([w * memo[ch.key]
                    for w, ch in zip(node.weights, node.children)])

    p = fold(s.root, memo, step, leaf)
    return min(max(p, 0.0), 1.0)


def select_substate(s: Aobs, c: Condition, cap: int = 10**6) -> TabularPBS:
    """The satisfying physical states with their (unnormalized) masses: the
    expansion of the state over the literals the condition allows.

    The total mass of the returned canonical collection equals
    ``probability(s, c)``.
    """
    c.check_within(s.universe)
    return tab_canonical(_expand(s.root, cap, False, c.allows))
