"""Inference over a belief-state DAG: the condition pass, condition
probability and substate selection.

One bottom-up pass evaluates a condition over the DAG
(:func:`condition_pass`): it labels each node it visits included, excluded
or mixed and gives the mass the condition selects.  :func:`probability`
reads the selected mass from it, :func:`select_substate` the labels, and
:func:`aobs.acting.apply_action` both.  The store keeps the last pass, so
a select or an act after a read on the same state and an equal condition
does not run it again.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from .core import AND, LIT, Aobs, Node, _expand, fold
from .oracle import Condition, TabularPBS, tab_canonical

INCLUDED = "I"
EXCLUDED = "E"
MIXED = "M"

#: node key -> label, filled in by one condition pass
LabelMap = Dict[int, str]
#: the labels of a pass, the root's label and the mass the condition selects
Pass = Tuple[LabelMap, str, float]


def condition_pass(s: Aobs, c: Condition) -> Pass:
    """The condition pass over ``s``: ``(labels, root label, selected
    mass)``.  Raises :class:`~aobs.core.UnknownVariable` if ``c`` names a
    variable outside the universe.

    The result is kept in ``s.store.last_pass``, keyed by the root node and
    the condition, so a second call on the same root with an equal
    condition returns it without a walk.  Nodes and conditions are
    immutable, so the entry is never stale.  Callers share the returned
    labels and must not change them.
    """
    root = s.root
    c.check_within(root.omega)
    last = s.store.last_pass
    if (last is not None and last[0] is root
            and (last[1] is c or last[1] == c)):
        return last[2]
    out = _pass(root, c.allowed.copy())  # a dict reads faster than a proxy
    s.store.last_pass = (root, c, out)
    return out


def _pass(root: Node, allowed: Dict[int, FrozenSet[int]]) -> Pass:
    """Label the nodes below ``root`` against the condition ``allowed`` and
    give the mass it selects, in one pass.

    A literal is included when the condition allows its value.  An AND is
    excluded when a child is, included when all are, else mixed; an OR has
    its children's label when they agree, else it is mixed.  An included
    node selects its ``mass``, an excluded one 0, and a mixed one the mass
    its step records: the product of its children's for an AND, the
    weighted sum for an OR.

    Three kinds of node are settled without visiting their children, which
    then have no label.  A node whose variables avoid the condition's is
    included, as is everything below it, which a reader takes through
    ``labels.get(key, INCLUDED)``.  An AND is settled by the one scan of its
    children that labels its literal children on condition variables: it
    is excluded if the condition rejects one of them, and included if no
    other child meets the condition's variables, so each child it leaves
    unlabelled avoids the condition.  No reader descends below an excluded
    node, and a child it shares with another parent is labelled through
    that parent.  An AND the scan does not settle has all its literal
    children labelled, and its other children are visited.
    """
    cvars = frozenset(allowed)
    labels: LabelMap = {}
    mixed: Dict[int, float] = {}  # node key -> selected mass, mixed nodes

    def leaf(node: Node) -> Optional[str]:
        if cvars.isdisjoint(node.omega):
            return INCLUDED
        if node.kind == AND:
            # the literal children are settled here, so they are not visited
            settled = True  # no other child meets the condition
            for ch in node.children:
                if ch.kind == LIT:
                    vals = allowed.get(ch.var)
                    if vals is not None:
                        if ch.value not in vals:
                            return EXCLUDED
                        labels[ch.key] = INCLUDED
                elif settled and not cvars.isdisjoint(ch.omega):
                    settled = False
            if settled:
                return INCLUDED
            for ch in node.children:
                if ch.kind == LIT:
                    labels[ch.key] = INCLUDED
        elif node.kind == LIT:  # on a condition variable
            return INCLUDED if node.value in allowed[node.var] else EXCLUDED
        return None

    def step(node: Node) -> str:
        kids = node.children
        if node.kind == AND:
            out = INCLUDED
            mass = 1.0
            for ch in kids:
                cl = labels[ch.key]
                if cl == INCLUDED:
                    mass *= ch.mass
                elif cl == MIXED:
                    out = MIXED
                    mass *= mixed[ch.key]
                else:
                    return EXCLUDED
            if out == MIXED:
                mixed[node.key] = mass
            return out
        out = labels[kids[0].key]
        for ch in kids:
            if labels[ch.key] != out:
                out = MIXED
                break
        if out == MIXED:  # an excluded child selects 0, not in ``mixed``
            mixed[node.key] = sum([
                w * (ch.mass if labels[ch.key] == INCLUDED
                     else mixed.get(ch.key, 0.0))
                for w, ch in zip(node.weights, kids)])
        return out

    label = fold(root, labels, step, leaf)
    return labels, label, (root.mass if label == INCLUDED
                           else mixed.get(root.key, 0.0))


def probability(s: Aobs, c: Condition) -> float:
    """Probability of the conjunctive condition holding on the belief state:
    the mass that the condition pass (:func:`condition_pass`) selects,
    clamped to [0, 1]."""
    return min(max(condition_pass(s, c)[2], 0.0), 1.0)


def select_substate(s: Aobs, c: Condition, cap: int = 10**6) -> TabularPBS:
    """The satisfying physical states with their (unnormalized) masses: the
    expansion of the state with every node that the condition pass
    (:func:`condition_pass`) labels excluded left out, in canonical
    order.  Their total mass equals ``probability(s, c)``."""
    label = condition_pass(s, c)[0].get
    return tab_canonical(_expand(
        s.root, cap, False,
        lambda node: [] if label(node.key) == EXCLUDED else None))
