"""Applying a probabilistic action to a condition-selected belief substate.

The pipeline keeps the DAG compact: label nodes against the condition, locate
the minimal subgraphs covering the action and condition variables, isolate the
selected part of mixed subgraphs, erase the action variables from the included
part, graft the action's outcome subgraph, and normalize the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import (
    AND,
    EPS_P,
    LIT,
    OR,
    Aobs,
    AobsError,
    Node,
    Store,
)
from .oracle import Action, Condition
from .query import probability

INCLUDED = "I"
EXCLUDED = "E"
MIXED = "M"

LabelMap = Dict[str, str]


class NotMixed(AobsError):
    """Isolation was requested for a node that is not labeled mixed."""


class MassLeak(AobsError):
    """Normalization left the root with total mass other than 1."""


def _label(node: Node, c: Condition, labels: LabelMap) -> str:
    got = labels.get(node.key)
    if got is not None:
        return got
    if node.kind == LIT:
        out = INCLUDED if c.allows(node.var, node.value) else EXCLUDED
    elif node.kind == AND:
        # all children are labeled even after an excluded one, so the map
        # covers every reachable node
        out = INCLUDED
        for child in node.children:
            cl = _label(child, c, labels)
            if cl == EXCLUDED:
                out = EXCLUDED
            elif cl == MIXED and out != EXCLUDED:
                out = MIXED
        # the empty AND has no constrained literals, hence included
    else:
        has_inc = has_exc = False
        for child in node.children:
            cl = _label(child, c, labels)
            if cl in (EXCLUDED, MIXED):
                has_exc = True
            if cl in (INCLUDED, MIXED):
                has_inc = True
        if has_inc and has_exc:
            out = MIXED
        elif has_inc:
            out = INCLUDED
        else:
            out = EXCLUDED
    labels[node.key] = out
    return out


def label_nodes(root: Node, c: Condition) -> LabelMap:
    """Label every reachable node as included, excluded, or mixed.

    A node is included when all of its substate satisfies the condition,
    excluded when none of it does, mixed otherwise.  Keys are node digests.
    """
    labels: LabelMap = {}
    _label(root, c, labels)
    return labels


def find_minimal_subgraphs(
    root: Node,
    c: Condition,
    avars: FrozenSet[int],
    labels: LabelMap,
) -> List[Node]:
    """Find the unique minimal subgraphs where the action can be applied.

    A node qualifies when it is labeled included or mixed and its variable set
    covers the action and condition variables; it is minimal when no child also
    qualifies.  Within an AND at most one child can cover the full union (its
    children are variable-disjoint); within an OR every included/mixed child is
    explored.
    """
    need = avars | c.variables
    out: List[Node] = []
    seen: set = set()

    def qualifies(n: Node) -> bool:
        return labels.get(n.key) in (INCLUDED, MIXED) and need <= n.omega

    def descend(n: Node) -> None:
        if n.key in seen:
            return
        seen.add(n.key)
        inner = [ch for ch in n.children if qualifies(ch)]
        if not inner:
            out.append(n)
            return
        for ch in inner:
            descend(ch)

    if qualifies(root):
        descend(root)
    return out


def isolate(n: Node, c: Condition, labels: LabelMap, store: Store) -> Node:
    """Rewrite a mixed node into an equivalent OR with pure children.

    Mixed OR children are isolated recursively and their edges spliced in with
    multiplied weights.  A mixed AND becomes an OR over one fully-included term
    plus disjoint telescoped excluded terms, so the edge weights still sum to
    the node's original mass.
    """
    if _label(n, c, labels) != MIXED:
        raise NotMixed(f"cannot isolate a node labeled {labels.get(n.key)}")

    if n.kind == OR:
        edges: List[Tuple[float, Node]] = []
        for w, ch in n.edges():
            if _label(ch, c, labels) == MIXED:
                iso = _pure_or(ch, c, labels, store)
                edges.extend((w * w2, g) for w2, g in iso.edges())
            else:
                edges.append((w, ch))
        return store.make_or(edges)

    # mixed AND: split its mixed OR parts into included/excluded halves
    fixed: List[Node] = []
    parts: List[Tuple[Node, Node, Node, float]] = []  # (inc, exc, full, m)
    for ch in n.children:
        cl = _label(ch, c, labels)
        if cl == EXCLUDED:
            raise AobsError("mixed AND node with an excluded child")
        if cl == INCLUDED:
            fixed.append(ch)
            continue
        pure = _pure_or(ch, c, labels, store)
        inc = [(w, g) for w, g in pure.edges()
               if _label(g, c, labels) == INCLUDED]
        exc = [(w, g) for w, g in pure.edges()
               if _label(g, c, labels) == EXCLUDED]
        total = sum(w for w, _ in pure.edges())
        inc_mass = sum(w for w, _ in inc)
        parts.append((
            store.make_or([(w / inc_mass, g) for w, g in inc]),
            store.make_or([(w / (total - inc_mass), g) for w, g in exc]),
            store.make_or([(w / total, g) for w, g in pure.edges()]),
            inc_mass / total,
        ))

    k = len(parts)
    terms: List[Tuple[float, Node]] = []
    included_mass = math.prod(m for _, _, _, m in parts)
    terms.append((
        included_mass,
        store.make_and(fixed + [inc for inc, _, _, _ in parts]),
    ))
    prefix = 1.0
    for i in range(k):
        inc_i, exc_i, _, m_i = parts[i]
        weight = prefix * (1.0 - m_i)
        children = list(fixed)
        children.extend(parts[j][0] for j in range(i))
        children.append(exc_i)
        children.extend(parts[j][2] for j in range(i + 1, k))
        terms.append((weight, store.make_and(children)))
        prefix *= m_i
    return store.make_or(terms)


def _pure_or(ch: Node, c: Condition, labels: LabelMap, store: Store) -> Node:
    """An OR equivalent to ``ch`` whose children are all pure."""
    if ch.kind == OR and all(
        _label(g, c, labels) != MIXED for g in ch.children
    ):
        return ch
    return isolate(ch, c, labels, store)


def erase_action_vars(
    n: Node,
    avars: FrozenSet[int],
    store: Store,
    memo: Optional[Dict[str, Node]] = None,
) -> Node:
    """Remove every maximal descendant ranging only over action variables.

    Assumes the node is purely included and its OR weights sum to 1, so the
    erased parts carry unit mass and can be dropped without rescaling.  If the
    whole node vanishes the empty-AND identity is returned; a subgraph whose
    variables are disjoint from ``avars`` is returned unchanged.  ``memo``
    maps node keys to erased nodes; erasing depends only on the node and
    ``avars``, so all grafts of one action can share one memo.
    """
    return _erase(n, avars, store, {} if memo is None else memo)


# The recursive walks that hold a store (``_erase``, ``_normal``, ``_rebuild``)
# are module-level functions rather than closures: a closure that calls itself
# is a reference cycle, which would keep the store alive until the next full
# garbage collection instead of freeing it with its last state.

def _erase(node: Node, avars: FrozenSet[int], store: Store,
           memo: Dict[str, Node]) -> Node:
    if avars.isdisjoint(node.omega):
        return node
    got = memo.get(node.key)
    if got is not None:
        return got
    if node.omega <= avars:
        out = store.empty_and()
    elif node.kind == AND:
        out = store.make_and([_erase(ch, avars, store, memo)
                              for ch in node.children])
    else:
        out = store.make_or([(w, _erase(ch, avars, store, memo))
                             for w, ch in node.edges()])
    memo[node.key] = out
    return out


def action_subgraph(store: Store, a: Action) -> Node:
    """The action's outcome distribution as a weighted union of assignments."""
    edges = []
    for p, values in a.outcomes:
        edges.append((
            p,
            store.make_and(
                [store.make_lit(v, u) for v, u in zip(a.vars, values)]
            ),
        ))
    return store.make_or(edges)


def normalize(s: Aobs) -> Aobs:
    """Bring a belief state into normal form without changing its semantics.

    AND children of AND nodes are spliced in, OR children of OR nodes are
    spliced with multiplied weights, and every OR is rescaled to unit mass
    with the excess pushed up into the nearest ancestor OR edge.  The scale
    arriving at the root must be 1.

    Results are memoized in the store's ``normal`` table across calls, as
    (scale, normal node) per node key.  Each output not yet in the table is
    recorded as its own fixed point ``(1.0, out)``, so a subgraph that an
    earlier call produced is a lookup, and an AND whose children all
    normalize to themselves (none an AND) is returned as itself without
    re-interning.  Nested ANDs that the optimizer builds were never an output,
    so they miss and are spliced as before.  An entry never goes stale:
    interned nodes are immutable and the store never drops one.
    """
    scale, root = _normal(s.root, s.store, s.store.normal)
    if abs(scale - 1.0) > EPS_P:
        raise MassLeak(f"root mass is {scale}, expected 1")
    return Aobs(root, s.store, s.universe, s.var_names)


def _normal(node: Node, store: Store,
            memo: Dict[str, Tuple[float, Node]]) -> Tuple[float, Node]:
    got = memo.get(node.key)
    if got is not None:
        return got
    if node.kind == LIT:
        out = (1.0, node)
    elif node.kind == AND:
        scale = 1.0
        parts: List[Node] = []
        same = True
        for ch in node.children:
            sc, nn = _normal(ch, store, memo)
            scale *= sc
            if nn.kind == AND:
                parts.extend(nn.children)
                same = False
            else:
                parts.append(nn)
                same = same and nn is ch
        out = (scale, node if same else store.make_and(parts))
    else:
        edges: List[Tuple[float, Node]] = []
        for w, ch in node.edges():
            sc, nn = _normal(ch, store, memo)
            ww = w * sc
            if nn.kind == OR:
                edges.extend((ww * w2, g) for w2, g in nn.edges())
            else:
                edges.append((ww, nn))
        total = sum(w for w, _ in edges)
        out = (total, store.make_or([(w / total, g) for w, g in edges]))
    memo[node.key] = out
    # an output is in normal form with unit mass: its own fixed point
    memo.setdefault(out[1].key, (1.0, out[1]))
    return out


@dataclass
class ApplyResult:
    """Outcome of applying an action: the new state plus the mass the
    condition selected in the old state (0 means the action was a no-op)."""

    state: Aobs
    selected_mass: float


def apply_action(s: Aobs, c: Condition, a: Action) -> ApplyResult:
    """Apply a state-independent action to the condition-selected substate.

    The belief state is rewritten persistently: minimal subgraphs are replaced
    (isolating mixed ones first), the action subgraph is grafted over the
    erased action variables, ancestors are rebuilt along affected paths, and
    the result is normalized.  Total mass is preserved.
    """
    c.check_within(s.universe)
    a.check_within(s.universe)
    store = s.store
    labels: LabelMap = {}
    root_label = _label(s.root, c, labels)
    selected = probability(s, c)
    if root_label == EXCLUDED:
        return ApplyResult(s, 0.0)

    avars = a.variables
    act_node = action_subgraph(store, a)
    minimal = find_minimal_subgraphs(s.root, c, avars, labels)
    erased: Dict[str, Node] = {}

    def graft(part: Node) -> Node:
        return store.make_and([erase_action_vars(part, avars, store, erased),
                               act_node])

    # rebuilt nodes by key, seeded with the replaced minimal subgraphs
    rebuilt: Dict[str, Node] = {}
    for n in minimal:
        if labels[n.key] == INCLUDED:
            rebuilt[n.key] = graft(n)
        else:
            iso = isolate(n, c, labels, store)
            edges = []
            for w, ch in iso.edges():
                if _label(ch, c, labels) == INCLUDED:
                    ch = graft(ch)
                edges.append((w, ch))
            rebuilt[n.key] = store.make_or(edges)

    new_root = _rebuild(s.root, avars | c.variables, labels, store, rebuilt)
    result = normalize(Aobs(new_root, store, s.universe, s.var_names))
    return ApplyResult(result, selected)


def _rebuild(node: Node, need: FrozenSet[int], labels: LabelMap, store: Store,
             rebuilt: Dict[str, Node]) -> Node:
    got = rebuilt.get(node.key)
    if got is not None:
        return got
    # Only ancestors of minimal subgraphs change, and every such ancestor
    # covers ``need`` and is included or mixed: an AND ancestor's other
    # children are disjoint from the minimal subgraph's variables, which
    # contain the condition's, so they are included.  Any other node is kept
    # as is.  A qualifying literal is minimal, so it is in ``rebuilt`` already.
    if not need <= node.omega or labels[node.key] == EXCLUDED:
        return node
    if node.kind == AND:
        out = store.make_and([_rebuild(ch, need, labels, store, rebuilt)
                              for ch in node.children])
    else:
        out = store.make_or([(w, _rebuild(ch, need, labels, store, rebuilt))
                             for w, ch in node.edges()])
    rebuilt[node.key] = out
    return out
