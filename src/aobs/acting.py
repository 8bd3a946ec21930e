"""Applying a probabilistic action to a condition-selected belief substate.

The pipeline keeps the DAG compact: label nodes against the condition, locate
the minimal subgraphs covering the action and condition variables, isolate the
selected part of mixed subgraphs, erase the action variables from the included
part, graft the action's outcome subgraph, and rebuild the ancestors.  The
store keeps every node it builds in normal form, and each step preserves
mass, so the result needs no normalizing pass.
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
    fold,
)
from .oracle import Action, Condition

INCLUDED = "I"
EXCLUDED = "E"
MIXED = "M"


class LabelMap(Dict[str, str]):
    """Node key -> label, filled in by one condition pass (:func:`_label`).

    The pass does not descend below a node whose variables avoid the
    condition's, so the nodes under it are missing; like it, they are
    included, and that is what they read.
    """

    def __missing__(self, key: str) -> str:
        return INCLUDED


class NotMixed(AobsError):
    """Isolation was requested for a node that is not labeled mixed."""


class MassLeak(AobsError):
    """An action or normalization left the root with total mass other
    than 1."""


def _label(root: Node, c: Condition, labels: LabelMap) -> Tuple[str, float]:
    """The label of ``root`` and the mass the condition selects in it, in one
    pass that labels the nodes below it into ``labels``.

    An included node selects its ``mass``, an excluded one 0, and a mixed
    one the mass its step records.  A node whose variables avoid the
    condition's is included without visiting its children.
    """
    allowed = c.allowed
    cvars = c.variables
    mixed: Dict[str, float] = {}  # node key -> selected mass, mixed nodes

    def selected(node: Node) -> float:
        if labels[node.key] == INCLUDED:
            return node.mass
        return mixed.get(node.key, 0.0)

    def leaf(node: Node) -> Optional[str]:
        if cvars.isdisjoint(node.omega):
            return INCLUDED
        if node.kind != LIT:
            return None
        return INCLUDED if node.value in allowed[node.var] else EXCLUDED

    def step(node: Node) -> str:
        kids = node.children
        if node.kind == AND:
            out = INCLUDED
            for ch in kids:
                cl = labels[ch.key]
                if cl == EXCLUDED:
                    return EXCLUDED
                if cl == MIXED:
                    out = MIXED
            if out == MIXED:
                mixed[node.key] = math.prod([selected(ch) for ch in kids])
            return out
        # an OR whose children agree has their label, else it is mixed
        out = labels[kids[0].key]
        for ch in kids:
            if labels[ch.key] != out:
                out = MIXED
                break
        if out == MIXED:
            mixed[node.key] = sum([w * selected(ch) for w, ch
                                   in zip(node.weights, kids)])
        return out

    return fold(root, labels, step, leaf), selected(root)


def label_nodes(root: Node, c: Condition) -> LabelMap:
    """Label the reachable nodes as included, excluded, or mixed.

    A node is included when all of its substate satisfies the condition,
    excluded when none of it does, mixed otherwise.  Keys are node digests.
    Nodes below one whose variables avoid the condition's are left out of
    the map and read included.
    """
    labels = LabelMap()
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
    explored.  They are listed in depth-first order.
    """
    need = avars | c.variables
    out: List[Node] = []
    seen: set = set()

    def qualifies(n: Node) -> bool:
        return labels[n.key] != EXCLUDED and need <= n.omega

    stack = [root] if qualifies(root) else []
    while stack:
        n = stack.pop()
        if n.key in seen:
            continue
        seen.add(n.key)
        inner = [ch for ch in n.children if qualifies(ch)]
        if inner:
            stack.extend(reversed(inner))
        else:
            out.append(n)
    return out


def isolate(n: Node, labels: LabelMap, store: Store,
            memo: Optional[Dict[str, Node]] = None) -> Node:
    """Rewrite a mixed node into an equivalent OR with pure children.

    ``labels`` holds the condition's labels of ``n`` and the nodes below it;
    the label of each term it builds is added to it, so every edge of the
    result is labeled.  An OR's mixed children are isolated first, and the
    store splices their edges in with multiplied weights.  A mixed AND
    becomes an OR over one fully-included term plus disjoint telescoped
    excluded terms, so the edge weights still sum to the node's original
    mass.  ``memo`` maps node keys to isolated nodes (a pure node to
    itself); isolating depends only on the node and the condition, so all
    isolations of one action can share one memo.
    """
    if labels[n.key] != MIXED:
        raise NotMixed(f"cannot isolate a node labeled {labels[n.key]}")
    iso: Dict[str, Node] = {} if memo is None else memo

    def leaf(node: Node) -> Optional[Node]:
        return node if labels[node.key] != MIXED else None

    def step(node: Node) -> Node:
        if node.kind == OR:
            # an OR is pure once its mixed children are split
            if all(labels[g.key] != MIXED for g in node.children):
                return node
            return store.make_or([(w, iso[ch.key]) for w, ch in node.edges()])
        return _split_and(node, labels, iso, store)

    return fold(n, iso, step, leaf)


def _split_and(n: Node, labels: LabelMap, iso: Dict[str, Node],
               store: Store) -> Node:
    """The mixed AND ``n`` as an OR with pure children, its mixed children
    isolated in ``iso``: split each of them into included/excluded halves.
    The terms' labels are added to ``labels``."""
    fixed: List[Node] = []
    parts: List[Tuple[Node, Node, Node, float]] = []  # (inc, exc, full, m)
    for ch in n.children:
        cl = labels[ch.key]
        if cl == EXCLUDED:
            raise AobsError("mixed AND node with an excluded child")
        if cl == INCLUDED:
            fixed.append(ch)
            continue
        pure = iso[ch.key]
        inc = [(w, g) for w, g in pure.edges() if labels[g.key] == INCLUDED]
        exc = [(w, g) for w, g in pure.edges() if labels[g.key] == EXCLUDED]
        total = sum(w for w, _ in pure.edges())
        inc_mass = sum(w for w, _ in inc)
        # each half is scaled by its own sum: ``total - inc_mass`` cancels
        # when the excluded half is small, and its OR would keep the error
        exc_mass = sum(w for w, _ in exc)
        parts.append((
            store.make_or([(w / inc_mass, g) for w, g in inc]),
            store.make_or([(w / exc_mass, g) for w, g in exc]),
            store.make_or([(w / total, g) for w, g in pure.edges()]),
            inc_mass / total,
        ))

    k = len(parts)
    terms: List[Tuple[float, Node]] = []
    included_mass = math.prod(m for _, _, _, m in parts)
    term = store.make_and(fixed + [inc for inc, _, _, _ in parts])
    labels[term.key] = INCLUDED
    terms.append((included_mass, term))
    prefix = 1.0
    for i in range(k):
        inc_i, exc_i, _, m_i = parts[i]
        weight = prefix * (1.0 - m_i)
        children = list(fixed)
        children.extend(parts[j][0] for j in range(i))
        children.append(exc_i)
        children.extend(parts[j][2] for j in range(i + 1, k))
        term = store.make_and(children)
        labels[term.key] = EXCLUDED
        terms.append((weight, term))
        prefix *= m_i
    return store.make_or(terms)


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
    erased: Dict[str, Node] = {} if memo is None else memo

    def leaf(node: Node) -> Optional[Node]:
        if avars.isdisjoint(node.omega):
            return node
        if node.omega <= avars:
            return store.empty_and()
        return None

    return fold(n, erased, store.rebuilder(erased), leaf)


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
    """Rescale a belief state so that every OR has unit mass, without
    changing its semantics.

    Every OR is rescaled to unit weight with the excess pushed up into the
    nearest ancestor OR edge; the scale arriving at the root must be 1.  The
    store keeps every node spliced, so this is only needed for states built
    with OR weights that do not sum to 1, before :func:`apply_action`.
    """
    store = s.store
    memo: Dict[str, Tuple[float, Node]] = {}

    def step(node: Node) -> Tuple[float, Node]:
        if node.kind == LIT:
            return 1.0, node
        parts = [memo[ch.key] for ch in node.children]
        if node.kind == AND:
            return (math.prod([sc for sc, _ in parts]),
                    store.make_and([nn for _, nn in parts]))
        edges = [(w * sc, nn) for w, (sc, nn) in zip(node.weights, parts)]
        total = sum([w for w, _ in edges])
        return total, store.make_or([(w / total, nn) for w, nn in edges])

    scale, root = fold(s.root, memo, step)
    if abs(scale - 1.0) > EPS_P:
        raise MassLeak(f"root mass is {scale}, expected 1")
    return Aobs(root, s.store, s.universe, s.var_names)


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
    erased action variables, and ancestors are rebuilt along affected paths.
    Total mass is preserved.

    Every OR of ``s`` must have unit weight, as every constructor and every
    pipeline output has; call :func:`normalize` first on a state built
    otherwise.  The store splices as it builds and each step preserves mass,
    so the result is in normal form; :class:`MassLeak` is raised if its root
    mass is not 1.
    """
    c.check_within(s.universe)
    a.check_within(s.universe)
    store = s.store
    labels = LabelMap()
    root_label, selected = _label(s.root, c, labels)
    if root_label == EXCLUDED:
        return ApplyResult(s, 0.0)

    avars = a.variables
    need = avars | c.variables
    act_node = action_subgraph(store, a)
    minimal = find_minimal_subgraphs(s.root, c, avars, labels)
    erased: Dict[str, Node] = {}
    isolated: Dict[str, Node] = {}

    def graft(part: Node) -> Node:
        return store.make_and([erase_action_vars(part, avars, store, erased),
                               act_node])

    # rebuilt nodes by key, seeded with the replaced minimal subgraphs
    rebuilt: Dict[str, Node] = {}
    for n in minimal:
        if labels[n.key] == INCLUDED:
            rebuilt[n.key] = graft(n)
        else:
            iso = isolate(n, labels, store, isolated)
            edges = []
            for w, ch in iso.edges():
                if labels[ch.key] == INCLUDED:
                    ch = graft(ch)
                edges.append((w, ch))
            rebuilt[n.key] = store.make_or(edges)

    # Only ancestors of minimal subgraphs change, and every such ancestor
    # covers ``need`` and is included or mixed: an AND ancestor's other
    # children are disjoint from the minimal subgraph's variables, which
    # contain the condition's, so they are included.  Any other node is kept
    # as is.  A qualifying literal is minimal, so it is in ``rebuilt`` already.
    def kept(node: Node) -> Optional[Node]:
        if not need <= node.omega or labels[node.key] == EXCLUDED:
            return node
        return None

    new_root = fold(s.root, rebuilt, store.rebuilder(rebuilt), kept)
    if abs(new_root.mass - 1.0) > EPS_P:
        raise MassLeak(f"root mass is {new_root.mass}, expected 1")
    result = Aobs(new_root, store, s.universe, s.var_names)
    return ApplyResult(result, min(selected, 1.0))  # as `probability` clamps
