"""Applying a probabilistic action to a condition-selected belief substate.

The pipeline keeps the DAG compact: label nodes against the condition, locate
the minimal subgraphs covering the action and condition variables, split each
into the products the condition selects and the edges it excludes, graft the
action's outcome subgraph onto each product with the action variables erased,
and rebuild the ancestors.  The store keeps every node it builds in normal
form, and each step preserves mass, so the result needs no normalizing pass.

An action interns only what its result keeps.  A split hands its caller
edge lists and products not yet interned; an included half of several
products, the action's outcome subgraph and the rebuilt union of each
minimal subgraph are :class:`~aobs.core.Pending` nodes.  A pending union is
merged as :meth:`~aobs.core.Store.make_or` merges, so an OR parent splices
its edges with the weights the interned node would have had; a pending
product's factors go straight into the AND that keeps them; and either is
interned only when a parent of the other kind keeps it, or when it is the
result.
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
    Pending,
    Store,
    fold,
)
from .oracle import Action, Condition

INCLUDED = "I"
EXCLUDED = "E"
MIXED = "M"

Edge = Tuple[float, Node]
#: a product not yet interned; a factor is a node or a pending included half
Product = Tuple[float, List["Node | Pending"]]
Split = Tuple[List[Product], List[Edge]]  # see :func:`isolate`


#: node key -> label, filled in by one condition pass (:func:`_label`)
LabelMap = Dict[int, str]


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
    mixed: Dict[int, float] = {}  # node key -> selected mass, mixed nodes

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
    excluded when none of it does, mixed otherwise.  Keys are node ids
    (``Node.key``), which name a node only within its store.  The pass
    does not descend below a node whose variables avoid the condition's,
    so the nodes under it are left out of the plain dict it returns; like
    that node they are included, and read so through
    ``labels.get(key, INCLUDED)``.
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
    explored.  They are listed in depth-first order.
    """
    need = avars | c.variables
    out: List[Node] = []
    seen: set = set()

    def qualifies(n: Node) -> bool:
        return labels.get(n.key, INCLUDED) != EXCLUDED and need <= n.omega

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
            memo: Optional[Dict[int, Split]] = None) -> Split:
    """Split ``n`` into ``(included, excluded)``: the ``(weight, factors)``
    products the condition selects, not yet interned, and the ``(weight,
    node)`` edges it excludes.  Over unit-weight ORs, their OR is ``n``.

    ``labels`` holds the condition's labels of ``n`` and the nodes below
    it; a node missing from it is included.
    A pure node is its own one edge, a mixed OR takes in its children's
    edges with the weights multiplied, and a mixed AND is split by
    :func:`_split_and`.  ``memo`` maps node keys to splits; splitting
    depends only on the node and the condition, so all isolations of one
    action can share one memo.
    """
    splits: Dict[int, Split] = {} if memo is None else memo

    def leaf(node: Node) -> Optional[Split]:
        label = labels.get(node.key, INCLUDED)
        if label == INCLUDED:
            return [(1.0, [node])], []
        if label == EXCLUDED:
            return [], [(1.0, node)]
        return None

    def step(node: Node) -> Split:
        if node.kind == AND:
            return _split_and(node, labels, splits, store)
        inc: List[Product] = []
        exc: List[Edge] = []
        for w, ch in zip(node.weights, node.children):
            ch_inc, ch_exc = splits[ch.key]
            inc += [(w * v, f) for v, f in ch_inc]
            exc += [(w * v, g) for v, g in ch_exc]
        return inc, exc

    return fold(n, splits, step, leaf)


def _split_and(n: Node, labels: LabelMap, splits: Dict[int, Split],
               store: Store) -> Split:
    """The split of the mixed AND ``n``, its mixed children split in
    ``splits``.  The included product holds the included children and the
    included half of each mixed child.  Excluded term ``i`` swaps the
    included half of mixed child ``i`` for its excluded half, and keeps the
    mixed children after it whole: over unit-weight ORs each is the union
    of its own two halves.

    Mixed children are taken in the order of their lowest variable, which
    the graph fixes (children of an AND share no variable), so the terms
    do not depend on the ids the store handed out.

    A half of one product is spliced into the included product.  A half of
    several is a :class:`Pending` OR of its products (:func:`_half`), so
    nothing in it is interned until an excluded term or a graft keeps it;
    a graft that meets the action variables erases it without interning
    it at all."""
    fixed: List[Node] = []
    mixed: List[Node] = []
    for ch in n.children:
        cl = labels.get(ch.key, INCLUDED)
        if cl == EXCLUDED:
            raise AobsError("mixed AND node with an excluded child")
        (fixed if cl == INCLUDED else mixed).append(ch)
    if len(mixed) > 1:
        mixed.sort(key=lambda ch: min(ch.omega))
    parts: List[Tuple[list, float, Node]] = []  # (inc half, share, exc)
    for ch in mixed:
        inc, exc = splits[ch.key]
        # each half is scaled by its own sum: ``total - inc_mass`` cancels
        # when the excluded half is small, and its OR would keep the error
        inc_mass = sum([w for w, _ in inc])
        exc_mass = sum([w for w, _ in exc])
        half = (inc[0][1] if len(inc) == 1 else
                [_half(inc, inc_mass, ch.omega, store)])
        parts.append((half, inc_mass / (inc_mass + exc_mass),
                      store.make_or([(w / exc_mass, g) for w, g in exc])))

    excluded: List[Edge] = []
    factors: list = fixed  # the included children and halves so far
    prefix = 1.0
    for i, (half, share, exc_half) in enumerate(parts):
        if i:  # the term keeps the halves so far, so they are interned
            factors = [store.intern(f) for f in factors]
        term = store.make_and(factors + [exc_half] + mixed[i + 1:])
        excluded.append((prefix * (1.0 - share), term))
        factors = factors + half
        prefix *= share
    return [(prefix, factors)], excluded


def _half(inc: List[Product], inc_mass: float, omega: FrozenSet[int],
          store: Store) -> "Node | Pending":
    """The included half of several products, scaled to unit weight: a
    pending OR of the products, each its one factor or a pending AND.  Over
    interned products only, it is the pending union that
    :meth:`~aobs.core.Store.union` merges."""
    kids = [f[0] if len(f) == 1 else Pending(AND, tuple([
        g for x in f for g in (x.children if x.kind == AND else (x,))]),
        (), omega) for _, f in inc]
    weights = [w / inc_mass for w, _ in inc]
    if all([type(k) is Node for k in kids]):
        return store.union(zip(weights, kids))
    return Pending(OR, tuple(kids), tuple(weights), omega)


def erase_action_vars(
    n: Node,
    avars: FrozenSet[int],
    store: Store,
    memo: Optional[Dict[int, Node]] = None,
) -> Node:
    """Remove every maximal descendant ranging only over action variables.

    Assumes the node is purely included and its OR weights sum to 1, so the
    erased parts carry unit mass and can be dropped without rescaling.  If the
    whole node vanishes the empty-AND identity is returned; a subgraph whose
    variables are disjoint from ``avars`` is returned unchanged, and built
    as it is if it is :class:`Pending`.  ``memo`` maps node keys to erased
    nodes; erasing depends only on the node and ``avars``, so all grafts of
    one action can share one memo.
    """
    erased: Dict[int, Node] = {} if memo is None else memo

    def leaf(node: Node) -> Optional[Node]:
        if avars.isdisjoint(node.omega):
            return node if type(node) is Node else None
        if node.omega <= avars:
            return store.empty_and()
        return None

    return fold(n, erased, store.rebuilder(erased), leaf)


def action_subgraph(store: Store, a: Action) -> "Node | Pending":
    """The action's outcome distribution as a weighted union of assignments,
    not interned: one outcome is a :class:`Pending` AND of its literals,
    which a graft splices, and several are a pending union of interned
    outcome ANDs, which a graft keeps as one factor or an OR parent
    splices."""
    products = [(p, [store.make_lit(v, u) for v, u in zip(a.vars, values)])
                for p, values in a.outcomes]
    if len(products) == 1 and abs(products[0][0] - 1.0) <= EPS_P:
        return Pending(AND, tuple(products[0][1]), (), a.variables)
    return store.union([(p, store.make_and(f)) for p, f in products])


def normalize(s: Aobs) -> Aobs:
    """Rescale a belief state so that every OR has unit mass, without
    changing its semantics.

    Each node's stored ``mass`` is the scale its rescaled copy drops, so an
    OR edge ``(w, ch)`` becomes ``(w * ch.mass / node.mass, ch')``; ANDs and
    literals are rebuilt over their rescaled children.  The root's mass must
    be 1.  The store keeps every node spliced, so this is only needed for
    states built with OR weights that do not sum to 1, before
    :func:`apply_action`.
    """
    if abs(s.root.mass - 1.0) > EPS_P:
        raise MassLeak(f"root mass is {s.root.mass}, expected 1")
    store = s.store
    memo: Dict[int, Node] = {}
    rebuild = store.rebuilder(memo)

    def step(node: Node) -> Node:
        if node.kind != OR:
            return rebuild(node)
        return store.make_or([(w * ch.mass / node.mass, memo[ch.key])
                              for w, ch in zip(node.weights, node.children)])

    return Aobs(fold(s.root, memo, step), store, s.universe, s.var_names)


@dataclass
class ApplyResult:
    """Outcome of applying an action: the new state plus the mass the
    condition selected in the old state (0 means the action was a no-op)."""

    state: Aobs
    selected_mass: float


def apply_action(s: Aobs, c: Condition, a: Action) -> ApplyResult:
    """Apply a state-independent action to the condition-selected substate.

    The belief state is rewritten persistently.  Each minimal subgraph is
    split (:func:`isolate`) and becomes one OR of its excluded edges and its
    grafted products: each factor, or each child of an AND factor, loses the
    action variables, and the action subgraph joins them.  Ancestors are
    rebuilt along affected paths.  Total mass is preserved.

    Every OR of ``s`` must have unit weight, as every constructor and every
    pipeline output has; call :func:`normalize` first on a state built
    otherwise.  The store splices as it builds and each step preserves mass,
    so the result is in normal form; :class:`MassLeak` is raised if its root
    mass is not 1.
    """
    c.check_within(s.universe)
    a.check_within(s.universe)
    store = s.store
    labels: LabelMap = {}
    root_label, selected = _label(s.root, c, labels)
    if root_label == EXCLUDED:
        return ApplyResult(s, 0.0)

    avars = a.variables
    need = avars | c.variables
    act = action_subgraph(store, a)
    minimal = find_minimal_subgraphs(s.root, c, avars, labels)
    erased: Dict[int, Node] = {}
    splits: Dict[int, Split] = {}

    def graft(factors: list) -> "Node | Pending":
        kept = []
        for f in factors:
            for g in (f.children if f.kind == AND else (f,)):
                if avars.isdisjoint(g.omega):
                    kept.append(g if type(g) is Node else store.intern(g))
                else:
                    g = erase_action_vars(g, avars, store, erased)
                    if g.omega:  # else erased away
                        kept.append(g)
        if not kept:  # the action's outcomes alone, spliced by the union
            return act if act.kind == OR else store.intern(act)
        # make_and splices a pending AND of literals like an interned one
        return store.make_and([store.intern(act) if act.kind == OR else act]
                              + kept)

    # rebuilt nodes by key, seeded with the replaced minimal subgraphs; each
    # is a pending union, interned only if an AND keeps it
    rebuilt: Dict[int, "Node | Pending"] = {}
    for n in minimal:
        inc, exc = isolate(n, labels, store, splits)
        rebuilt[n.key] = store.union([(w, graft(f)) for w, f in inc] + exc)

    # Only ancestors of minimal subgraphs change, and every such ancestor
    # covers ``need`` and is included or mixed: an AND ancestor's other
    # children are disjoint from the minimal subgraph's variables, which
    # contain the condition's, so they are included.  Any other node is kept
    # as is.  A qualifying literal is minimal, so it is in ``rebuilt`` already.
    def kept(node: Node) -> Optional[Node]:
        if (not need <= node.omega
                or labels.get(node.key, INCLUDED) == EXCLUDED):
            return node
        return None

    def rebuild(node: Node) -> Node:
        if node.kind == OR:
            return store.make_or([(w, rebuilt[ch.key]) for w, ch
                                  in zip(node.weights, node.children)])
        return store.make_and([
            k if type(k := rebuilt[ch.key]) is Node else store.intern(k)
            for ch in node.children])

    new_root = store.intern(fold(s.root, rebuilt, rebuild, kept))
    if abs(new_root.mass - 1.0) > EPS_P:
        raise MassLeak(f"root mass is {new_root.mass}, expected 1")
    result = Aobs(new_root, store, s.universe, s.var_names)
    return ApplyResult(result, min(selected, 1.0))  # as `probability` clamps
