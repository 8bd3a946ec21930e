"""Applying a probabilistic action to a condition-selected belief substate.

The pipeline keeps the DAG compact: label nodes against the condition, locate
the minimal subgraphs covering the action and condition variables, split each
into the products the condition selects and the edges it excludes, graft the
action's outcome subgraph onto each product with the action variables erased,
and rebuild the ancestors.  The store keeps every node it builds in normal
form, and each step preserves mass, so the result needs no normalizing pass.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .core import (
    AND,
    EPS_P,
    OR,
    Aobs,
    AobsError,
    Node,
    OverlappingSubspaces,
    Store,
    _by_key,
    _factors,
    _or_edges,
    fold,
)
from .oracle import Action, Condition
from .query import EXCLUDED, INCLUDED, MANY, MIXED, Pass, condition_pass

Edge = Tuple[float, Node]
Product = Tuple[float, List[Node]]  # a product not built yet, as its factors
Split = Tuple[List[Product], List[Edge]]  # see :func:`isolate`

#: what :func:`erase_action_vars` holds for a descendant it drops
_DROPPED = object()


class MassLeak(AobsError):
    """An action or normalization left the root with total mass other
    than 1."""


def find_minimal_subgraphs(root: Node, need: FrozenSet[int],
                           cvars: FrozenSet[int], ps: Pass) -> List[Node]:
    """Find the unique minimal subgraphs where the action can be applied.

    A node qualifies when it is labeled included or mixed and its variable set
    covers ``need``, the union of the action variables and ``cvars``, the
    condition's; it is minimal when no child also qualifies.  ``ps`` is the
    condition pass (:func:`aobs.query.condition_pass`).  Within an OR every
    included/mixed child is explored.  Within an AND at most one child can
    cover ``need`` (its children are variable-disjoint), and the pass names
    it: for an AND it did not settle, the one child other than a literal
    that meets the condition, if only one does.  An AND it settled meets
    the condition in literals only, so no child covers ``need`` unless
    ``need`` is one variable; the children of such an AND, as of every AND
    under a condition on no variables, are tested one by one.  The minimal
    subgraphs are listed in depth-first order, the order
    :func:`apply_action` builds their replacements in.

    A mixed minimal subgraph is an AND: a mixed OR has an included or
    mixed child, which covers the OR's variables and so qualifies.  The
    store splices an AND child into its parent AND, so every parent of a
    mixed minimal subgraph is an OR.
    """
    labels, _, _, meets = ps
    label = labels.get
    scan = not cvars or len(need) == 1
    out: List[Node] = []
    seen: set = set()
    stack = ([root] if need <= root.omega
             and label(root.key, INCLUDED) != EXCLUDED else [])
    while stack:
        n = stack.pop()
        if n.key in seen:
            continue
        seen.add(n.key)
        one = meets.get(n.key)
        if one is not None:  # an AND the pass did not settle
            inner = [one] if one is not MANY and need <= one.omega else ()
        elif n.kind == AND and not scan:
            inner = ()
        else:
            inner = [ch for ch in n.children if need <= ch.omega
                     and label(ch.key, INCLUDED) != EXCLUDED]
        if inner:
            stack.extend(reversed(inner))
        else:
            out.append(n)
    return out


def isolate(n: Node, ps: Pass, store: Store,
            memo: Dict[int, "Split | str"]) -> Split:
    """Split the mixed AND ``n``, a mixed minimal subgraph (see
    :func:`find_minimal_subgraphs`), into ``(included, excluded)``: the
    ``(weight, factors)`` products the condition selects, not yet interned,
    and the ``(weight, node)`` edges it excludes.  Over unit-weight ORs,
    their OR is ``n``.

    ``ps`` is the condition pass (:func:`aobs.query.condition_pass`) that
    labels ``n`` and the nodes below it; a node missing from its labels is
    included.  ``n`` is split by :func:`_split_and` after a fold below its
    mixed children only, which the pass names: its included children need
    no visit of their own.  Below them a mixed OR takes in its children's
    splits with the weights multiplied, and a mixed AND is split by
    :func:`_split_and`.  ``memo`` maps node keys to splits, a pure node's
    being its label, and a mixed child of an AND also keeps its halves in
    its entry (see :func:`_split_and`); a split depends only on the node
    and the labels, so all minimal subgraphs of one action share one memo,
    and a node that several of them hold is split once.
    """
    labels, _, _, meets = ps

    def leaf(node: Node) -> Optional[str]:
        label = labels.get(node.key, INCLUDED)
        return None if label == MIXED else label

    def step(node: Node) -> Split:
        if node.kind == AND:
            return _split_and(node, ps, memo, store)
        inc: List[Product] = []
        exc: List[Edge] = []
        for w, ch in zip(node.weights, node.children):
            split = memo[ch.key]
            if split == INCLUDED:
                inc.append((w, [ch]))
            elif split == EXCLUDED:
                exc.append((w, ch))
            else:
                inc += [(w * v, f) for v, f in split[0]]
                exc += [(w * v, g) for v, g in split[1]]
        return inc, exc

    one = meets[n.key]
    for ch in n.children if one is MANY else (one,):  # in key order
        if labels.get(ch.key) == MIXED:
            fold(ch, memo, step, leaf)
    return _split_and(n, ps, memo, store)


def _placed(kids: List[Node], new: Iterable[Node]) -> List[Node]:
    """``kids``, a list in key order, with each of ``new`` put in its
    place: appended if it is newer than the last, else placed by
    bisection.  The list is changed in place and returned."""
    for g in new:
        if kids and g.key < kids[-1].key:
            insort(kids, g, key=_by_key)
        else:
            kids.append(g)
    return kids


def _check_cover(factors: list, omega: FrozenSet[int]) -> None:
    """Raise :class:`OverlappingSubspaces` unless the factors' variable
    sets are disjoint and their union is ``omega``."""
    omegas = [f.omega for f in factors]
    if len(omegas) == 1:
        covers = omegas[0] == omega
    else:
        covers = (sum(map(len, omegas)) == len(omega)
                  and frozenset().union(*omegas) == omega)
    if not covers:
        raise OverlappingSubspaces(f"factors over {list(map(sorted, omegas))}"
                                   f" do not partition {sorted(omega)}")


def _split_and(n: Node, ps: Pass, splits: Dict[int, "Split | str"],
               store: Store) -> Split:
    """The split of the mixed AND ``n``, its mixed children split in
    ``splits``.  The included product holds the included children and the
    included half of each mixed child: the half itself if it is one
    product, else the OR of its products.  Excluded term ``i`` swaps the
    included half of mixed child ``i`` for its excluded half, and keeps the
    mixed children after it whole: over unit-weight ORs each is the union
    of its own two halves.

    The pass ``ps`` names the mixed child when only one child other than a
    literal meets the condition, and the included children are the others;
    else the labels tell them apart.  Mixed children are taken in the order
    of their lowest variable, which the graph fixes, so the terms do not
    depend on the store's ids.  A mixed child's halves and its included
    share are built once and kept in its entry in ``splits``, after its
    split.  Every product keeps its factors in key order (:func:`_placed`),
    and each term is built over ``n.omega``, checked only where it differs
    from ``n``: each half of a mixed child must range exactly over that
    child's variables."""
    labels, _, _, meets = ps
    children = n.children
    one = meets[n.key]
    if one is MANY:
        fixed = [ch for ch in children if labels.get(ch.key) != MIXED]
        mixed = sorted([ch for ch in children if labels.get(ch.key) == MIXED],
                       key=lambda ch: min(ch.omega))
    else:
        i = children.index(one)
        fixed, mixed = [*children[:i], *children[i + 1:]], [one]
    parts: List[tuple] = []  # (inc, exc, inc half, share, exc half)
    for ch in mixed:
        got = splits[ch.key]
        if len(got) == 2:  # its halves are not built yet
            inc, exc = got
            # each half is scaled by its own sum: ``total - inc_mass``
            # cancels when the excluded half is small, and its OR would
            # keep the error
            inc_mass = sum([w for w, _ in inc])
            exc_mass = sum([w for w, _ in exc])
            half = (inc[0][1] if len(inc) == 1 else [store.make_or(
                [(w / inc_mass, store.make_and(f)) for w, f in inc])])
            exc_half = store.make_or([(w / exc_mass, g) for w, g in exc])
            _check_cover(half, ch.omega)
            _check_cover([exc_half], ch.omega)
            got = splits[ch.key] = (
                inc, exc, half, inc_mass / (inc_mass + exc_mass), exc_half)
        parts.append(got)

    excluded: List[Edge] = []
    factors: List[Node] = fixed  # included children and halves, spliced
    prefix = 1.0
    for i, (_, _, half, share, exc_half) in enumerate(parts):
        kids = _placed(factors[:], [*_factors(exc_half), *mixed[i + 1:]])
        term = store._and_sorted(kids, n.omega)
        excluded.append((prefix * (1.0 - share), term))
        prefix *= share
        factors = _placed(factors[:], [g for f in half for g in _factors(f)])
    return [(prefix, factors)], excluded


def erase_action_vars(
    n: Node,
    avars: FrozenSet[int],
    store: Store,
    memo: Dict[int, Node],
) -> Node:
    """Remove every maximal descendant ranging only over action variables.

    Assumes the node is purely included and its OR weights sum to 1, so the
    erased parts carry unit mass and can be dropped without rescaling, and
    that it ranges over some variable outside ``avars``: the caller drops
    a factor over action variables only itself.  A descendant over action
    variables only is left out of its parent AND, and nothing is interned
    in its place.  A subgraph whose variables are disjoint from ``avars``
    is returned unchanged.
    ``memo`` maps node keys to erased nodes, and a dropped descendant to
    :data:`_DROPPED`; erasing depends only on the node and ``avars``, so
    all grafts of one action share one memo.
    """
    def leaf(node: Node) -> Optional[Node]:
        if avars.isdisjoint(node.omega):
            return node
        if node.omega <= avars:
            return _DROPPED
        return None

    def step(node: Node) -> Node:
        # ``leaf`` settles every literal, and an OR's children share its
        # variables, so only an AND drops any
        if node.kind == OR:
            return store.make_or([(w, memo[c.key]) for w, c
                                  in zip(node.weights, node.children)])
        return store.make_and([e for c in node.children
                               if (e := memo[c.key]) is not _DROPPED])

    return fold(n, memo, step, leaf)


def action_subgraph(store: Store, a: Action) -> Node:
    """The action's outcome distribution as a weighted union of
    assignments: an OR of one AND of literals per outcome, which collapses
    to that AND (or literal) when the outcomes agree.  Each outcome's AND
    is built over the action's variables with unit mass, unchecked."""
    avars = a.variables

    def outcome(values: Tuple[int, ...]) -> Node:
        # ``Action`` rejects a repeated variable, and literals have unit mass
        lits = [store.make_lit(v, u) for v, u in zip(a.vars, values)]
        lits.sort(key=_by_key)
        return store._and_sorted(lits, avars, 1.0)

    return store.make_or([(p, outcome(values)) for p, values in a.outcomes])


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

    return s.with_root(fold(s.root, memo, step))


@dataclass
class ApplyResult:
    """Outcome of applying an action: the new state plus the mass the
    condition selected in the old state (0 means the action was a no-op)."""

    state: Aobs
    selected_mass: float


def apply_action(s: Aobs, c: Condition, a: Action) -> ApplyResult:
    """Apply a state-independent action to the condition-selected substate.

    The belief state is rewritten persistently.  The labels and the
    selected mass come from :func:`aobs.query.condition_pass`, which a read
    on the same state and an equal condition may already have run.  A
    minimal subgraph the condition includes is one product, grafted whole;
    any other is split (:func:`isolate`) and becomes the union of its
    excluded edges and its grafted products.  Ancestors are rebuilt along
    affected paths; that union is handed to the OR parents of its subgraph
    as edges (:func:`aobs.core._or_edges`), and interned only if the
    subgraph is the root.  The store keeps only the nodes made here that
    the result reaches (:meth:`~aobs.core.Store.sweep`), and none if this
    raises.

    Every OR of ``s`` must have unit weight, as every constructor and every
    pipeline output has; call :func:`normalize` first on a state built
    otherwise.  Each step preserves mass, so :class:`MassLeak` is raised if
    the result's root mass is not 1.  The result is ``s`` over the new root
    (:meth:`~aobs.core.Aobs.with_root`).
    """
    a.check_within(s.root.omega)
    ps = condition_pass(s, c)
    labels, root_label, selected, _ = ps
    if root_label == EXCLUDED:
        return ApplyResult(s, 0.0)

    store = s.store
    avars = a.variables
    cvars = c.variables
    need = avars | cvars
    minimal = find_minimal_subgraphs(s.root, need, cvars, ps)
    # the memos of this action: erased nodes, each erased factor's checked
    # remainder, and splits (see isolate)
    erased: Dict[int, Node] = {}
    rest: Dict[int, Sequence[Node]] = {}
    splits: Dict[int, "Split | str"] = {}

    def graft(factors: List[Node], omega: FrozenSet[int]) -> Node:
        """The product over ``omega`` of the action subgraph and the
        factors, less the action variables; a product of one AND is read
        through its children.  Factors that meet the action variables are
        erased, each checked once to lose exactly them.  The kept factors
        stay in key order and the new ones are put in their places
        (:func:`_placed`)."""
        if len(factors) == 1:
            factors = _factors(factors[0])
        out: List[Node] = []
        new: List[Node] = []
        for g in factors:
            if avars.isdisjoint(g.omega):
                out.append(g)
            elif not g.omega <= avars:  # else it erases away
                got = rest.get(g.key)
                if got is None:
                    e = erase_action_vars(g, avars, store, erased)
                    _check_cover([e], g.omega - avars)
                    got = rest[g.key] = _factors(e)
                new += got
        new += act_factors
        return store._and_sorted(_placed(out, new), omega)

    # Only ancestors of minimal subgraphs change, and every such ancestor
    # covers ``need`` and is included or mixed: an AND ancestor's other
    # children are disjoint from the minimal subgraph's variables, which
    # contain the condition's, so they are included.  Any other node is kept
    # as is.  A qualifying literal is minimal, so it is never an ancestor.
    def kept(node: Node) -> Optional[Node]:
        if (not need <= node.omega
                or labels.get(node.key, INCLUDED) == EXCLUDED):
            return node
        return None

    # rebuilt nodes by key, seeded with the replaced minimal subgraphs
    rebuilt: Dict[int, "Node | List[Edge]"] = {}

    def rebuild(node: Node) -> Node:
        """A :func:`fold` step: ``node`` over its children's results in
        ``rebuilt``, where a union handed on as edges is spliced."""
        if node.kind == AND:
            return store.make_and([rebuilt[ch.key] for ch in node.children])
        edges: List[Edge] = []
        for w, ch in zip(node.weights, node.children):
            got = rebuilt[ch.key]
            if got.__class__ is list:  # a union's edges
                edges += [(w * v, g) for v, g in got]
            else:
                edges.append((w, got))
        return store.make_or(edges)

    # every node made from here on that the result does not reach is swept,
    # and all of them if the action raises
    mark = store.mark()
    new_root = None
    try:
        act = action_subgraph(store, a)
        act_factors = _factors(act)
        for n in minimal:
            if labels.get(n.key, INCLUDED) == INCLUDED:  # one product
                rebuilt[n.key] = graft([n], n.omega)
                continue
            inc, exc = isolate(n, ps, store, splits)
            # its parents are ORs (see find_minimal_subgraphs)
            kids, weights = _or_edges(
                [(w, graft(f, n.omega)) for w, f in inc] + exc)
            rebuilt[n.key] = list(zip(weights, kids))
        root = fold(s.root, rebuilt, rebuild, kept)
        if root.__class__ is list:  # the root itself was split
            root = store.make_or(root)
        if abs(root.mass - 1.0) > EPS_P:
            raise MassLeak(f"root mass is {root.mass}, expected 1")
        new_root = root
    finally:
        store.sweep(new_root, mark)
    # the selected mass is clamped as `probability` clamps it
    return ApplyResult(s.with_root(new_root), min(selected, 1.0))
