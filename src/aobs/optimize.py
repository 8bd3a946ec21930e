"""Greedy factoring of shared products out of unions to shrink the DAG.

Every child of an OR is a product of factors.  When several children share
factors ``X``, the group becomes one edge to ``AND(X, OR(remainders))``, since
``sum_i w_i (X x R_i) = X x sum_i w_i R_i``: algebraic factoring of a sum of
products.  The store splices as it builds, so the output has no AND under an
AND and no OR under an OR, and a later action keeps the factoring.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import AND, LIT, OR, Aobs, Node, Store, _factors, fold

Edge = Tuple[float, Node]


def greedy_optimize(s: Aobs) -> Aobs:
    """Factor the products shared by several children of each OR.

    Bottom-up, an AND is rebuilt from its factored children and an OR has
    its edges factored.  In an OR, an AND child counts as the set of its
    children and any other child as a one-element set.  For each factor that
    at least two children share, the group ``G`` is the children that contain
    it and ``X`` their common factors.  Replacing ``G`` by one edge to
    ``AND(X, OR(w_i / sum(G) : AND(R_i)))``, ``R_i`` being what child ``i``
    keeps besides ``X``, changes the edge-plus-node size metric locally by::

        sum cost(P_i) - sum cost(R_i) - |X| - 4

    where ``cost(m) = 1 + m`` for ``m >= 2`` and 0 otherwise (a one-factor
    product is an existing node): the ``|G|`` old products go, the OR loses
    ``|G| - 1`` edges, and the new AND (one node, ``|X| + 1`` edges), the new
    OR (one node, ``|G|`` edges) and the remainders come in.  With every
    ``R_i`` of two or more factors this gain is ``(|G| - 1) * |X| - 4``.  The
    best positive group is taken, ties going to the lowest factor digest, its
    inner OR is factored the same way, and this repeats until no group
    gains.  The store splices AND children of ANDs and OR children of ORs as
    it builds the nodes, so the output is in normal form; OR weights are
    kept, so a unit-mass input gives a unit-mass output.

    Products may be shared elsewhere in the DAG, so a local gain does not
    guarantee a global one: the result is kept only if its ``size_metric``
    is not larger than the input's.  Semantics are unchanged, and the
    result is ``s`` over the new root (:meth:`~aobs.core.Aobs.with_root`).
    Factored nodes are memoized in the store's ``factored`` table across
    calls, each output as its own fixed point, so the fold costs only the
    part of the graph built since the last call.  A node whose children
    factor to themselves is its own result, an OR unless one of its groups
    gains, and is not interned again.

    When the root changes, the guard reads both sizes from the store's
    reference-count table (``Store.refcounts``) instead of walking either
    graph: the table is moved from the root it tracked to the input's root,
    then to the result's root, and back to the input's if the result is
    larger.  Each move visits only the nodes reachable from one of the two
    roots and not from the other.  On a warm store the guard thus costs
    what the actions since its last move rebuilt plus what this call
    rebuilt, not the whole graph; the first guarded call in a store, or one
    on a state far from the last, walks what the table has not seen.
    """
    store = s.store
    memo = store.factored

    def step(node: Node) -> Node:
        if node.kind == LIT:
            out = node
        else:
            kids = [memo[ch.key] for ch in node.children]
            same = tuple(kids) == node.children
            if node.kind == AND:
                out = node if same else store.make_and(kids)
            else:
                out = _factor_union(list(zip(node.weights, kids)), store,
                                    memo, node if same else None)
        memo.setdefault(out.key, out)
        return out

    root = fold(s.root, memo, step)
    if root is s.root:
        return s
    sizes = store.refcounts
    before = sizes.move(s.root)
    if sizes.move(root) > before:
        sizes.move(s.root)
        return s
    return s.with_root(root)


def _factor_union(edges: List[Edge], store: Store, memo: Dict[int, Node],
                  same: Optional[Node] = None) -> Node:
    """Factor one OR over the (already factored) ``edges``.

    ``same``, if given, is the OR node that ``edges`` already form.  The
    store splices OR children, so its edges are exactly the terms below,
    and it is the result when no group gains, without interning it again."""
    terms: Dict[int, List] = {}  # product key -> [weight, product]
    for w, ch in edges:
        for w2, g in (ch.edges() if ch.kind == OR else ((1.0, ch),)):
            _add_term(terms, w * w2, g)
    while len(terms) > 1:
        best = _best_group(terms)
        if best is None:
            break
        same = None
        group, shared = best
        total = sum(terms[k][0] for k in group)
        inner: List[Edge] = []
        for k in group:
            w, n = terms.pop(k)
            inner.append((w / total, store.make_and(
                [f for f in _factors(n) if f.key not in shared])))
        rest = _factor_union(inner, store, memo)
        common = [f for f in _factors(n) if f.key in shared]
        _add_term(terms, total, store.make_and(common + [rest]))
    out = same if same is not None else store.make_or(
        [(w, n) for w, n in terms.values()])
    memo.setdefault(out.key, out)
    return out


def _add_term(terms: Dict[int, List], w: float, n: Node) -> None:
    got = terms.get(n.key)
    if got is None:
        terms[n.key] = [w, n]
    else:
        got[0] += w


def _cost(m: int) -> int:
    return 1 + m if m >= 2 else 0


def _best_group(terms: Dict[int, List]
                ) -> Optional[Tuple[Tuple[int, ...], FrozenSet[int]]]:
    """The group of products with the largest positive local gain, as the
    keys of its products and the keys of their common factors.

    Groups of exactly equal gain go to the one whose factor has the lowest
    digest, so the choice follows the graph and not the order its store
    made the nodes in.  Digests are read only to break such a tie."""
    sets = {k: frozenset([f.key for f in _factors(n)])
            for k, (_, n) in terms.items()}
    holders: Dict[int, List[int]] = {}
    for k, fs in sets.items():
        for f in fs:
            got = holders.get(f)
            if got is None:
                holders[f] = [k]
            else:
                got.append(k)
    found: Dict[Tuple[int, ...], Tuple[int, FrozenSet[int]]] = {}
    best_gain = 0
    tied: List[int] = []  # the factors whose groups have the best gain
    for fkey, ks in holders.items():
        if len(ks) < 2:
            continue
        group = tuple(ks)
        got = found.get(group)
        if got is None:
            shared = frozenset.intersection(*[sets[k] for k in group])
            x = len(shared)
            gain = sum(_cost(len(sets[k])) - _cost(len(sets[k]) - x)
                       for k in group) - x - 4
            got = found[group] = (gain, shared)
        if got[0] > best_gain:
            best_gain, tied = got[0], [fkey]
        elif got[0] == best_gain and tied:
            tied.append(fkey)
    if not tied:
        return None
    fkey = tied[0]
    if any(holders[f] != holders[fkey] for f in tied):
        fkey = min(tied, key=lambda f: next(
            g for g in _factors(terms[holders[f][0]][1]) if g.key == f).digest)
    group = tuple(holders[fkey])
    return group, found[group][1]
