"""Greedy factoring of common child subsets to shrink the belief-state DAG.

When two AND nodes share several children, the shared part can move into a new
AND node referenced by both parents.  The same split applies to OR nodes whose
shared children carry proportional weights; this module only reports such OR
candidates.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .core import AND, LIT, OR, Aobs, Node, Store, iter_nodes


def _best_extraction(
    root: Node, threshold: int
) -> Optional[Tuple[Node, Node, FrozenSet[str]]]:
    """The pair of AND nodes with the largest child intersection above the
    threshold, preferring the largest nodes first."""
    ands = [n for n in iter_nodes(root) if n.kind == AND and len(n.children) >= 2]
    ands.sort(key=lambda n: (-len(n.children), n.key))
    by_child: Dict[str, List[Node]] = {}
    for n in ands:
        for ch in n.children:
            by_child.setdefault(ch.key, []).append(n)
    child_sets = {n.key: frozenset(c.key for c in n.children) for n in ands}
    by_key = {n.key: n for n in ands}
    best: Optional[Tuple[Node, Node, FrozenSet[str]]] = None
    best_size = threshold
    for a in ands:
        if len(a.children) <= best_size:
            break  # sorted by size; nothing bigger can follow
        partners: Set[str] = set()
        for ch in a.children:
            for b in by_child[ch.key]:
                if b.key != a.key:
                    partners.add(b.key)
        for bkey in sorted(partners):
            inter = child_sets[a.key] & child_sets[bkey]
            if len(inter) > best_size:
                best_size = len(inter)
                best = (a, by_key[bkey], inter)
    return best


def greedy_optimize(s: Aobs, node_cost: float = 1.0, threshold: int = 2) -> Aobs:
    """Repeatedly extract the largest shared child subset of two AND nodes.

    Stops when no intersection larger than ``threshold`` remains.  With the
    default threshold only intersections of three or more children are
    extracted, which never increases the edge-plus-node size metric
    (``node_cost`` is the per-node term of the underlying set-cover objective;
    the default threshold is its break-even point).  Semantics are unchanged.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    store = s.store
    root = s.root
    # safety bound: each useful extraction shrinks total child counts
    for _ in range(10 * len(list(iter_nodes(root))) + 100):
        found = _best_extraction(root, threshold)
        if found is None:
            break
        a, b, inter = found
        new_root = _extract(root, {a.key, b.key}, inter, store, {})
        if new_root.key == root.key:
            break
        root = new_root
    return Aobs(root, store, s.universe, s.var_names)


def _extract(node: Node, targets: Set[str], inter: FrozenSet[str],
             store: Store, rebuilt: Dict[str, Node]) -> Node:
    """Rebuild ``node`` with the children in ``inter`` of each target AND
    moved into one shared AND.  Module-level rather than a closure, since a
    closure that calls itself is a reference cycle that keeps the store alive
    until the next full garbage collection."""
    got = rebuilt.get(node.key)
    if got is not None:
        return got
    if node.kind == LIT:
        out = node
    elif node.kind == AND:
        kids = [_extract(ch, targets, inter, store, rebuilt)
                for ch in node.children]
        if node.key in targets:
            shared = store.make_and(
                [k for k, ch in zip(kids, node.children) if ch.key in inter]
            )
            rest = [k for k, ch in zip(kids, node.children)
                    if ch.key not in inter]
            out = store.make_and(rest + [shared])
        else:
            out = store.make_and(kids)
    else:
        out = store.make_or(
            [(w, _extract(ch, targets, inter, store, rebuilt))
             for w, ch in node.edges()]
        )
    rebuilt[node.key] = out
    return out


def or_factor_candidates(
    s: Aobs, eps: float = 1e-9
) -> List[Tuple[Tuple[Node, Node], Tuple[Node, ...]]]:
    """OR node pairs whose shared children have proportional weight vectors.

    Such a subset can move into a new OR node with the common scale on the new
    edge without changing semantics.  Only candidates with at least two shared
    children are reported.
    """
    ors = [n for n in iter_nodes(s.root) if n.kind == OR]
    ors.sort(key=lambda n: n.key)
    weight_of = {
        n.key: {c.key: w for w, c in n.edges()} for n in ors
    }
    out: List[Tuple[Tuple[Node, Node], Tuple[Node, ...]]] = []
    for i, a in enumerate(ors):
        for b in ors[i + 1:]:
            common = [
                ch for ch in a.children if ch.key in weight_of[b.key]
            ]
            if len(common) < 2:
                continue
            wa = [weight_of[a.key][ch.key] for ch in common]
            wb = [weight_of[b.key][ch.key] for ch in common]
            ratio = wb[0] / wa[0]
            if all(
                abs(y / x - ratio) <= eps * max(abs(ratio), 1.0)
                for x, y in zip(wa[1:], wb[1:])
            ):
                out.append(((a, b), tuple(common)))
    return out
