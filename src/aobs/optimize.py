"""Greedy factoring of common child subsets to shrink the belief-state DAG.

When two AND nodes share several children, the shared part can move into a new
AND node referenced by both parents.
"""
from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .core import AND, Aobs, Node, Store


class _PairIndex:
    """The nodes reachable from the current root and their AND pairs.

    ``inc`` counts the reachable parents of each reachable node, plus one for
    the root; ``parents`` and ``and_parents`` map a child key to the keys of
    its reachable parents of any kind and of kind AND.  ``heap`` holds
    ``(-shared, (-len(a.children), a.key), b.key)`` for every reachable AND
    pair sharing more than ``threshold`` children, ``a`` being the earlier of
    the two in that order.  Nodes are immutable, so an entry is exact for as
    long as both of its nodes stay reachable; other entries are dropped when
    they reach the top.
    """

    def __init__(self, root: Node, threshold: int) -> None:
        self.threshold = threshold
        self.nodes: Dict[str, Node] = {}
        self.inc: Dict[str, int] = {}
        self.parents: Dict[str, Set[str]] = {}
        self.and_parents: Dict[str, Set[str]] = {}
        self.heap: List[Tuple[int, Tuple[int, str], str]] = []
        self.link(root)

    def link(self, node: Node) -> None:
        """Add one reference to ``node``; index what becomes reachable."""
        nodes, inc = self.nodes, self.inc
        parents, and_parents = self.parents, self.and_parents
        stack = [node]
        while stack:
            n = stack.pop()
            k = n.key
            if k in inc:
                inc[k] += 1
                continue
            nodes[k] = n
            inc[k] = 1
            if n.kind == AND:
                for c in n.children:
                    parents.setdefault(c.key, set()).add(k)
                    and_parents.setdefault(c.key, set()).add(k)
                if len(n.children) > self.threshold:
                    self._push_pairs(n)
            else:
                for c in n.children:
                    parents.setdefault(c.key, set()).add(k)
            stack += n.children

    def unlink(self, node: Node) -> None:
        """Drop one reference to ``node``; forget what becomes unreachable."""
        nodes, inc = self.nodes, self.inc
        parents, and_parents = self.parents, self.and_parents
        stack = [node]
        while stack:
            n = stack.pop()
            k = n.key
            inc[k] -= 1
            if inc[k]:
                continue
            del inc[k], nodes[k]
            parents.pop(k, None)
            and_parents.pop(k, None)
            for c in n.children:
                parents[c.key].discard(k)
            if n.kind == AND:
                for c in n.children:
                    and_parents[c.key].discard(k)
            stack += n.children

    def _push_pairs(self, n: Node) -> None:
        """Queue the pairs of ``n`` with the AND nodes indexed before it."""
        and_parents = self.and_parents
        shared = Counter(chain.from_iterable(
            [and_parents[c.key] for c in n.children]))
        del shared[n.key]
        rank = (-len(n.children), n.key)
        for p, size in shared.items():
            if size > self.threshold:
                other = (-len(self.nodes[p].children), p)
                if rank < other:
                    heappush(self.heap, (-size, rank, p))
                else:
                    heappush(self.heap, (-size, other, n.key))

    def best(self) -> Optional[Tuple[Node, Node, FrozenSet[str]]]:
        """The reachable AND pair with the largest child intersection above
        the threshold; ties go to the pair whose first node has more
        children, then the lower key, and then to the lower-keyed partner."""
        heap, nodes = self.heap, self.nodes
        while heap:
            _, (_, akey), bkey = heap[0]
            if akey in nodes and bkey in nodes:
                a, b = nodes[akey], nodes[bkey]
                inter = (frozenset(c.key for c in a.children)
                         & frozenset(c.key for c in b.children))
                return a, b, inter
            heappop(heap)
        return None

    def ancestors(self, keys: Set[str]) -> Set[str]:
        """``keys`` and the keys of every reachable node above them."""
        out = set(keys)
        stack = list(keys)
        while stack:
            for p in self.parents.get(stack.pop(), ()):
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out


def greedy_optimize(s: Aobs, *, threshold: int = 2) -> Aobs:
    """Repeatedly extract the largest shared child subset of two AND nodes.

    Stops when no intersection larger than ``threshold`` remains.  Moving
    ``k`` shared children of two parents into a new AND replaces ``2k`` edges
    by ``k + 2`` edges and one node, a change of ``3 - k`` in the
    edge-plus-node size metric: the default threshold of 2 is the break-even
    point of that set-cover objective, at which no extraction grows the
    graph.
    Semantics are unchanged.

    One :class:`_PairIndex` per call holds the candidate pairs; each
    extraction rebuilds only the ancestors of its two nodes and updates the
    index with the nodes that became reachable or unreachable.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    store = s.store
    root = s.root
    index = _PairIndex(root, threshold)
    # safety bound: each useful extraction shrinks total child counts
    for _ in range(10 * len(index.nodes) + 100):
        found = index.best()
        if found is None:
            break
        a, b, inter = found
        targets = {a.key, b.key}
        new_root = _extract(root, index.ancestors(targets), targets, inter,
                            store, {})
        if new_root.key == root.key:
            break
        index.link(new_root)
        index.unlink(root)
        root = new_root
    return Aobs(root, store, s.universe, s.var_names)


def _extract(node: Node, dirty: Set[str], targets: Set[str],
             inter: FrozenSet[str], store: Store,
             rebuilt: Dict[str, Node]) -> Node:
    """Rebuild ``node`` with the children in ``inter`` of each target AND
    moved into one shared AND.  Only the nodes in ``dirty`` (the targets and
    their ancestors) can change; every other node is returned as is.
    Module-level rather than a closure, since a closure that calls itself is
    a reference cycle that keeps the store alive until the next full garbage
    collection."""
    if node.key not in dirty:
        return node
    got = rebuilt.get(node.key)
    if got is not None:
        return got
    if node.kind == AND:
        kids = [_extract(ch, dirty, targets, inter, store, rebuilt)
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
            [(w, _extract(ch, dirty, targets, inter, store, rebuilt))
             for w, ch in node.edges()]
        )
    rebuilt[node.key] = out
    return out
