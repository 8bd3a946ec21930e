"""Hash-consed And-Or DAG representation of discrete probabilistic belief states.

A belief state is a distribution over total assignments of integer values to a
fixed set of variables.  The DAG has three node kinds:

* ``LIT``  -- a single variable assignment, e.g. ``a = 0``;
* ``AND``  -- Cartesian product of children over pairwise disjoint variable sets;
* ``OR``   -- weighted union of children over identical variable sets.

Nodes are immutable and interned in a :class:`Store`, so structurally identical
subgraphs are shared automatically.  A node's ``key`` is an integer id that
its store hands out, unique within that store; its ``digest`` is a
structural name, equal for equal subgraphs in any store, computed only when
something reads it.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, TypeVar,
)

#: global tolerance for probability-mass checks
EPS_P = 1e-9

#: OR edge weights are rounded to this many significant digits inside node
#: keys, so float noise below a relative 5e-12 does not break structural
#: sharing, while weights of any magnitude keep their relative precision
WEIGHT_DIGITS = 12

LIT = "lit"
AND = "and"
OR = "or"

# A partial physical state: sorted tuple of (variable, value) pairs.
StateTuple = Tuple[Tuple[int, int], ...]

T = TypeVar("T")


class AobsError(Exception):
    """Base class for all errors raised by this package."""


class OverlappingSubspaces(AobsError):
    """Two AND children range over a common variable."""


class MismatchedSubspaces(AobsError):
    """OR children do not range over the same variable set."""


class MismatchedUniverse(AobsError):
    """Two belief states do not share a variable universe."""


class PartialAssignment(AobsError):
    """A physical state does not assign every variable of the universe."""


class ExpansionTooLarge(AobsError):
    """Materializing the state collection would exceed the configured cap."""


class UnknownVariable(AobsError):
    """A condition or action mentions a variable outside the universe."""


class Node:
    """An interned DAG node.  Do not construct directly; use a :class:`Store`.

    ``children`` is a tuple of child nodes in ``key`` order; for OR nodes
    ``weights`` is a parallel tuple of edge probabilities, otherwise it is
    empty.  ``key`` is the node's integer id in its store: the store
    interns by structure, so within one store equal subgraphs are one node
    with one key, and every memo over a graph keys on it.  Keys mean
    nothing across stores, and their order follows the order the store
    made the nodes in.  ``digest`` is the cross-store name: a blake2b
    digest of the node's structure, equal for structurally identical
    subgraphs in any store, computed on first read and cached.  Nodes
    compare by identity; to compare across stores, compare digests.
    ``omega`` is the node's variable set.  ``mass`` is the total mass of
    its substate: 1 for a literal, the product of the children's masses for
    an AND, and the weighted sum ``sum(w * child.mass)`` for an OR, so it
    is 1 only where the OR weights below sum to 1.  A condition on none of
    ``omega`` selects exactly ``mass``.
    """

    __slots__ = ("kind", "var", "value", "children", "weights", "key", "omega",
                 "mass", "_hexdigest")

    def __init__(self, kind, var, value, children, weights, key, omega, mass):
        self.kind = kind
        self.var = var
        self.value = value
        self.children = children
        self.weights = weights
        self.key = key
        self.omega = omega
        self.mass = mass
        self._hexdigest: Optional[str] = None

    @property
    def digest(self) -> str:
        """The structural digest, filled in below this node on first read."""
        if self._hexdigest is None:
            _fill_digests(self)
        return self._hexdigest

    @property
    def is_empty_and(self) -> bool:
        return self.kind == AND and not self.children

    def edges(self) -> Iterator[Tuple[float, "Node"]]:
        """Yield (weight, child) pairs; AND edges carry an implicit weight 1."""
        if self.kind == OR:
            yield from zip(self.weights, self.children)
        else:
            for child in self.children:
                yield 1.0, child

    def __repr__(self) -> str:
        if self.kind == LIT:
            return f"Lit({self.var}={self.value})"
        if self.kind == AND:
            return f"And({len(self.children)} children)"
        return f"Or({len(self.children)} children)"


def _digest(payload: str) -> str:
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _render(w: float, name: "str | int") -> str:
    """An OR edge as the unique table and the digest see it: the weight to
    ``WEIGHT_DIGITS`` significant digits, then the child's key or digest."""
    return f"{w:.{WEIGHT_DIGITS - 1}e}:{name}"


def _fill_digests(root: Node) -> None:
    """Digest ``root`` and every node below it without a digest, children
    first, on an explicit stack.  A literal's payload is ``L|var|value``,
    an AND's ``A|`` and its children's digests in digest order, an OR's
    ``O|`` and its edges rendered over the children's digests, in child
    digest order."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node._hexdigest is not None:
            stack.pop()
            continue
        todo = [c for c in node.children if c._hexdigest is None]
        if todo:
            stack += todo
            continue
        stack.pop()
        digests = [c._hexdigest for c in node.children]
        if node.kind == LIT:
            payload = f"L|{node.var}|{node.value}"
        elif node.kind == AND:
            payload = "A|" + "|".join(sorted(digests))
        else:
            payload = "O|" + "|".join([
                _render(w, d) for d, w in sorted(zip(digests, node.weights))])
        node._hexdigest = _digest(payload)


_by_key = attrgetter("key")
#: pending keys count down from -1, so none equals a store's id
_pending_keys = itertools.count(-1, -1)


class Pending:
    """A node built but not yet interned: a union whose edges a parent OR
    splices, or a product whose factors a parent AND takes in.

    It has the shape of a :class:`Node` (``kind``, ``children``,
    ``weights``, ``omega``), so :func:`fold` walks it, and the store's
    constructors splice one over interned children like an interned node of
    its kind.  Its children are interned or pending.  It is interned, with
    the pending nodes below it, only when a parent of the other kind keeps
    it or when it is a result (:meth:`Store.intern`).  ``key`` is a
    negative int, unique in the process, so a memo that holds it never
    confuses it with a store's id; ``node`` is its interned node once it
    has one.  It has no ``mass``.  ``pairs`` holds the merged edges of a
    union that :meth:`Store.union` built, so interning it does not merge
    them again.
    """

    __slots__ = ("kind", "children", "weights", "omega", "key", "node",
                 "pairs")

    def __init__(self, kind: str, children: tuple, weights: tuple,
                 omega: frozenset,
                 pairs: Optional[List[Tuple[float, Node]]] = None) -> None:
        self.kind = kind
        self.children = children
        self.weights = weights
        self.omega = omega
        self.key = next(_pending_keys)
        self.node: Optional[Node] = None
        self.pairs = pairs


def _interned(x: "Node | Pending") -> Optional[Node]:
    """A :func:`fold` leaf: a node is its own result, a pending node its
    interned node if it has one."""
    return x if type(x) is Node else x.node


class Store:
    """Append-only interning table for :class:`Node` objects.

    Construction validates the structural invariants (AND disjointness, OR
    subspace equality, positive weights) and returns the canonical node for a
    given structure, so identical subgraphs are physically shared.  It also
    keeps every node in normal form: an AND child of an AND and an OR child
    of an OR are spliced into their parent (the OR's edge weights
    multiplied), so graphs equal up to associativity share one node.

    The unique table is keyed on the children's ids, as a BDD package's
    is: a literal by ``(var, value)``, an AND by ``AND`` and its children's
    keys in key order, and an OR by the tuple of its edges rendered as
    ``weight:child key`` (``WEIGHT_DIGITS`` significant digits) in
    child-key order.  A structure the table already holds costs one lookup
    and is returned as it is; only a new node is validated, given its
    ``omega`` and ``mass``, and the next id from the store's counter as its
    ``key``.  Ids come from the counter, never from ``len(store)``, so they
    stay unique if the store ever drops nodes.  Nothing is digested here:
    a node's ``digest`` waits until something reads it.  A failed
    construction interns nothing.

    A pipeline that builds a union or a product its parent may splice can
    leave it :class:`Pending`: :meth:`union` merges edges exactly as
    :meth:`make_or` does (one routine, :meth:`_merge`) but does not intern
    them, the constructors splice a pending node over interned children
    like an interned one of its kind, and :meth:`intern` interns it once a
    parent of the other kind keeps it.  Nothing is then interned only to be
    spliced away.

    ``factored`` is the memo of :func:`aobs.optimize.greedy_optimize`: node
    key -> factored node, kept across calls.  Interned nodes are immutable
    and the store never drops one, so an entry never goes stale.
    ``refcounts`` is the optimizer's size guard: a :class:`RefCounts` table
    over the nodes reachable from the last root it was moved to, so each
    call counts only what changed since the last.  A future
    ``Store.collect`` that drops nodes must prune ``factored`` and reset
    ``refcounts`` too, or they keep the dropped nodes alive.
    """

    def __init__(self) -> None:
        self._nodes: Dict[tuple, Node] = {}
        self._ids = itertools.count()
        self.factored: Dict[int, Node] = {}
        self.refcounts = RefCounts()

    def __len__(self) -> int:
        return len(self._nodes)

    def make_lit(self, var: int, value: int) -> Node:
        """Intern the literal node ``var = value``."""
        node = self._nodes.get((var, value))
        if node is None:
            node = self._nodes[var, value] = Node(
                LIT, var, value, (), (), next(self._ids), frozenset((var,)),
                1.0)
        return node

    def make_and(self, children: Iterable[Node]) -> Node:
        """Intern the Cartesian product of ``children``.

        AND children are spliced in, so empty-AND children (the identity
        substate) drop out; a singleton collapses to the child itself; an
        empty input yields the canonical empty-AND node with unit mass and no
        variables.
        """
        kept = []
        for c in children:
            if c.kind == AND:
                kept.extend(c.children)
            else:
                kept.append(c)
        if len(kept) == 1:
            return kept[0]
        ordered = sorted(kept, key=_by_key)
        keys = (AND, *map(_by_key, ordered))
        node = self._nodes.get(keys)
        if node is not None:
            return node
        omegas = [c.omega for c in kept]
        omega = frozenset().union(*omegas)
        if len(omega) != sum(map(len, omegas)):
            seen: set = set()
            for c in kept:
                clash = seen & c.omega
                if clash:
                    raise OverlappingSubspaces(
                        f"AND children share variables {sorted(clash)}"
                    )
                seen |= c.omega
        mass = math.prod([c.mass for c in kept], start=1.0)
        node = self._nodes[keys] = Node(
            AND, None, None, tuple(ordered), (), next(self._ids), omega, mass)
        return node

    def empty_and(self) -> Node:
        """The identity substate: unit mass over no variables."""
        return self.make_and(())

    def make_or(self, children: Iterable[Tuple[float, "Node | Pending"]]
                ) -> Node:
        """Intern the weighted union of ``children``.

        OR children, interned or :class:`Pending`, are spliced in with their
        edge weights multiplied, and duplicate child nodes are merged by
        summing their weights.  A single child with weight 1 collapses to
        the child itself.  Children must all range over the same variable
        set and weights must be positive and finite.
        """
        pairs = self._merge(children)
        if len(pairs) == 1 and abs(pairs[0][0] - 1.0) <= EPS_P:
            return pairs[0][1]
        return self._or_node(pairs)

    def _or_node(self, pairs: List[Tuple[float, Node]]) -> Node:
        """Intern the OR of the edges :meth:`_merge` returns."""
        edges = tuple([_render(w, c.key) for w, c in pairs])
        node = self._nodes.get(edges)
        if node is not None:
            return node
        omega = pairs[0][1].omega
        for _, c in pairs[1:]:
            if c.omega != omega:
                raise MismatchedSubspaces(
                    f"OR children range over {sorted(omega)} vs {sorted(c.omega)}"
                )
        weights, kids = zip(*pairs)
        mass = sum([w * c.mass for w, c in pairs])
        node = self._nodes[edges] = Node(
            OR, None, None, kids, weights, next(self._ids), omega, mass)
        return node

    def union(self, children: Iterable[Tuple[float, "Node | Pending"]]
              ) -> "Node | Pending":
        """The union :meth:`make_or` would intern, merged but not interned.

        The edges are merged by the same routine, so a parent OR that
        splices the result gets the weights it would get from the interned
        node.  A single child with weight 1 is returned as it is.
        """
        pairs = self._merge(children)
        if len(pairs) == 1 and abs(pairs[0][0] - 1.0) <= EPS_P:
            return pairs[0][1]
        weights, kids = zip(*pairs)
        return Pending(OR, kids, weights, kids[0].omega, pairs)

    @staticmethod
    def _merge(children: Iterable[Tuple[float, "Node | Pending"]]
               ) -> List[Tuple[float, Node]]:
        """The edges of a union in child-key order: OR children spliced in
        with their weights multiplied, duplicate children summed."""
        merged: Dict[int, Tuple[float, Node]] = {}
        for w, c in children:
            if not 0.0 < w < math.inf:  # also false for NaN
                raise AobsError(
                    f"OR edge weight must be positive and finite, got {w}"
                )
            spliced = (zip([w * v for v in c.weights], c.children)
                       if c.kind == OR else ((w, c),))
            for v, g in spliced:
                prev = merged.get(g.key)
                merged[g.key] = (prev[0] + v if prev else v, g)
        if not merged:
            raise AobsError("OR node requires at least one child")
        return [merged[k] for k in sorted(merged)]

    def intern(self, x: "Node | Pending") -> Node:
        """Intern a :class:`Pending` node and the pending nodes it holds; a
        node is returned as it is.

        Each pending node is built once, over its children's interned
        nodes, as :meth:`make_and` or :meth:`make_or` would build it, and
        keeps the result in its ``node`` slot.  A union from :meth:`union`
        is interned from its merged edges, at what the rest of
        :meth:`make_or` costs.
        """
        if type(x) is Node:
            return x
        if x.node is None and x.pairs is not None:
            x.node = self._or_node(x.pairs)
        elif x.node is None:
            memo: Dict[int, Node] = {}
            rebuild = self.rebuilder(memo)

            def step(p: Pending) -> Node:
                p.node = rebuild(p)
                return p.node

            fold(x, memo, step, _interned)
        return x.node

    def rebuilder(self, results: Mapping[int, Node]) -> Callable[[Node], Node]:
        """A :func:`fold` step that builds a node in this store over its
        children's ``results``."""
        def step(node: Node) -> Node:
            if node.kind == AND:
                return self.make_and([results[c.key] for c in node.children])
            if node.kind == OR:
                return self.make_or([(w, results[c.key]) for w, c
                                     in zip(node.weights, node.children)])
            return self.make_lit(node.var, node.value)

        return step

    def reintern(self, node: Node) -> Node:
        """Copy a node (and its subgraph) from another store into this one."""
        memo: Dict[int, Node] = {}
        return fold(node, memo, self.rebuilder(memo))


def iter_nodes(root: Node) -> Iterator[Node]:
    """Depth-first traversal over the unique nodes reachable from ``root``."""
    seen = {root.key}
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in node.children:
            if child.key not in seen:
                seen.add(child.key)
                stack.append(child)


def fold(root: Node, memo: Dict[int, T], step: Callable[[Node], T],
         leaf: Optional[Callable[[Node], Optional[T]]] = None) -> T:
    """Fold the DAG below ``root`` bottom-up and return ``memo[root.key]``.

    Each unique node ``n`` reachable from ``root`` and not yet in ``memo`` is
    stepped once, after all of its children, as ``memo[n.key] = step(n)``;
    ``step`` reads its children's results from ``memo``.  ``memo`` is also
    the visited set: a node already in it, from this walk or an earlier
    one, is neither stepped again nor descended into.  If ``leaf(n)`` is not
    None, it is ``n``'s result and ``n``'s children are not visited.

    Nodes are stepped in the order a recursive walk over the children in
    order would step them, but the walk keeps its own stack (a node, a
    ``None`` marker, then its children), so a graph of any depth is folded
    without recursion.
    """
    if root.key in memo:
        return memo[root.key]
    if leaf is not None:
        out = leaf(root)
        if out is not None:
            memo[root.key] = out
            return out
    stack: List[Optional[Node]] = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        if node is None:  # the marker: the node below it has its children
            node = pop()
            memo[node.key] = step(node)
        elif node.key not in memo:  # a node may be pushed more than once
            if not node.children:
                memo[node.key] = step(node)
                continue
            push(node)
            push(None)
            for child in reversed(node.children):
                key = child.key
                if key not in memo:
                    if leaf is None or (out := leaf(child)) is None:
                        push(child)
                    else:
                        memo[key] = out
    return memo[root.key]


def count_states(n: Node) -> int:
    """Number of (probability, state) rows a full expansion would produce.

    Duplicates are counted exactly as :func:`enumerate_states` would emit them.
    The store merges duplicate children of an OR, also those that splicing
    a nested OR brings together, so a nested union counts each of its
    distinct grandchildren once.
    """
    memo: Dict[int, int] = {}

    def step(node: Node) -> int:
        if node.kind == OR:
            return sum([memo[c.key] for c in node.children])
        out = 1  # also for a literal
        for c in node.children:
            out *= memo[c.key]
        return out

    return fold(n, memo, step)


def _merge_assign(a: StateTuple, b: StateTuple) -> StateTuple:
    return tuple(sorted(a + b))


def enumerate_states(
    n: Node, cap: int = 10**6, merge: bool = False
) -> List[Tuple[float, StateTuple]]:
    """Expand a node into its plain (probability, partial state) collection.

    OR nodes scale child collections by their edge weights; AND nodes take
    Cartesian products, multiplying probabilities and merging assignments.
    Duplicate states are kept as-is unless ``merge`` is set (merging early is
    equivalent to merging the final table and keeps intermediates small).
    """
    return list(_expand(n, cap, merge))


def _expand(
    n: Node, cap: int, merge: bool,
    allows: Optional[Callable[[int, int], bool]] = None,
) -> List[Tuple[float, StateTuple]]:
    """:func:`enumerate_states` with only the literals that ``allows``
    accepts (all if it is None): the rows of the states they select."""
    memo: Dict[int, List[Tuple[float, StateTuple]]] = {}

    def check(size: int) -> None:
        if size > cap:
            raise ExpansionTooLarge(f"expansion exceeds cap of {cap} rows")

    def step(node: Node) -> List[Tuple[float, StateTuple]]:
        if node.kind == LIT:
            if allows is None or allows(node.var, node.value):
                return [(1.0, ((node.var, node.value),))]
            return []
        if node.kind == AND:
            rows = [(1.0, ())]
            for c in node.children:
                sub = memo[c.key]
                check(len(rows) * len(sub))
                rows = [
                    (p * q, _merge_assign(s, t)) for p, s in rows for q, t in sub
                ]
                if merge:
                    rows = _merge_rows(rows)
            return rows
        rows = []
        for w, c in node.edges():
            sub = memo[c.key]
            check(len(rows) + len(sub))
            rows.extend((w * p, s) for p, s in sub)
        return _merge_rows(rows) if merge else rows

    def leaf(node: Node) -> Optional[List[Tuple[float, StateTuple]]]:
        # an AND over a literal the filter rejects selects nothing
        if node.kind == AND and any(
                ch.kind == LIT and not allows(ch.var, ch.value)
                for ch in node.children):
            return []
        return None

    return fold(n, memo, step, None if allows is None else leaf)


def _merge_rows(
    rows: Iterable[Tuple[float, StateTuple]]
) -> List[Tuple[float, StateTuple]]:
    acc: Dict[StateTuple, float] = {}
    for p, s in rows:
        acc[s] = acc.get(s, 0.0) + p
    return [(p, s) for s, p in acc.items()]


@dataclass
class Aobs:
    """A belief state: a root node plus its store and variable universe."""

    root: Node
    store: Store
    universe: Tuple[int, ...]
    var_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.root.omega != frozenset(self.universe):
            raise MismatchedUniverse(
                f"root ranges over {sorted(self.root.omega)}, "
                f"universe is {sorted(self.universe)}"
            )

    def name_of(self, var: int) -> str:
        if self.var_names is not None:
            return self.var_names[var]
        return f"v{var}"


def size_metric(g: Aobs) -> int:
    """The graph size |E| + N_and + N_or + 2 * N_lit over unique reachable nodes.

    An OR edge counts once per (parent, position); shared subgraphs are never
    counted twice.  Each node adds its own term: 2 for a literal, one per
    child plus 1 for an AND or OR.
    """
    return sum([2 if n.kind == LIT else len(n.children) + 1
                for n in iter_nodes(g.root)])


class RefCounts:
    """Reference counts over the nodes reachable from one tracked ``root``,
    and that root's :func:`size_metric` as ``size``.

    ``counts`` maps the key of each reachable node to its number of edges
    from reachable parents, plus 1 for the root itself.  :meth:`move` tracks
    another root by counting up from the new root, then down from the old
    one, so it visits only the nodes reachable from one of the two and not
    from both (the symmetric difference of the two graphs), never the part
    they share.
    """

    __slots__ = ("root", "counts", "size")

    def __init__(self) -> None:
        self.root: Optional[Node] = None
        self.counts: Dict[int, int] = {}
        self.size = 0

    def move(self, root: Node) -> int:
        """Track ``root`` instead of the current root; return its size.

        Counting up descends only into nodes whose count goes from 0 to 1,
        adding each one's size term; counting down descends only into nodes
        whose count reaches 0, dropping them and subtracting their terms.
        Both walks keep their own stack, so a graph of any depth is fine.
        """
        old = self.root
        if root is old:
            return self.size
        counts = self.counts
        size = self.size
        stack = [root]
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            key = node.key
            c = counts.get(key, 0)
            counts[key] = c + 1
            if not c:
                size += 2 if node.kind == LIT else len(node.children) + 1
                push(node.children)
        if old is not None:
            stack.append(old)
            while stack:
                node = pop()
                key = node.key
                c = counts[key] - 1
                if c:
                    counts[key] = c
                else:
                    del counts[key]
                    size -= 2 if node.kind == LIT else len(node.children) + 1
                    push(node.children)
        self.root = root
        self.size = size
        return size


def from_physical_state(
    store: Store,
    assignments: Mapping[int, int],
    universe: Sequence[int],
    var_names: Optional[Sequence[str]] = None,
) -> Aobs:
    """Build a unit-mass belief state from a total variable assignment."""
    _check_total(assignments, set(universe))
    return Aobs(_physical_root(store, assignments, universe), store,
                tuple(universe),
                tuple(var_names) if var_names is not None else None)


def _check_total(assignments: Mapping[int, int], universe: set) -> None:
    """Raise unless ``assignments`` assigns exactly the ``universe``."""
    missing = universe - set(assignments)
    if missing:
        raise PartialAssignment(f"missing variables {sorted(missing)}")
    extra = set(assignments) - universe
    if extra:
        raise UnknownVariable(f"unknown variables {sorted(extra)}")


def _physical_root(store: Store, assignments: Mapping[int, int],
                   universe: Sequence[int]) -> Node:
    """The AND of the literals of a total assignment, in universe order."""
    return store.make_and([store.make_lit(v, assignments[v])
                           for v in universe])


def union_roots(a: Aobs, b: Aobs, w: float) -> Aobs:
    """Weighted union of two belief states over the same universe.

    The result may represent some physical states twice; that does not affect
    inference.
    """
    if tuple(a.universe) != tuple(b.universe):
        raise MismatchedUniverse(
            f"universes differ: {a.universe} vs {b.universe}"
        )
    if not 0.0 < w < 1.0:
        raise AobsError(f"union weight must be in (0, 1), got {w}")
    other = b.root if b.store is a.store else a.store.reintern(b.root)
    root = a.store.make_or([(w, a.root), (1.0 - w, other)])
    return Aobs(root, a.store, a.universe, a.var_names)


def from_tabular(
    store: Store,
    rows: Sequence[Tuple[float, Mapping[int, int]]],
    universe: Sequence[int],
    var_names: Optional[Sequence[str]] = None,
) -> Aobs:
    """Build a belief state as one union of physical states.

    Each row's probability is divided by the rows' total, so the root has
    unit mass.  The result is correct but not minimal; building a minimal
    graph from a tabular state is out of scope.  Pass the result through the
    greedy optimizer to recover sharing.
    """
    if not rows:
        raise AobsError("tabular belief state needs at least one row")
    total = sum(p for p, _ in rows)
    if abs(total - 1.0) > 1e-6:
        raise AobsError(f"tabular probabilities sum to {total}, expected 1")
    variables = set(universe)
    edges = []
    for p, state in rows:
        if state.keys() != variables:
            _check_total(state, variables)
        edges.append((p / total, _physical_root(store, state, universe)))
    root = store.make_or(edges)
    return Aobs(root, store, tuple(universe),
                tuple(var_names) if var_names is not None else None)
