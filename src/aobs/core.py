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
#: the printf format that rounds a weight to ``WEIGHT_DIGITS`` significant
#: digits, in OR keys and digests
_WEIGHT_KEY = f"%.{WEIGHT_DIGITS - 1}e"

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
            fold(self, {}, _digest_node, attrgetter("_hexdigest"))
        return self._hexdigest

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


def _digest_node(node: Node) -> str:
    """Digest ``node``, whose children have their digests.  A literal's
    payload is ``L|var|value``, an AND's ``A|`` and its children's digests
    in digest order, an OR's ``O|`` and its edges as ``weight:digest``, the
    weight to ``WEIGHT_DIGITS`` significant digits, in child digest order."""
    digests = [c._hexdigest for c in node.children]
    if node.kind == LIT:
        payload = f"L|{node.var}|{node.value}"
    elif node.kind == AND:
        payload = "A|" + "|".join(sorted(digests))
    else:
        payload = "O|" + "|".join([f"{_WEIGHT_KEY % w}:{d}" for d, w
                                   in sorted(zip(digests, node.weights))])
    node._hexdigest = _digest(payload)
    return node._hexdigest


_by_key = attrgetter("key")


def _factors(n: Node) -> Sequence[Node]:
    """The factors of the product ``n``: its children for an AND, else
    ``n`` alone."""
    return n.children if n.kind == AND else (n,)


class Store:
    """Interning table for :class:`Node` objects.

    Construction validates the structural invariants (AND disjointness, OR
    subspace equality, positive weights) and returns the canonical node for a
    given structure, so identical subgraphs are physically shared.  It also
    keeps every node in normal form: an AND child of an AND and an OR child
    of an OR are spliced into their parent (the OR's edge weights
    multiplied), so graphs equal up to associativity share one node; an
    AND holds its children in key order, and a product of one child is
    that child, whatever a caller passes.

    The unique table keys a node on its own fields, as a BDD package's
    keys on child identities (nodes hash and compare by identity): a
    literal on ``(var, value)``, an AND on the ``children`` tuple it holds,
    and an OR on its ``children`` and its weights rounded to
    ``WEIGHT_DIGITS`` significant digits.  A structure the table already
    holds costs one lookup and is returned as it is; only a new node is
    validated, given its ``omega`` and ``mass``, and the next id from the
    store's counter as its ``key``.  Ids come from the counter, never from
    ``len(store)``, so they stay unique when the store drops nodes.
    Nothing is digested here: a node's ``digest`` waits until something
    reads it.  A failed construction interns nothing.

    Every constructor interns at once.  Only
    :func:`aobs.acting.apply_action` drops nodes, through :meth:`mark` and
    :meth:`sweep`.  The sweep's contract is that nothing outside the
    action holds a node made after its mark: the action sets ``last_pass``
    before the mark, and ``factored`` and ``refcounts`` only ever see roots
    an action has returned.  A structure dropped and built again gets a
    new id.

    ``factored`` is the memo of :func:`aobs.optimize.greedy_optimize`: node
    key -> factored node, kept across calls.  Interned nodes are immutable
    and a sweep never drops one the optimizer has seen, so an entry never
    goes stale.  ``refcounts`` is the optimizer's size guard: a
    :class:`RefCounts` table over the nodes reachable from the last root it
    was moved to, so each call counts only what changed since the last.
    ``last_pass`` is the computed-table entry of
    :func:`aobs.query.condition_pass`: the last ``(root, condition,
    result)`` of the condition pass, so an action or a select after a read
    on the same state and an equal condition reuses its pass.
    """

    def __init__(self) -> None:
        self._nodes: Dict[tuple, Node] = {}
        self._ids = itertools.count()
        self.factored: Dict[int, Node] = {}
        self.refcounts = RefCounts()
        self.last_pass: Optional[tuple] = None

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
        kept.sort(key=_by_key)
        return self._and_sorted(kept)

    def _and_sorted(self, kids: Sequence[Node],
                    omega: Optional[frozenset] = None,
                    mass: Optional[float] = None) -> Node:
        """Intern the AND of ``kids``, none of them an AND, given in
        strictly increasing key order.  A lone child is returned as it is,
        and no children give the empty AND.  A hit costs the key and one
        lookup.

        A caller that passes ``omega`` vouches, by a check of its own, that
        the children's variable sets are disjoint with that union;
        otherwise, on a miss, the union is computed here and the sets are
        checked.  ``mass``, if not given, is the children's mass product
        in key order."""
        if len(kids) == 1:
            return kids[0]
        kids = tuple(kids)
        node = self._nodes.get(kids)
        if node is not None:
            return node
        if omega is None:
            omegas = [c.omega for c in kids]
            omega = frozenset().union(*omegas)
            if len(omega) != sum(map(len, omegas)):
                seen: set = set()
                for c in kids:
                    clash = seen & c.omega
                    if clash:
                        raise OverlappingSubspaces(
                            f"AND children share variables {sorted(clash)}"
                        )
                    seen |= c.omega
        if mass is None:
            mass = math.prod([c.mass for c in kids], start=1.0)
        node = self._nodes[kids] = Node(
            AND, None, None, kids, (), next(self._ids), omega, mass)
        return node

    def make_or(self, children: Iterable[Tuple[float, Node]]) -> Node:
        """Intern the weighted union of ``children``.

        OR children are spliced in with their edge weights multiplied, and
        duplicate child nodes are merged by summing their weights
        (:func:`_or_edges`).  A single child with weight 1 collapses to the
        child itself.  Children must all range over the same variable set
        and weights must be positive and finite.  The edges are kept in
        child-key order.
        """
        kids, weights = _or_edges(children)
        if len(kids) == 1 and weights[0] == 1.0:
            return kids[0]
        entry = (kids, tuple([float(_WEIGHT_KEY % w) for w in weights]))
        node = self._nodes.get(entry)
        if node is not None:
            return node
        omega = kids[0].omega
        for c in kids[1:]:  # identity first: children often share a set
            if c.omega is not omega and c.omega != omega:
                raise MismatchedSubspaces(
                    f"OR children range over {sorted(omega)} vs {sorted(c.omega)}"
                )
        mass = sum([w * c.mass for w, c in zip(weights, kids)])
        node = self._nodes[entry] = Node(
            OR, None, None, kids, weights, next(self._ids), omega, mass)
        return node

    def mark(self) -> int:
        """An id from the store's counter: every node made after this call
        has a larger key, every node made before it a smaller one."""
        return next(self._ids)

    def sweep(self, root: Optional[Node], mark: int) -> None:
        """Drop every node made since ``mark`` that ``root`` does not reach
        (all of them if ``root`` is None).

        One pass over the table's tail, newest node first, stopping at the
        first node older than the mark.  A node is made after its children
        and keeps them in key order, so a live node's new children are at
        the end of its ``children`` and are reached before the pass does.
        """
        nodes = self._nodes
        live = set() if root is None or root.key < mark else {root.key}
        dead = []
        for entry, node in reversed(nodes.items()):
            key = node.key
            if key < mark:
                break
            if key in live:
                for c in reversed(node.children):
                    if c.key < mark:
                        break
                    live.add(c.key)
            else:
                dead.append(entry)
        for entry in dead:
            del nodes[entry]

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


def _or_edges(children: Iterable[Tuple[float, Node]]
             ) -> Tuple[Tuple[Node, ...], Tuple[float, ...]]:
    """The children and weights of the union :meth:`Store.make_or` makes
    of ``children``, without interning it: each OR child spliced in with
    its edge weights multiplied, a child met more than once given the sum
    of its weights, in the order met, and the children in key order.  A
    lone child whose weight is 1 within ``EPS_P`` gets weight 1.0, since
    the union is that child.  Every weight given must be positive and
    finite.  An OR that takes these edges in place of the union gets the
    edges it would splice from it, bit for bit."""
    weight: Dict[int, float] = {}  # child key -> summed edge weight
    kid: Dict[int, Node] = {}
    for w, c in children:
        if not 0.0 < w < math.inf:  # also false for NaN
            raise AobsError(
                f"OR edge weight must be positive and finite, got {w}")
        if c.kind == OR:
            for v, g in zip(c.weights, c.children):
                key = g.key
                if key in weight:
                    weight[key] += w * v
                else:
                    weight[key] = w * v
                    kid[key] = g
        else:
            key = c.key
            if key in weight:
                weight[key] += w
            else:
                weight[key] = w
                kid[key] = c
    if not weight:
        raise AobsError("OR node requires at least one child")
    keys = sorted(weight)
    if len(keys) == 1 and abs(weight[keys[0]] - 1.0) <= EPS_P:
        return (kid[keys[0]],), (1.0,)
    return tuple([kid[k] for k in keys]), tuple([weight[k] for k in keys])


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
    leaf: Optional[Callable[[Node], Optional[list]]] = None,
) -> List[Tuple[float, StateTuple]]:
    """:func:`enumerate_states`, with ``leaf`` passed to :func:`fold`: a
    node for which it gives rows is not expanded, and has those rows."""
    memo: Dict[int, List[Tuple[float, StateTuple]]] = {}

    def check(size: int) -> None:
        if size > cap:
            raise ExpansionTooLarge(f"expansion exceeds cap of {cap} rows")

    def step(node: Node) -> List[Tuple[float, StateTuple]]:
        if node.kind == LIT:
            return [(1.0, ((node.var, node.value),))]
        if node.kind == AND:
            rows = [(1.0, ())]
            for c in node.children:
                sub = memo[c.key]
                check(len(rows) * len(sub))
                rows = [(p * q, tuple(sorted(s + t)))
                        for p, s in rows for q, t in sub]
                if merge:
                    rows = _merge_rows(rows)
            return rows
        rows = []
        for w, c in node.edges():
            sub = memo[c.key]
            check(len(rows) + len(sub))
            rows.extend((w * p, s) for p, s in sub)
        return _merge_rows(rows) if merge else rows

    return fold(n, memo, step, leaf)


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
        # a universe that repeats a variable fails on its length
        omega = self.root.omega
        if (len(self.universe) != len(omega)
                or omega != frozenset(self.universe)):
            raise MismatchedUniverse(
                f"root ranges over {sorted(self.root.omega)}, "
                f"universe is {sorted(self.universe)}"
            )

    def with_root(self, root: Node) -> "Aobs":
        """This state's store, universe and names over ``root``, which must
        range over this state's variables.  The universe was checked when
        this state was made, so only the two roots' variable sets are
        compared, identity first, and no set is built from the universe."""
        omega = self.root.omega
        if root.omega is not omega and root.omega != omega:
            raise MismatchedUniverse(
                f"root ranges over {sorted(root.omega)}, "
                f"the state over {sorted(omega)}"
            )
        out = object.__new__(Aobs)
        out.root, out.store = root, self.store
        out.universe, out.var_names = self.universe, self.var_names
        return out

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


def from_physical_state(store: Store, assignments: Mapping[int, int],
                        universe: Sequence[int]) -> Aobs:
    """Build a unit-mass belief state from a total variable assignment:
    the one-row table of :func:`from_tabular`, whose union of one product
    is that product.  Its variables are unnamed."""
    return from_tabular(store, [(1.0, assignments)], universe)


def _products(store: Store, universe: Sequence[int]
              ) -> Callable[[Mapping[int, int]], Node]:
    """A function that interns the AND of the literals of a total
    assignment that has been checked against ``universe``.

    Literals come from one table per call, indexed by variable and then by
    value, and filled from the store in universe order, so the store makes
    each literal and each product at the point where ``make_and`` over the
    literals would.  The product goes straight to the store's AND
    constructor with the universe as its variable set and unit mass, which
    is what a total assignment's literals have; a universe that repeats a
    variable is left to the constructor's check.
    """
    tables: List[Tuple[int, Dict[int, Node]]] = [(v, {}) for v in universe]
    omega = frozenset(universe)
    known = omega if len(omega) == len(universe) else None

    def product(assignments: Mapping[int, int]) -> Node:
        try:
            lits = [table[assignments[v]] for v, table in tables]
        except KeyError:  # a literal this call has not met yet
            lits = [table.get(u) or table.setdefault(u, store.make_lit(v, u))
                    for v, table in tables for u in (assignments[v],)]
        lits.sort(key=_by_key)
        return store._and_sorted(lits, known, 1.0)

    return product


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
    unit mass.  A row of probability 0 must still assign the universe, and
    is then left out.  The result is correct but not minimal; building a
    minimal graph from a tabular state is out of scope.  Pass the result
    through the greedy optimizer to recover sharing.
    """
    if not rows:
        raise AobsError("tabular belief state needs at least one row")
    total = sum(p for p, _ in rows)
    if not abs(total - 1.0) <= 1e-6:  # also true for a NaN total
        raise AobsError(f"tabular probabilities sum to {total}, expected 1")
    variables = set(universe)
    product = _products(store, universe)
    edges = []
    for p, state in rows:
        if state.keys() != variables:  # assigns too few or too many
            missing = variables - state.keys()
            if missing:
                raise PartialAssignment(f"missing variables {sorted(missing)}")
            raise UnknownVariable(
                f"unknown variables {sorted(state.keys() - variables)}")
        if p != 0:
            edges.append((p / total, product(state)))
    root = store.make_or(edges)
    return Aobs(root, store, tuple(universe),
                tuple(var_names) if var_names is not None else None)
