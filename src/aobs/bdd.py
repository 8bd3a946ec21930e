"""Self-contained reduced ordered BDD baseline with one-hot encoding.

Used only to compare graph sizes against the belief-state DAG: a BDD carries
the support of the belief state (which physical states have nonzero mass) but
no probabilities.  Multivalued variables are encoded one-hot: variable ``v``
with value space of size ``m`` becomes booleans ``v*m .. v*m+m-1``, exactly one
true.  The variable order is fixed (variable-major, value-minor) and never
tuned.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .core import AobsError
from .oracle import Action, Condition


class ValueOutOfRange(AobsError):
    """A value exceeds the boolean encoding's value-space size."""


class BddNode:
    __slots__ = ("var", "low", "high", "id")

    def __init__(self, var: int, low: "BddNode", high: "BddNode", uid: int):
        self.var = var
        self.low = low
        self.high = high
        self.id = uid

    def __repr__(self) -> str:
        if self.low is None:
            return f"Terminal({self.var})"
        return f"BddNode(x{self.var}, id={self.id})"


class BddManager:
    """Unique table plus memoized apply/exists over a fixed order."""

    def __init__(self, num_bools: int):
        self.num_bools = num_bools
        self.false = BddNode(num_bools, None, None, 0)
        self.true = BddNode(num_bools, None, None, 1)
        self._unique: Dict[Tuple[int, int, int], BddNode] = {}
        self._next_id = 2
        self._apply_memo: Dict[Tuple[str, int, int], BddNode] = {}

    def node(self, var: int, low: BddNode, high: BddNode) -> BddNode:
        if low is high:
            return low
        key = (var, low.id, high.id)
        got = self._unique.get(key)
        if got is None:
            got = BddNode(var, low, high, self._next_id)
            self._next_id += 1
            self._unique[key] = got
        return got

    def var(self, index: int) -> BddNode:
        if not 0 <= index < self.num_bools:
            raise ValueOutOfRange(f"boolean index {index} out of range")
        return self.node(index, self.false, self.true)

    def apply(self, op: str, a: BddNode, b: BddNode) -> BddNode:
        """Memoized Shannon expansion for AND, OR and DIFF (``a`` and not
        ``b``).

        The expansion keeps its own stack, so a BDD of any depth is applied
        without recursion.  A pair is expanded into its low then its high
        cofactor pair, and its node is made once both are done, so nodes get
        their ids in the order a recursive expansion would give them.
        """
        if op not in ("and", "or", "diff"):
            raise ValueError(f"unsupported operation {op!r}")
        false, true = self.false, self.true
        memo = self._apply_memo
        done: List[BddNode] = []  # results, a pair's low result below its high
        # (a, b, None) is a pair to apply; (level, None, key) marks a pair
        # whose two cofactor results are the top two of ``done``
        todo: List[tuple] = [(a, b, None)]
        while todo:
            a, b, key = todo.pop()
            if key is not None:
                high = done.pop()
                out = memo[key] = self.node(a, done.pop(), high)
                done.append(out)
                continue
            if op == "and":
                out = (false if a is false or b is false else
                       b if a is true or a is b else a if b is true else None)
            elif op == "or":
                out = (true if a is true or b is true else
                       b if a is false or a is b else a if b is false else None)
            else:
                out = (false if a is false or b is true or a is b else
                       a if b is false else None)
            if out is None:
                if a.id > b.id and op != "diff":  # only diff is not symmetric
                    a, b = b, a
                key = (op, a.id, b.id)
                out = memo.get(key)
                if out is None:
                    # split on the upper variable; an operand below it
                    # is its own low and high cofactor
                    av, bv = a.var, b.var
                    if av == bv:
                        todo += ((av, None, key), (a.high, b.high, None),
                                 (a.low, b.low, None))
                    elif av < bv:
                        todo += ((av, None, key), (a.high, b, None),
                                 (a.low, b, None))
                    else:
                        todo += ((bv, None, key), (a, b.high, None),
                                 (a, b.low, None))
                    continue
            done.append(out)
        return done[0]

    def exists(self, bvars: Iterable[int], f: BddNode) -> BddNode:
        """Existential quantification over a set of boolean indices, on an
        explicit stack like :meth:`apply`."""
        vs = frozenset(bvars)
        if not vs:
            return f
        top = max(vs)
        memo: Dict[int, BddNode] = {}
        done: List[BddNode] = []  # results, a node's low result below its high
        todo: List[Tuple[BddNode, bool]] = [(f, False)]
        while todo:
            g, expanded = todo.pop()
            if expanded:  # both of g's cofactor results are on ``done``
                high = done.pop()
                low = done.pop()
                if g.var in vs:
                    out = self.apply("or", low, high)
                else:
                    out = self.node(g.var, low, high)
                memo[g.id] = out
            elif g.low is None or g.var > top:
                out = g
            else:
                out = memo.get(g.id)
                if out is None:
                    todo.append((g, True))
                    todo.append((g.high, False))
                    todo.append((g.low, False))
                    continue
            done.append(out)
        return done[0]

    def evaluate(self, f: BddNode, bits: Sequence[bool]) -> bool:
        while f.low is not None:
            f = f.high if bits[f.var] else f.low
        return f is self.true


def bdd_size(f: BddNode) -> int:
    """Count of reachable internal nodes; terminals are excluded."""
    seen = set()
    stack = [f]
    count = 0
    while stack:
        g = stack.pop()
        if g.low is None or g.id in seen:
            continue
        seen.add(g.id)
        count += 1
        stack.append(g.low)
        stack.append(g.high)
    return count


class BoolVarMap:
    """Bijection (variable, value) -> boolean index, variable-major."""

    def __init__(self, num_vars: int, num_values: int):
        self.num_vars = num_vars
        self.num_values = num_values

    @property
    def num_bools(self) -> int:
        return self.num_vars * self.num_values

    def index(self, var: int, value: int) -> int:
        if not 0 <= value < self.num_values:
            raise ValueOutOfRange(
                f"value {value} outside 0..{self.num_values - 1}"
            )
        if not 0 <= var < self.num_vars:
            raise ValueOutOfRange(f"variable {var} outside 0..{self.num_vars - 1}")
        return var * self.num_values + value

    def var_indices(self, var: int) -> List[int]:
        return [self.index(var, u) for u in range(self.num_values)]


def _cube(manager: BddManager, literals: Mapping[int, bool]) -> BddNode:
    """Conjunction of boolean literals, built bottom-up along the order."""
    f = manager.true
    for idx in sorted(literals, reverse=True):
        if literals[idx]:
            f = manager.node(idx, manager.false, f)
        else:
            f = manager.node(idx, f, manager.false)
    return f


def _one_hot(vmap: BoolVarMap, var: int, value: int) -> Dict[int, bool]:
    vmap.index(var, value)  # range check before building the row
    return {
        vmap.index(var, u): (u == value) for u in range(vmap.num_values)
    }


def encode_state(
    manager: BddManager, vmap: BoolVarMap, state: Mapping[int, int]
) -> BddNode:
    """One-hot conjunction for a (possibly partial) variable assignment."""
    literals: Dict[int, bool] = {}
    for var, value in state.items():
        literals.update(_one_hot(vmap, var, value))
    return _cube(manager, literals)


def encode_condition(
    manager: BddManager, vmap: BoolVarMap, c: Condition
) -> BddNode:
    """Per variable, a disjunction of one-hot assignments over allowed values;
    conjunction across constrained variables."""
    f = manager.true
    for var in sorted(c.allowed):
        g = manager.false
        for value in sorted(c.allowed[var]):
            g = manager.apply("or", g,
                              _cube(manager, _one_hot(vmap, var, value)))
        f = manager.apply("and", f, g)
    return f


def encode_action(manager: BddManager, vmap: BoolVarMap, a: Action) -> BddNode:
    """Disjunction over outcomes of one-hot assignment conjunctions."""
    f = manager.false
    for _, values in a.outcomes:
        f = manager.apply(
            "or",
            f,
            encode_state(manager, vmap, dict(zip(a.vars, values))),
        )
    return f


def bdd_apply_action(
    manager: BddManager,
    b: BddNode,
    c: BddNode,
    a: BddNode,
    avar_indices: Iterable[int],
) -> BddNode:
    """(b and not c) or (exists(action booleans, b and c) and a), with
    ``b and not c`` taken by one ``diff`` apply."""
    keep = manager.apply("diff", b, c)
    selected = manager.apply("and", b, c)
    projected = manager.exists(avar_indices, selected)
    return manager.apply("or", keep, manager.apply("and", projected, a))
