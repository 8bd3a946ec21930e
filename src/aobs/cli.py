"""Command-line surface: benchmark runs, verification, evaluation, acting,
and DOT export, plus the JSON document formats they exchange.

A state document holds a ``universe`` list of variable names and exactly
one of two bodies (a nested ``root`` body is no longer read):

* ``nodes``, the node table that ``aobs act`` writes.  Each entry is
  ``["lit", name, value]``, ``["and", [i, ...]]`` or
  ``["or", [w, ...], [i, ...]]``; every ``i`` is the index of an earlier
  entry and the last entry is the root.  A node shared in the graph is
  written and read once, and the table has no depth limit.
* ``rows``, a list of ``[probability, assignment]`` pairs.  A row may
  have probability 0: its assignment is checked like any other, and the
  row is then left out.  The probabilities must sum to 1 (within 1e-6).

An action document's ``outcomes`` are ``[probability, assignment]`` pairs
too, read and checked as rows are, with errors worded for outcomes
(``each outcome must be ...``, ``outcome value ...``).  Every outcome
assigns the same variables; an outcome of probability 0 is checked like
any other, then left out.  The probabilities must sum to 1 within 1e-6,
and are divided by their total if it is off by more than 1e-12.  A
condition document maps names to non-empty lists of allowed values.  A
name outside the universe reads ``unknown variable 'q'`` in a row, an
outcome, a node table or a condition.

Variable values, table indices, condition values and action values must
be JSON integers; probabilities and weights must be JSON numbers.  ``aobs
eval`` and ``aobs act`` take only states of total mass 1; ``aobs act``
first rescales a state whose inner ORs lack unit weight.  Every document
is read as bytes and decoded as JSON text in UTF-8, -16 or -32, which
``json.loads`` tells apart; a file that does not decode is malformed input.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
arguments out of range or an output that cannot be written: an output path,
or a standard output that its reader closed early (``aobs bench ... | head
-1``), which ends the command quietly, without a traceback.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .acting import apply_action, normalize
from .bench import (
    ExperimentConfig,
    InsufficientSpread,
    OracleMismatch,
    fit_exponent,
    gen_experiment,
    random_case_configs,
    run_experiment,
    run_seeds,
    summarize_compression,
)
from .core import (
    AND,
    EPS_P,
    LIT,
    OR,
    Aobs,
    AobsError,
    Node,
    Store,
    from_tabular,
    fold,
    iter_nodes,
    size_metric,
)
from .oracle import Action, Condition
from .query import probability


class SchemaError(AobsError):
    """A JSON document does not match the expected layout."""


# ---------------------------------------------------------------------------
# JSON state / condition / action documents

def _integer(x: Any, what: str) -> int:
    """``x`` if it is a JSON integer; booleans, floats and strings are not."""
    if type(x) is not int:  # exact type: bool is a subclass of int
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return x


def _number(x: Any, what: str) -> float:
    """``x`` as a float if it is a JSON number (not a boolean or string)."""
    if type(x) is not float and type(x) is not int:
        raise SchemaError(f"{what} must be a number, got {x!r}")
    return float(x)


def _variable(name: Any, index: Dict[str, int]) -> int:
    if not isinstance(name, str) or name not in index:
        raise SchemaError(f"unknown variable {name!r}")
    return index[name]


def state_to_json(s: Aobs) -> Dict[str, Any]:
    """The node-table document of ``s``: each reachable node once, children
    before parents, so the root is the last entry."""
    name = {v: s.name_of(v) for v in s.universe}
    position: Dict[int, int] = {}
    nodes: List[Any] = []

    def step(node: Node) -> int:
        if node.kind == LIT:
            nodes.append(["lit", name[node.var], node.value])
        else:
            kids = [position[c.key] for c in node.children]
            nodes.append(["and", kids] if node.kind == AND
                         else ["or", list(node.weights), kids])
        return len(nodes) - 1

    fold(s.root, position, step)
    return {"universe": [name[v] for v in s.universe], "nodes": nodes}


def _bad_refs(refs: Any, n: int) -> None:
    """Raise the first fault of ``refs``, the children of node ``n``,
    which must be a list of indices of earlier nodes."""
    if not isinstance(refs, list):
        raise SchemaError(f"node {n}: children must be a list of indices")
    for i in refs:
        if not 0 <= _integer(i, "child index") < n:
            raise SchemaError(f"node {n}: child index {i} is not an earlier node")


def _table_root(entries: Any, index: Dict[str, int], store: Store) -> Node:
    """Intern a node table in one pass: entries refer only to earlier ones,
    so every child is built before its parent.

    Each entry's fields are checked inline; a field that fails is passed
    to the checker that names the fault (:func:`_bad_refs`,
    :func:`_variable`, :func:`_integer`, :func:`_number`), so the first
    fault in document order is the one reported.
    """
    if not isinstance(entries, list) or not entries:
        raise SchemaError("'nodes' must be a non-empty list")
    built: List[Node] = []
    append = built.append
    make_lit, make_and, make_or = store.make_lit, store.make_and, store.make_or
    for entry in entries:
        kind = entry[0] if isinstance(entry, list) and entry else None
        size = len(entry) if kind is not None else 0
        if kind == "lit" and size == 3:
            _, name, value = entry
            var = index.get(name) if type(name) is str else None
            if var is None or type(value) is not int:
                var = _variable(name, index)
                value = _integer(value, "literal value")
            append(make_lit(var, value))
            continue
        if (kind == "and" and size == 2) or (kind == "or" and size == 3):
            n = len(built)
            refs = entry[-1]
            kids = ([built[i] for i in refs if type(i) is int and 0 <= i < n]
                    if type(refs) is list else None)
            if kids is None or len(kids) != len(refs):
                _bad_refs(refs, n)
            if kind == "and":
                append(make_and(kids))
                continue
            weights = entry[1]
            if not isinstance(weights, list) or len(weights) != len(kids):
                raise SchemaError(f"node {n}: an or needs one weight per child")
            edges = [(w, k) for w, k in zip(weights, kids) if type(w) is float]
            if len(edges) != len(kids):
                edges = [(_number(w, "weight"), k)
                         for w, k in zip(weights, kids)]
            append(make_or(edges))
            continue
        raise SchemaError(
            f"node {len(built)} must be ['lit', name, value], "
            f"['and', children] or ['or', weights, children], "
            f"got {entry!r}")
    return built[-1]


def _pairs(items: Any, index: Dict[str, int],
           what: str) -> List[Tuple[float, Dict[int, int]]]:
    """A list of ``[probability, assignment]`` pairs, the ``rows`` of a
    state or the ``outcomes`` of an action (``what`` is ``"row"`` or
    ``"outcome"``), as ``(probability, {variable: value})`` pairs.  Each
    field is checked inline, as :func:`_table_root` checks its entries."""
    if not isinstance(items, list):
        raise SchemaError(f"'{what}s' must be a list")
    out = []
    append = out.append
    for item in items:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[1], dict)):
            raise SchemaError(f"each {what} must be [probability, assignment]")
        p, assignment = item
        if type(p) is not float:
            p = _number(p, f"{what} probability")
        try:  # names are dict keys, so hashable; only strings are in index
            state = {index[name]: v for name, v in assignment.items()
                     if type(v) is int}
        except KeyError:
            state = None
        if state is None or len(state) != len(assignment):
            state = {_variable(name, index): _integer(v, f"{what} value")
                     for name, v in assignment.items()}
        append((p, state))
    return out


def state_from_json(doc: Any) -> Aobs:
    """Parse a state document: ``universe`` plus a ``nodes`` table or a
    tabular ``rows`` list (see the module docstring), into a new store.
    To read a state into an existing store, reintern its root
    (:meth:`~aobs.core.Store.reintern`)."""
    store = Store()
    if not isinstance(doc, dict) or "universe" not in doc:
        raise SchemaError("state document needs a 'universe' list")
    names = doc["universe"]
    if (not isinstance(names, list) or not names
            or not all(isinstance(name, str) for name in names)
            or len(set(names)) != len(names)):
        raise SchemaError("'universe' must be a non-empty list of unique names")
    index = {name: i for i, name in enumerate(names)}
    universe = tuple(range(len(names)))
    try:
        if "nodes" in doc and "rows" in doc:
            raise SchemaError("state document has both 'nodes' and 'rows'")
        if "nodes" in doc:
            root = _table_root(doc["nodes"], index, store)
        elif "rows" in doc:
            rows = _pairs(doc["rows"], index, "row")
            return from_tabular(store, rows, universe, tuple(names))
        else:
            raise SchemaError("state document needs 'nodes' or 'rows'")
        return Aobs(root, store, universe, tuple(names))
    except SchemaError:
        raise
    except AobsError as exc:  # structural errors in the document's graph
        raise SchemaError(str(exc)) from exc


def _index(s: Aobs) -> Dict[str, int]:
    """The state's variables by name."""
    return {s.name_of(v): v for v in s.universe}


def condition_from_json(doc: Any, s: Aobs) -> Condition:
    if not isinstance(doc, dict):
        raise SchemaError("condition document must be an object")
    index = _index(s)
    constraints = {}
    for name, values in doc.items():
        var = _variable(name, index)
        if not isinstance(values, list) or not values:
            raise SchemaError(f"allowed values for {name!r} must be a non-empty list")
        constraints[var] = frozenset(
            _integer(v, "condition value") for v in values)
    return Condition(constraints)


def action_from_json(doc: Any, s: Aobs) -> Action:
    """The action document's outcomes over its variables in name order,
    which fixes the order the action's literals are made in."""
    if not isinstance(doc, dict) or "outcomes" not in doc:
        raise SchemaError("action document needs an 'outcomes' list")
    outcomes = _pairs(doc["outcomes"], _index(s), "outcome")
    avars = tuple(sorted(outcomes[0][1], key=s.name_of)) if outcomes else ()
    for _, values in outcomes:
        if values.keys() != outcomes[0][1].keys():
            raise SchemaError("outcomes must all assign the same variables")
    try:
        return Action(avars, tuple((p, tuple([values[v] for v in avars]))
                                   for p, values in outcomes))
    except AobsError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# DOT export

def to_dot(s: Aobs) -> str:
    """Deterministic Graphviz digraph: boxes for AND, ellipses for OR,
    plain 'var=value' labels for literals, weights on OR edges.  Nodes are
    named, listed and linked in digest order, so equal graphs give the same
    text whatever store built them."""
    nodes = sorted(iter_nodes(s.root), key=attrgetter("digest"))
    lines = ["digraph aobs {"]
    for node in nodes:
        nid = "n" + node.digest[:12]
        if node.kind == LIT:
            # a DOT string escapes a quote and, for labels, a backslash
            name = s.name_of(node.var).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'  {nid} [shape=plaintext, label="{name}={node.value}"];')
        elif node.kind == AND:
            lines.append(f'  {nid} [shape=box, label="AND"];')
        else:
            lines.append(f'  {nid} [shape=ellipse, label="OR"];')
    for node in nodes:
        nid = "n" + node.digest[:12]
        edges = sorted([(c.digest, w) for w, c in node.edges()])
        if node.kind == OR:
            for digest, w in edges:
                lines.append(f'  {nid} -> n{digest[:12]} [label="{w:.3f}"];')
        else:
            for digest, _ in edges:
                lines.append(f"  {nid} -> n{digest[:12]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

CSV_HEADER = ["seed", "step", "n_states", "n_naive", "n_aobs", "n_bdd",
              "ms_aobs", "ms_bdd", "selected_mass"]


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig(
            num_vars=args.vars,
            num_values=args.values,
            num_actions=args.actions,
            effects_per_action=args.effects,
            assigns_per_effect=args.assigns,
            condition_arity=args.cond_arity,
            oracle_cap=args.oracle_cap,
            with_bdd=args.with_bdd,
            optimize=not args.no_optimize,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _write(args.out, "")  # an unwritable path fails before the seeds run
    try:
        rows = run_seeds(cfg, range(args.seeds))
    except OracleMismatch as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.seed, r.step, r.n_states, r.n_naive, r.n_aobs,
            "" if r.n_bdd is None else r.n_bdd,
            f"{r.ms_aobs:.3f}",
            "" if r.ms_bdd is None else f"{r.ms_bdd:.3f}",
            "" if r.selected_mass is None else f"{r.selected_mass:.6g}",
        ])
    _write(args.out, buf.getvalue())
    print(f"wrote {len(rows)} rows to {args.out}")
    try:
        print(f"fitted exponent: {fit_exponent(rows):.3f}")
    except InsufficientSpread as exc:
        print(f"fitted exponent: n/a ({exc})")
    summary = summarize_compression(rows)
    last = max(summary)
    entry = summary[last]
    line = (f"final-step compression: naive/aobs = "
            f"{entry['naive_over_aobs']:.1f}")
    if "naive_over_bdd" in entry:
        line += f", naive/bdd = {entry['naive_over_bdd']:.1f}"
    print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    first_failure = None
    for case_seed, cfg in random_case_configs(args.seed, args.cases,
                                              optimize=True):
        try:
            run_experiment(gen_experiment(cfg, case_seed), cfg, seed=case_seed)
        except OracleMismatch:
            failures += 1
            if first_failure is None:
                first_failure = case_seed
    ok = args.cases - failures
    print(f"{ok}/{args.cases} ok")
    if failures:
        print(f"first failing seed: {first_failure}", file=sys.stderr)
        return 1
    return 0


def _unit_state(path: str) -> Aobs:
    """The state document at ``path``, which must have total mass 1."""
    state = state_from_json(_load(path))
    if abs(state.root.mass - 1.0) > EPS_P:
        raise SchemaError(f"state mass is {state.root.mass}, expected 1")
    return state


def cmd_eval(args: argparse.Namespace) -> int:
    state = _unit_state(args.state)
    condition = condition_from_json(_load(args.condition), state)
    print(f"{probability(state, condition):.12g}")
    return 0


def _size_and_unit(root: Node) -> Tuple[int, bool]:
    """The graph's :func:`~aobs.core.size_metric` and whether every node in
    it has unit mass, from one walk."""
    size = 0
    unit = True
    for n in iter_nodes(root):
        size += 2 if n.kind == LIT else len(n.children) + 1
        if unit and abs(n.mass - 1.0) > EPS_P:
            unit = False
    return size, unit


def cmd_act(args: argparse.Namespace) -> int:
    state = _unit_state(args.state)
    before, unit = _size_and_unit(state.root)
    if not unit:
        state = normalize(state)  # apply_action takes unit-weight ORs only
        before = size_metric(state)
    condition = condition_from_json(_load(args.condition), state)
    action = action_from_json(_load(args.action), state)
    doc = state_to_json(apply_action(state, condition, action).state)
    # the table lists each reachable node once, each with its size term
    after = sum([2 if entry[0] == "lit" else len(entry[-1]) + 1
                 for entry in doc["nodes"]])
    _write(args.out, json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"size before: {before}")
    print(f"size after: {after}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    state = state_from_json(_load(args.state))
    text = to_dot(state)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _load(path: str) -> Any:
    """The JSON document at ``path``.  It is read as bytes, whose encoding
    (UTF-8, -16 or -32) ``json.loads`` detects; a file that does not decode
    is malformed input."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"cannot read {path}: nested too deeply") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``aobs`` argument parser, built once per process: every call
    returns the same parser, which callers must not modify."""
    parser = argparse.ArgumentParser(
        prog="aobs",
        description="And-Or belief state toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the size-scaling benchmark")
    b.add_argument("--vars", type=int, required=True)
    b.add_argument("--values", type=int, required=True)
    b.add_argument("--actions", type=int, required=True)
    b.add_argument("--effects", type=int, default=3)
    b.add_argument("--assigns", type=int, default=3)
    b.add_argument("--cond-arity", type=int, default=3)
    b.add_argument("--seeds", type=int, required=True)
    b.add_argument("--oracle-cap", type=int, default=20000)
    b.add_argument("--with-bdd", action="store_true")
    b.add_argument("--no-optimize", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="randomized oracle-equivalence suite")
    v.add_argument("--cases", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eval", help="probability of a condition")
    e.add_argument("state")
    e.add_argument("condition")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("act", help="apply an action to a belief state")
    a.add_argument("state")
    a.add_argument("condition")
    a.add_argument("action")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_act)

    d = sub.add_parser("export-dot", help="emit a Graphviz rendering")
    d.add_argument("state")
    d.add_argument("--out")
    d.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.seeds < 1:
        parser.error("--seeds must be positive")
    if args.command == "verify" and args.cases < 0:
        parser.error("--cases must not be negative")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        _drop_stdout()
        return 2
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _drop_stdout() -> None:
    """Point the standard output at the null device, so the interpreter's
    final flush of what a closed pipe did not take raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
