"""Command-line surface: benchmark runs, verification, evaluation, acting,
and DOT export, plus the JSON document formats they exchange.

A state document holds a ``universe`` list of variable names and one of
three bodies:

* ``nodes``, the node table that ``aobs act`` writes.  Each entry is
  ``["lit", name, value]``, ``["and", [i, ...]]`` or
  ``["or", [w, ...], [i, ...]]``; every ``i`` is the index of an earlier
  entry and the last entry is the root.  A node shared in the graph is
  written and read once, and the table has no depth limit.
* ``root``, one nested node: ``{"lit": [name, value]}``, ``{"and": [...]}``
  or ``{"or": {"weights": [...], "children": [...]}}``.  Shared nodes are
  spelled out again wherever they occur.  This is the only body with a
  depth limit: ``json.load`` and the reader recurse, so documents nested
  deeper than about 495 ANDs exit 2.
* ``rows``, a list of ``[probability, assignment]`` pairs.

Variable values, table indices, condition values and action values must
be JSON integers; probabilities and weights must be JSON numbers.  ``aobs
eval`` and ``aobs act`` take only states of total mass 1; ``aobs act``
first rescales a state whose inner ORs lack unit weight.

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


def _earlier(refs: Any, built: List[Node]) -> List[Node]:
    """The already built entries that the index list ``refs`` names."""
    n = len(built)
    if not isinstance(refs, list):
        raise SchemaError(f"node {n}: children must be a list of indices")
    kids = []
    for i in refs:
        if not 0 <= _integer(i, "child index") < n:
            raise SchemaError(f"node {n}: child index {i} is not an earlier node")
        kids.append(built[i])
    return kids


def _table_root(entries: Any, index: Dict[str, int], store: Store) -> Node:
    """Intern a node table in one pass: entries refer only to earlier ones,
    so every child is built before its parent."""
    if not isinstance(entries, list) or not entries:
        raise SchemaError("'nodes' must be a non-empty list")
    built: List[Node] = []
    for entry in entries:
        kind = entry[0] if isinstance(entry, list) and entry else None
        if kind == "lit" and len(entry) == 3:
            node = store.make_lit(_variable(entry[1], index),
                                  _integer(entry[2], "literal value"))
        elif kind == "and" and len(entry) == 2:
            node = store.make_and(_earlier(entry[1], built))
        elif kind == "or" and len(entry) == 3:
            weights, kids = entry[1], _earlier(entry[2], built)
            if not isinstance(weights, list) or len(weights) != len(kids):
                raise SchemaError(
                    f"node {len(built)}: an or needs one weight per child")
            node = store.make_or([(_number(w, "weight"), k)
                                  for w, k in zip(weights, kids)])
        else:
            raise SchemaError(
                f"node {len(built)} must be ['lit', name, value], "
                f"['and', children] or ['or', weights, children], "
                f"got {entry!r}")
        built.append(node)
    return built[-1]


def _node_from_json(obj: Any, index: Dict[str, int], store: Store) -> Node:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"node must be a single-key object, got {obj!r}")
    if "lit" in obj:
        spec = obj["lit"]
        if not isinstance(spec, list) or len(spec) != 2:
            raise SchemaError(f"lit must be [name, integer], got {spec!r}")
        return store.make_lit(_variable(spec[0], index),
                              _integer(spec[1], "literal value"))
    if "and" in obj:
        kids = obj["and"]
        if not isinstance(kids, list):
            raise SchemaError("and must hold a list of nodes")
        return store.make_and([_node_from_json(k, index, store) for k in kids])
    if "or" in obj:
        spec = obj["or"]
        if (not isinstance(spec, dict)
                or set(spec) != {"weights", "children"}
                or not isinstance(spec["weights"], list)
                or not isinstance(spec["children"], list)
                or len(spec["weights"]) != len(spec["children"])):
            raise SchemaError("or must hold parallel 'weights' and 'children'")
        return store.make_or([
            (_number(w, "weight"), _node_from_json(k, index, store))
            for w, k in zip(spec["weights"], spec["children"])
        ])
    raise SchemaError(f"unknown node kind in {obj!r}")


def _rows(rows: Any,
          index: Dict[str, int]) -> List[Tuple[float, Dict[int, int]]]:
    if not isinstance(rows, list):
        raise SchemaError("'rows' must be a list")
    out = []
    for row in rows:
        if (not isinstance(row, list) or len(row) != 2
                or not isinstance(row[1], dict)):
            raise SchemaError("each row must be [probability, assignment]")
        p, assignment = row
        out.append((
            _number(p, "row probability"),
            {_variable(name, index): _integer(v, "row value")
             for name, v in assignment.items()},
        ))
    return out


def state_from_json(doc: Any, store: Optional[Store] = None) -> Aobs:
    """Parse a state document: ``universe`` plus a ``nodes`` table, a nested
    ``root`` node or a tabular ``rows`` list (see the module docstring)."""
    if store is None:
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
        if "nodes" in doc:
            root = _table_root(doc["nodes"], index, store)
        elif "root" in doc:
            try:
                root = _node_from_json(doc["root"], index, store)
            except RecursionError:
                raise SchemaError(
                    "'root' is nested too deeply to read; "
                    "write the state as a 'nodes' table") from None
        elif "rows" in doc:
            rows = _rows(doc["rows"], index)
            return from_tabular(store, rows, universe, tuple(names))
        else:
            raise SchemaError("state document needs 'nodes', 'root' or 'rows'")
        return Aobs(root, store, universe, tuple(names))
    except SchemaError:
        raise
    except AobsError as exc:  # structural errors in the document's graph
        raise SchemaError(str(exc)) from exc


def condition_from_json(doc: Any, s: Aobs) -> Condition:
    if not isinstance(doc, dict):
        raise SchemaError("condition document must be an object")
    index = {s.name_of(v): v for v in s.universe}
    constraints = {}
    for name, values in doc.items():
        if name not in index:
            raise SchemaError(f"condition on unknown variable {name!r}")
        if not isinstance(values, list) or not values:
            raise SchemaError(f"allowed values for {name!r} must be a non-empty list")
        constraints[index[name]] = frozenset(
            _integer(v, "condition value") for v in values)
    return Condition(constraints)


def action_from_json(doc: Any, s: Aobs) -> Action:
    if not isinstance(doc, dict) or "outcomes" not in doc:
        raise SchemaError("action document needs an 'outcomes' list")
    index = {s.name_of(v): v for v in s.universe}
    outcomes = doc["outcomes"]
    if not isinstance(outcomes, list) or not outcomes:
        raise SchemaError("'outcomes' must be a non-empty list")
    names = None
    rows = []
    for outcome in outcomes:
        if (not isinstance(outcome, list) or len(outcome) != 2
                or not isinstance(outcome[1], dict)):
            raise SchemaError("each outcome must be [probability, assignment]")
        p, assignment = outcome
        if names is None:
            names = sorted(assignment)
        elif sorted(assignment) != names:
            raise SchemaError("outcomes must all assign the same variables")
        rows.append((_number(p, "outcome probability"),
                     tuple(_integer(assignment[n], "action value")
                           for n in names)))
    try:
        avars = tuple(index[n] for n in names)
    except KeyError as exc:
        raise SchemaError(f"action on unknown variable {exc}") from exc
    try:
        return Action(avars, tuple(rows))
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
            label = f"{s.name_of(node.var)}={node.value}"
            lines.append(f'  {nid} [shape=plaintext, label="{label}"];')
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
              "ms_aobs", "ms_bdd"]


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
    result = apply_action(state, condition, action).state
    after = size_metric(result)
    _write(args.out, json.dumps(state_to_json(result)) + "\n")
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
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
