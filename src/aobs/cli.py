"""Command-line surface: benchmark runs, verification, evaluation, acting,
and DOT export, plus the JSON document formats they exchange.

Exit codes: 0 success, 1 verification failure, 2 malformed input.
"""
from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from typing import Any, Dict, Optional, Sequence

from .acting import apply_action
from .bench import (
    ExperimentConfig,
    InsufficientSpread,
    OracleMismatch,
    fit_exponent,
    gen_experiment,
    run_experiment,
    run_seeds,
    summarize_compression,
)
from .core import (
    AND,
    LIT,
    OR,
    Aobs,
    AobsError,
    Node,
    Store,
    from_tabular,
    iter_nodes,
    size_metric,
)
from .oracle import Action, Condition
from .query import probability


class SchemaError(AobsError):
    """A JSON document does not match the expected layout."""


# ---------------------------------------------------------------------------
# JSON state / condition / action documents

def _node_to_json(node: Node, names: Sequence[str]) -> Any:
    if node.kind == LIT:
        return {"lit": [names[node.var], node.value]}
    if node.kind == AND:
        return {"and": [_node_to_json(c, names) for c in node.children]}
    return {
        "or": {
            "weights": list(node.weights),
            "children": [_node_to_json(c, names) for c in node.children],
        }
    }


def state_to_json(s: Aobs) -> Dict[str, Any]:
    names = [s.name_of(v) for v in s.universe]
    return {"universe": names, "root": _node_to_json(s.root, names)}


def _node_from_json(obj: Any, index: Dict[str, int], store: Store) -> Node:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise SchemaError(f"node must be a single-key object, got {obj!r}")
    if "lit" in obj:
        spec = obj["lit"]
        if (not isinstance(spec, list) or len(spec) != 2
                or not isinstance(spec[1], int)):
            raise SchemaError(f"lit must be [name, integer], got {spec!r}")
        name, value = spec
        if name not in index:
            raise SchemaError(f"unknown variable {name!r}")
        return store.make_lit(index[name], value)
    if "and" in obj:
        kids = obj["and"]
        if not isinstance(kids, list):
            raise SchemaError("and must hold a list of nodes")
        return store.make_and([_node_from_json(k, index, store) for k in kids])
    if "or" in obj:
        spec = obj["or"]
        if (not isinstance(spec, dict)
                or set(spec) != {"weights", "children"}
                or len(spec["weights"]) != len(spec["children"])):
            raise SchemaError("or must hold parallel 'weights' and 'children'")
        return store.make_or([
            (float(w), _node_from_json(k, index, store))
            for w, k in zip(spec["weights"], spec["children"])
        ])
    raise SchemaError(f"unknown node kind in {obj!r}")


def state_from_json(doc: Any, store: Optional[Store] = None) -> Aobs:
    """Parse a state document: ``universe`` plus either a nested ``root`` node
    or a tabular ``rows`` alternative."""
    if store is None:
        store = Store()
    if not isinstance(doc, dict) or "universe" not in doc:
        raise SchemaError("state document needs a 'universe' list")
    names = doc["universe"]
    if (not isinstance(names, list) or not names
            or len(set(names)) != len(names)):
        raise SchemaError("'universe' must be a non-empty list of unique names")
    index = {name: i for i, name in enumerate(names)}
    universe = tuple(range(len(names)))
    if "root" in doc:
        try:
            root = _node_from_json(doc["root"], index, store)
        except AobsError as exc:
            raise SchemaError(str(exc)) from exc
        return Aobs(root, store, universe, tuple(names))
    if "rows" in doc:
        rows = []
        for row in doc["rows"]:
            if not isinstance(row, list) or len(row) != 2:
                raise SchemaError("each row must be [probability, assignment]")
            p, assignment = row
            try:
                rows.append((
                    float(p),
                    {index[name]: int(v) for name, v in assignment.items()},
                ))
            except KeyError as exc:
                raise SchemaError(f"unknown variable {exc}") from exc
        try:
            return from_tabular(store, rows, universe, tuple(names))
        except AobsError as exc:
            raise SchemaError(str(exc)) from exc
    raise SchemaError("state document needs 'root' or 'rows'")


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
        constraints[index[name]] = frozenset(int(v) for v in values)
    return Condition(constraints)


def action_from_json(doc: Any, s: Aobs) -> Action:
    if not isinstance(doc, dict) or "outcomes" not in doc:
        raise SchemaError("action document needs an 'outcomes' list")
    index = {s.name_of(v): v for v in s.universe}
    outcomes = doc["outcomes"]
    if not isinstance(outcomes, list) or not outcomes:
        raise SchemaError("'outcomes' must be a non-empty list")
    first = outcomes[0]
    if not isinstance(first, list) or len(first) != 2:
        raise SchemaError("each outcome must be [probability, assignment]")
    names = sorted(first[1])
    try:
        avars = tuple(index[n] for n in names)
    except KeyError as exc:
        raise SchemaError(f"action on unknown variable {exc}") from exc
    rows = []
    for outcome in outcomes:
        if (not isinstance(outcome, list) or len(outcome) != 2
                or sorted(outcome[1]) != names):
            raise SchemaError("outcomes must all assign the same variables")
        p, assignment = outcome
        rows.append((float(p), tuple(int(assignment[n]) for n in names)))
    try:
        return Action(avars, tuple(rows))
    except AobsError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# DOT export

def to_dot(s: Aobs) -> str:
    """Deterministic Graphviz digraph: boxes for AND, ellipses for OR,
    plain 'var=value' labels for literals, weights on OR edges."""
    nodes = sorted(iter_nodes(s.root), key=lambda n: n.key)
    lines = ["digraph aobs {"]
    for node in nodes:
        nid = "n" + node.key[:12]
        if node.kind == LIT:
            label = f"{s.name_of(node.var)}={node.value}"
            lines.append(f'  {nid} [shape=plaintext, label="{label}"];')
        elif node.kind == AND:
            lines.append(f'  {nid} [shape=box, label="AND"];')
        else:
            lines.append(f'  {nid} [shape=ellipse, label="OR"];')
    for node in nodes:
        nid = "n" + node.key[:12]
        if node.kind == OR:
            for w, child in node.edges():
                lines.append(
                    f'  {nid} -> n{child.key[:12]} [label="{w:.3f}"];'
                )
        else:
            for child in node.children:
                lines.append(f"  {nid} -> n{child.key[:12]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

CSV_HEADER = ["seed", "step", "n_states", "n_naive", "n_aobs", "n_bdd",
              "ms_aobs", "ms_bdd"]


def cmd_bench(args: argparse.Namespace) -> int:
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
    try:
        rows = run_seeds(cfg, range(args.seeds))
    except OracleMismatch as exc:
        print(f"FATAL: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.seed, r.step, r.n_states, r.n_naive, r.n_aobs,
                "" if r.n_bdd is None else r.n_bdd,
                f"{r.ms_aobs:.3f}",
                "" if r.ms_bdd is None else f"{r.ms_bdd:.3f}",
            ])
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
    rng = random.Random(args.seed)
    failures = 0
    first_failure = None
    for case in range(args.cases):
        case_seed = rng.randrange(2**32)
        crng = random.Random(case_seed)
        num_vars = crng.randint(2, 8)
        cfg = ExperimentConfig(
            num_vars=num_vars,
            num_values=crng.randint(2, 4),
            num_actions=crng.randint(1, 10),
            effects_per_action=crng.randint(1, 3),
            assigns_per_effect=crng.randint(1, min(3, num_vars)),
            condition_arity=crng.randint(1, min(3, num_vars)),
            oracle_cap=10**6,
        )
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


def cmd_eval(args: argparse.Namespace) -> int:
    state = state_from_json(_load(args.state))
    condition = condition_from_json(_load(args.condition), state)
    print(f"{probability(state, condition):.12g}")
    return 0


def cmd_act(args: argparse.Namespace) -> int:
    state = state_from_json(_load(args.state))
    condition = condition_from_json(_load(args.condition), state)
    action = action_from_json(_load(args.action), state)
    before = size_metric(state)
    result = apply_action(state, condition, action).state
    after = size_metric(result)
    with open(args.out, "w") as fh:
        json.dump(state_to_json(result), fh, indent=2)
        fh.write("\n")
    print(f"size before: {before}")
    print(f"size after: {after}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    state = state_from_json(_load(args.state))
    text = to_dot(state)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
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
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("input error: document nested too deeply to process",
              file=sys.stderr)
        return 2
    except AobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
