"""The workloads: a closed loop with one caller, on one thread.

An action workload runs scripts of (condition, action) steps; before each
step the planner reads the condition's probability (an *eval*), then applies
the action (the *op*: ``apply_action``, plus ``greedy_optimize`` on
``optimized``).  The CLI workload sends ``aobs.cli.main`` requests in
process: per session, a chain of ``act`` requests each reading the previous
output, with ``eval`` requests before each act; every request is an op.

A round runs every script or session once, from fresh stores.  Rounds repeat
until the time is up; every round must give the same outputs as the first.
``verify`` then replays the work with the correctness gate, outside the
timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from typing import Dict, List, Optional, Tuple

from aobs import acting, cli, core, optimize, query
from aobs.oracle import Action, Condition

import inputs
import judge

#: oracle co-execution stops past this many rows times variables
ORACLE_CELLS = 50_000
#: the oracle must follow every CLI session to the end, so its cap is generous
CLI_ORACLE_ROWS = 100_000

clock = time.perf_counter_ns


class Tally:
    """What the timed rounds observed.

    Every round runs the same requests, so a round is a list of
    ``(kind, ns)`` records in a fixed order: ``read`` (an action workload's
    probability read, not an op), ``eval`` and ``act`` (ops), or ``!Class``
    (an op that raised).  Other work on a shared host slows whole stretches of
    a run, so each request is scored by its best time over the rounds.
    """

    def __init__(self) -> None:
        self.rounds: List[List[Tuple[str, int]]] = []
        self.reference: Optional[List[str]] = None  # outputs of the first round
        self.diverged = 0  # later rounds whose outputs differ from the first

    def close_round(self, times: List[Tuple[str, int]],
                    outputs: List[str]) -> None:
        self.rounds.append(times)
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.diverged += 1

    def attempted(self) -> int:
        return sum(kind != "read" for r in self.rounds for kind, _ in r)

    def failures(self) -> List[str]:
        return [kind[1:] for r in self.rounds for kind, _ in r
                if kind.startswith("!")]

    def best(self) -> List[Tuple[str, int]]:
        """Each request's kind and its fastest time over the rounds."""
        return [(records[0][0], min(ns for _, ns in records))
                for records in zip(*self.rounds)]


def tracing(tracer):
    """Trace the block if a tracer is given."""
    return contextlib.nullcontext() if tracer is None else tracer.active()


def _failure(exc: BaseException) -> str:
    return "!" + type(exc).__name__


def _condition(cond: inputs.Cond) -> Condition:
    return Condition({v: frozenset(vals) for v, vals in cond})


def _action(step: inputs.Step) -> Action:
    return Action(step.avars, step.outcomes)


class ActionWorkload:
    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.seed = seed
        self.optimized = name == "optimized"
        self.scripts: List[Tuple[Dict[int, int], List[Tuple[Condition, Action]]]] = []
        self.universe: List[int] = []
        self.starts: List[core.Aobs] = []  # initial states, fresh stores

    def setup(self) -> None:
        raw = inputs.scripts(self.name, self.seed)
        self.universe = list(range(len(raw[0].initial)))
        self.scripts = [
            (dict(enumerate(s.initial)),
             [(_condition(st.cond), _action(st)) for st in s.steps])
            for s in raw
        ]
        self.starts = [
            core.from_physical_state(core.Store(), initial, self.universe)
            for initial, _ in self.scripts
        ]

    def run_round(self, tally: Tally, tracer=None) -> None:
        """Run every script once from the states the last ``setup`` built."""
        times: List[Tuple[str, int]] = []
        outputs: List[str] = []
        with tracing(tracer):
            self._run_scripts(self.starts, times, outputs, tracer)
        self.starts = []  # free the round's stores here, not in the next set-up
        tally.close_round(times, outputs)

    def _run_scripts(self, starts, times, outputs, tracer) -> None:
        for state, (_, steps) in zip(starts, self.scripts):
            for c, a in steps:
                t0 = clock()
                try:
                    p = query.probability(state, c)
                    t1 = clock()
                    state = acting.apply_action(state, c, a).state
                    if self.optimized:
                        state = optimize.greedy_optimize(state)
                except Exception as exc:  # counted, the script ends here
                    times.append((_failure(exc), clock() - t0))
                    outputs.append(_failure(exc))
                    break
                t2 = clock()
                times += (("read", t1 - t0), ("act", t2 - t1))
                outputs += (repr(p), state.root.key)
            outputs.append(str(len(state.store)))
            if tracer is not None:
                tracer.note_state(state)

    def verify(self, tally: Tally) -> Tuple[List[str], Dict[str, float]]:
        """Replay one round under the correctness gate."""
        problems: List[str] = []
        outputs: List[str] = []
        graph = nodes = doc_bytes = 0
        row_cap = ORACLE_CELLS // len(self.universe)
        for i, (initial, steps) in enumerate(self.scripts):
            state = core.from_physical_state(core.Store(), initial, self.universe)
            oracle = judge.Oracle(
                [(1.0, tuple(sorted(initial.items())))], row_cap)
            for k, (c, a) in enumerate(steps, start=1):
                where = f"script {i} step {k}"
                try:
                    p = query.probability(state, c)
                    result = acting.apply_action(state, c, a)
                    plain = result.state
                    state = optimize.greedy_optimize(plain) if self.optimized else plain
                except Exception as exc:
                    outputs.append(_failure(exc))
                    break
                outputs += (repr(p), state.root.key)
                if not oracle.prob_ok(c, p):
                    problems.append(f"{where}: P(condition) {p!r} disagrees "
                                    "with the oracle")
                # an action that selects nothing returns its (optimized) input
                normal = not self.optimized or result.selected_mass > 0
                problems += [f"{where}: {msg}" for msg in
                             judge.state_problems(plain.root, normal)]
                if self.optimized:
                    problems += [f"{where}: optimized {msg}" for msg in
                                 judge.state_problems(state.root, normal=False)]
                oracle.act(c, a)
                if not oracle.state_ok(state.root):
                    problems.append(f"{where}: state disagrees with the oracle")
            outputs.append(str(len(state.store)))
            graph += core.size_metric(state)
            nodes += len(state.store)
            # compact: the indented form costs seconds per document to encode
            doc_bytes += len(json.dumps(cli.state_to_json(state)).encode())
        if outputs != tally.reference:
            problems.append("replay outputs differ from the timed rounds")
        finals = {"graph_size": graph, "store_nodes": nodes,
                  "doc_bytes": doc_bytes / len(self.scripts)}
        return problems, finals


def _names() -> List[str]:
    return [f"x{v}" for v in range(inputs.CLI_VARS)]


def _cond_doc(cond: inputs.Cond) -> dict:
    names = _names()
    return {names[v]: list(vals) for v, vals in cond}


def _action_doc(step: inputs.Step) -> dict:
    names = _names()
    return {"outcomes": [
        [p, {names[v]: x for v, x in zip(step.avars, values)}]
        for p, values in step.outcomes
    ]}


def _rows_doc(rows) -> dict:
    names = _names()
    return {"universe": names,
            "rows": [[p, dict(zip(names, values))] for p, values in rows]}


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


class CliWorkload:
    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sessions: List[inputs.Session] = []
        # per session: [(eval argvs, act argv)] along the chain
        self.requests: List[List[Tuple[List[List[str]], List[str]]]] = []

    def _path(self, *parts) -> str:
        return os.path.join(self.workdir, "-".join(str(p) for p in parts) + ".json")

    def setup(self) -> None:
        self.sessions = inputs.sessions(self.seed)
        self.requests = []
        for i, s in enumerate(self.sessions):
            state = self._path("s", i, "rows")
            _write(state, _rows_doc(s.rows))
            chain = []
            for j, (step, reads) in enumerate(zip(s.acts, s.evals)):
                evals = []
                for k, cond in enumerate(reads):
                    path = self._path("s", i, "a", j, "e", k)
                    _write(path, _cond_doc(cond))
                    evals.append(["eval", state, path])
                cond, act, out = (self._path("s", i, "a", j, part)
                                  for part in ("cond", "act", "out"))
                _write(cond, _cond_doc(step.cond))
                _write(act, _action_doc(step))
                chain.append((evals, ["act", state, cond, act, "--out", out]))
                state = out
            self.requests.append(chain)

    @staticmethod
    def _send(argv: List[str]) -> Tuple[int, str]:
        """One request; returns its time and its output, or '!' + the class
        of what it raised on this legal input."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                rc = cli.main(argv)
            except Exception as exc:
                return clock() - t0, _failure(exc)
            ns = clock() - t0
        if rc != 0:
            return ns, f"!exit{rc}"
        return ns, out.getvalue()

    def run_round(self, tally: Tally, tracer=None) -> None:
        times: List[Tuple[str, int]] = []
        outputs: List[str] = []
        with tracing(tracer):
            self._run_chains(times, outputs)
        tally.close_round(times, outputs)

    def _run_chains(self, times, outputs) -> None:
        for chain in self.requests:
            for evals, act in chain:
                for argv in evals:
                    ns, text = self._send(argv)
                    times.append((text if text.startswith("!") else "eval", ns))
                    outputs.append(text)
                ns, text = self._send(act)
                if text.startswith("!"):
                    times.append((text, ns))
                    outputs.append(text)
                    break  # the chain has no input for its next request
                times.append(("act", ns))
                with open(act[-1], "rb") as fh:
                    outputs.append(hashlib.blake2b(fh.read()).hexdigest())

    def verify(self, tally: Tally) -> Tuple[List[str], Dict[str, float]]:
        """Check the recorded outputs and the documents on disk against the
        oracle; all rounds agreed with the first, so one check covers all."""
        problems: List[str] = []
        outputs = iter(tally.reference or [])
        graph = nodes = 0
        doc_bytes: List[int] = []
        for i, (s, chain) in enumerate(zip(self.sessions, self.requests)):
            oracle = judge.Oracle(
                [(p, tuple(enumerate(values))) for p, values in s.rows],
                CLI_ORACLE_ROWS)
            last = None
            for j, ((evals, act), step, reads) in enumerate(
                    zip(chain, s.acts, s.evals)):
                where = f"session {i} act {j}"
                for cond, argv in zip(reads, evals):
                    text = next(outputs)
                    if text.startswith("!"):
                        continue  # a failure, counted by the round
                    if not oracle.prob_ok(_condition(cond), float(text)):
                        problems.append(f"{where}: eval printed {text.strip()}, "
                                        "oracle disagrees")
                if next(outputs).startswith("!"):
                    break
                c, a = _condition(step.cond), _action(step)
                oracle.act(c, a)
                with open(act[-1]) as fh:
                    doc = fh.read()
                doc_bytes.append(len(doc.encode()))
                state = cli.state_from_json(json.loads(doc))
                problems += [f"{where}: {msg}" for msg in
                             judge.state_problems(state.root)]
                if not oracle.state_ok(state.root):
                    problems.append(f"{where}: output disagrees with the oracle")
                if not oracle.alive:
                    problems.append(f"{where}: the oracle outgrew its cap, so "
                                    "later evals go unchecked")
                last = (act, state)
            if last is not None:
                act, state = last
                graph += core.size_metric(state)
                nodes += _act_store_nodes(act)
        finals = {"graph_size": graph, "store_nodes": nodes,
                  "doc_bytes": sum(doc_bytes) / max(len(doc_bytes), 1)}
        return problems, finals

    def probe(self) -> str:
        """The known crash: ``eval`` on a 500-row document (untimed, not an
        op; printed so the defect stays in view)."""
        path = self._path("probe", 500)
        rows = inputs.probe_rows(self.seed, 500)
        _write(path, _rows_doc(rows))
        cond = self._path("probe", "cond")
        _write(cond, {"x0": [0]})
        ns, text = self._send(["eval", path, cond])
        return text.strip()


def _act_store_nodes(act: List[str]) -> int:
    """Store size at the end of an ``act`` request, by the same library calls
    ``aobs act`` makes."""
    _, state_path, cond_path, act_path = act[:4]
    with open(state_path) as fh:
        state = cli.state_from_json(json.load(fh))
    with open(cond_path) as fh:
        c = cli.condition_from_json(json.load(fh), state)
    with open(act_path) as fh:
        a = cli.action_from_json(json.load(fh), state)
    result = acting.apply_action(state, c, a).state
    cli.state_to_json(result)
    return len(result.store)


WORKLOADS = {
    "deep": ActionWorkload,
    "wide": ActionWorkload,
    "optimized": ActionWorkload,
    "cli": CliWorkload,
}
