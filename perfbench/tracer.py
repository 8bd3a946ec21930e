"""Per-layer tracing from outside the program.

While ``Tracer.active`` is entered, public functions of the ``aobs`` modules
(in every module that binds them) and the ``Store`` constructor methods are
replaced by timing wrappers; on exit the originals are put back.  Each
wrapped call is a span (name, start, end, parent).  A span's self time is its
duration minus the time covered by its child spans.  Layer-function spans are
kept in memory and written out by ``write_spans``; the ``Store`` methods run
millions of times per round, so their spans are folded into counters as they
close (their time still counts as child time of the span that called them).
"""
from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

import aobs
from aobs import acting, cli, core, optimize, query

_MODULES = (aobs, core, acting, query, optimize, cli)

#: (module, attribute, span name, counted only when not nested in itself)
_FUNCTIONS = (
    (acting, "apply_action", "acting.apply_action", False),
    (acting, "erase_action_vars", "acting.erase_action_vars", False),
    (acting, "normalize", "acting.normalize", False),
    (acting, "find_minimal_subgraphs", "acting.find_minimal_subgraphs", False),
    (acting, "isolate", "acting.isolate", True),
    (query, "probability", "query.probability", False),
    (optimize, "greedy_optimize", "optimize.greedy_optimize", False),
    (core, "from_tabular", "core.from_tabular", False),
    (cli, "state_from_json", "cli.state_from_json", False),
    (cli, "state_to_json", "cli.state_to_json", False),
)
_METHODS = ("make_and", "make_or")


class Stat:
    __slots__ = ("calls", "ns", "self_ns", "hits", "items", "num", "den")

    def __init__(self) -> None:
        self.calls = self.ns = self.self_ns = 0
        self.hits = self.items = 0
        self.num = self.den = 0.0


def reachable(root: core.Node) -> int:
    return sum(1 for _ in core.iter_nodes(root))


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Optional[Tuple[int, int, int, int]]] = []
        self._open: List[int] = [-1]  # indices of open kept spans
        self._child_ns: List[int] = [0]  # child time of each open span
        self.live = [0, 0]  # reachable nodes, store nodes

    def stat(self, name: str) -> Stat:
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = Stat()
            self.names.append(name)
        return got

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, keep: bool) -> int:
        self._child_ns.append(0)
        if not keep:
            return -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        return idx

    def _exit(self, st: Stat, idx: int, name_id: int, t0: int, t1: int) -> None:
        child = self._child_ns.pop()
        dur = t1 - t0
        self._child_ns[-1] += dur
        st.calls += 1
        st.ns += dur
        st.self_ns += dur - child
        if idx >= 0:
            self._open.pop()
            self.spans[idx] = (name_id, t0, t1, self._open[-1])

    # -- wrappers -----------------------------------------------------------

    def _wrap_function(self, fn: Callable, name: str, outermost: bool) -> Callable:
        st = self.stat(name)
        name_id = self.names.index(name)
        clock = time.perf_counter_ns
        depth = [0]
        tracer = self

        def observe(args, result) -> None:
            if name == "acting.apply_action":
                st.num += result.selected_mass > 0
                st.den += 1
            elif name == "acting.find_minimal_subgraphs":
                st.items += len(result)
            elif name == "optimize.greedy_optimize":
                st.num += core.size_metric(result)
            elif name == "cli.state_to_json":
                tracer.live[0] += reachable(args[0].root)
                tracer.live[1] += len(args[0].store)

        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            if name == "optimize.greedy_optimize":
                st.den += core.size_metric(args[0])
            depth[0] += 1
            idx = tracer._enter(True)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[0] -= 1
                tracer._exit(st, idx, name_id, t0, t1)
            observe(args, result)
            return result

        return wrapper

    def _wrap_method(self, fn: Callable, name: str) -> Callable:
        st = self.stat(name)
        name_id = self.names.index(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(store, children):
            kids = list(children)
            before = len(store)
            tracer._enter(False)
            t0 = clock()
            try:
                node = fn(store, kids)
            finally:
                t1 = clock()
                tracer._exit(st, -1, name_id, t0, t1)
            st.items += len(kids)
            st.hits += len(store) == before
            return node

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = []
        for home, attr, name, outermost in _FUNCTIONS:
            orig = getattr(home, attr)
            wrapped = self._wrap_function(orig, name, outermost)
            for mod in _MODULES:
                if getattr(mod, attr, None) is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        for attr in _METHODS:
            orig = getattr(core.Store, attr)
            saved.append((core.Store, attr, orig))
            setattr(core.Store, attr,
                    self._wrap_method(orig, f"core.Store.{attr}"))
        try:
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def note_state(self, state: core.Aobs) -> None:
        """Count a finished state towards ``core.Store.live_ratio``."""
        self.live[0] += reachable(state.root)
        self.live[1] += len(state.store)

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics, per round of the workload."""
        out: Dict[str, Tuple[float, str]] = {}

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        for _, _, name, _ in _FUNCTIONS:
            st = self.stat(name)
            out[f"{name}.calls"] = (st.calls / rounds, "calls/round")
            out[f"{name}.s"] = (st.ns / 1e9 / rounds, "s/round")
        apply = self.stat("acting.apply_action")
        out["acting.apply_action.self_s"] = (apply.self_ns / 1e9 / rounds,
                                             "s/round")
        out["acting.apply_action.fired_ratio"] = (ratio(apply.num, apply.den),
                                                  "ratio")
        out["acting.find_minimal_subgraphs.found"] = (
            self.stat("acting.find_minimal_subgraphs").items / rounds,
            "nodes/round")
        opt = self.stat("optimize.greedy_optimize")
        out["optimize.greedy_optimize.size_ratio"] = (ratio(opt.num, opt.den),
                                                      "ratio")
        for attr in _METHODS:
            name = f"core.Store.{attr}"
            st = self.stat(name)
            out[f"{name}.calls"] = (st.calls / rounds, "calls/round")
            out[f"{name}.s"] = (st.ns / 1e9 / rounds, "s/round")
            out[f"{name}.children"] = (st.items / rounds, "nodes/round")
            out[f"{name}.hit_ratio"] = (ratio(st.hits, st.calls), "ratio")
        out["core.Store.live_ratio"] = (ratio(*self.live), "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per kept span: [name, start_ns, end_ns, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue  # left open by an exception that escaped a round
                name_id, t0, t1, parent = span
                fh.write(json.dumps([self.names[name_id], t0, t1, parent]))
                fh.write("\n")
