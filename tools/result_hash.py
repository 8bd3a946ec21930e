"""Print one digest per benchmark workload of everything the program
computes on it, to show that a change leaves every result as it was.

    python tools/result_hash.py

runs, in this process, the inputs that ``perfbench/inputs.py`` draws for
seeds 1-3 (it only reads that module) and prints a blake2b digest per
workload:

* ``deep`` and ``optimized``: every step's root digest, ``size_metric``,
  ``len(store)``, and the ``repr`` of the condition's probability and of
  the mass the action selected, script by script (``optimized`` runs
  ``greedy_optimize`` after each action);
* ``cli``: the output of every ``aobs eval`` and ``aobs act`` request of
  each session, and the bytes of each document ``aobs act`` writes.

Two commits that print the same digests built the same nodes, in the same
order, with the same floats.  Nothing is timed; it exits 0.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _condition(cond):
    from aobs.oracle import Condition
    return Condition({v: frozenset(vals) for v, vals in cond})


def actions(name: str, h) -> None:
    """Feed ``h`` what each step of ``name``'s scripts computes."""
    import inputs
    from aobs import acting, core, optimize, query
    from aobs.oracle import Action
    for seed in SEEDS:
        for script in inputs.scripts(name, seed):
            universe = list(range(len(script.initial)))
            state = core.from_physical_state(
                core.Store(), dict(enumerate(script.initial)), universe)
            for step in script.steps:
                c = _condition(step.cond)
                p = query.probability(state, c)
                result = acting.apply_action(
                    state, c, Action(step.avars, step.outcomes))
                state = result.state
                if name == "optimized":
                    state = optimize.greedy_optimize(state)
                h.update(f"{state.root.digest} {core.size_metric(state)} "
                         f"{len(state.store)} {p!r} {result.selected_mass!r}\n"
                         .encode())


def sessions(h, workdir: str) -> None:
    """Feed ``h`` the output of each request of the CLI sessions and the
    bytes of each document ``aobs act`` writes."""
    import inputs
    from aobs import cli
    names = [f"x{v}" for v in range(inputs.CLI_VARS)]

    def write(doc, *parts) -> str:
        path = os.path.join(workdir, "-".join(map(str, parts)) + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def send(argv) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        h.update(f"{rc} {out.getvalue()}\n".encode())

    for seed in SEEDS:
        for i, s in enumerate(inputs.sessions(seed)):
            state = write({"universe": names, "rows": [
                [p, dict(zip(names, values))] for p, values in s.rows]},
                seed, i, "rows")
            for j, (step, reads) in enumerate(zip(s.acts, s.evals)):
                for k, cond in enumerate(reads):
                    send(["eval", state, write(
                        {names[v]: list(vals) for v, vals in cond},
                        seed, i, j, "e", k)])
                cond = write({names[v]: list(vals) for v, vals in step.cond},
                             seed, i, j, "cond")
                act = write({"outcomes": [
                    [p, {names[v]: x for v, x in zip(step.avars, values)}]
                    for p, values in step.outcomes]}, seed, i, j, "act")
                out = os.path.join(workdir, f"{seed}-{i}-{j}-out.json")
                send(["act", state, cond, act, "--out", out])
                with open(out, "rb") as fh:
                    h.update(fh.read())
                state = out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    for name in ("deep", "optimized"):
        h = hashlib.blake2b(digest_size=16)
        actions(name, h)
        print(f"{name:<10} {h.hexdigest()}")
    h = hashlib.blake2b(digest_size=16)
    with tempfile.TemporaryDirectory() as workdir:
        sessions(h, workdir)
    print(f"{'cli':<10} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
