"""aobs benchmark: one command, seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Workloads (see ``inputs.py`` for their shapes and ``workloads.py`` for the
loop): ``deep``, ``optimized`` and ``cli``, the set ``BENCHMARK.json`` names,
and ``wide`` (5000 variables), which runs the same way but is left out of that
set: its firing actions take 0.3-0.5 s each, so it cannot repeat enough rounds
to give steady figures within the run budget.

With ``--trace 0`` the command prints the end-to-end metrics, timed with
tracing off; with ``--trace 1`` it alternates untraced and traced rounds,
prints the per-layer metrics and the traced and untraced throughput, and
writes the spans to ``perfbench/out/``.  Each metric is printed on its own
line with its unit and sample count; the last line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Rounds repeat the same requests until ``--seconds`` have passed.  On a shared
2-vCPU VM, other tenants slowed whole stretches of a run by 20-70%, so each
request is scored by its best time over the rounds, and the latency and
throughput figures are computed from those best times.

The command exits 1 if any output disagrees with the oracle or with an
earlier round, and 2 if the ``aobs`` sources are not in this checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: rounds and ops a run times at the least, whatever ``--seconds`` says;
#: a traced run needs no latency percentiles, so fewer rounds of each kind
MIN_ROUNDS = 4
MIN_OPS = 200
MIN_TRACE_ROUNDS = 2
#: a run stops starting rounds after this many seconds
HARD_STOP_S = 120.0


def _import_aobs() -> bool:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import aobs
    except ImportError:
        return False
    return Path(aobs.__file__).resolve().parent == ROOT / "src" / "aobs"


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 if it is empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def latencies_ms(tally) -> dict:
    """Best times per kind of request; failed ops rank above every success."""
    best = tally.best()
    ms = {kind: sorted(ns / 1e6 for k, ns in best if k == kind)
          for kind in ("read", "eval", "act")}
    ok = sorted(ms["eval"] + ms["act"])
    top = ok[-1] if ok else 0.0
    failed = sorted(max(ns / 1e6, top) for k, ns in best if k.startswith("!"))
    ms["op"] = ok + failed
    ms["ok"] = ok
    return ms


def throughput(tally) -> float:
    """Verified ops per second of their best times."""
    ok = latencies_ms(tally)["ok"]
    return len(ok) / (sum(ok) / 1e3) if ok else 0.0


def run_rounds(wl, seconds: float, trace: bool):
    from tracer import Tracer
    from workloads import Tally

    plain, traced = Tally(), Tally()
    tracer = Tracer() if trace else None
    setups = []
    start = time.perf_counter()
    i = 0
    while True:
        # set-up repeats before every round (each round needs fresh stores),
        # so its median samples the whole run rather than its first second
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        if trace and i % 2:
            wl.run_round(traced, tracer)
        else:
            wl.run_round(plain)
        i += 1
        elapsed = time.perf_counter() - start
        if trace:
            done = min(len(plain.rounds), len(traced.rounds)) >= MIN_TRACE_ROUNDS
        else:
            done = (len(plain.rounds) >= MIN_ROUNDS
                    and plain.attempted() >= MIN_OPS)
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and done):
            return plain, traced, tracer, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("deep", "wide", "optimized", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_aobs():
        print("perfbench: no aobs sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        plain, traced, tracer, setups = run_rounds(wl, args.seconds,
                                                   bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, finals = wl.verify(plain)
        probe = wl.probe() if args.workload == "cli" else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for tally in (plain, traced):
        if tally.diverged:
            problems.append(f"{tally.diverged} rounds gave other outputs than "
                            "the first")
    if args.trace and traced.reference != plain.reference:
        problems.append("traced rounds gave other outputs than untraced ones")

    metrics = {}
    lines = []

    def put(name, value, unit, n):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:42s} {value:14.6g} {unit:12s} n={n}")

    if args.trace:
        rounds = len(traced.rounds)
        for name, (value, unit) in tracer.metrics(rounds).items():
            put(name, value, unit, rounds)
        fast, slow = throughput(plain), throughput(traced)
        put("trace.untraced_ops_per_s", fast, "1/s", len(plain.rounds))
        put("trace.traced_ops_per_s", slow, "1/s", rounds)
        put("trace.overhead", fast / slow, "ratio", rounds)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        lines.append(f"spans: {len(tracer.spans)} written to "
                     f"{os.path.relpath(spans, ROOT)}")
    else:
        ms = latencies_ms(plain)
        evals = sorted(ms["read"] + ms["eval"])
        n = len(plain.rounds)
        put("ops_per_s", throughput(plain), "1/s", f"{len(ms['ok'])}x{n}")
        put("op_ms_p50", quantile(ms["op"], 0.50), "ms", f"{len(ms['op'])}x{n}")
        put("op_ms_p95", quantile(ms["op"], 0.95), "ms", f"{len(ms['op'])}x{n}")
        put("eval_ms_p50", quantile(evals, 0.50), "ms", f"{len(evals)}x{n}")
        put("act_ms_p50", quantile(ms["act"], 0.50), "ms",
            f"{len(ms['act'])}x{n}")
        put("ok_ratio", len(ms["ok"]) / len(ms["op"]), "ratio",
            f"{len(ms['op'])}x{n}")
        put("graph_size", finals["graph_size"], "count", 1)
        put("store_nodes", finals["store_nodes"], "count", 1)
        put("peak_rss_mb", peak_rss_mb, "MB", 1)
        put("doc_bytes", finals["doc_bytes"], "bytes", 1)
        put("setup_s", statistics.median(setups), "s", len(setups))

    failures = Counter(plain.failures() + traced.failures())
    attempted = plain.attempted() + traced.attempted()
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{len(plain.rounds) + len(traced.rounds)} rounds")
    for line in lines:
        print(line)
    for cls, n in sorted(failures.items()):
        print(f"failed: {n} ops raised {cls}")
    if probe is not None:
        print(f"probe, eval on a 500-row document (not an op): {probe}")
    for msg in problems[:20]:
        print(f"MISMATCH: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
