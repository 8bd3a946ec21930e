"""Golden root digests: random exploration scripts replayed against the
per-step roots a reference commit built.

``tests/data/golden_roots.json`` holds, for each case, every step's root
digest, ``size_metric`` and store size.  A change that keeps the graphs an
action builds must keep all three; the file names the commit that wrote
it.  To write it again from a checkout, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py COMMIT > tests/data/golden_roots.json
"""
import json
import sys
from pathlib import Path

import pytest

from aobs.acting import apply_action
from aobs.bench import ExperimentConfig, gen_experiment
from aobs.core import Store, from_physical_state, size_metric
from aobs.optimize import greedy_optimize

GOLDEN = Path(__file__).parent / "data" / "golden_roots.json"

#: (name, seed, optimize, condition arity): plain and optimized pipelines,
#: conditions on one variable and on three; a three-variable condition
#: selects nothing in most early steps, so those seeds are ones where
#: more of its actions fire
CASES = [
    ("plain-arity-1", 1, False, 1),
    ("plain-arity-3", 7, False, 3),
    ("optimized-arity-1", 3, True, 1),
    ("optimized-arity-3", 12, True, 3),
]


def replay(seed, optimize, arity):
    """Each step's [root digest, size_metric, len(store)], step 0 first."""
    cfg = ExperimentConfig(num_vars=12, num_values=3, num_actions=30,
                           condition_arity=arity, optimize=optimize)
    script = gen_experiment(cfg, seed)
    s = from_physical_state(Store(), script.initial, range(cfg.num_vars))
    rows = [[s.root.digest, size_metric(s), len(s.store)]]
    for c, a in script.steps:
        s = apply_action(s, c, a).state
        if optimize:
            s = greedy_optimize(s)
        rows.append([s.root.digest, size_metric(s), len(s.store)])
    return rows


@pytest.mark.parametrize("name, seed, optimize, arity", CASES,
                         ids=[case[0] for case in CASES])
def test_replay_matches_golden_roots(name, seed, optimize, arity):
    golden = json.loads(GOLDEN.read_text())["cases"][name]
    got = replay(seed, optimize, arity)
    for step, (want, have) in enumerate(zip(golden, got)):
        assert have == want, f"{name}: step {step} differs"
    assert len(got) == len(golden)


if __name__ == "__main__":  # one step to a line
    cases = [f" {json.dumps(name)}: [\n  "
             + ",\n  ".join(map(json.dumps, replay(seed, optimize, arity)))
             + "\n ]" for name, seed, optimize, arity in CASES]
    print(f'{{"commit": {json.dumps(sys.argv[1])}, "cases": {{\n'
          + ",\n".join(cases) + "\n}}")
