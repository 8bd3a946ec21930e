"""A graph far deeper than the interpreter's recursion limit.

The chain has 1,000 uniform independent variables and is about 2,000 nodes
deep.  Every pass over it is a fold with its own stack, so none raises
``RecursionError`` at the default recursion limit.
"""
import json

import pytest

from aobs.acting import apply_action, normalize
from aobs.cli import main, state_to_json
from aobs.core import (
    ExpansionTooLarge,
    Store,
    count_states,
    enumerate_states,
    size_metric,
)
from aobs.optimize import greedy_optimize
from aobs.oracle import Action, Condition
from aobs.query import probability, select_substate

from conftest import assert_normal_form, level_chain

LEVELS = 1000
TOP = LEVELS - 1  # the variable of the root's OR; variable 0 is at the bottom


@pytest.fixture(scope="module")
def chain():
    return level_chain(Store(), LEVELS)


def test_probability(chain):
    c = Condition({0: [1], 500: [0], TOP: [0]})
    assert probability(chain, c) == pytest.approx(0.125, abs=1e-12)


def test_normalize_keeps_the_normal_chain(chain):
    assert normalize(chain).root is chain.root


def test_greedy_optimize(chain):
    out = greedy_optimize(chain)
    assert size_metric(out) <= size_metric(chain)
    for v in (0, 500, TOP):
        assert probability(out, Condition({v: [1]})) == \
            pytest.approx(0.5, abs=1e-12)


def test_reintern(chain):
    assert Store().reintern(chain.root).digest == chain.root.digest


def test_count_states(chain):
    assert count_states(chain.root) == 2 ** LEVELS


def test_expansion_hits_the_cap(chain):
    with pytest.raises(ExpansionTooLarge):
        enumerate_states(chain.root, cap=10**4)
    with pytest.raises(ExpansionTooLarge):
        select_substate(chain, Condition({TOP: [0]}), cap=10**4)


@pytest.mark.parametrize("cond_var, act_var", [(TOP, 0), (0, TOP)],
                         ids=["condition-on-top", "condition-on-bottom"])
def test_apply_action_both_directions(chain, cond_var, act_var):
    out = apply_action(chain, Condition({cond_var: [0]}),
                       Action((act_var,), ((1.0, (1,)),)))
    assert out.selected_mass == pytest.approx(0.5, abs=1e-12)
    assert_normal_form(out.state)
    # the selected half is set to 1, the other half keeps its 0.5
    assert probability(out.state, Condition({act_var: [1]})) == \
        pytest.approx(0.75, abs=1e-12)
    assert probability(out.state, Condition({cond_var: [0]})) == \
        pytest.approx(0.5, abs=1e-12)


def test_cli_eval_and_act_on_the_node_table(chain, tmp_path, capsys):
    state = tmp_path / "s.json"
    state.write_text(json.dumps(state_to_json(chain)))
    cond = tmp_path / "c.json"
    cond.write_text(json.dumps({f"v{TOP}": [0]}))
    action = tmp_path / "a.json"
    action.write_text(json.dumps({"outcomes": [[1.0, {"v0": 1}]]}))
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"v0": [1]}))
    out = tmp_path / "out.json"

    assert main(["eval", str(state), str(cond)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.5)
    assert main(["act", str(state), str(cond), str(action),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", str(out), str(ones)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.75)
