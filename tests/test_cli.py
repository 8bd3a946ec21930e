"""Command-line surface: JSON documents, DOT export, CSV output, exit codes."""
import csv
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import aobs
from aobs.cli import (
    CSV_HEADER,
    SchemaError,
    action_from_json,
    build_parser,
    condition_from_json,
    main,
    state_from_json,
    state_to_json,
    to_dot,
)
from aobs.core import Store, iter_nodes
from aobs.oracle import Condition, tab_apply_action, tab_equal, tab_prob

from conftest import enum_canonical, level_chain, random_dag, random_tabular

THREE_VAR_STATE = {
    "universe": ["a", "b", "c"],
    "root": {"and": [
        {"lit": ["a", 0]},
        {"or": {"weights": [0.4, 0.6],
                "children": [{"lit": ["b", 0]}, {"lit": ["b", 1]}]}},
        {"or": {"weights": [0.7, 0.3],
                "children": [{"lit": ["c", 0]}, {"lit": ["c", 1]}]}},
    ]},
}

# the same state as a node table: children first, the root last
THREE_VAR_TABLE = {
    "universe": ["a", "b", "c"],
    "nodes": [
        ["lit", "a", 0],
        ["lit", "b", 0],
        ["lit", "b", 1],
        ["or", [0.4, 0.6], [1, 2]],
        ["lit", "c", 0],
        ["lit", "c", 1],
        ["or", [0.7, 0.3], [4, 5]],
        ["and", [0, 3, 6]],
    ],
}

TWO_ROW_STATE = {
    "universe": ["X", "Y", "Z"],
    "rows": [[0.4, {"X": 0, "Y": 0, "Z": 0}],
             [0.6, {"X": 0, "Y": 1, "Z": 0}]],
}

OVERWRITE_YZ = {"outcomes": [[0.7, {"Y": 2, "Z": 1}],
                             [0.3, {"Y": 2, "Z": 0}]]}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestStateDocuments:
    def test_round_trip_same_ref(self):
        # the nested form, the table form and the written table of one
        # state intern to one root
        s = state_from_json(THREE_VAR_STATE)
        assert state_from_json(THREE_VAR_TABLE, s.store).root is s.root
        written = state_to_json(s)
        assert set(written) == {"universe", "nodes"}
        again = state_from_json(written, s.store)
        assert again.root is s.root

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(1, 8))
    def test_table_round_trip(self, seed, num_vars):
        s = random_dag(random.Random(seed), num_vars)
        doc = json.loads(json.dumps(state_to_json(s)))
        assert len(doc["nodes"]) == sum(1 for _ in iter_nodes(s.root))
        assert state_from_json(doc, s.store).root is s.root
        assert state_from_json(doc).root.key == s.root.key

    def test_thousand_level_dag_round_trip(self):
        # each level is an OR over two ANDs sharing the level below, so the
        # graph is 2,000 nodes deep and its nested tree has 2**1000 leaves
        s = level_chain(Store(), 1000)
        text = json.dumps(state_to_json(s))
        assert state_from_json(json.loads(text), s.store).root is s.root

    def test_rows_alternative(self):
        s = state_from_json(TWO_ROW_STATE)
        assert tab_equal(enum_canonical(s), [
            (0.4, ((0, 0), (1, 0), (2, 0))),
            (0.6, ((0, 0), (1, 1), (2, 0))),
        ])

    def test_missing_universe(self):
        with pytest.raises(SchemaError):
            state_from_json({"root": {"lit": ["a", 0]}})

    @pytest.mark.parametrize("universe", [[], ["a", "a"], [["a"]], "a"])
    def test_bad_universe(self, universe):
        with pytest.raises(SchemaError):
            state_from_json({"universe": universe, "nodes": [["lit", "a", 0]]})

    def test_unknown_node_kind(self):
        with pytest.raises(SchemaError):
            state_from_json({"universe": ["a"], "root": {"xor": []}})

    def test_structural_error_reported_as_schema(self):
        doc = {"universe": ["a"],
               "root": {"and": [{"lit": ["a", 0]}, {"lit": ["a", 1]}]}}
        with pytest.raises(SchemaError):
            state_from_json(doc)


class TestConditionAction:
    def test_condition(self):
        s = state_from_json(THREE_VAR_STATE)
        c = condition_from_json({"b": [1], "c": [0]}, s)
        assert c.allowed == {1: frozenset({1}), 2: frozenset({0})}

    def test_condition_unknown_var(self):
        s = state_from_json(THREE_VAR_STATE)
        with pytest.raises(SchemaError):
            condition_from_json({"q": [0]}, s)

    def test_action(self):
        s = state_from_json(TWO_ROW_STATE)
        a = action_from_json(OVERWRITE_YZ, s)
        assert a.vars == (1, 2)
        assert abs(sum(p for p, _ in a.outcomes) - 1.0) < 1e-9

    def test_action_bad_mass(self):
        s = state_from_json(TWO_ROW_STATE)
        bad = {"outcomes": [[0.7, {"Y": 2}], [0.2, {"Y": 0}]]}
        with pytest.raises(SchemaError):
            action_from_json(bad, s)


class TestDotExport:
    def test_shapes_and_edges(self):
        text = to_dot(state_from_json(THREE_VAR_STATE))
        assert text.count("shape=box") == 1
        assert text.count("shape=ellipse") == 2
        assert text.count("shape=plaintext") == 5
        assert text.count("->") == 7
        assert 'label="0.400"' in text

    def test_single_state_star(self):
        s = state_from_json({"universe": ["a", "b"],
                             "rows": [[1.0, {"a": 0, "b": 1}]]})
        text = to_dot(s)
        assert text.count("shape=box") == 1
        assert text.count("shape=plaintext") == 2
        assert "a=0" in text and "b=1" in text

    def test_deterministic(self):
        a = to_dot(state_from_json(THREE_VAR_STATE))
        b = to_dot(state_from_json(THREE_VAR_STATE))
        assert a == b


class TestEvalCommand:
    def test_conjunction(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_STATE),
                   _write(tmp_path / "c.json", {"b": [1], "c": [0]})])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.42"

    def test_empty_condition(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_STATE),
                   _write(tmp_path / "c.json", {})])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unknown_variable_exit_2(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_STATE),
                   _write(tmp_path / "c.json", {"nope": [0]})])
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["eval", str(tmp_path / "absent.json"),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        # legal, but nested deeper than the recursive reader can follow
        root = '{"lit": ["a", 0]}'
        for _ in range(900):
            root = '{"and": [' + root + ']}'
        path = tmp_path / "s.json"
        path.write_text('{"universe": ["a"], "root": ' + root + '}')
        rc = main(["eval", str(path), _write(tmp_path / "c.json", {"a": [0]})])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_nested_root_too_deep_for_the_reader(self):
        # json.load is not involved: the nested reader itself is too deep
        root = {"lit": ["a", 0]}
        for _ in range(5000):
            root = {"and": [root]}
        with pytest.raises(SchemaError, match="nested too deeply"):
            state_from_json({"universe": ["a"], "root": root})

    def test_library_recursion_error_is_not_blamed_on_input(
            self, tmp_path, monkeypatch):
        def deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("aobs.cli.probability", deep)
        with pytest.raises(RecursionError):
            main(["eval", _write(tmp_path / "s.json", THREE_VAR_STATE),
                  _write(tmp_path / "c.json", {})])

    @pytest.mark.parametrize("nodes", [
        pytest.param([["and", [1]], ["lit", "a", 0]], id="forward-reference"),
        pytest.param([["lit", "a", 0], ["and", [1]]], id="self-reference"),
        pytest.param([["lit", "a", 0], ["and", [-1]]], id="negative-index"),
        pytest.param([["lit", "a", 0], ["and", [2]]], id="index-out-of-range"),
        pytest.param([["lit", "a", 0], ["lit", "a", 1],
                      ["or", [0.5, 0.5], [0, True]]], id="true-index"),
        pytest.param([["lit", "a", 0], ["lit", "a", 1],
                      ["or", [0.5, 0.5], [0, 1.0]]], id="float-index"),
        pytest.param([["lit", "a", 0], ["xor", [0]]], id="unknown-kind"),
        pytest.param([["lit", "a", 0], ["lit", "a", 1],
                      ["or", [1.0], [0, 1]]], id="weights-children-mismatch"),
        pytest.param([["lit", "a", 0], ["lit", "a", 1],
                      ["or", ["0.5", 0.5], [0, 1]]], id="string-weight"),
        pytest.param([], id="empty-nodes"),
        pytest.param([{"lit": ["a", 0]}], id="entry-not-a-list"),
        pytest.param([["lit", "a"]], id="short-lit"),
        pytest.param([["lit", "q", 0]], id="unknown-variable"),
        pytest.param([["lit", ["a"], 0]], id="unhashable-name"),
        pytest.param([["and", []]], id="root-misses-variables"),
        pytest.param({"0": ["lit", "a", 0]}, id="nodes-not-a-list"),
    ])
    def test_malformed_table_exit_2(self, tmp_path, capsys, nodes):
        doc = {"universe": ["a"], "nodes": nodes}
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    @pytest.mark.parametrize("layout", ["root", "nodes"])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, weight, layout):
        if layout == "root":
            doc = {"universe": ["a"], "root": {"or": {
                "weights": [weight, 0.5],
                "children": [{"lit": ["a", 0]}, {"lit": ["a", 1]}]}}}
        else:
            doc = {"universe": ["a"], "nodes": [
                ["lit", "a", 0], ["lit", "a", 1],
                ["or", [weight, 0.5], [0, 1]]]}
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {"a": [0]})])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_thousand_row_document(self, tmp_path, capsys):
        # a union chain of this many rows overflowed the recursion limit
        rows = random_tabular(random.Random(5), 50, 4, 1053)
        names = [f"v{i}" for i in range(50)]
        doc = {"universe": names,
               "rows": [[p, {names[v]: u for v, u in a.items()}]
                        for p, a in rows]}
        rc = main(["eval",
                   _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {"v0": [0, 1], "v7": [2]})])
        assert rc == 0
        expected = tab_prob([(p, tuple(sorted(a.items()))) for p, a in rows],
                            Condition.of({0: [0, 1], 7: [2]}))
        assert abs(float(capsys.readouterr().out) - expected) < 1e-9


class TestActCommand:
    def test_overwrite_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {}),
                   _write(tmp_path / "a.json", OVERWRITE_YZ),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "size before:" in printed and "size after:" in printed
        result = state_from_json(json.loads(out.read_text()))
        assert tab_equal(enum_canonical(result), [
            (0.3, ((0, 0), (1, 2), (2, 0))),
            (0.7, ((0, 0), (1, 2), (2, 1))),
        ])

    @pytest.mark.parametrize("out", ["missing/out.json", "."])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, out):
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {}),
                   _write(tmp_path / "a.json", OVERWRITE_YZ),
                   "--out", str(tmp_path / out)])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_zero_mass_condition_identity(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {"X": [9]}),
                   _write(tmp_path / "a.json", OVERWRITE_YZ),
                   "--out", str(out)])
        assert rc == 0
        result = state_from_json(json.loads(out.read_text()))
        assert tab_equal(enum_canonical(result),
                         enum_canonical(state_from_json(TWO_ROW_STATE)))

    def test_writes_table(self, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["act",
                   _write(tmp_path / "s.json", THREE_VAR_TABLE),
                   _write(tmp_path / "c.json", {"b": [1]}),
                   _write(tmp_path / "a.json", {"outcomes": [[1.0, {"c": 1}]]}),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert set(json.loads(text)) == {"universe", "nodes"}

    @pytest.mark.parametrize("state, condition, action", [
        pytest.param({"universe": ["X"], "root": {"lit": ["X", True]}}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="nested-lit-true"),
        pytest.param({"universe": ["X"], "root": {"lit": ["X", 1.0]}}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="nested-lit-float"),
        pytest.param({"universe": ["X"], "nodes": [["lit", "X", "1"]]}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="table-lit-string"),
        pytest.param({"universe": ["X"], "rows": [[1.0, {"X": 1.9}]]}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="row-value-float"),
        pytest.param({"universe": ["X"], "rows": [[1.0, {"X": False}]]}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="row-value-false"),
        pytest.param(TWO_ROW_STATE, {"Y": [1.9]}, OVERWRITE_YZ,
                     id="condition-float"),
        pytest.param(TWO_ROW_STATE, {"Y": [True]}, OVERWRITE_YZ,
                     id="condition-true"),
        pytest.param(TWO_ROW_STATE, {"Y": ["1"]}, OVERWRITE_YZ,
                     id="condition-string"),
        pytest.param(TWO_ROW_STATE, {}, {"outcomes": [[1.0, {"Y": 1.9}]]},
                     id="action-float"),
        pytest.param(TWO_ROW_STATE, {}, {"outcomes": [[1.0, {"Y": True}]]},
                     id="action-true"),
        pytest.param(TWO_ROW_STATE, {}, {"outcomes": [[1.0, {"Y": "2"}]]},
                     id="action-string"),
    ])
    def test_non_integer_value_exit_2(self, tmp_path, capsys, state,
                                      condition, action):
        rc = main(["act",
                   _write(tmp_path / "s.json", state),
                   _write(tmp_path / "c.json", condition),
                   _write(tmp_path / "a.json", action),
                   "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_bad_action_mass_exit_2(self, tmp_path):
        bad = {"outcomes": [[0.7, {"Y": 2}], [0.2, {"Y": 0}]]}
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {}),
                   _write(tmp_path / "a.json", bad),
                   "--out", str(tmp_path / "out.json")])
        assert rc == 2


class TestStateMass:
    # OR(0.5: a=0, 0.8: a=1) x b=0 has mass 1.3; read, it is a legal state
    HEAVY = {"universe": ["a", "b"], "nodes": [
        ["lit", "a", 0], ["lit", "a", 1], ["or", [0.5, 0.8], [0, 1]],
        ["lit", "b", 0], ["and", [2, 3]]]}

    def test_reader_keeps_the_mass(self):
        assert state_from_json(self.HEAVY).root.mass == pytest.approx(1.3)

    def test_eval_exit_2(self, tmp_path, capsys):
        rc = main(["eval", _write(tmp_path / "s.json", self.HEAVY),
                   _write(tmp_path / "c.json", {"b": [0]})])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: state mass is 1.3")

    def test_act_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", self.HEAVY),
                   _write(tmp_path / "c.json", {"a": [1]}),
                   _write(tmp_path / "a.json", {"outcomes": [[1.0, {"b": 1}]]}),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error: state mass")
        assert not out.exists()

    # root mass 1, but the ORs over b lack unit weight; erasing b would drop
    # their excess, so act rescales them first
    @pytest.mark.parametrize("b_weights, condition", [
        pytest.param([[0.75, 0.75], [0.25, 0.25]], {"a": [0, 1]},
                     id="all-selected"),
        pytest.param([[0.5, 0.8], [0.3, 0.4]], {"a": [0]}, id="a-is-0"),
    ])
    def test_act_rescales_inner_ors(self, tmp_path, b_weights, condition):
        doc = {"universe": ["a", "b"], "nodes": [
            ["lit", "a", 0], ["lit", "a", 1], ["lit", "b", 0], ["lit", "b", 1],
            ["or", b_weights[0], [2, 3]], ["and", [0, 4]],
            ["or", b_weights[1], [2, 3]], ["and", [1, 6]],
            ["or", [0.5, 0.5], [5, 7]]]}
        action = {"outcomes": [[1.0, {"b": 1}]]}
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", condition),
                   _write(tmp_path / "a.json", action), "--out", str(out)])
        assert rc == 0
        s = state_from_json(doc)
        expected = tab_apply_action(enum_canonical(s),
                                    condition_from_json(condition, s),
                                    action_from_json(action, s))
        result = state_from_json(json.loads(out.read_text()))
        assert tab_equal(enum_canonical(result), expected)


class TestExportDotCommand:
    def test_to_file_and_stable(self, tmp_path, capsys):
        spath = _write(tmp_path / "s.json", THREE_VAR_STATE)
        out1, out2 = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["export-dot", spath, "--out", str(out1)]) == 0
        assert main(["export-dot", spath, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_to_stdout(self, tmp_path, capsys):
        spath = _write(tmp_path / "s.json", THREE_VAR_STATE)
        assert main(["export-dot", spath]) == 0
        assert capsys.readouterr().out.startswith("digraph aobs {")

    @pytest.mark.parametrize("out", ["missing/a.dot", "."])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, out):
        spath = _write(tmp_path / "s.json", THREE_VAR_STATE)
        assert main(["export-dot", spath, "--out", str(tmp_path / out)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestBenchCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["bench", "--vars", "4", "--values", "2", "--actions", "3",
                   "--assigns", "2", "--cond-arity", "2",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 2 * 4
        # BDD disabled: the n_bdd and ms_bdd cells stay empty
        assert all(r[5] == "" and r[7] == "" for r in rows[1:])

    def test_with_bdd_fills_column(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["bench", "--vars", "4", "--values", "2", "--actions", "3",
                   "--assigns", "2", "--cond-arity", "2",
                   "--seeds", "1", "--with-bdd", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert all(r[5] != "" for r in rows[1:])

    @pytest.mark.parametrize("num_vars", [300, 1000])
    def test_with_bdd_deeper_than_the_recursion_limit(self, tmp_path, capsys,
                                                      num_vars):
        # one-hot encoding gives 4 BDD levels a variable; a recursive apply
        # or exists died with RecursionError from 300 variables on
        out = tmp_path / "run.csv"
        rc = main(["bench", "--vars", str(num_vars), "--values", "4",
                   "--actions", "2", "--seeds", "1", "--with-bdd",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3
        assert all(int(r[5]) > 0 for r in rows[1:])

    @pytest.mark.parametrize("bad", [
        ["--vars", "0"],
        ["--actions", "-1"],
        ["--cond-arity", "0"],
        ["--assigns", "5"],  # more than the 4 variables
    ], ids=["vars", "actions", "cond-arity", "assigns"])
    def test_bad_config_exit_2(self, tmp_path, capsys, bad):
        args = {"--vars": "4", "--values": "2", "--actions": "3",
                "--seeds": "1", "--out": str(tmp_path / "run.csv")}
        args.update(zip(bad[::2], bad[1::2]))
        assert main(["bench"] + [x for kv in args.items() for x in kv]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/run.csv", "."])
    def test_unwritable_out_exit_2_before_running(self, tmp_path, capsys,
                                                  monkeypatch, out):
        def run_seeds(cfg, seeds):
            raise AssertionError("ran before checking --out")

        monkeypatch.setattr("aobs.cli.run_seeds", run_seeds)
        rc = main(["bench", "--vars", "4", "--values", "2", "--actions", "3",
                   "--seeds", "1", "--out", str(tmp_path / out)])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_zero_seeds_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--vars", "4", "--values", "2", "--actions", "3",
                  "--seeds", "0", "--out", str(tmp_path / "run.csv")])
        assert exc.value.code == 2


class TestClosedOutput:
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    def test_closed_pipe_exit_2_without_traceback(self, tmp_path, unbuffered):
        # the reading end is closed before the command starts, as when
        # `| head -1` has gone; buffered, the write fails at the last flush,
        # unbuffered, in the first print
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(aobs.__file__))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "aobs.cli", "bench", "--vars", "4",
                 "--values", "2", "--actions", "3", "--seeds", "1",
                 "--out", str(tmp_path / "run.csv")],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode()
        assert proc.returncode == 2
        assert (tmp_path / "run.csv").read_text().startswith("seed,")


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_keeps_usage_errors(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["eval"])
            assert exc.value.code == 2


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        assert main(["verify", "--cases", "5"]) == 0
        assert "5/5 ok" in capsys.readouterr().out

    def test_negative_cases_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cases", "-3"])
        assert exc.value.code == 2
