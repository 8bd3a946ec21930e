"""Command-line surface: JSON documents, DOT export, CSV output, exit codes."""
import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

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
from aobs.acting import normalize
from aobs.bench import OracleMismatch
from aobs.core import AobsError, Store, iter_nodes, size_metric
from aobs.oracle import (
    Condition, tab_apply_action, tab_canonical, tab_equal, tab_prob,
)

from conftest import enum_canonical, level_chain, random_dag, random_tabular

# a node table: children first, the root last
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
        # the table, the same graph built in the store and the table
        # written from it intern to one root
        store = Store()
        lit = store.make_lit
        built = store.make_and([
            lit(0, 0), store.make_or([(0.4, lit(1, 0)), (0.6, lit(1, 1))]),
            store.make_or([(0.7, lit(2, 0)), (0.3, lit(2, 1))])])
        s = state_from_json(THREE_VAR_TABLE)
        assert store.reintern(s.root) is built
        written = state_to_json(s)
        assert set(written) == {"universe", "nodes"}
        assert store.reintern(state_from_json(written).root) is built

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(1, 8))
    def test_table_round_trip(self, seed, num_vars):
        s = random_dag(random.Random(seed), num_vars)
        doc = json.loads(json.dumps(state_to_json(s)))
        assert len(doc["nodes"]) == sum(1 for _ in iter_nodes(s.root))
        assert s.store.reintern(state_from_json(doc).root) is s.root
        assert state_from_json(doc).root.digest == s.root.digest

    def test_thousand_level_dag_round_trip(self):
        # each level is an OR over two ANDs sharing the level below, so the
        # graph is 2,000 nodes deep and its nested tree has 2**1000 leaves
        s = level_chain(Store(), 1000)
        text = json.dumps(state_to_json(s))
        again = state_from_json(json.loads(text)).root
        assert s.store.reintern(again) is s.root

    def test_rows_alternative(self):
        s = state_from_json(TWO_ROW_STATE)
        assert tab_equal(enum_canonical(s), [
            (0.4, ((0, 0), (1, 0), (2, 0))),
            (0.6, ((0, 0), (1, 1), (2, 0))),
        ])

    def test_missing_universe(self):
        with pytest.raises(SchemaError):
            state_from_json({"nodes": [["lit", "a", 0]]})

    @pytest.mark.parametrize("universe", [[], ["a", "a"], [["a"]], "a"])
    def test_bad_universe(self, universe):
        with pytest.raises(SchemaError):
            state_from_json({"universe": universe, "nodes": [["lit", "a", 0]]})

    def test_unknown_node_kind(self):
        with pytest.raises(SchemaError):
            state_from_json({"universe": ["a"], "nodes": [["xor", []]]})

    def test_structural_error_reported_as_schema(self):
        doc = {"universe": ["a"], "nodes": [
            ["lit", "a", 0], ["lit", "a", 1], ["and", [0, 1]]]}
        with pytest.raises(SchemaError):
            state_from_json(doc)

    def test_nested_root_body_is_not_read(self, tmp_path, capsys):
        doc = {"universe": ["a"], "root": {"lit": ["a", 0]}}
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2
        assert capsys.readouterr().err == (
            "input error: state document needs 'nodes' or 'rows'\n")

    def test_both_bodies_exit_2(self, tmp_path, capsys):
        # the reader once took the table and left the rows unread
        doc = {"universe": ["a"], "nodes": [["lit", "a", 0]],
               "rows": [[1.0, {"a": 1}]]}
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {"a": [1]})])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == (
            "input error: state document has both 'nodes' and 'rows'\n")


def _table(*nodes):
    return {"universe": ["a", "b"], "nodes": list(nodes)}


def _row_doc(*rows):
    return {"universe": ["a", "b"], "rows": list(rows)}


A0, A1, B0 = ["lit", "a", 0], ["lit", "a", 1], ["lit", "b", 0]
AB = {"a": 0, "b": 0}

# one malformed document per message the reader gives, with that message
READER_ERRORS = [
    ("children-not-a-list", _table(A0, ["and", 0]),
     "node 1: children must be a list of indices"),
    ("children-an-object", _table(A0, ["or", [1.0], {"0": 0}]),
     "node 1: children must be a list of indices"),
    ("index-bool", _table(A0, B0, ["and", [0, True]]),
     "child index must be an integer, got True"),
    ("index-float", _table(A0, B0, ["and", [0, 1.0]]),
     "child index must be an integer, got 1.0"),
    ("index-string", _table(A0, B0, ["and", ["0", 1]]),
     "child index must be an integer, got '0'"),
    ("index-negative", _table(A0, B0, ["and", [-1, 1]]),
     "node 2: child index -1 is not an earlier node"),
    ("index-forward", _table(A0, ["and", [0, 2]], B0),
     "node 1: child index 2 is not an earlier node"),
    ("index-self", _table(A0, ["and", [1]]),
     "node 1: child index 1 is not an earlier node"),
    ("lit-unknown-name", _table(["lit", "q", 0]), "unknown variable 'q'"),
    ("lit-list-name", _table(["lit", ["a"], 0]), "unknown variable ['a']"),
    ("lit-int-name", _table(["lit", 0, 0]), "unknown variable 0"),
    ("lit-string-value", _table(["lit", "a", "0"]),
     "literal value must be an integer, got '0'"),
    ("lit-bool-value", _table(["lit", "a", False]),
     "literal value must be an integer, got False"),
    ("lit-float-value", _table(["lit", "a", 0.0]),
     "literal value must be an integer, got 0.0"),
    ("lit-bad-name-and-value", _table(["lit", "q", 0.0]),
     "unknown variable 'q'"),
    ("or-too-few-weights", _table(A0, A1, ["or", [1.0], [0, 1]]),
     "node 2: an or needs one weight per child"),
    ("or-weights-not-a-list", _table(A0, A1, ["or", 1.0, [0, 1]]),
     "node 2: an or needs one weight per child"),
    ("or-bool-weight", _table(A0, A1, ["or", [True, 0.5], [0, 1]]),
     "weight must be a number, got True"),
    ("or-string-weight", _table(A0, A1, ["or", [0.5, "0.5"], [0, 1]]),
     "weight must be a number, got '0.5'"),
    ("or-bad-child-and-weights", _table(A0, A1, ["or", [1.0], [0, 5]]),
     "node 2: child index 5 is not an earlier node"),
    ("or-no-children", _table(A0, ["or", [], []]),
     "OR node requires at least one child"),
    ("rows-not-a-list", {"universe": ["a", "b"], "rows": {"0": 1}},
     "'rows' must be a list"),
    ("row-of-three", _row_doc([1.0, AB, 3]),
     "each row must be [probability, assignment]"),
    ("row-an-object", _row_doc({"p": 1.0}),
     "each row must be [probability, assignment]"),
    ("row-assignment-a-list", _row_doc([1.0, [0, 0]]),
     "each row must be [probability, assignment]"),
    ("row-probability-string", _row_doc(["1.0", AB]),
     "row probability must be a number, got '1.0'"),
    ("row-probability-bool", _row_doc([True, AB]),
     "row probability must be a number, got True"),
    ("row-probability-null", _row_doc([None, AB]),
     "row probability must be a number, got None"),
    ("row-probability-negative", _row_doc([1.5, AB], [-0.5, {"a": 1, "b": 0}]),
     "OR edge weight must be positive and finite, got -0.5"),
    ("row-probability-infinite", _row_doc([1e400, AB]),
     "tabular probabilities sum to inf, expected 1"),
    ("rows-sum-to-0", _row_doc([0.0, AB]),
     "tabular probabilities sum to 0.0, expected 1"),
    ("rows-sum-to-2", _row_doc([1.0, AB], [1.0, {"a": 1, "b": 0}]),
     "tabular probabilities sum to 2.0, expected 1"),
    ("rows-empty", _row_doc(),
     "tabular belief state needs at least one row"),
    ("row-unknown-variable", _row_doc([1.0, {"a": 0, "q": 0}]),
     "unknown variable 'q'"),
    ("row-missing-variable", _row_doc([1.0, {"a": 0}]),
     "missing variables [1]"),
    ("row-extra-variable", _row_doc([1.0, {"a": 0, "b": 0, "q": 1}]),
     "unknown variable 'q'"),
    ("row-value-float", _row_doc([1.0, {"a": 0, "b": 1.5}]),
     "row value must be an integer, got 1.5"),
    ("row-value-string", _row_doc([1.0, {"a": "0", "b": 1}]),
     "row value must be an integer, got '0'"),
    ("row-value-bool", _row_doc([1.0, {"a": 0, "b": True}]),
     "row value must be an integer, got True"),
    ("row-value-null", _row_doc([1.0, {"a": 0, "b": None}]),
     "row value must be an integer, got None"),
    ("row-bad-value-then-unknown", _row_doc([1.0, {"a": 0.5, "q": 0}]),
     "row value must be an integer, got 0.5"),
    ("row-unknown-then-bad-value", _row_doc([1.0, {"q": 0, "a": 0.5}]),
     "unknown variable 'q'"),
    ("row-bad-probability-and-cell", _row_doc(["x", {"a": 0.5, "q": 0}]),
     "row probability must be a number, got 'x'"),
    ("second-row-bad", _row_doc([0.5, AB], [0.5, {"a": 1, "b": "1"}]),
     "row value must be an integer, got '1'"),
]


class TestReaderErrors:
    """The reader's error contract: each malformed document exits 2 with
    its own message, the first fault in document order."""

    @pytest.mark.parametrize(
        "doc, message",
        [pytest.param(doc, message, id=name)
         for name, doc, message in READER_ERRORS])
    def test_exit_2_with_message(self, tmp_path, capsys, doc, message):
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {})])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"input error: {message}\n"

    def test_non_string_row_variable(self):
        # JSON object keys are strings; a library caller may pass others
        with pytest.raises(SchemaError) as exc:
            state_from_json({"universe": ["a"], "rows": [[1.0, {0: 0}]]})
        assert str(exc.value) == "unknown variable 0"


# one malformed action document per message, with that message; the
# outcomes are read as a state's rows are, and worded as outcomes
ACTION_ERRORS = [
    ("outcomes-missing", {"effects": []},
     "action document needs an 'outcomes' list"),
    ("outcomes-not-a-list", {"outcomes": {"Y": 1}},
     "'outcomes' must be a list"),
    ("outcomes-empty", {"outcomes": []}, "action needs at least one outcome"),
    ("outcome-of-three", {"outcomes": [[1.0, {"Y": 1}, 3]]},
     "each outcome must be [probability, assignment]"),
    ("outcome-an-object", {"outcomes": [{"p": 1.0}]},
     "each outcome must be [probability, assignment]"),
    ("outcome-probability-string", {"outcomes": [["1.0", {"Y": 1}]]},
     "outcome probability must be a number, got '1.0'"),
    ("outcome-value-float", {"outcomes": [[1.0, {"Y": 1.5}]]},
     "outcome value must be an integer, got 1.5"),
    ("outcome-value-bool", {"outcomes": [[1.0, {"Y": True}]]},
     "outcome value must be an integer, got True"),
    ("outcome-unknown-variable", {"outcomes": [[1.0, {"Y": 1, "q": 0}]]},
     "unknown variable 'q'"),
    ("outcomes-assign-different-variables",
     {"outcomes": [[0.5, {"Y": 1}], [0.5, {"Z": 1}]]},
     "outcomes must all assign the same variables"),
    ("zero-outcome-other-variables",
     {"outcomes": [[1.0, {"Y": 1}], [0.0, {"Z": 1}]]},
     "outcomes must all assign the same variables"),
    ("outcome-probability-negative",
     {"outcomes": [[1.5, {"Y": 1}], [-0.5, {"Y": 0}]]},
     "outcome probability must be positive or 0, got -0.5"),
    ("outcomes-all-zero", {"outcomes": [[0.0, {"Y": 1}], [0.0, {"Y": 0}]]},
     "outcome probabilities sum to 0.0, expected 1"),
]

# one malformed condition document per message, with that message
CONDITION_ERRORS = [
    ("not-an-object", [["X", [0]]], "condition document must be an object"),
    ("unknown-variable", {"X": [0], "q": [0]}, "unknown variable 'q'"),
    ("values-empty", {"X": []},
     "allowed values for 'X' must be a non-empty list"),
    ("values-not-a-list", {"X": 0},
     "allowed values for 'X' must be a non-empty list"),
    ("value-float", {"X": [0.0]},
     "condition value must be an integer, got 0.0"),
]


class TestConditionAction:
    @pytest.mark.parametrize(
        "doc, message",
        [pytest.param(doc, message, id=name)
         for name, doc, message in ACTION_ERRORS])
    def test_action_error_exit_2(self, tmp_path, capsys, doc, message):
        rc = main(["act", _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {}),
                   _write(tmp_path / "a.json", doc),
                   "--out", str(tmp_path / "out.json")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [pytest.param(doc, message, id=name)
         for name, doc, message in CONDITION_ERRORS])
    def test_condition_error_exit_2(self, tmp_path, capsys, doc, message):
        rc = main(["eval", _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", doc)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"input error: {message}\n"

    def test_action_variables_in_name_order(self):
        # the action's variables, and so the order its literals are made
        # in, follow the names, not the universe
        s = state_from_json({"universe": ["b", "a"],
                             "rows": [[1.0, {"a": 0, "b": 0}]]})
        a = action_from_json({"outcomes": [[0.5, {"b": 1, "a": 2}],
                                           [0.5, {"a": 3, "b": 4}]]}, s)
        assert a.vars == (1, 0)
        assert a.outcomes == ((0.5, (2, 1)), (0.5, (3, 4)))

    def test_condition(self):
        s = state_from_json(THREE_VAR_TABLE)
        c = condition_from_json({"b": [1], "c": [0]}, s)
        assert c.allowed == {1: frozenset({1}), 2: frozenset({0})}

    def test_condition_unknown_var(self):
        s = state_from_json(THREE_VAR_TABLE)
        with pytest.raises(SchemaError, match=r"^unknown variable 'q'$"):
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
        text = to_dot(state_from_json(THREE_VAR_TABLE))
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

    def test_label_escapes_quotes_and_backslashes(self):
        # a quote in a name once ended the label string early
        names = ['door "front"', "c:\\tap"]
        s = state_from_json({"universe": names,
                             "rows": [[1.0, {names[0]: 0, names[1]: 1}]]})
        labels = re.findall(r'shape=plaintext, label="((?:[^"\\]|\\.)*)"\];',
                            to_dot(s))
        assert sorted(re.sub(r"\\(.)", r"\1", x) for x in labels) == [
            'c:\\tap=1', 'door "front"=0']

    def test_deterministic(self):
        a = to_dot(state_from_json(THREE_VAR_TABLE))
        b = to_dot(state_from_json(THREE_VAR_TABLE))
        assert a == b


class TestEvalCommand:
    def test_conjunction(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_TABLE),
                   _write(tmp_path / "c.json", {"b": [1], "c": [0]})])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.42"

    def test_empty_condition(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_TABLE),
                   _write(tmp_path / "c.json", {})])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unknown_variable_exit_2(self, tmp_path, capsys):
        rc = main(["eval",
                   _write(tmp_path / "s.json", THREE_VAR_TABLE),
                   _write(tmp_path / "c.json", {"nope": [0]})])
        assert rc == 2

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(["eval", str(tmp_path / "absent.json"),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        # JSON nested deeper than json.loads can follow
        depth = 100_000
        path = tmp_path / "s.json"
        path.write_text('{"universe": ["a"], "nodes": '
                        + "[" * depth + "]" * depth + "}")
        rc = main(["eval", str(path), _write(tmp_path / "c.json", {"a": [0]})])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"input error: cannot read {path}: nested too deeply\n")

    def test_library_recursion_error_is_not_blamed_on_input(
            self, tmp_path, monkeypatch):
        def deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("aobs.cli.probability", deep)
        with pytest.raises(RecursionError):
            main(["eval", _write(tmp_path / "s.json", THREE_VAR_TABLE),
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

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")],
                             ids=["nodes-nan", "nodes-inf"])
    def test_non_finite_weight_exit_2(self, tmp_path, capsys, weight):
        doc = {"universe": ["a"], "nodes": [
            ["lit", "a", 0], ["lit", "a", 1], ["or", [weight, 0.5], [0, 1]]]}
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
                            Condition({0: [0, 1], 7: [2]}))
        assert abs(float(capsys.readouterr().out) - expected) < 1e-9


class TestActCommand:
    def test_act_then_eval_with_outcomes_off_within_tolerance(self, tmp_path,
                                                              capsys):
        # the outcomes sum to 0.9999999: act divides them by their total,
        # so the root keeps unit mass, and eval reads what the oracle gives
        doc = _row_doc([0.4, {"a": 1, "b": 0}], [0.6, {"a": 0, "b": 1}])
        action = {"outcomes": [[0.3333333, {"b": u}] for u in range(3)]}
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {"a": [1]}),
                   _write(tmp_path / "a.json", action), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["eval", str(out), _write(tmp_path / "b.json", {"b": [1]})])
        assert rc == 0
        s = state_from_json(doc)
        acted = tab_apply_action(enum_canonical(s), Condition({0: [1]}),
                                 action_from_json(action, s))
        expected = tab_prob(acted, Condition({1: [1]}))
        assert abs(float(capsys.readouterr().out) - expected) < 1e-9

    def test_overwrite_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", {}),
                   _write(tmp_path / "a.json", OVERWRITE_YZ),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        result = state_from_json(json.loads(out.read_text()))
        assert printed == (
            f"size before: {size_metric(state_from_json(TWO_ROW_STATE))}\n"
            f"size after: {size_metric(result)}\n")
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

    @pytest.mark.parametrize("condition", [{}, {"a": [1]}])
    def test_action_without_variables_keeps_the_size(self, tmp_path, capsys,
                                                      condition):
        # outcomes that assign nothing leave every product whole: no
        # one-child AND is written
        doc = {"universe": ["a"], "rows": [[0.5, {"a": 0}], [0.5, {"a": 1}]]}
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", condition),
                   _write(tmp_path / "a.json", {"outcomes": [[1.0, {}]]}),
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == "size before: 7\nsize after: 7\n"
        nodes = json.loads(out.read_text())["nodes"]
        assert not [e for e in nodes if e[0] == "and" and len(e[1]) == 1]

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
        pytest.param({"universe": ["X"], "nodes": [["lit", "X", True]]}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="table-lit-true"),
        pytest.param({"universe": ["X"], "nodes": [["lit", "X", 1.0]]}, {},
                     {"outcomes": [[1.0, {"X": 0}]]}, id="table-lit-float"),
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

    @pytest.mark.parametrize("condition", [{"X": [0]}, {"X": [1]}],
                             ids=["fires", "selects-nothing"])
    def test_nan_outcome_probability_exit_2(self, tmp_path, capsys,
                                            condition):
        # once exit 1 from the store when the action fired, 0 when not
        bad = {"outcomes": [[float("nan"), {"Y": 1}], [1.0, {"Y": 0}]]}
        out = tmp_path / "out.json"
        rc = main(["act",
                   _write(tmp_path / "s.json", TWO_ROW_STATE),
                   _write(tmp_path / "c.json", condition),
                   _write(tmp_path / "a.json", bad),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not out.exists()


class TestZeroProbabilityOutcomes:
    STATE = {"universe": ["a", "b"],
             "rows": [[0.4, {"a": 1, "b": 0}], [0.6, {"a": 0, "b": 1}]]}

    def _act(self, tmp_path, action, name):
        out = tmp_path / f"{name}.json"
        rc = main(["act", _write(tmp_path / "s.json", self.STATE),
                   _write(tmp_path / "c.json", {"a": [1]}),
                   _write(tmp_path / f"{name}-action.json", action),
                   "--out", str(out)])
        return rc, out

    @pytest.mark.parametrize("outcomes", [
        pytest.param([[1.0, {"b": 1}], [0.0, {"b": 0}]], id="zero-last"),
        pytest.param([[0.0, {"b": 0}], [1.0, {"b": 1}]], id="zero-first"),
        pytest.param([[0.7, {"b": 1}], [0.0, {"b": 1}], [0.3, {"b": 0}]],
                     id="zero-between"),
    ])
    def test_left_out(self, tmp_path, capsys, outcomes):
        # an outcome of probability 0 is checked, then left out, as a row
        # of probability 0 is; it once made act exit 2
        rc, out = self._act(tmp_path, {"outcomes": outcomes}, "zero")
        kept = [o for o in outcomes if o[0] > 0]
        rc_kept, out_kept = self._act(tmp_path, {"outcomes": kept}, "kept")
        assert (rc, rc_kept) == (0, 0)
        assert out.read_bytes() == out_kept.read_bytes()
        captured = capsys.readouterr()
        assert captured.err == ""
        sizes = captured.out.splitlines()
        assert sizes[:2] == sizes[2:]

    def test_wrong_variables_exit_2(self, tmp_path, capsys):
        rc, out = self._act(tmp_path, {"outcomes": [
            [1.0, {"b": 1}], [0.0, {"a": 0, "b": 0}]]}, "zero")
        assert rc == 2
        assert capsys.readouterr().err == (
            "input error: outcomes must all assign the same variables\n")
        assert not out.exists()


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
    def test_act_rescales_inner_ors(self, tmp_path, capsys, b_weights,
                                    condition):
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
        # the size before is the rescaled state's
        assert capsys.readouterr().out == (
            f"size before: {size_metric(normalize(s))}\n"
            f"size after: {size_metric(result)}\n")


#: the interpreter's limit on the digits of an int read from text; 0 if none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestUndecodableInput:
    # the state document of the parent's crash report, one byte too long
    BAD_STATE = b'{"universe": ["a"], "rows": [[1.0, {"a": 0}]]}\xff'

    def test_eval_exit_2(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        state.write_bytes(self.BAD_STATE)
        rc = main(["eval", str(state), _write(tmp_path / "c.json", {})])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err.startswith(f"input error: cannot read {state}: ")
        assert "can't decode byte 0xff" in captured.err

    @pytest.mark.parametrize("bad", ["state", "condition", "action"])
    def test_act_exit_2_on_any_input(self, tmp_path, capsys, bad):
        paths = {"state": _write(tmp_path / "state.json", TWO_ROW_STATE),
                 "condition": _write(tmp_path / "condition.json", {}),
                 "action": _write(tmp_path / "action.json", OVERWRITE_YZ)}
        text = Path(paths[bad]).read_bytes()
        Path(paths[bad]).write_bytes(text[:-1] + b"\xff" + text[-1:])
        out = tmp_path / "out.json"
        rc = main(["act", paths["state"], paths["condition"], paths["action"],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"input error: cannot read {paths[bad]}: ")
        assert not out.exists()

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer digits")
    def test_integer_too_long_to_convert_exit_2(self, tmp_path, capsys):
        # json.loads raises ValueError on an integer over the interpreter's
        # digit limit, as it does on text that does not decode
        state = tmp_path / "s.json"
        state.write_text('{"universe": ["a"], "rows": [[1.0, {"a": 1%s}]]}'
                         % ("0" * DIGIT_LIMIT))
        rc = main(["eval", str(state), _write(tmp_path / "c.json", {})])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"input error: cannot read {state}: ")

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16",
                                          "utf-32-le"])
    def test_unicode_encodings_are_detected(self, tmp_path, capsys, encoding):
        # JSON text may be UTF-8, -16 or -32 (RFC 8259); names need not be ASCII
        doc = {"universe": ["tür", "licht"],
               "rows": [[0.25, {"tür": 0, "licht": 1}],
                        [0.75, {"tür": 1, "licht": 1}]]}
        state = tmp_path / "s.json"
        state.write_bytes(json.dumps(doc, ensure_ascii=False).encode(encoding))
        rc = main(["eval", str(state), _write(tmp_path / "c.json", {"tür": [1]})])
        assert rc == 0
        assert capsys.readouterr().out == "0.75\n"


class TestZeroProbabilityRows:
    NAMES = [f"v{i}" for i in range(5)]

    def _doc(self, rows):
        return {"universe": self.NAMES,
                "rows": [[p, {self.NAMES[v]: u for v, u in a.items()}]
                         for p, a in rows]}

    def _rows(self, seed):
        """Random rows with some of probability 0, at random places."""
        rng = random.Random(seed)
        rows = random_tabular(rng, 5, 3, rng.randint(1, 12))
        for _ in range(rng.randint(1, 4)):
            zero = {v: rng.randrange(3) for v in range(5)}
            rows.insert(rng.randint(0, len(rows)), (0.0, zero))
        return rows

    @pytest.mark.parametrize("seed", range(8))
    def test_eval_matches_oracle(self, tmp_path, capsys, seed):
        rows = self._rows(seed)
        c = Condition({0: [0, 1], 3: [2]})
        rc = main(["eval", _write(tmp_path / "s.json", self._doc(rows)),
                   _write(tmp_path / "c.json", {"v0": [0, 1], "v3": [2]})])
        assert rc == 0
        expected = tab_prob([(p, tuple(sorted(a.items()))) for p, a in rows], c)
        assert abs(float(capsys.readouterr().out) - expected) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_act_matches_oracle(self, tmp_path, seed):
        rows = self._rows(seed)
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", self._doc(rows)),
                   _write(tmp_path / "c.json", {"v1": [0]}),
                   _write(tmp_path / "a.json",
                          {"outcomes": [[0.6, {"v2": 1}], [0.4, {"v2": 2}]]}),
                   "--out", str(out)])
        assert rc == 0
        result = state_from_json(json.loads(out.read_text()))
        table = tab_canonical([(p, tuple(sorted(a.items()))) for p, a in rows])
        s = state_from_json(self._doc(rows))
        expected = tab_apply_action(
            table, condition_from_json({"v1": [0]}, s),
            action_from_json({"outcomes": [[0.6, {"v2": 1}], [0.4, {"v2": 2}]]},
                             s))
        assert tab_equal(enum_canonical(result),
                         [(p, state) for p, state in expected if p > 0])

    @pytest.mark.parametrize("zero_row, message", [
        pytest.param({"a": 1}, "missing variables [1]", id="missing-variable"),
        pytest.param({"a": 1, "b": "0"}, "row value must be an integer, got '0'",
                     id="string-value"),
        pytest.param({"a": 1, "q": 0}, "unknown variable 'q'",
                     id="unknown-variable"),
    ])
    def test_assignment_still_checked(self, tmp_path, capsys, zero_row,
                                      message):
        doc = _row_doc([1.0, AB], [0.0, zero_row])
        rc = main(["eval", _write(tmp_path / "s.json", doc),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("rows", [
        pytest.param([[float("nan"), AB]], id="nan"),
        pytest.param([[1.0, AB], [float("nan"), {"a": 1, "b": 0}]],
                     id="nan-beside-1"),
    ])
    def test_nan_total_rejected(self, tmp_path, capsys, rows):
        rc = main(["eval", _write(tmp_path / "s.json", _row_doc(*rows)),
                   _write(tmp_path / "c.json", {})])
        assert rc == 2
        assert capsys.readouterr().err == (
            "input error: tabular probabilities sum to nan, expected 1\n")


class TestCompactOutput:
    # the five-row document, condition and action that CI acts on
    ROWS = {"universe": ["door", "light", "robot", "cup", "tap"],
            "rows": [[0.2, {"door": 0, "light": 1, "robot": 2, "cup": 0,
                            "tap": 1}],
                     [0.3, {"door": 1, "light": 1, "robot": 0, "cup": 1,
                            "tap": 1}],
                     [0.1, {"door": 1, "light": 0, "robot": 1, "cup": 1,
                            "tap": 0}],
                     [0.25, {"door": 0, "light": 0, "robot": 2, "cup": 0,
                             "tap": 0}],
                     [0.15, {"door": 1, "light": 1, "robot": 1, "cup": 0,
                             "tap": 1}]]}
    CONDITION = {"door": [1], "light": [1]}
    ACTION = {"outcomes": [[0.7, {"robot": 0, "cup": 1}],
                           [0.3, {"robot": 1, "cup": 0}]]}

    def test_act_writes_the_committed_bytes(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["act", _write(tmp_path / "s.json", self.ROWS),
                   _write(tmp_path / "c.json", self.CONDITION),
                   _write(tmp_path / "a.json", self.ACTION),
                   "--out", str(out)])
        assert rc == 0
        golden = Path(__file__).parent / "data" / "act_five_rows.json"
        assert out.read_bytes() == golden.read_bytes()
        assert capsys.readouterr().out == "size before: 58\nsize after: 59\n"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_vars=st.integers(2, 7))
    def test_size_after_is_the_written_documents(self, seed, num_vars):
        rng = random.Random(seed)
        s = random_dag(rng, num_vars)
        doc = state_to_json(s)
        # an OR of one edge over the root gives the document unit mass
        doc["nodes"].append(["or", [1.0 / s.root.mass],
                             [len(doc["nodes"]) - 1]])
        avars = rng.sample(doc["universe"], rng.randint(1, 2))
        cvar = rng.choice(doc["universe"])
        action = {"outcomes": [[0.4, {v: 0 for v in avars}],
                               [0.6, {v: 1 for v in avars}]]}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "out.json"
            argv = ["act", _write(tmp / "s.json", doc),
                    _write(tmp / "c.json", {cvar: [rng.randrange(2)]}),
                    _write(tmp / "a.json", action), "--out", str(out)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            written = state_from_json(json.loads(out.read_text()))
        assert stdout.getvalue().endswith(
            f"size after: {size_metric(written)}\n")


class TestExportDotCommand:
    def test_to_file_and_stable(self, tmp_path, capsys):
        spath = _write(tmp_path / "s.json", THREE_VAR_TABLE)
        out1, out2 = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["export-dot", spath, "--out", str(out1)]) == 0
        assert main(["export-dot", spath, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_to_stdout(self, tmp_path, capsys):
        spath = _write(tmp_path / "s.json", THREE_VAR_TABLE)
        assert main(["export-dot", spath]) == 0
        assert capsys.readouterr().out.startswith("digraph aobs {")

    @pytest.mark.parametrize("out", ["missing/a.dot", "."])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, out):
        spath = _write(tmp_path / "s.json", THREE_VAR_TABLE)
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
        # the selected mass trails the row: empty on step 0, which applies
        # no action, and otherwise the condition's mass, 0 if it missed
        assert rows[0][-1] == "selected_mass"
        assert all((r[8] == "") == (r[1] == "0") for r in rows[1:])
        assert all(0.0 <= float(r[8]) <= 1.0 for r in rows[1:] if r[8])

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
        ["--oracle-cap", "-1"],  # once turned the oracle check off
    ], ids=["vars", "actions", "cond-arity", "assigns", "oracle-cap"])
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

    def test_oracle_mismatch_exit_1(self, tmp_path, capsys, monkeypatch):
        def run_seeds(cfg, seeds):
            raise OracleMismatch("seed 0 step 2: tables differ")

        monkeypatch.setattr("aobs.cli.run_seeds", run_seeds)
        rc = main(["bench", "--vars", "4", "--values", "2", "--actions", "3",
                   "--seeds", "1", "--out", str(tmp_path / "run.csv")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == "FATAL: seed 0 step 2: tables differ\n"

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


class TestMain:
    def test_library_error_exit_1(self, tmp_path, capsys, monkeypatch):
        # an AobsError that is not about the input is the program's fault
        def probability(state, condition):
            raise AobsError("store out of ids")

        monkeypatch.setattr("aobs.cli.probability", probability)
        rc = main(["eval", _write(tmp_path / "s.json", THREE_VAR_TABLE),
                   _write(tmp_path / "c.json", {})])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == "error: store out of ids\n"


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

    def test_failing_seed_exit_1(self, capsys, monkeypatch):
        # every case from the third on disagrees with the oracle
        runs = []

        def run_experiment(script, cfg, seed):
            runs.append(seed)
            if len(runs) >= 3:
                raise OracleMismatch(f"case {seed}")

        monkeypatch.setattr("aobs.cli.run_experiment", run_experiment)
        assert main(["verify", "--cases", "5", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "2/5 ok\n"
        assert captured.err == f"first failing seed: {runs[2]}\n"

    def test_negative_cases_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--cases", "-3"])
        assert exc.value.code == 2
