"""Tests for the command-line interface: verb behaviour, exit codes
(0 true/success, 1 false, 2 usage, 3 size guard), plain and JSON output."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from permpat import classes as cl
from permpat import grids as gr
from permpat import perm as pm
from permpat.cli import main

DATA = Path(__file__).parent / "data"
X_JSON = str(DATA / "X.json")
AV321_JSON = str(DATA / "av321.json")
AV12_JSON = str(DATA / "av12.json")
CHAIN_POSET_JSON = str(DATA / "chain_poset.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestContains:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "contains", "32514", "432679185")
        assert code == 0
        assert out.strip() == "1 2 4 7 9"

    def test_absent(self, capsys):
        code, out, _ = run(capsys, "contains", "12345", "54321")
        assert code == 1
        assert out == ""

    def test_json(self, capsys):
        code, out, _ = run(capsys, "contains", "32514", "432679185", "--json")
        assert code == 0
        assert json.loads(out) == {"contains": True, "witness": [1, 2, 4, 7, 9]}
        code, out, _ = run(capsys, "contains", "123", "321", "--json")
        assert code == 1
        assert json.loads(out) == {"contains": False, "witness": None}


class TestElementaryVerbs:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "3", "-1", "3.14159", "2.71828")
        assert code == 0
        assert out.strip() == "3 1 4 2"

    def test_reduce_rejects_duplicates(self, capsys):
        code, _, err = run(capsys, "reduce", "3", "3")
        assert code == 2
        assert "error" in err

    def test_symmetry(self, capsys):
        code, out, _ = run(capsys, "symmetry", "inverse", "2314")
        assert code == 0
        assert out.strip() == "3 1 2 4"

    def test_symmetry_unknown_name(self, capsys):
        # argparse rejects the name; main turns the SystemExit into code 2
        code, _, err = run(capsys, "symmetry", "upside-down", "2314")
        assert code == 2

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "479832156")
        assert code == 0
        assert out.strip() == (
            "2413[leaf, +[leaf, -[leaf, leaf]], -[leaf, leaf, leaf], +[leaf, leaf]]"
        )

    def test_intervals(self, capsys):
        code, out, _ = run(capsys, "intervals", "479832156")
        assert code == 0
        assert out.splitlines() == ["2 4", "3 4", "5 6", "5 7", "6 7", "8 9"]

    def test_simple(self, capsys):
        assert run(capsys, "simple", "2413")[0] == 0
        code, out, _ = run(capsys, "simple", "1234")
        assert code == 1
        assert out.strip() == "false"

    def test_inflate(self, capsys):
        code, out, _ = run(capsys, "inflate", "21", "12", "21")
        assert code == 0
        assert out.strip() == "3 4 2 1"


class TestGraphVerbs:
    def test_invgraph_stdout(self, capsys):
        code, out, _ = run(capsys, "invgraph", "2413")
        assert code == 0
        assert out.startswith("graph G {")
        assert "1 -- 3;" in out
        assert "2 -- 3;" in out
        assert "2 -- 4;" in out

    def test_invgraph_dot_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "invgraph", "2413", "--dot", str(target))
        assert code == 0
        assert target.read_text().startswith("graph G {")

    def test_cellgraph(self, capsys):
        code, out, _ = run(capsys, "cellgraph", "--matrix", X_JSON)
        assert code == 0
        assert 'label="(1, 1)"' in out
        assert "1 -- 2;" in out
        assert "3 -- 4;" in out

    def test_cellgraph_needs_matrix(self, capsys):
        code, _, err = run(capsys, "cellgraph")
        assert code == 2
        assert "--matrix" in err


class TestClassVerbs:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "member", "1234", "--class", AV321_JSON)
        assert code == 0
        assert out.strip() == "true"
        code, out, _ = run(capsys, "member", "321", "--class", AV321_JSON)
        assert code == 1
        assert out.strip() == "false"

    def test_member_needs_class(self, capsys):
        code, _, err = run(capsys, "member", "123")
        assert code == 2
        assert "--class" in err

    def test_enumerate_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--class", AV321_JSON)
        assert code == 0
        assert out.splitlines() == ["length,count", "1,1", "2,2", "3,5", "4,14"]

    def test_enumerate_members_flag(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--class", AV12_JSON, "--members")
        assert code == 0
        assert out.splitlines() == ["length,count", "1,1", "  1", "2,1", "  2 1"]

    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--class", AV12_JSON, "--json")
        assert code == 0
        assert json.loads(out) == {"counts": {"1": 1, "2": 1, "3": 1}}

    def test_enumerate_matches_members_of_each_length(self, capsys, tmp_path):
        # the verb reads every length from one pass of the layer generator;
        # its output is what one enumerate_members call per length gives
        mixed = tmp_path / "mixed.json"
        mixed.write_text('{"basis": [[2, 3, 1], [4, 3, 2, 1]]}')
        for path in (AV321_JSON, str(mixed)):
            c = cl.class_from_json(Path(path).read_text())
            layers = [cl.enumerate_members(c, n) for n in range(1, 7)]
            code, out, _ = run(capsys, "enumerate", "6", "--class", path, "--members", "--json")
            assert code == 0
            assert json.loads(out) == {
                "counts": {str(n): len(ms) for n, ms in enumerate(layers, start=1)},
                "members": {
                    str(n): [list(p) for p in ms] for n, ms in enumerate(layers, start=1)
                },
            }
            code, out, _ = run(capsys, "enumerate", "6", "--class", path, "--members")
            assert code == 0
            expected = ["length,count"]
            for n, ms in enumerate(layers, start=1):
                expected.append(f"{n},{len(ms)}")
                expected.extend(f"  {pm.format_perm(p)}" for p in ms)
            assert out.splitlines() == expected

    def test_basis_of_named_oracle(self, capsys):
        code, out, _ = run(capsys, "basis", "x-monotone", "5")
        assert code == 0
        assert out.splitlines() == ["2 1 4 3", "3 4 1 2"]

    def test_every_named_oracle(self, capsys):
        expected = {
            "av:321,12": ["1 2", "3 2 1"],
            "separable": ["2 4 1 3", "3 1 4 2"],
            "skew-merged": ["2 1 4 3", "3 4 1 2"],
            "x-monotone": ["2 1 4 3", "3 4 1 2"],
            "x-geometric": ["2 1 4 3", "2 4 1 3", "3 1 4 2", "3 4 1 2"],
        }
        for name, basis in expected.items():
            code, out, _ = run(capsys, "basis", name, "4")
            assert code == 0 and out.splitlines() == basis, name
        for name in ("av:", "frobnicate"):
            code, out, err = run(capsys, "basis", name, "4")
            assert code == 2 and out == "", name
        assert err.strip() == (
            "error: unknown oracle 'frobnicate'; choose from: av:<patterns> "
            "(comma-separated), separable, skew-merged, x-monotone, x-geometric"
        )

    def test_plus_one_basis(self, capsys):
        code, out, _ = run(capsys, "plus-one-basis", "--class", AV12_JSON)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "searched_to 6 exact true"
        assert lines[1:] == ["1 2 3", "2 1 4 3", "2 4 1 3", "3 1 4 2", "3 4 1 2"]

    def test_closure_member(self, capsys):
        code, out, _ = run(capsys, "closure-member", "sum", "2143", "--class", AV12_JSON)
        assert code == 0
        code, out, _ = run(capsys, "closure-member", "sum", "231", "--class", AV12_JSON)
        assert code == 1

    def test_closure_member_forty_entries_without_patterns(self, capsys, monkeypatch):
        def no_patterns(*args):
            raise AssertionError("a closure decision enumerated patterns")

        for module in (pm, cl):
            for name in ("patterns_of_length", "all_patterns"):
                monkeypatch.setattr(module, name, no_patterns, raising=False)
        run_ = tuple(range(1, 21))
        uniform = list(range(1, 41))
        random.Random(17).shuffle(uniform)
        # 21[1..20, 1..20] is in Av(321); the uniform one has a simple root
        # whose skeleton contains 321
        for perm, code in ((pm.skew_sum(run_, run_), 0), (uniform, 1)):
            text = pm.format_perm(perm)
            got, out, _ = run(capsys, "closure-member", "substitution", text, "--class", AV321_JSON)
            assert (got, out.strip()) == (code, "false" if code else "true")


class TestGridVerbs:
    def test_grid_member_witness(self, capsys):
        code, out, _ = run(capsys, "grid-member", "3142", "--matrix", X_JSON)
        assert code == 0
        assert out.strip() == "1,2 1,1 2,2 2,1"

    def test_grid_member_negative(self, capsys):
        code, out, _ = run(capsys, "grid-member", "2143", "--matrix", X_JSON)
        assert code == 1

    def test_geom_member_rejects_monotone_only_perm(self, capsys):
        code, _, _ = run(capsys, "geom-member", "3142", "--matrix", X_JSON)
        assert code == 1

    def test_geom_member_drawing(self, capsys):
        code, out, _ = run(capsys, "geom-member", "132", "--matrix", X_JSON)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all("t=" in line and "x=" in line and "y=" in line for line in lines)

    def test_grid_enum_kinds(self, capsys):
        code, out, _ = run(capsys, "grid-enum", "4", "--matrix", X_JSON)
        assert code == 0
        assert out.splitlines()[-1] == "4,22"
        code, out, _ = run(
            capsys, "grid-enum", "4", "--matrix", X_JSON, "--kind", "geometric"
        )
        assert code == 0
        assert out.splitlines()[-1] == "4,20"

    def test_grid_enum_matches_enumerate_grid_of_each_length(self, capsys, tmp_path):
        # the verb reads every length from one pass of the builders; its
        # output is what one enumerate_grid call per length gives
        unoriented = tmp_path / "unoriented.json"
        unoriented.write_text('{"cols": 2, "rows": 2, "entries": [[1, 1], [1, -1]]}')
        for path in (X_JSON, str(unoriented)):
            m = gr.matrix_from_json(Path(path).read_text())
            for kind in gr.GRID_KINDS:
                layers = [gr.enumerate_grid(m, n, kind) for n in range(1, 6)]
                argv = ("grid-enum", "5", "--matrix", path, "--kind", kind)
                expected = ["length,count"]
                for n, ms in enumerate(layers, start=1):
                    expected.append(f"{n},{len(ms)}")
                    expected.extend(f"  {pm.format_perm(p)}" for p in ms)
                code, out, _ = run(capsys, *argv, "--members")
                assert code == 0 and out.splitlines() == expected, (path, kind)
                code, out, _ = run(capsys, *argv)
                assert code == 0
                assert out.splitlines() == [line for line in expected if line[0] != " "]
                code, out, _ = run(capsys, *argv, "--members", "--json")
                assert code == 0
                assert json.loads(out) == {
                    "kind": kind,
                    "counts": {str(n): len(ms) for n, ms in enumerate(layers, start=1)},
                    "members": {
                        str(n): [list(p) for p in ms] for n, ms in enumerate(layers, start=1)
                    },
                }


class TestAntichainVerb:
    def test_plain_member(self, capsys):
        code, out, _ = run(capsys, "antichain", "amr-tarjan", "1")
        assert code == 0
        assert out.strip() == "2 3 4 1"

    def test_labeled_member_shows_labels(self, capsys):
        code, out, _ = run(capsys, "antichain", "labeled-path", "2")
        assert code == 0
        assert out.strip() == "3:o 1:* 2:*"

    def test_bad_index(self, capsys):
        code, _, err = run(capsys, "antichain", "widdershins", "0")
        assert code == 2
        assert "error" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "antichain", "spiral", "1")
        assert code == 2


class TestLabeledContains:
    def test_inline_syntax(self, capsys):
        code, out, _ = run(capsys, "labeled-contains", "21:*,*", "231:*,o,*")
        assert code == 0
        assert out.strip() == "1 3"

    def test_labels_block(self, capsys):
        code, out, _ = run(capsys, "labeled-contains", "21:*,*", "231:o,o,*")
        assert code == 1
        assert out == ""

    def test_json_operands(self, capsys):
        code, out, _ = run(
            capsys,
            "labeled-contains",
            '{"perm": [2, 1], "labels": ["*", "*"]}',
            '{"perm": [2, 3, 1], "labels": ["*", "o", "*"]}',
        )
        assert code == 0
        assert out.strip() == "1 3"

    def test_poset_flag_changes_the_order(self, capsys):
        # under the default label antichain these labels do not dominate;
        # under the chain poset (o below *) they do
        args = ("labeled-contains", "21:o,o", "231:*,o,*")
        assert run(capsys, *args)[0] == 1
        code, out, _ = run(capsys, *args, "--poset", CHAIN_POSET_JSON)
        assert code == 0
        assert out.strip() == "1 3"


    @pytest.mark.parametrize(
        "data", [[1], {"elements": "o*"}, {"elements": ["o"], "leq": 3}, {"elements": ["o"], "leq": [5]}]
    )
    def test_malformed_poset_is_a_usage_error(self, capsys, tmp_path, data):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "labeled-contains", "1:o", "1:o", "--poset", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: a poset is an object")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"perm": 5, "labels": ["o"]}', "a labeled permutation is an object"),
            ('{"perm": [true], "labels": ["o"]}', "a labeled permutation is an object"),
            ('{"perm": [2, 2], "labels": ["o", "o"]}', "not a permutation"),
            ('{"perm": [1], "labels": "o"}', "a labeled permutation is an object"),
        ],
    )
    def test_malformed_labeled_perm_is_a_usage_error(self, capsys, text, message):
        code, out, err = run(capsys, "labeled-contains", text, "1:o")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")

    def test_array_label_is_a_usage_error(self, capsys):
        # a JSON array label becomes a tuple; it is not in the default poset
        code, out, err = run(capsys, "labeled-contains", '{"perm":[1],"labels":[["o"]]}', "21:o,o")
        assert code == 2 and out == ""
        assert "not an element of the poset" in err
        code, _, err = run(capsys, "labeled-contains", '{"perm":[1],"labels":[{"o":1}]}', "21:o,o")
        assert code == 2 and "not hashable" in err


class TestSuiteVerb:
    def test_single_passing_check(self, capsys):
        code, out, _ = run(capsys, "paper-suite", "--only", "grids.stankova")
        assert code == 0
        assert "PASS grids.stankova" in out
        assert "open questions" in out
        assert "1/1 checks passed" in out

    def test_failing_check_exits_one(self, capsys):
        code, out, _ = run(capsys, "paper-suite", "--only", "antichains.family")
        assert code == 1
        assert "FAIL antichains.family-antichains" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "paper-suite", "--only", "antichains.family", "--json"
        )
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        assert data["checks"][0]["id"] == "antichains.family-antichains"
        assert data["checks"][0]["passed"] is False

    def test_optimized_interpreter_is_refused(self):
        # python -O strips the asserts every check is made of, so a run
        # there would pass without checking anything.
        env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "permpat.cli", "paper-suite", "--only", "perm.symmetry"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert "PASS" not in proc.stdout
        assert "-O" in proc.stderr and len(proc.stderr.splitlines()) == 1

    def test_other_verbs_do_not_load_the_battery(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
        code = "import sys, permpat.cli; print('permpat.suite' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_run_as_module(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "permpat", "decompose", "2413"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2413[leaf, leaf, leaf, leaf]\n"


class TestExitCodesAndGuards:
    def test_size_guard_exit_three(self, capsys):
        code, out, err = run(capsys, "enumerate", "11", "--class", AV12_JSON)
        assert code == 3
        assert "size-guard refusal" in err
        assert "raise the cap explicitly to override" in err

    def test_size_guard_refuses_before_any_length(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a length was enumerated before the refusal")

        monkeypatch.setattr(cl, "_class_layers", no_work)
        monkeypatch.setattr(gr, "_tuple_layers", no_work)
        monkeypatch.setattr(gr, "_drawn_layers", no_work)
        code, _, err = run(capsys, "enumerate", "11", "--class", AV12_JSON)
        assert code == 3 and "size-guard refusal" in err
        for kind in gr.GRID_KINDS:
            code, _, err = run(capsys, "grid-enum", "8", "--matrix", X_JSON, "--kind", kind)
            assert code == 3 and "size-guard refusal" in err
        code, _, err = run(
            capsys, "enumerate", "12", "--class", AV12_JSON, "--max-n", "11"
        )
        assert code == 3 and "size-guard refusal" in err

    def test_length_above_byte_width_refused_before_any_length(self, capsys, monkeypatch):
        yielded, layers = [], cl._layers

        def recorded(*args):
            for layer in layers(*args):
                yielded.append(layer)
                yield layer

        monkeypatch.setattr(cl, "_layers", recorded)
        code, out, err = run(
            capsys, "enumerate", "256", "--class", AV12_JSON, "--max-n", "256"
        )
        assert code == 2 and out == "" and "255" in err
        assert yielded == []

    def test_pattern_deeper_than_recursion_limit_exit_three(self, capsys):
        text = " ".join(map(str, range(1, 1301)))
        code, out, err = run(capsys, "contains", text[: text.index(" 1201")], text)
        assert code == 3 and out == ""
        assert err.startswith("size-guard refusal") and len(err.splitlines()) == 1
        # contains takes no --max-n, so the refusal gives no hint to raise it
        assert err.rstrip().endswith("the cap is fixed")

    def test_tree_deeper_than_recursion_limit_answers(self, capsys):
        chain, expected = (1,), "leaf"  # 1 + (1 - (1 + ...)): one tree level per entry
        for k in range(1298):
            chain = (pm.skew_sum if k % 2 == 0 else pm.direct_sum)((1,), chain)
            expected = f"{'-' if k % 2 == 0 else '+'}[leaf, {expected}]"
        text = pm.format_perm(chain)
        code, out, err = run(capsys, "decompose", text)
        assert code == 0 and err == ""
        assert out == expected + "\n"
        # the pre-order node list rebuilds the same shape
        code, out, _ = run(capsys, "decompose", text, "--json")
        assert code == 0
        shapes = []
        for node in reversed(json.loads(out)["tree"]):
            inner = [shapes.pop() for _ in range(node["arity"])]
            label = {"leaf": "leaf", "plus": "+", "minus": "-"}[node["kind"]]
            shapes.append(f"{label}[{', '.join(inner)}]" if inner else label)
        assert shapes == [expected]
        for kind in ("separable", "substitution"):
            code, out, _ = run(capsys, "closure-member", kind, text, "--class", AV321_JSON)
            assert code == 0 and out.strip() == "true"

    def test_max_n_override_warns(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "5", "--class", AV12_JSON, "--max-n", "12"
        )
        assert code == 0
        assert "warning: size guards raised to 12" in err
        assert out.splitlines()[-1] == "5,1"

    def test_negative_length_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "-3", "--class", AV12_JSON)
        assert code == 2 and out == ""
        assert "negative" in err

    def test_verbs_refuse_flags_they_do_not_read(self, capsys):
        for argv in (
            ("contains", "12", "123", "--class", AV12_JSON),
            ("contains", "12", "123", "--seed", "3"),
            ("member", "12", "--class", AV12_JSON, "--max-n", "11"),
            ("closure-member", "sum", "21", "--class", AV12_JSON, "--matrix", X_JSON),
            ("labeled-contains", "1:o", "1:o", "--dot", "x.dot"),
            ("enumerate", "3", "--class", AV12_JSON, "--poset", CHAIN_POSET_JSON),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert "unrecognized arguments" in err, argv

    def test_unknown_verb(self, capsys):
        code, _, err = run(capsys, "frobnicate", "1")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "member", "123", "--class", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "verb, flag, data, perm",
        [
            ("grid-member", "--matrix", {"cols": 2, "rows": 1, "entries": [1, -1]}, "21"),
            ("grid-member", "--matrix", {"cols": 1, "rows": 1, "entries": [[True]]}, "1"),
            ("grid-member", "--matrix", [[1]], "1"),
            ("member", "--class", {"basis": [[1, 2], 5]}, "12"),
            ("member", "--class", [[1, 2]], "12"),
            ("member", "--class", {"basis": [[True, 2]]}, "12"),
            ("enumerate", "--class", {"basis": [[2.0, 1]]}, "3"),
        ],
    )
    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path, verb, flag, data, perm):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, verb, perm, flag, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: a ")

    def test_bad_perm_text(self, capsys):
        code, _, err = run(capsys, "contains", "12", "1,2,x")
        assert code == 2


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("permpat")
        env = None
        if exe is None:
            cmd = [sys.executable, "-m", "permpat.cli"]
            # run the package this test imported, wherever pytest found it
            env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
        else:
            cmd = [exe]
        proc = subprocess.run(
            cmd + ["contains", "132", "2413"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1 2 4"
