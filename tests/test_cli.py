"""Tests for the command-line interface: verb behaviour, exit codes
(0 true/success, 1 false, 2 usage, 3 size guard), plain and JSON output."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from permpat import classes as cl
from permpat import grids as gr
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

    def test_basis_of_named_oracle(self, capsys):
        code, out, _ = run(capsys, "basis", "x-monotone", "5")
        assert code == 0
        assert out.splitlines() == ["2 1 4 3", "3 4 1 2"]

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


class TestExitCodesAndGuards:
    def test_size_guard_exit_three(self, capsys):
        code, out, err = run(capsys, "enumerate", "11", "--class", AV12_JSON)
        assert code == 3
        assert "size-guard refusal" in err

    def test_size_guard_refuses_before_any_length(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a length was enumerated before the refusal")

        monkeypatch.setattr(cl, "enumerate_members", no_work)
        monkeypatch.setattr(gr, "enumerate_grid", no_work)
        code, _, err = run(capsys, "enumerate", "11", "--class", AV12_JSON)
        assert code == 3 and "size-guard refusal" in err
        code, _, err = run(capsys, "grid-enum", "8", "--matrix", X_JSON)
        assert code == 3 and "size-guard refusal" in err
        code, _, err = run(
            capsys, "enumerate", "12", "--class", AV12_JSON, "--max-n", "11"
        )
        assert code == 3 and "size-guard refusal" in err

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
