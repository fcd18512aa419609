import json
import subprocess
import sys

import pytest

from tiletopo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_cut_point_line(self, capsys):
        code, out, _ = run(capsys, "classify", "--A", "5", "--B", "5")
        assert code == 0
        assert out.strip() == "HasCutPoint z=0.(2)"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--A", "5", "--B", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["classification"] == "HasCutPoint"
        assert doc["cut_point"]["address"] == "(2)"

    def test_matrix_input(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "0,-5,1,4", "--v", "1,0")
        assert code == 0
        assert "NoCutPoint" in out


class TestNeighbors:
    def test_json_sorted(self, capsys):
        code, out, _ = run(capsys, "neighbors", "--A", "4", "--B", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == 10
        assert doc["members"] == sorted(doc["members"], key=lambda s: (s[1], s[0]))

    def test_check_flag(self, capsys):
        code, _, _ = run(capsys, "neighbors", "--A", "4", "--B", "5", "--check")
        assert code == 0


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_params(self, capsys):
        assert run(capsys, "classify")[0] == 2

    def test_regime_error(self, capsys):
        code, _, err = run(capsys, "cutpoint", "--A", "4", "--B", "5")
        assert code == 2
        assert "2A - B >= 5" in err

    def test_invalid_matrix(self, capsys):
        code, _, _ = run(capsys, "normalize", "--matrix", "0,1,1,0")
        assert code == 2


class TestContract:
    """Every subcommand, and malformed values, end in an exit code 0..3."""

    MALFORMED = [
        ["classify", "--matrix", "x,1,1,1"],
        ["normalize", "--matrix", "1,2"],
        ["param", "--A", "4", "--B", "5", "--t", "abc"],
        ["param", "--A", "4", "--B", "5", "--t", "1/0"],
        ["param", "--A", "4", "--B", "5", "--walk", "bad"],
        ["param", "--A", "4", "--B", "5", "--walk", "1;a;1"],
    ]

    @pytest.mark.parametrize(
        "extra",
        [
            ["normalize"],
            ["classify"],
            ["neighbors"],
            ["contact-graph"],
            ["param", "--walk", "2;1;1"],
            ["approx", "--n", "1"],
            ["cutpoint"],
            ["verify-chains"],
            ["render", "--n", "1"],
        ],
        ids=lambda extra: extra[0],
    )
    def test_grid(self, capsys, extra):
        for b in range(1, 11):
            for a in range(1, b + 1):
                if extra[0] == "normalize":
                    argv = ["normalize", "--matrix", f"0,{-b},1,{-a}"]
                else:
                    argv = [extra[0], "--A", str(a), "--B", str(b), *extra[1:]]
                assert main(argv) in (0, 1, 2, 3), argv
        capsys.readouterr()

    @pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv[-2:]))
    def test_malformed_value_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith(f"tiletopo {argv[0]}: error: argument")

    def test_out_is_an_existing_file(self, capsys, tmp_path):
        taken = tmp_path / "taken.txt"
        taken.write_text("keep\n")
        code, out, err = run(
            capsys, "render", "--A", "4", "--B", "5", "--n", "1", "--out", str(taken)
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot write") and str(taken) in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("walk", ["0;;1", "9;1;1"])
    def test_walk_start_outside_states(self, capsys, walk):
        code, out, err = run(capsys, "param", "--A", "4", "--B", "5", "--walk", walk)
        assert code == 2 and out == ""
        assert "walk start" in err


class TestCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(
            capsys, "normalize", "--matrix", "0,-5,1,4", "--v", "1,0", "--format", "json"
        )
        doc = json.loads(out)
        assert (doc["A"], doc["B"], doc["reflected"]) == (4, 5, True)

    def test_cutpoint(self, capsys):
        code, out, _ = run(capsys, "cutpoint", "--A", "6", "--B", "7")
        assert code == 0 and "z=0.(3)" in out

    @pytest.mark.parametrize("a,b", [(1, 10), (1, 15)])
    def test_param_quadratic_beta(self, capsys, a, b):
        code, out, _ = run(capsys, "param", "--A", str(a), "--B", str(b), "--t", "1/3")
        assert code == 0 and out.startswith("t=1/3")

    def test_param_walk(self, capsys):
        code, out, _ = run(capsys, "param", "--A", "4", "--B", "5", "--walk", "3;2,1,3;2")
        assert code == 0 and "0.440(04)" in out

    def test_verify_chains(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify-chains", "--A", "4", "--B", "5", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "chains_A4_B5.json").exists()

    def test_approx(self, capsys):
        code, out, _ = run(capsys, "approx", "--A", "2", "--B", "2", "--n", "0")
        doc = json.loads(out)
        assert len(doc["vertices"]) == 6

    def test_contact_graph_dot(self, capsys):
        code, out, _ = run(capsys, "contact-graph", "--A", "4", "--B", "5", "--dot")
        assert code == 0 and out.startswith("digraph")

    def test_render_writes_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "render", "--A", "2", "--B", "2", "--kind", "patch", "--n", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "patch_A2_B2_n1.svg"
        assert path.exists()
        assert path.read_text().count("<polygon") == 7


class TestSweep:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--Bmax", "12", "--format", "json")
        doc = json.loads(out)
        assert len(doc["rows"]) == sum(b for b in range(2, 13))
        for row in doc["rows"]:
            if row["classification"] == "HasCutPoint":
                assert row["two_a_minus_b"] >= 5

    def test_deterministic(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run(capsys, "sweep", "--Bmax", "8", "--out", str(d1))
        run(capsys, "sweep", "--Bmax", "8", "--out", str(d2))
        assert (d1 / "sweep.json").read_bytes() == (d2 / "sweep.json").read_bytes()
        assert (d1 / "sweep.txt").read_bytes() == (d2 / "sweep.txt").read_bytes()


class TestEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tiletopo.cli", "classify", "--A", "2", "--B", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "DiskLike"

    def test_param_without_sympy(self):
        # a None entry in sys.modules makes any import of sympy fail
        code = (
            "import sys; sys.modules['sympy'] = None; from tiletopo.cli import main; "
            "sys.exit(main(['param', '--A', '1', '--B', '10', '--t', '1/3']))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("t=1/3")
