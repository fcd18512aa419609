import json
import os
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

    def test_a_zero_is_the_eight_unit_vectors(self, capsys):
        code, out, _ = run(capsys, "neighbors", "--A", "0", "--B", "5", "--check", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_check_disagreement_is_a_verification_failure(self, capsys, monkeypatch):
        from tiletopo import neighbors

        search = neighbors.neighbor_set_search

        def drop_one(params):
            found = search(params)
            return neighbors.NeighborSet(found.members - {(1, 0)}, found.j)

        monkeypatch.setattr(neighbors, "neighbor_set_search", drop_one)
        code, out, err = run(capsys, "neighbors", "--A", "4", "--B", "5", "--check")
        assert code == 3 and out == ""
        assert err == (
            "verification failure: neighbor formula and search disagree at (A, B) = (4, 5): "
            "1 in the formula only, 0 in the search only\n"
        )


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_params(self, capsys):
        assert run(capsys, "classify")[0] == 2

    def test_params_and_matrix_together(self, capsys):
        code, out, err = run(capsys, "classify", "--A", "1", "--B", "2", "--matrix", "0,-5,1,4")
        assert code == 2 and out == ""
        assert err == "error: give either --A and --B or --matrix, not both\n"

    @pytest.mark.parametrize("command", ["classify", "approx", "render"])
    def test_v_without_matrix(self, capsys, command):
        code, out, err = run(capsys, command, "--A", "4", "--B", "5", "--v", "0,0")
        assert code == 2 and out == ""
        assert err == "error: --v needs --matrix\n"

    @pytest.mark.parametrize("command", ["approx", "render"])
    def test_level_far_over_budget(self, capsys, command):
        # the level has a 4,588-digit number of walks; the count stops once
        # it passes the budget, so neither the full count nor the digit
        # limit of int-to-str is reached
        code, out, err = run(capsys, command, "--A", "2", "--B", "2", "--n", "20000")
        assert code == 2 and out == ""
        assert err == "error: the walks at level 20000 exceed budget 1000000 for (A,B)=(2,2)\n"

    def test_regime_error(self, capsys):
        code, _, err = run(capsys, "cutpoint", "--A", "4", "--B", "5")
        assert code == 2
        assert "2A - B >= 5" in err

    def test_negative_depth(self, capsys):
        code, out, err = run(capsys, "cutpoint", "--A", "9", "--B", "10", "--depth", "-1")
        assert code == 2 and out == ""
        assert err == "error: shrinking depth must be >= 0, got -1 for (A,B)=(9,10)\n"

    @pytest.mark.parametrize("bmax", ["1", "-3"])
    def test_sweep_needs_bmax_at_least_2(self, capsys, bmax):
        code, out, err = run(capsys, "sweep", "--Bmax", bmax)
        assert code == 2 and out == ""
        assert err == f"error: sweep needs Bmax >= 2, got {bmax}\n"

    def test_invalid_matrix(self, capsys):
        code, _, _ = run(capsys, "normalize", "--matrix", "0,1,1,0")
        assert code == 2

    @pytest.mark.parametrize("form", [["--t", "-1/3"], ["--t=-1/3"]], ids=["spaced", "joined"])
    def test_negative_t_reaches_the_range_check(self, capsys, form):
        code, out, err = run(capsys, "param", "--A", "4", "--B", "5", *form)
        assert code == 2 and out == ""
        assert err == "error: parameter t=-1/3 must lie in [0, 1] for (A,B)=(4,5)\n"

    # one valid command line per subcommand
    COMMANDS = {
        "normalize": ["--matrix", "0,-5,1,4"],
        "classify": ["--A", "5", "--B", "5"],
        "neighbors": ["--A", "4", "--B", "5"],
        "contact-graph": ["--A", "4", "--B", "5"],
        "param": ["--A", "4", "--B", "5", "--t", "1/2"],
        "approx": ["--A", "2", "--B", "2", "--n", "1"],
        "cutpoint": ["--A", "6", "--B", "7"],
        "verify-chains": ["--A", "4", "--B", "5"],
        "render": ["--A", "2", "--B", "2", "--n", "1"],
        "sweep": ["--Bmax", "4"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_is_written_or_refused(self, capsys, tmp_path, command):
        # an accepted --out that writes nothing would be silently ignored
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, command, *self.COMMANDS[command], "--out", str(out_dir))
        assert code == 1 or (code == 0 and any(out_dir.iterdir()))

    @pytest.mark.parametrize(
        "command", ["contact-graph", "approx", "cutpoint", "verify-chains", "render", "sweep"]
    )
    def test_empty_out_is_a_usage_error(self, capsys, tmp_path, monkeypatch, command):
        # an empty directory would mean the working directory to one writer
        # and no output to another; it is refused before anything runs
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command, *self.COMMANDS[command], "--out", "")
        assert code == 1 and out == ""
        assert err.startswith("usage: ")
        assert err.splitlines()[-1].endswith("the output directory must not be empty")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["approx", "render", "contact-graph"])
    def test_format_is_a_usage_error_where_nothing_reads_it(self, capsys, command):
        # these print one fixed form (polygon JSON, SVG, graph JSON or --dot),
        # so an accepted --format would be silently ignored
        code, out, err = run(capsys, command, *self.COMMANDS[command], "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("usage: ")
        assert err.splitlines()[-1].endswith("unrecognized arguments: --format json")


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
            pytest.param(["neighbors", "--check"], id="neighbors --check"),
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


class TestParserReuse:
    """``main`` builds its parser once per process.  A reused parser gives
    the exit code and stdout bytes of a fresh interpreter, defaults
    included."""

    OPS = [
        ["normalize", "--matrix", "0,-5,1,4"],
        ["classify", "--matrix", "0,-5,1,4"],  # --v defaults to 1,0
        ["neighbors", "--A", "4", "--B", "5", "--check"],
        ["contact-graph", "--A", "4", "--B", "5"],  # JSON unless --dot
        ["param", "--A", "4", "--B", "5", "--walk", "3;2,1,3;2", "--format", "json"],
        ["approx", "--A", "2", "--B", "2"],  # --n defaults to 4
        ["cutpoint", "--A", "6", "--B", "7"],
        ["verify-chains", "--A", "4", "--B", "5"],
        ["render", "--A", "4", "--B", "5", "--kind", "patch", "--n", "1"],
        ["sweep", "--Bmax", "5"],
        ["frobnicate"],
    ]

    # set options that the ops leave at their defaults; --v, --n, --budget
    # and --format are each set by two commands, so before every op
    OTHERS = [
        ["render", "--A", "5", "--B", "5", "--v", "1,1", "--n", "0", "--kind", "cutpoint",
         "--budget", "7"],
        ["approx", "--A", "5", "--B", "5", "--v", "1,1", "--n", "0", "--budget", "7"],
        ["cutpoint", "--A", "5", "--B", "5", "--v", "1,1", "--format", "json"],
        ["verify-chains", "--A", "5", "--B", "5", "--v", "1,1", "--format", "json"],
    ]

    def test_reused_parser_matches_a_fresh_interpreter(self, capsys):
        fresh = []
        for argv in self.OPS:
            proc = subprocess.run(
                [sys.executable, "-m", "tiletopo.cli", *argv], capture_output=True
            )
            fresh.append((proc.returncode, proc.stdout))
        assert fresh[-1][0] == 1
        for i, argv in enumerate(self.OPS):
            for other in self.OTHERS:
                if other[0] != argv[0]:
                    main(other)
            capsys.readouterr()
            for _ in range(2):
                code = main(list(argv))
                assert (code, capsys.readouterr().out.encode()) == fresh[i], argv


class TestEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tiletopo.cli", "classify", "--A", "2", "--B", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "DiskLike"

    def test_closed_stdout(self):
        # the reader is gone before the first write, as with `| head -c1`
        # once head has exited
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tiletopo.cli", "render"]
            + ["--A", "5", "--B", "5", "--n", "4", "--kind", "patch"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
        os.close(write_end)
        os.close(read_end)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1

    def test_startup_does_not_import_numpy(self):
        # numpy costs a cold start about 0.2 s; only the boundary polygon
        # and its writers need it, and they import it when they run
        code = (
            "import sys; import tiletopo.cli, tiletopo.contact, tiletopo.chains, "
            "tiletopo.topology, tiletopo.neighbors, tiletopo.automata, tiletopo.algebraic; "
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_param_without_sympy(self):
        # a None entry in sys.modules makes any import of sympy fail
        code = (
            "import sys; sys.modules['sympy'] = None; from tiletopo.cli import main; "
            "sys.exit(main(['param', '--A', '1', '--B', '10', '--t', '1/3']))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("t=1/3")
