import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo import TileParams, chains, cli, neighbors
from tiletopo.algebraic import FieldElement, NumberField
from tiletopo.cli import main
from tiletopo.contact import (
    ContactGraph,
    Walk,
    build_contact_graph,
    ordered_extension,
    perron_data,
    walk_to_param,
)

from conftest import cyclic_walk
from reference import neighbor_set_to_json


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

    def test_reflected_json_is_the_reference_document(self, capsys):
        # --matrix 0,-5,1,4 normalizes to (4, 5) with a reflection
        code, out, _ = run(capsys, "neighbors", "--matrix", "0,-5,1,4", "--check", "--format", "json")
        mirror = neighbors.reflect_neighbor_set(neighbors.neighbor_set_formula(TileParams(4, 5)))
        assert code == 0
        assert out == json.dumps(neighbor_set_to_json(mirror, True), indent=2, sort_keys=True) + "\n"

    def test_text_builds_no_json(self, capsys, monkeypatch):
        monkeypatch.setattr(neighbors.NeighborSet, "json_text", None)
        code, out, _ = run(capsys, "neighbors", "--A", "0", "--B", "5")
        assert code == 0 and out.splitlines()[0] == "(-1, -1)"

    def test_check_disagreement_is_a_verification_failure(self, capsys, monkeypatch):
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

    @pytest.mark.parametrize(
        "form,message",
        [
            (["--t", "1/2", "--walk", "3;2,1,3;2"], "argument --walk: not allowed with argument --t"),
            ([], "one of the arguments --t --walk is required"),
        ],
        ids=["both", "neither"],
    )
    def test_param_takes_exactly_one_of_t_and_walk(self, capsys, form, message):
        # with both, one of them would be silently ignored
        code, out, err = run(capsys, "param", "--A", "4", "--B", "5", *form)
        assert code == 1 and out == ""
        assert err.startswith("usage: ")
        assert err.splitlines()[-1] == f"tiletopo param: error: {message}"

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


class TestDocumentBuiltOnce:
    """A command serializes its JSON document only when it prints or writes
    it, and once when it does both."""

    COMMANDS = [
        (["cutpoint", "--A", "6", "--B", "7"], "cutpoint_A6_B7.json"),
        (["sweep", "--Bmax", "4"], "sweep.json"),
        (["verify-chains", "--A", "4", "--B", "5"], "chains_A4_B5.json"),
    ]

    @pytest.fixture
    def serializations(self, monkeypatch):
        calls = []
        dumps, json_text = cli._dumps, chains.ChainReport.json_text
        monkeypatch.setattr(cli, "_dumps", lambda doc: calls.append(doc) or dumps(doc))
        monkeypatch.setattr(
            chains.ChainReport, "json_text", lambda self: calls.append(self) or json_text(self)
        )
        return calls

    @pytest.mark.parametrize("argv,name", COMMANDS, ids=["cutpoint", "sweep", "verify-chains"])
    def test_printed_and_written(self, capsys, tmp_path, serializations, argv, name):
        code, out, _ = run(capsys, *argv, "--format", "json", "--out", str(tmp_path))
        assert code == 0 and len(serializations) == 1
        assert (tmp_path / name).read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("argv,name", COMMANDS, ids=["cutpoint", "sweep", "verify-chains"])
    def test_neither_printed_nor_written(self, capsys, serializations, argv, name):
        code, _, _ = run(capsys, *argv)
        assert code == 0 and serializations == []


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


class TestDrawnArgv:
    """The exit-code contract under drawn command lines: the real commands
    and options of the cheap commands, with malformed values among them.
    Sizes that make a command slow, not wrong (a large B for the commands
    whose work grows with it, a large sweep or level), are not drawn."""

    HUGE = [str(10**30), str(-(10**30)), str(2**63), str(-(2**63) - 1)]
    JUNK = st.sampled_from(["", " ", "x", "1.5", "--", "-", "1,2", "1e3", "0x10", "١"])

    @classmethod
    def ints(cls, lo, hi, huge=True):
        """Integers as text: lo..hi, and the huge ones if ``huge``."""
        small = st.integers(lo, hi).map(str)
        return small | st.sampled_from(cls.HUGE) if huge else small

    @classmethod
    def joined(cls, count):
        """``count`` comma-separated integers, or a wrong count of them."""
        exact = st.lists(cls.ints(-6, 6), min_size=count, max_size=count)
        return st.one_of(exact, exact, exact, st.lists(cls.ints(-6, 6), max_size=count + 1)).map(
            ",".join
        )

    @classmethod
    def options(cls, command):
        """The options of ``command``: each one's share of draws that give
        it, out of 8, and its drawn values (None for a flag).  The test puts
        junk in place of a value now and then."""
        a, b = cls.ints(-3, 12), cls.ints(-3, 12)
        if command not in ("classify", "neighbors"):
            a = b = cls.ints(-3, 9, huge=False)  # the work grows with B
        if command == "neighbors":
            a = cls.ints(-3, 12, huge=False)  # the neighbor set of A = B has 4A members
        opts = {
            "--A": (7, a),
            "--B": (7, b),
            "--matrix": (1, cls.joined(4)),
            "--v": (1, cls.joined(2)),
            "--format": (2, st.sampled_from(["text", "json", "json", "xml", ""])),
        }
        if command == "normalize":
            del opts["--A"], opts["--B"]
            opts["--matrix"] = (7, cls.joined(4))
        if command == "neighbors":
            opts["--check"] = (2, st.none())
        if command == "param":
            t = st.fractions(0, 1).map(str) | st.sampled_from(
                ["1/0", "-1/3", "2", cls.HUGE[0], "1/" + cls.HUGE[0]]
            )
            opts["--t"] = (4, t)
            opts["--walk"] = (4, st.lists(cls.joined(3), min_size=1, max_size=4).map(";".join))
        if command == "cutpoint":
            opts["--depth"] = (2, st.sampled_from(["-1", "0", "1", "12", cls.HUGE[1]]))
        if command == "contact-graph":
            opts["--dot"] = (2, st.none())
        if command == "approx":
            opts["--n"] = (4, st.sampled_from(["-1", "0", "1", "2", cls.HUGE[0]]))
            opts["--budget"] = (2, st.sampled_from(["-1", "0", "10", "1000000"]))
        if command in ("contact-graph", "approx"):
            opts["--format"] = (0, opts["--format"][1])
        if command == "sweep":
            bmax = st.sampled_from([cls.HUGE[1], "-1", "0", "1", "2", "3", "4"])
            opts = {"--Bmax": (7, bmax), "--format": opts["--format"]}
        if command in ("cutpoint", "contact-graph", "approx", "sweep"):
            opts["--out"] = (1, st.just(""))  # refused before anything is written
        return opts

    COMMANDS = ["classify", "normalize", "neighbors", "param", "cutpoint", "contact-graph", "sweep", "approx"]

    @classmethod
    def draw_argv(cls, data, commands):
        """A command of ``commands`` and its drawn options, with junk now
        and then in place of a value or after the last option."""
        command = data.draw(st.sampled_from(commands), label="command")
        argv = [command]
        for option, (share, values) in cls.options(command).items():
            if data.draw(st.integers(0, 7), label=option) < share:
                if data.draw(st.integers(0, 9), label="junk") == 0:
                    values = cls.JUNK
                value = data.draw(values, label=option)
                argv += [option] if value is None else [option, value]
        if data.draw(st.integers(0, 7), label="extra") == 0:
            argv.append(data.draw(cls.JUNK | st.sampled_from(["--frob", "-h0", "--A"]), label="extra"))
        return argv

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_contract(self, data):
        argv = self.draw_argv(data, self.COMMANDS)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), argv
        assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
        assert "Traceback" not in out + err, argv


class TestOnePassParse:
    """``main`` parses a command line in one argparse pass when argv[0] is
    exactly a command name: that command's parser alone, as the top-level
    parser's subparsers action would call it.  Its parse step must give what
    ``build_parser().parse_args`` gives: equal namespaces, or the same exit
    code with the same stdout and stderr."""

    EXTRA = st.sampled_from(
        ["-h", "--help", "--", "--for", "--fo=json", "--A=4", "--Bm", "--che", "--wa", "word", "-h0"]
    )
    UNKNOWN = st.sampled_from(["", "frob", "Param", "par", "-h", "--help", "--", "--A"])

    @staticmethod
    def parsed(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
        return result, out.getvalue(), err.getvalue()

    @given(st.data())
    @settings(max_examples=150, deadline=None, database=None)
    def test_matches_the_top_level_parser(self, data):
        kind = data.draw(st.integers(0, 9), label="kind")
        if kind == 0:
            argv = []
        elif kind == 1:
            argv = [data.draw(self.UNKNOWN, label="unknown"), "--A", "4"]
        else:
            commands = TestDrawnArgv.COMMANDS + ["verify-chains", "render"]
            argv = TestDrawnArgv.draw_argv(data, commands)
        for _ in range(data.draw(st.integers(0, 2), label="extras")):
            at = data.draw(st.integers(min(1, len(argv)), len(argv)), label="at")
            argv.insert(at, data.draw(self.EXTRA, label="extra"))
        want = self.parsed(cli.build_parser().parse_args, argv)
        assert self.parsed(cli._parse, argv) == want, argv


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


class TestParamDigest:
    # (period, start) of the two walks whose parameters are fed to --t
    WALKS = (((2,), 2), ((1, 3), 5))

    def test_param_t_golden_digest(self, capsys):
        # sha256 of the exit code, stdout and stderr of ``param --t`` in both
        # formats over the 77 pairs 1 <= A <= B <= 12, at t = 0, 1/2, 1 and
        # at the parameters of two fixed walks, plus the errors of t = 3/2
        # and 1/3; recorded with the FieldElement greedy walk that the
        # integer form replaced.  A walk's parameter is no rational, so it
        # is put into the parsed arguments of a --t 0 run.
        parser, h = cli.build_parser(), hashlib.sha256()
        for b in range(2, 13):
            for a in range(1, b + 1):
                base = ["param", "--A", str(a), "--B", str(b)]
                for fmt in ("text", "json"):
                    for t in ("0", "1/2", "1"):
                        h.update(repr(run(capsys, *base, "--t", t, "--format", fmt)).encode())
                graph = build_contact_graph(TileParams(a, b))
                data, o = perron_data(graph), ordered_extension(graph)
                for period, start in self.WALKS:
                    t = walk_to_param(cyclic_walk(o, start, period), data, o)
                    for fmt in ("text", "json"):
                        args = parser.parse_args([*base, "--t", "0", "--format", fmt])
                        args.t = t
                        code = args.fn(args)
                        out = capsys.readouterr()
                        h.update(repr((code, out.out, out.err)).encode())
        for a, b in ((4, 5), (1, 10), (2, 2), (12, 12)):
            for t in ("3/2", "1/3"):
                argv = ["param", "--A", str(a), "--B", str(b), "--t", t]
                h.update(repr(run(capsys, *argv)).encode())
        assert h.hexdigest() == (
            "0a20b99b712fd52802171602e898dace7ee56c543532abf18552d318a5201c88"
        )


class TestParamJsonText:
    """``param`` writes its document in a fixed layout from the values it
    reports, byte for byte what ``json.dumps(doc, indent=2, sort_keys=True)``
    writes for the document dict built here."""

    NUMBER = st.integers(-(10**40), 10**40)
    RATIO = st.builds(Fraction, NUMBER, st.integers(1, 10**30))
    # exact values inside float range, the smallest subnormal and the
    # largest double among them
    EXACT = st.one_of(
        RATIO,
        st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
        st.sampled_from([1e-05, 1e16, 5e-324, -5e-324, 1.7976931348623157e308]).map(Fraction),
    )
    LETTERS = st.one_of(
        st.just(()),
        st.lists(NUMBER, max_size=3).map(tuple),
        st.lists(NUMBER, min_size=40, max_size=60).map(tuple),
    )
    WALK = st.builds(Walk, st.integers(1, 6), LETTERS, LETTERS)

    @given(st.one_of(RATIO, st.text()), WALK, st.text(), st.tuples(EXACT, EXACT))
    @settings(max_examples=150, deadline=None, database=None)
    def test_matches_json_dumps(self, t, walk, address, value):
        doc = {
            "schema": "tiletopo/boundary-param@1",
            "t": str(t),
            "walk": {"start": walk.start, "pre": list(walk.pre), "period": list(walk.period)},
            "address": address,
            "value": [str(value[0]), str(value[1])],
            "approx": [float(value[0]), float(value[1])],
        }
        text = cli._param_json_text(t, walk, address, value)
        assert text == json.dumps(doc, indent=2, sort_keys=True)


class TestGrowthInB:
    """``param``'s growth in B pinned by counts, never by times: an op reads
    no edge list of the contact graph, whose 4B + 2 edges are all a growing
    B would add, and the greedy walk of a parameter signs O(log B) vectors
    per step."""

    @pytest.fixture(autouse=True)
    def no_edge_list(self, monkeypatch):
        def refuse(graph):
            raise AssertionError(f"the edge list of {graph.params} was read")

        monkeypatch.setattr(ContactGraph, "edges", property(refuse))

    def test_walk_at_a_million(self, capsys):
        """``param --walk`` at B = 10^6 reads no edge: the ordering's letters
        come off the six rows of the letter table and the prefix sums of
        ``walk_to_param`` off its counts per target, the junctions and the
        Perron data off (A, B).  What is left to grow with B is the size of
        the integers and the trial division of the cubic's constant term up
        to its square root."""
        argv = ["param", "--A", "500000", "--B", "1000000", "--walk", "2;1,1;1", "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["walk"] == {"start": 2, "pre": [1, 1], "period": [1]}

    def test_parameter_at_ten_thousand(self, capsys, monkeypatch):
        """``param --t 1/2`` at B = 10^4 reads no edge either, and signs at
        most 1 + 2 + 6 + k * ceil(log2(2B)) vectors for a walk of k letters:
        one for the Perron vector, two for the range of t, at most six for
        the start state, and for each letter a bisection over at most
        2B - 1 letters, which halves the range with every sign.  The scan of
        one sign per letter that bisection replaced made 20,004 here."""
        signs = []
        sign_of = NumberField.sign_of
        monkeypatch.setattr(NumberField, "sign_of", lambda f, num: signs.append(1) or sign_of(f, num))
        code, out, err = run(capsys, "param", "--A", "5000", "--B", "10000", "--t", "1/2", "--format", "json")
        assert (code, err) == (0, "")
        # t = 1/2 ends state 3's interval: its maximal walk, the last letter
        # of states 3, 5 and 1
        walk = json.loads(out)["walk"]
        assert walk == {"start": 3, "pre": [], "period": [10001, 9999, 1]}
        assert len(signs) <= 9 + 3 * math.ceil(math.log2(2 * 10**4))


    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--A", "4", "--B", "5", "--n", "2"],
            ["render", "--A", "4", "--B", "5", "--n", "1"],
            ["verify-chains", "--A", "4", "--B", "5"],
        ],
        ids=["approx", "render", "verify-chains"],
    )
    def test_other_commands_read_no_edge(self, capsys, argv):
        """The polygon's walk counts come off ``ContactGraph.adjacency`` and
        the gamma arcs' containment tests off ``has_edge``, both of which
        read the family rule; the ordering is the letter table's.  Only the
        search of ``contact-graph`` builds the edge list."""
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out


class TestWorkCounts:
    """The work of one op pinned by counts, never by times."""

    def test_param_divides_once_or_never(self, capsys, monkeypatch):
        """``param --walk`` divides once in Q(beta): ``perron_data`` keeps v
        unnormalized, so the one division is the one ``walk_to_param``
        makes, with total folded into its divisor.  ``param --t`` divides
        never: the greedy walk scales its remainder by D*total instead, and
        a rational t is printed as it was read."""
        calls = []
        quotients = NumberField.quotients
        monkeypatch.setattr(
            NumberField, "quotients", lambda f, *args: calls.append(1) or quotients(f, *args)
        )
        for a, b in ((4, 5), (1, 10), (2, 6)):  # a cubic, a quadratic and a rational beta
            base = ["param", "--A", str(a), "--B", str(b), "--format", "json"]
            calls.clear()
            assert run(capsys, *base, "--walk", "3;2,1;1")[0] == 0
            assert len(calls) == 1, (a, b)
            calls.clear()
            assert run(capsys, *base, "--t", "1/2")[0] == 0
            assert calls == [], (a, b)

    def test_one_parse_pass(self, capsys, monkeypatch):
        """A command line whose first word is a command name is parsed by
        that command's parser alone: one ``parse_known_args`` call, where
        the top-level pass that only handed it on made a second.  A
        left-over word sends it through the top-level pass after all, whose
        error names the word: three calls."""
        calls = []
        known = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(
            argparse.ArgumentParser,
            "parse_known_args",
            lambda parser, *args: calls.append(parser.prog) or known(parser, *args),
        )
        for argv in (
            ["param", "--A", "4", "--B", "5", "--walk", "3;2,1;1"],
            ["param", "--A", "4", "--B", "5", "--t", "1/2", "--format", "json"],
            ["sweep", "--Bmax", "3"],
        ):
            calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert calls == [f"tiletopo {argv[0]}"], argv
        # a left-over word is reported by the top-level pass, run as before
        calls.clear()
        code, out, err = run(capsys, "sweep", "--Bmax", "3", "word")
        assert (code, out) == (1, "") and "tiletopo: error: unrecognized arguments: word" in err
        assert calls == ["tiletopo sweep", "tiletopo", "tiletopo sweep"]


class TestNoFieldArithmetic:
    """Every command computes Q(beta) on integer vectors: FieldElement
    values are only built, signed and printed.  The class has no arithmetic
    operators (the tests' oracles add them on ``reference.Element``), so no
    command can run any, and every command still runs."""

    OPS = [
        (["normalize", "--matrix", "0,-5,1,4"], 0),
        (["classify", "--A", "4", "--B", "5"], 0),
        (["neighbors", "--A", "4", "--B", "5", "--check"], 0),
        (["contact-graph", "--A", "4", "--B", "5"], 0),
        (["param", "--A", "4", "--B", "5", "--t", "0"], 0),
        (["param", "--A", "4", "--B", "5", "--t", "1/2"], 0),
        (["param", "--A", "4", "--B", "5", "--t", "1"], 0),
        (["param", "--A", "4", "--B", "5", "--t", "1/3"], 2),
        (["param", "--A", "4", "--B", "5", "--walk", "3;2,1,3;2"], 0),
        (["approx", "--A", "4", "--B", "5", "--n", "2"], 0),
        (["cutpoint", "--A", "6", "--B", "7"], 0),
        (["verify-chains", "--A", "4", "--B", "5"], 0),
        (["render", "--A", "6", "--B", "7", "--kind", "cutpoint", "--n", "1"], 0),
        (["sweep", "--Bmax", "6"], 0),
    ]

    @pytest.mark.parametrize("argv,code", OPS, ids=[" ".join(op) for op, _ in OPS])
    def test_no_operator_runs(self, capsys, tmp_path, argv, code):
        operators = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__lt__", "__le__")
        for name in operators + ("inverse", "is_zero"):
            # object's own comparison slots return NotImplemented
            assert getattr(FieldElement, name, None) is getattr(object, name, None), name
        if argv[0] == "render":
            argv = argv + ["--out", str(tmp_path)]
        assert run(capsys, *argv)[0] == code


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


class TestRecordedOps:
    """Every op of the benchmark's record, replayed byte for byte."""

    @staticmethod
    def load_ops(monkeypatch):
        """The benchmark's op module, loaded from its file for this test:
        its digest and its judge are the benchmark's correctness gate."""
        path = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"
        spec = importlib.util.spec_from_file_location("perfbench_ops", path)
        ops = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, ops)  # its dataclass looks it up
        spec.loader.exec_module(ops)
        return ops

    def test_every_recorded_op_is_byte_identical(self, tmp_path, monkeypatch):
        # all 2,976 ops of perfbench/expected.json through cli.main in this
        # process, judged as the benchmark judges them: the exit status and
        # the digest of stdout and the files written under --out, and for a
        # param op recorded as raising, the library check of its output.
        # The ops name their --out directory relative to the working
        # directory, which is tmp_path here, so the paths they print are the
        # recorded ones
        ops = self.load_ops(monkeypatch)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / ops.OUT_DIR
        count = 0
        for items in ops.load_expected()["workloads"].values():
            for item in items:
                argv = item["argv"]
                shutil.rmtree(out, ignore_errors=True)
                out.mkdir(parents=True)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        outcome = f"rc={main(argv)}"
                    except Exception as exc:
                        outcome = f"raise:{type(exc).__name__}"
                files = sorted(
                    (p.relative_to(out).as_posix(), p.read_bytes())
                    for p in out.rglob("*")
                    if p.is_file()
                )
                data = stdout.getvalue().encode("utf-8")
                result = ops.OpResult(argv, 0.0, outcome, ops._digest(data, files), data, 0)
                assert ops.judge(result, item) == (False, False), " ".join(argv)
                count += 1
        assert count == 2976
