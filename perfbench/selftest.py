"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import io
import json
import sys

import pytest

import ops
import spans
import workloads

CUTPOINT = ["cutpoint", "--A", "5", "--B", "5", "--out", ops.OUT_DIR]
NEIGHBORS = ["neighbors", "--A", "4", "--B", "5", "--check", "--format", "json"]
KNOWN_FAILURE_PAIR = ("1", "10")


@pytest.fixture(scope="module")
def cli():
    return ops.import_tiletopo()


@pytest.fixture(scope="module")
def expected():
    return ops.load_expected()["workloads"]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ops.ROOT)


def _record(expected, argv):
    return next(i for items in expected.values() for i in items if i["argv"] == argv)


class _Patched:
    """A stand-in for the cli module whose ``main`` is replaced."""

    def __init__(self, main):
        self.main = main


def test_recorded_op_passes(cli, expected):
    for argv in (CUTPOINT, NEIGHBORS):
        assert ops.judge(ops.run_op(cli, argv), _record(expected, argv)) == (False, False)


def test_corrupted_stdout_byte_is_flagged(cli, expected):
    def main(argv):
        buf = io.StringIO()
        real = sys.stdout
        sys.stdout = buf
        try:
            rc = cli.main(argv)
        finally:
            sys.stdout = real
        text = buf.getvalue()
        print(text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1], end="")
        return rc

    result = ops.run_op(_Patched(main), NEIGHBORS)
    assert result.outcome == "rc=0"
    assert ops.judge(result, _record(expected, NEIGHBORS)) == (True, True)


def test_corrupted_out_file_byte_is_flagged(cli, expected):
    def main(argv):
        rc = cli.main(argv)
        (path,) = (ops.ROOT / ops.OUT_DIR).iterdir()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        return rc

    result = ops.run_op(_Patched(main), CUTPOINT)
    assert ops.judge(result, _record(expected, CUTPOINT)) == (True, True)


def test_raising_op_counts_as_failed(expected):
    def main(argv):
        raise ZeroDivisionError("boom")

    result = ops.run_op(_Patched(main), NEIGHBORS)
    assert result.outcome == "raise:ZeroDivisionError"
    assert ops.judge(result, _record(expected, NEIGHBORS)) == (True, True)


def test_wrong_exit_code_counts_as_failed(cli, expected):
    result = ops.run_op(_Patched(lambda argv: cli.main(argv) or 3), NEIGHBORS)
    assert ops.judge(result, _record(expected, NEIGHBORS)) == (True, True)


def test_known_failure_fails_but_is_not_incorrect(cli, expected):
    item = next(i for i in expected["param"] if tuple(i["argv"][2:5:2]) == KNOWN_FAILURE_PAIR)
    assert item["outcome"].startswith("raise:")
    assert ops.judge(ops.run_op(cli, item["argv"]), item) == (True, False)


def test_fixed_known_failure_is_checked_against_library(cli, expected):
    from tiletopo.contact import Walk, build_contact_graph, derive_order_extension, psi
    from tiletopo.numsys import TileParams, format_address, point_eval

    item = next(i for i in expected["param"] if tuple(i["argv"][2:5:2]) == KNOWN_FAILURE_PAIR)
    opts = dict(zip(item["argv"][1::2], item["argv"][2::2]))
    head, pre, per = opts["--walk"].split(";")
    walk = Walk(int(head), tuple(int(x) for x in pre.split(",") if x), tuple(int(x) for x in per.split(",") if x))
    params = TileParams(1, 10)
    addr = psi(walk, derive_order_extension(build_contact_graph(params)))
    value = point_eval(addr, params)
    payload = {
        "walk": {"start": walk.start, "pre": list(walk.pre), "period": list(walk.period)},
        "address": format_address(addr),
        "value": [str(value[0]), str(value[1])],
    }

    def fixed(argv):
        print(json.dumps(payload))
        return 0

    assert ops.judge(ops.run_op(_Patched(fixed), item["argv"]), item) == (False, False)
    payload["value"][0] += "1"
    assert ops.judge(ops.run_op(_Patched(fixed), item["argv"]), item) == (True, True)


def test_tracer_restores_every_binding(cli):
    import tiletopo.chains
    import tiletopo.topology

    def snapshot():
        return {
            (mod.__name__, attr): obj
            for mod in spans._package_modules()
            for attr, obj in vars(mod).items()
        } | {("ChainSetup", "build"): tiletopo.chains.ChainSetup.__dict__["build"]}

    spans.layer_functions()  # imports every layer, as install() does
    before = snapshot()
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer:
            assert hasattr(tiletopo.chains.product_intersection, "__perfbench_original__")
            assert hasattr(tiletopo.topology.product_intersection, "__perfbench_original__")
            raise KeyError("leave the block by an exception")
    after = snapshot()
    assert spans.wrapped_bindings() == []
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_op_has_same_output_and_spans(cli, expected):
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer:
        result = ops.run_op(cli, CUTPOINT)
    assert ops.judge(result, _record(expected, CUTPOINT)) == (False, False)
    summary = spans.summarize(tracer.spans)
    assert summary["cli.main"]["calls"] == 1
    assert summary["topology.verify_cut_point"]["calls"] == 1
    assert summary["automata.product_intersection"]["calls"] > 0
    main = summary["cli.main"]
    assert 0 <= main["self_s"] <= main["total_s"]


def test_self_time_subtracts_children():
    fake = [
        [0, "a", 0.0, 10.0, -1, None],
        [0, "b", 1.0, 4.0, 0, None],
        [0, "c", 2.0, 3.0, 1, None],
        [0, "b", 5.0, 6.0, 0, {"x": 2}],
    ]
    s = spans.summarize(fake)
    assert s["a"]["self_s"] == pytest.approx(6.0)
    assert s["b"]["self_s"] == pytest.approx(3.0)
    assert s["b"]["total_s"] == pytest.approx(4.0)
    assert s["b"]["x"] == 2


def test_tail_is_mean_of_slowest_tenth_and_at_least_five():
    import run

    assert run.tail([float(t) for t in range(1, 101)]) == (pytest.approx(95.5), 10)
    assert run.tail([float(t) for t in range(1, 21)]) == (pytest.approx(18.0), 5)
    assert run.tail([2.0, 4.0]) == (pytest.approx(3.0), 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_list(expected, workload):
    items = expected[workload]
    first = workloads.op_list(workload, items, 7, 20.0)
    assert first == workloads.op_list(workload, items, 7, 20.0)
    argvs = [tuple(i["argv"]) for i in first]
    assert len(set(argvs)) == len(argvs)
    assert len({i["unit"] for i in first}) == len(first)


def test_seeds_draw_the_same_strata(expected):
    items = expected["param"]
    lists = [workloads.op_list("param", items, seed, 20.0) for seed in (1, 2)]
    assert [i["argv"] for i in lists[0]] != [i["argv"] for i in lists[1]]
    counts = [sorted(workloads.stratum(i) for i in ops_) for ops_ in lists]
    assert counts[0] == counts[1]


def test_metric_names_match_benchmark_json():
    import run

    with open(ops.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
