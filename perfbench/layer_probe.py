"""One-off layer probe: re-time the cases of the ROADMAP baseline table that
take under about 10 s, and print them next to the table's figures.

    python3 perfbench/layer_probe.py

Each case runs once, cold caches, in this process except where the table's
figure is about a fresh process.  Not gated; the figures are for reading
beside the table.  Left out: ``neighbor_set_search`` at (50,50) (48 s) and
``boundary_gifs_check`` at depth 8 (13.7 s).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import ops

CHILD_PRELUDE = f"import sys, time; sys.path.insert(0, {str(ops.SRC)!r}); t0 = time.perf_counter()\n"


class Reported(float):
    """Seconds measured outside this process, reported as the case's time."""


def _child_seconds(code: str) -> Reported:
    """Wall time a fresh interpreter reports for ``code`` after the prelude."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_PRELUDE + code + "\nprint(time.perf_counter() - t0)"],
        cwd=ops.ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return Reported(proc.stdout.split()[-1])


def _wall(argv: list[str]) -> Reported:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ops.ROOT, capture_output=True, check=True, timeout=120)
    return Reported(time.perf_counter() - t0)


def cases():
    from tiletopo.chains import ChainSetup, circular_chain_report
    from tiletopo.contact import approx_boundary, build_contact_graph, derive_order_extension, perron_data
    from tiletopo.geometry import polygon_is_simple_closed, polyline_hausdorff
    from tiletopo.neighbors import neighbor_set_search
    from tiletopo.numsys import TileParams
    from tiletopo.topology import verify_cut_point

    ordered55 = derive_order_extension(build_contact_graph(TileParams(5, 5)))
    level = {n: approx_boundary(ordered55, n).vertices for n in (4, 5)}
    graph45 = build_contact_graph(TileParams(4, 5))
    perron_data(build_contact_graph(TileParams(2, 3)))  # the first call of this process
    yield "neighbor_set_search", "(30,30)", "8.3 s", lambda: neighbor_set_search(TileParams(30, 30))
    yield "neighbor_set_search", "(28,50)", "0.045 s", lambda: neighbor_set_search(TileParams(28, 50))
    yield "approx_boundary", "(5,5), n=6", "3.1-3.5 s", lambda: approx_boundary(ordered55, 6)
    yield "polygon_is_simple_closed", "(5,5), n=5", "0.61 s", lambda: polygon_is_simple_closed(level[5])
    yield "polyline_hausdorff", "(5,5), n=4->5", "4.0 s", lambda: polyline_hausdorff(level[4], level[5])
    yield "perron_data", "first call", "0.6 s", lambda: _child_seconds(
        "from tiletopo.contact import build_contact_graph, perron_data\n"
        "from tiletopo.numsys import TileParams\n"
        "g = build_contact_graph(TileParams(4, 5)); t0 = time.perf_counter(); perron_data(g)"
    )
    yield "perron_data", "later calls", "~0.03 s", lambda: perron_data(graph45)
    yield "circular chain", "(13,23)", "4.5 s", lambda: circular_chain_report(ChainSetup.build(TileParams(13, 23)))
    yield "verify_cut_point", "(50,50)", "0.19 s", lambda: verify_cut_point(TileParams(50, 50))
    yield "tiletopo classify", "wall time", "0.36 s", lambda: _wall(
        [sys.executable, "-c", CHILD_PRELUDE + "from tiletopo.cli import main; main(['classify', '--A', '5', '--B', '5'])"]
    )


def main() -> int:
    os.chdir(ops.ROOT)
    ops.import_tiletopo()
    print(f"{'layer':<26} {'case':<16} {'ROADMAP':>10} {'measured':>10}")
    for layer, case, table, fn in cases():
        ops.clear_caches()
        t0 = time.perf_counter()
        reported = fn()
        seconds = reported if isinstance(reported, Reported) else time.perf_counter() - t0
        print(f"{layer:<26} {case:<16} {table:>10} {seconds:>9.3f}s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
