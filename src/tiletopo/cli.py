"""Command-line surface: deterministic analyses and file outputs.

Exit codes: 0 success, 1 usage error, 2 parameter/regime error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    CertificateFailure,
    ChainViolation,
    IdentityFailure,
    OutOfRange,
    TileError,
)
from .numsys import RationalPoint, RawInstance, TileParams, format_address, normalize, point_eval


class _Parser(argparse.ArgumentParser):
    # set on the top-level parser by build_parser: each command's parser by
    # name, the choices of its subparsers action
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _ints(count: int):
    """argparse type: exactly ``count`` comma-separated integers."""

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(x) for x in text.split(","))
        except ValueError:
            values = ()
        if len(values) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} comma-separated integers, got {text!r}"
            )
        return values

    return parse


def _fraction(text: str) -> Fraction:
    """argparse type: a rational number such as 1/3."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _out_dir(text: str) -> str:
    """argparse type: an output directory, which may not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("the output directory must not be empty")
    return text


def _walk(text: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """argparse type: "start;o1,o2;p1,p2" with a periodic tail (default 1)
    after the second ';'."""
    parts = text.split(";")
    try:
        head, pre_txt, per_txt = parts + [""] * (3 - len(parts))
        pre = tuple(int(x) for x in pre_txt.split(",") if x)
        per = tuple(int(x) for x in per_txt.split(",") if x) or (1,)
        return int(head), pre, per
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a walk 'start;o1,o2;p1,p2': {text!r}") from None


def _normalized(args):
    m = args.matrix
    v = (1, 0) if args.v is None else args.v
    return normalize(RawInstance(((m[0], m[1]), (m[2], m[3])), v))


def _params_from(args) -> TileParams:
    if args.matrix is not None:
        if args.A is not None or args.B is not None:
            raise TileError("give either --A and --B or --matrix, not both")
        return _normalized(args)[0]
    if args.v is not None:
        raise TileError("--v needs --matrix")
    if args.A is None or args.B is None:
        raise TileError("provide --A and --B (or --matrix/--v)")
    return TileParams(args.A, args.B)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _param_json_text(t: Fraction | str, walk, address: str, value: RationalPoint) -> str:
    """``_dumps`` of the ``param`` document, written in its fixed layout from
    the values it reports, the parameter, the ``Walk``, the address and the
    exact value: ``t`` and the address go through json's own ASCII
    escaping, the value's coordinates are ``str`` of a ``Fraction``
    (nothing to escape), and its floats (finite, as ``float`` of a
    ``Fraction`` in float range is) and the walk's ints are written by their
    ``repr``, as the encoder writes them."""
    quote = encode_basestring_ascii

    def letters(items: tuple[int, ...]) -> str:
        return "[\n      " + ",\n      ".join(map(repr, items)) + "\n    ]" if items else "[]"

    x, y = value
    return (
        f'{{\n  "address": {quote(address)},\n'
        f'  "approx": [\n    {float(x)!r},\n    {float(y)!r}\n  ],\n'
        f'  "schema": "tiletopo/boundary-param@1",\n'
        f'  "t": {quote(str(t))},\n'
        f'  "value": [\n    "{x}",\n    "{y}"\n  ],\n'
        f'  "walk": {{\n    "period": {letters(walk.period)},\n    "pre": {letters(walk.pre)},\n'
        f'    "start": {walk.start!r}\n  }}\n}}'
    )


def _emit(args, doc: dict | str | None, text: str) -> None:
    """Print ``text``, or under --format json the document: a dict, which
    is serialized here, or its JSON text (unread, and may be None, under
    --format text)."""
    if args.format == "json":
        print(doc if isinstance(doc, str) else _dumps(doc))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _document(args, make: Callable[[], str]) -> str | None:
    """The JSON text ``make()`` if the command prints it or writes it under
    --out, built once; otherwise None."""
    return make() if args.format == "json" or args.out is not None else None


def _write(args, name: str, content: str) -> Path | None:
    """Write a file under --out, if given."""
    if args.out is None:
        return None
    path = Path(args.out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    return path


def _cmd_normalize(args) -> int:
    params, record = _normalized(args)
    payload = {
        "schema": "tiletopo/normalization@1",
        "A": params.a,
        "B": params.b,
        "reflected": params.reflected,
        "basis_change": [list(map(str, row)) for row in record.basis_change],
        "reflection": [list(map(str, row)) for row in record.reflection],
        "translation": [str(record.translation[0]), str(record.translation[1])],
    }
    text = (
        f"A={params.a} B={params.b} reflected={params.reflected}\n"
        f"basis_change={record.basis_change}\n"
        f"translation=({record.translation[0]}, {record.translation[1]})"
    )
    _emit(args, payload, text)
    return 0


def _cmd_classify(args) -> int:
    from .topology import Classification, classify, cut_point_address

    params = _params_from(args)
    cls = classify(params)
    payload = {
        "schema": "tiletopo/classification@1",
        "A": params.a,
        "B": params.b,
        "classification": cls.value,
    }
    text = cls.value
    if cls is Classification.HAS_CUT_POINT:
        addr = cut_point_address(params)
        z = point_eval(addr, params)
        payload["cut_point"] = {
            "address": format_address(addr),
            "value": [str(z[0]), str(z[1])],
        }
        text = f"{cls.value} z=0.{format_address(addr)}"
    _emit(args, payload, text)
    return 0


def _cmd_neighbors(args) -> int:
    from .neighbors import neighbor_set_formula, neighbor_set_search, reflect_neighbor_set

    params = _params_from(args)
    sset = neighbor_set_formula(params)
    if args.check:
        searched = neighbor_set_search(params)
        if searched.members != sset.members:
            raise CertificateFailure(
                f"neighbor formula and search disagree at (A, B) = ({params.a}, {params.b}): "
                f"{len(sset.members - searched.members)} in the formula only, "
                f"{len(searched.members - sset.members)} in the search only"
            )
    if params.reflected:
        # mirror tile: neighbor vectors transform through the reflection
        sset = reflect_neighbor_set(sset)
    if args.format == "json":
        print(sset.json_text(params.reflected))
    else:
        print("\n".join(f"({x}, {y})" for (x, y) in sset.sorted_members()))
    return 0


def _cmd_contact_graph(args) -> int:
    from .contact import build_contact_graph, derive_order_extension, graph_to_dot, graph_to_json

    params = _params_from(args)
    graph = build_contact_graph(params)
    ordered = derive_order_extension(graph)
    if args.dot:
        text = graph_to_dot(ordered)
        print(text, end="")
        _write(args, f"contact_A{params.a}_B{params.b}.dot", text)
    else:
        text = _dumps(graph_to_json(ordered))
        print(text)
        _write(args, f"contact_A{params.a}_B{params.b}.json", text + "\n")
    return 0


def _cmd_param(args) -> int:
    from .contact import (
        Walk,
        build_contact_graph,
        ordered_extension,
        param_to_walk,
        perron_data,
        psi,
        walk_to_param,
    )

    params = _params_from(args)
    graph = build_contact_graph(params)
    ordered = ordered_extension(graph)
    data = perron_data(graph)
    if args.walk is not None:
        walk = Walk(*args.walk)
        t = walk_to_param(walk, data, ordered)
    else:
        t = args.t
        walk = param_to_walk(t, data, ordered)
    addr = psi(walk, ordered)
    value = point_eval(addr, params)
    address = format_address(addr)
    if args.format == "json":
        print(_param_json_text(t, walk, address, value))
    else:
        print(
            f"t={t} -> walk ({walk.start}; {list(walk.pre)} {list(walk.period)}*)\n"
            f"address 0.{address}\n"
            f"C(t) = ({value[0]}, {value[1]})"
        )
    return 0


def _cmd_approx(args) -> int:
    from .render import polygon_json_text

    params = _params_from(args)
    text = polygon_json_text(params, args.n, args.budget)
    print(text)
    _write(args, f"boundary_A{params.a}_B{params.b}_n{args.n}.json", text + "\n")
    return 0


def _cmd_cutpoint(args) -> int:
    from .topology import verify_cut_point

    params = _params_from(args)
    cert = verify_cut_point(params, depth=args.depth)
    doc = _document(args, lambda: _dumps(cert.to_json()))
    text = (
        f"cut point certified: z=0.{format_address(cert.address)} "
        f"value=({cert.value[0]}, {cert.value[1]})"
    )
    _emit(args, doc, text)
    if doc is not None:
        _write(args, f"cutpoint_A{params.a}_B{params.b}.json", doc + "\n")
    return 0


def _cmd_verify_chains(args) -> int:
    from .chains import ChainSetup, circular_chain_report, gamma_arcs, symmetry_and_junctions

    params = _params_from(args)
    setup = ChainSetup.build(params)
    report = circular_chain_report(setup)
    gamma_arcs(setup)
    symmetry_and_junctions(params)
    doc = _document(args, report.json_text)
    if args.format == "json":
        print(doc)
    else:
        print(report.to_text(), end="")
    if doc is not None:
        _write(args, f"chains_A{params.a}_B{params.b}.json", doc + "\n")
    if not report.ok:
        return 3
    return 0


def _cmd_render(args) -> int:
    from .render import render_boundary, render_cutpoint, render_patch

    params = _params_from(args)
    kind = args.kind
    if kind == "boundary":
        svg = render_boundary(params, args.n, args.budget)
    elif kind == "patch":
        svg = render_patch(params, args.n, args.budget)
    else:
        svg = render_cutpoint(params, args.n, args.budget)
    name = f"{kind}_A{params.a}_B{params.b}_n{args.n}.svg"
    path = _write(args, name, svg)
    if path is None:
        print(svg, end="")
    else:
        print(str(path))
    return 0


def _cmd_sweep(args) -> int:
    from .topology import Classification, classify, cut_point_address

    if args.Bmax < 2:
        raise OutOfRange(f"sweep needs Bmax >= 2, got {args.Bmax}")
    rows = []
    for b in range(2, args.Bmax + 1):
        for a in range(1, b + 1):
            params = TileParams(a, b)
            cls = classify(params)
            row = {
                "A": a,
                "B": b,
                "two_a_minus_b": 2 * a - b,
                "classification": cls.value,
            }
            if cls is Classification.HAS_CUT_POINT:
                row["cut_point"] = format_address(cut_point_address(params))
            rows.append(row)
    payload = {"schema": "tiletopo/sweep@1", "Bmax": args.Bmax, "rows": rows}
    lines = [f"{'A':>3} {'B':>3} {'2A-B':>5}  classification"]
    for row in rows:
        z = f"  z=0.{row['cut_point']}" if "cut_point" in row else ""
        lines.append(
            f"{row['A']:>3} {row['B']:>3} {row['two_a_minus_b']:>5}  "
            f"{row['classification']}{z}"
        )
    text = "\n".join(lines) + "\n"
    doc = _document(args, lambda: _dumps(payload))
    _emit(args, doc, text)
    if doc is not None:
        _write(args, "sweep.json", doc + "\n")
    _write(args, "sweep.txt", text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tiletopo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p):
        p.add_argument("--A", type=int)
        p.add_argument("--B", type=int)
        p.add_argument("--matrix", type=_ints(4), help="m00,m01,m10,m11")
        p.add_argument("--v", type=_ints(2), help="vx,vy (default 1,0; with --matrix only)")

    def formatted(p):  # only for the commands that print text or JSON
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("normalize", help="reduce a raw instance to (A, B)")
    p.add_argument("--matrix", type=_ints(4), required=True)
    p.add_argument("--v", type=_ints(2), help="vx,vy (default 1,0)")
    formatted(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("classify", help="topological classification")
    common(p)
    formatted(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("neighbors", help="neighbor set")
    common(p)
    formatted(p)
    p.add_argument("--check", action="store_true", help="cross-validate with the search")
    p.set_defaults(fn=_cmd_neighbors)

    p = sub.add_parser("contact-graph", help="contact graph and its ordering")
    common(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.add_argument("--dot", action="store_true", help="Graphviz DOT instead of JSON")
    p.set_defaults(fn=_cmd_contact_graph)

    p = sub.add_parser("param", help="evaluate the boundary parametrization")
    # "--t -1/3" is a value to range-check, not an option
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
    common(p)
    formatted(p)
    # exactly one of the two: both, or neither, is a usage error
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--t", type=_fraction, help="rational parameter p/q in [0,1]")
    point.add_argument("--walk", type=_walk, help="walk 'start;o1,o2,...;p1,p2' (periodic tail)")
    p.set_defaults(fn=_cmd_param)

    p = sub.add_parser("approx", help="boundary polygon vertices")
    common(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("cutpoint", help="cut point certificate")
    common(p)
    formatted(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=_cmd_cutpoint)

    p = sub.add_parser("verify-chains", help="chain and circular-chain checks")
    common(p)
    formatted(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.set_defaults(fn=_cmd_verify_chains)

    p = sub.add_parser("render", help="SVG output")
    common(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.add_argument("--kind", choices=("boundary", "patch", "cutpoint"), default="boundary")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("sweep", help="classification grid")
    p.add_argument("--Bmax", type=int, default=12)
    formatted(p)
    p.add_argument("--out", type=_out_dir, help="output directory")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def _silence_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the flush
    at interpreter exit does not fail on the closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no real descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# built once per process: argparse keeps no state between parse calls
_parser: _Parser | None = None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one argparse pass where it can.

    When argv[0] is exactly a command name, the top-level pass would only
    hand argv[1:] to that command's parser: argparse's subparsers action
    calls ``parse_known_args(argv[1:], None)`` on it, copies the namespace
    and sets ``command``.  So that call is made directly, and its namespace
    is the one ``parse_args`` returns; its help and its usage errors come
    from the same parser object.  Every other argv goes through the
    top-level parser: an empty one, an unknown command, a top-level -h, and
    one that leaves arguments over, which the top-level parser reports.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _parser.commands:
        args, rest = _parser.commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit
    code; ``_parse`` parses it, in one argparse pass when it starts with a
    command name."""
    try:
        args = _parse(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except SystemExit as exc:  # usage errors and unwritable --out paths
        return int(exc.code or 0)
    except BrokenPipeError as exc:  # stdout closed early, e.g. piped into head
        _silence_stdout()
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    except (ChainViolation, CertificateFailure, IdentityFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except TileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
