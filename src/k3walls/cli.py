"""Command line interface.

Subcommands: ``walls``, ``classify``, ``example``, ``chamber``, ``reflect``,
``dual-graph``.  Input is a JSON document (path or ``-`` for stdin) matching
the contract in :mod:`k3walls.pipeline`.  Exit codes: 0 success, 2 schema
error (a bad argument too), 3 domain error.
"""

import argparse
import contextlib
import json
import os
import sys

from . import families, pipeline, strata, walls
from .errors import DomainError, SchemaError

EXIT_SCHEMA = 2
EXIT_DOMAIN = 3


def _read_document(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError("$", f"cannot read input: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$ (line {exc.lineno}, column {exc.colno})",
                          f"invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past the interpreter's digit limit, or nesting
        # past its recursion limit
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    return doc


def _write(stream, text):
    """Write and flush ``text``; on an OSError point the stream at the null device and re-raise."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:  # closed pipe, full device: the interpreter's final flush must not fail too
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        raise


def _emit(payload, fmt="text", text_renderer=str):
    """Write ``payload`` to stdout as a report (``fmt == "json"``) or as ``text_renderer``
    renders it; a failed write is a SchemaError."""
    text = pipeline.dumps_report(payload) if fmt == "json" else text_renderer(payload)
    try:
        _write(sys.stdout, text)
    except OSError as exc:
        raise SchemaError("stdout", f"cannot write: {exc}") from None


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's -h passes no file
        _emit(self.format_help())  # a failed write to stdout exits 2

    def error(self, message):  # one short schema error line instead of argparse's usage block
        import textwrap  # only on this path: a CLI process does not load it otherwise
        raise SchemaError("arguments", textwrap.shorten(message, 160))


def _integer(text):
    """An ``int`` argument; the error does not echo the value, which may be huge."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None


def _walls_text(report):
    lines = [f"walls: {report['walls']['count']} "
             f"(through origin: {report['walls']['origin_count']})"]
    for entry in report["walls"]["vectors"]:
        u = entry["u"]
        lines.append(f"  u = (r={u['r']}, c1={u['c1']}, s={u['s']})"
                     f"  <v,u> = {entry['pairing_with_v']}")
    return "\n".join(lines) + "\n"


def _classify_text(report):
    lines = []
    if report["validation"] is not None:
        if report["validation"]["ok"]:
            lines.append("stratum: valid")
        else:
            lines.append("stratum: INVALID")
            lines.extend(f"  - {v}" for v in report["validation"]["violations"])
    if report["finite"] is not None:
        lines.append(f"affine type: {report['affine']['type']}")
        lines.append(f"marks: {report['marks']}")
        lines.append(f"deleted node: {report['deleted_node']}")
        lines.append(f"singularity type: {report['finite']['type']}")
        edges = report["dual_graph"]["edges"]
        lines.append(f"dual graph: nodes {report['dual_graph']['labels']}, "
                     f"edges {edges if edges else 'none'}")
        lines.append(f"positive roots: {report['psi_plus_count']}")
    lines.append(f"walls: {report['walls']['count']} "
                 f"(through origin: {report['walls']['origin_count']})")
    if report["chamber"] is not None:
        ch = report["chamber"]
        lines.append(f"chamber signs: {ch['signs']} generic: {ch['generic']}")
        if "weyl_word" in ch:
            lines.append(f"weyl word: {ch['weyl_word']} "
                         f"reduced values: {ch['reduced_values']}")
    lines.append(f"caveat: {report['caveat']}")
    return "\n".join(lines) + "\n"


def cmd_walls(args):
    parsed = pipeline.parse_instance(_read_document(args.input))
    bare = pipeline.ParsedInstance(parsed.lattice, parsed.polarization, parsed.v, None, None)
    report = pipeline.pipeline_classify(bare)
    _emit(report, args.format, _walls_text)
    return 0


def cmd_classify(args):
    parsed = pipeline.parse_instance(_read_document(args.input))
    report = pipeline.pipeline_classify(parsed, deleted_node=args.delete_node)
    _emit(report, args.format, _classify_text)
    return 0


def cmd_example(args):
    scale = None if args.alpha is None else pipeline.rational_from_json(args.alpha, "--alpha")
    try:
        spec = families.ExampleSpec(args.family, args.n, args.r, args.a)
        instance = families.generate_example(spec)
        doc = pipeline.instance_document(instance, alpha_scale=scale)
    except ValueError as exc:
        raise SchemaError("arguments", str(exc)) from None
    checks = ", ".join(name for name in instance.verification)
    _emit(doc, args.format, lambda _: (
        f"model instance {spec.family}~{spec.n} (r={spec.r}, a={spec.a})\n"
        f"gram: {[list(r) for r in instance.lattice.gram]}\n"
        f"H: {list(instance.polarization)}  (H,H) = "
        f"{2 * spec.r * spec.a * sum(instance.marks) ** 2}\n"
        f"verified: {checks}\n"
        f"caveat: {instance.caveat}\n"))
    return 0


def cmd_chamber(args):
    doc = _read_document(args.input)
    if args.alpha_file:
        if not isinstance(doc, dict):
            raise SchemaError("$", f"expected an object, got {type(doc).__name__}")
        alpha_doc = _read_document(args.alpha_file)
        if not isinstance(alpha_doc, dict) or "c1" not in alpha_doc:
            raise SchemaError("$.c1", "alpha file must be an object with a c1 list")
        pipeline._expect_object(alpha_doc, "$", ("c1",))
        doc = {**doc, "alpha": {"c1": alpha_doc["c1"]}}
    parsed = pipeline.parse_instance(doc)
    if parsed.alpha_c1 is None:
        raise SchemaError("$.alpha", "chamber location needs an alpha")
    report = pipeline.pipeline_classify(parsed, deleted_node=args.delete_node)
    _emit(report, args.format, _classify_text)
    return 0


def cmd_reflect(args):
    parsed = pipeline.parse_instance(_read_document(args.input))
    wall_list = walls.enumerate_walls(parsed.lattice, parsed.polarization, parsed.v)
    if not 0 <= args.u_index < len(wall_list):
        raise SchemaError("--u-index", f"index {args.u_index} out of range; "
                          f"{len(wall_list)} walls available")
    wall = wall_list[args.u_index]
    image = walls.cross_wall(parsed.v, wall)
    payload = {
        "wall": pipeline.mukai_to_json(wall.u),
        "pairing_with_v": wall.pairing_with_v,
        "reflected": pipeline.mukai_to_json(image),
        "note": "class bookkeeping in v-perp modulo Zv is unchanged across this wall",
    }
    _emit(payload, args.format, lambda p: (f"wall u: {p['wall']}\n"
                                           f"reflected v': {p['reflected']}\n"
                                           f"note: {p['note']}\n"))
    return 0


def cmd_dual_graph(args):
    parsed = pipeline.parse_instance(_read_document(args.input))
    stratum = parsed.stratum_data()
    if stratum is None:
        raise SchemaError("$.strata", "dual-graph needs strata")
    violations = strata.validate_stratum(stratum)
    if violations:
        raise DomainError("invalid stratum: " + "; ".join(violations))
    result = strata.classify_singularity(stratum, args.delete_node)
    dot = pipeline.dot_graph(result.dual_graph)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            raise SchemaError("--dot", f"cannot write: {exc}") from None
        _emit(f"wrote {args.dot}\n")
    else:
        _emit(dot)
    return 0


def build_parser():
    parser = _Parser(
        prog="k3walls",
        description="Exact wall-and-chamber and ADE singularity computations "
                    "on the Mukai lattice of a K3 surface.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default: json)")
    document = argparse.ArgumentParser(add_help=False, parents=[common])
    document.add_argument("input", help="instance JSON path, or - for stdin")
    node = argparse.ArgumentParser(add_help=False, parents=[document])
    node.add_argument("--delete-node", type=_integer, default=0,
                      help="mark-1 node to delete (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walls", parents=[document],
                       help="enumerate the wall set for (Pic, H, v)")
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("classify", parents=[node],
                       help="validate strata and classify the singularity")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("example", parents=[common],
                       help="generate a verified diagonal model instance")
    p.add_argument("--family", required=True, choices=("A", "D", "E"))
    p.add_argument("--n", required=True, type=_integer,
                   help=f"diagram rank, at most {families.EXAMPLE_N_CAP} (exit 3 above)")
    p.add_argument("--r", required=True, type=_integer)
    p.add_argument("--a", required=True, type=_integer)
    p.add_argument("--alpha", type=str, default=None, metavar="SCALE",
                   help="also emit a fundamental-chamber alpha with this scale")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("chamber", parents=[node],
                       help="locate a twist parameter against the wall set")
    p.add_argument("--alpha-file", default=None,
                   help="JSON file {\"c1\": [...]} overriding the instance alpha")
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("reflect", parents=[document],
                       help="cross a wall: reflect v in the k-th wall vector")
    p.add_argument("--u-index", type=_integer, required=True,
                   help="index into the enumerated wall list")
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("dual-graph", parents=[node],
                       help="emit the exceptional dual graph as DOT")
    p.add_argument("--dot", default=None, metavar="OUT",
                   help="write DOT to this file instead of stdout")
    p.set_defaults(func=cmd_dual_graph)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SchemaError as exc:
        message, code = f"schema error: {exc}\n", EXIT_SCHEMA
    except DomainError as exc:
        message, code = f"domain error: {type(exc).__name__}: {exc}\n", EXIT_DOMAIN
    with contextlib.suppress(OSError):  # the exit code still tells the two errors apart
        _write(sys.stderr, message)
    return code


if __name__ == "__main__":
    sys.exit(main())
