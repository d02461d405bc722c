"""Command-line batch interface.

Commands operate on description files and print deterministic text: given
the same invocation, the output is byte-identical across runs.
``quantize`` and ``verify-qr`` accept ``--threads N`` (N >= 1) and ignore
it; enumeration is sequential.  Exit codes: 0 success, 1 semantic failure
(failed check, uncancelled tails, verification mismatch), 2 usage, I/O or
parse problems and enumerations over the budget, 3 internal error (any
other exception, reported as ``bquant: internal error: <type>:
<message>``).

The argument grammar is built on the first ``main`` call and reused by
every later call in the same process: parsing keeps no state on the
parser (each call gets a fresh namespace, and usage, help and error text
look up ``sys.stdout``, ``sys.stderr`` and the terminal width when they
print), so in-process callers do not pay for rebuilding it.
"""

import argparse
import json
import re
import sys
from functools import cache

from . import __version__, _linalg
from .engine import (
    quantize_description,
    quantize_local_model,
    reduced_space_quantization,
    support_audit,
    verify_qr_product,
)
from .errors import (
    DescriptionKindError,
    DimensionMismatchError,
    EnumerationBudgetError,
    HypersurfaceIndexError,
    NotFiniteError,
    NotValidatedError,
    ParseError,
    SelfCheckError,
    ZeroModularWeightError,
)
from .spaces import (
    CompactToricSpace,
    load_description,
    local_model,
    validate_description,
)

_INTEGER_TOKEN = re.compile(r"-?[0-9]+")
_USAGE_ERRORS = (
    ParseError,
    DimensionMismatchError,
    DescriptionKindError,
    HypersurfaceIndexError,
    EnumerationBudgetError,
    OSError,
)
_SEMANTIC_ERRORS = (
    NotValidatedError,
    NotFiniteError,
    SelfCheckError,
    ZeroModularWeightError,
)


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bquant",
        description="exact quantization of toric moment-image descriptions",
    )
    parser.add_argument(
        "--version", action="version", version=f"bquant {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default: table)",
        )
        sub.add_argument(
            "--no-header", action="store_true",
            help="omit the leading comment lines in table output",
        )
        sub.add_argument(
            "--output", metavar="PATH",
            help="write the output to PATH instead of stdout",
        )

    sub = commands.add_parser("check", help="run every validation check")
    sub.add_argument("file")
    add_common(sub)

    sub = commands.add_parser("quantize", help="compute the finite character")
    sub.add_argument("file")
    sub.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="accepted for compatibility and ignored; must be at least 1",
    )
    sub.add_argument(
        "--verify", action="store_true",
        help="cross-check the character against direct reduced-space counts "
             "and report facet-boundary weights",
    )
    add_common(sub)

    sub = commands.add_parser(
        "reduce", help="count the reduced space at one weight"
    )
    sub.add_argument("file")
    sub.add_argument(
        "--weight", required=True, metavar="W",
        help="comma-separated integer weight, e.g. 1 or 2,-1",
    )
    add_common(sub)

    sub = commands.add_parser(
        "verify-qr",
        help="check quantization commutes with reduction against a compact "
             "partner",
    )
    sub.add_argument("file")
    sub.add_argument("partner")
    sub.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="accepted for compatibility and ignored; must be at least 1",
    )
    add_common(sub)

    sub = commands.add_parser(
        "cancel", help="show the cancelling tails at one hypersurface"
    )
    sub.add_argument("file")
    sub.add_argument(
        "--hypersurface", type=int, required=True, metavar="I",
        help="index of the hypersurface record",
    )
    add_common(sub)
    return parser


def _kind(description):
    return "compact_toric" if isinstance(description, CompactToricSpace) \
        else "b_toric"


def _header(args, description, extra=()):
    if args.format != "table" or args.no_header:
        return []
    lines = [
        f"# bquant {args.command} v{__version__}",
        f"# input: {args.file} ({_kind(description)}, rank {description.rank})",
    ]
    lines.extend(extra)
    return lines


def _json_text(payload):
    """Canonical JSON text of `payload`.  json writes an int with
    int.__repr__, which refuses past Python's int-to-decimal limit even
    when every input literal is under it, so the limit is lifted for the
    call and put back after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)
    return text + "\n"


def _weight_text(weight):
    if not weight:
        return "()"
    return ",".join(map(_linalg.exact_text, weight))


def _parse_weight(text, rank):
    parts = text.split(",") if text != _weight_text(()) else []
    try:
        if not all(map(_INTEGER_TOKEN.fullmatch, parts)):
            raise ValueError
        weight = tuple(map(int, parts))
    except ValueError:
        raise ParseError(f"--weight: {text!r} is not a comma-separated "
                         "integer vector") from None
    if len(weight) != rank:
        raise ParseError(
            f"--weight: expected {rank} coordinates, got {len(weight)}"
        )
    return weight


def _signed_text(value):
    return f"{value:+d}" if value else "0"


def _cmd_check(args):
    description = load_description(args.file)
    report = validate_description(description)
    if args.format == "json":
        payload = {
            "command": "check",
            "input": {"kind": _kind(description), "rank": description.rank},
        }
        payload.update(report.payload())
        return _json_text(payload), 0 if report.passed else 1
    lines = _header(args, description)
    lines.extend(report.lines())
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n", 0 if report.passed else 1


def _verify_quantization(description, character):
    """Cross-check every support weight against the direct count and list
    the facet-boundary weights.  Returns (lines, ok)."""
    mismatch, boundary = support_audit(description, character)
    total = len(character.support())
    lines = []
    if mismatch is None:
        lines.append(
            f"verify: character matches direct reduced-space counts at "
            f"{total} weights"
        )
    else:
        weight, from_character, direct = mismatch
        lines.append(
            f"verify: MISMATCH at weight {_weight_text(weight)}: character "
            f"{from_character}, reduced space {direct}"
        )
    lines.append(
        f"verify: {len(boundary)} of {total} support weights lie on facet "
        "boundaries"
    )
    return lines, mismatch is None


def _cmd_quantize(args):
    description = load_description(args.file)
    character = quantize_description(description)
    code = 0
    verify_lines = []
    if args.verify:
        verify_lines, ok = _verify_quantization(description, character)
        if not ok:
            code = 1
    if args.format == "json":
        payload = {
            "command": "quantize",
            "input": {"kind": _kind(description), "rank": description.rank},
            "character": character.to_payload(),
            "dimension": character.dimension(),
        }
        # keep the payload independent of --verify so it stays byte-stable
        for line in verify_lines:
            print(line, file=sys.stderr)
        return _json_text(payload), code
    lines = _header(args, description)
    texts = [
        (_weight_text(weight), str(multiplicity))
        for weight, multiplicity in character.items()
    ]
    width = max([len("weight")] + [len(t) for t, _ in texts])
    lines.append(f"{'weight'.ljust(width)}  multiplicity")
    for weight_text, multiplicity_text in texts:
        lines.append(f"{weight_text.ljust(width)}  {multiplicity_text}")
    lines.append(
        f"dim = {character.dimension()}, "
        f"support = {len(character.support())} weights"
    )
    lines.extend(verify_lines)
    return "\n".join(lines) + "\n", code


def _cmd_reduce(args):
    description = load_description(args.file)
    weight = _parse_weight(args.weight, description.rank)
    result = reduced_space_quantization(description, weight)
    if args.format == "json":
        payload = {
            "command": "reduce",
            "input": {"kind": _kind(description), "rank": description.rank},
            "weight": list(result.weight),
            "count": result.count,
            "contributions": list(result.contributions),
        }
        return _json_text(payload), 0
    lines = _header(args, description)
    lines.append(f"weight = {_weight_text(result.weight)}")
    parts = ", ".join(
        f"P{index}:{_signed_text(value)}"
        for index, value in enumerate(result.contributions)
    )
    lines.append(f"count = {result.count} ({parts})")
    return "\n".join(lines) + "\n", 0


def _cmd_verify_qr(args):
    description = load_description(args.file)
    partner = load_description(args.partner)
    report = verify_qr_product(description, partner)
    code = 0 if report.matches else 1
    if args.format == "json":
        payload = {
            "command": "verify-qr",
            "input": {"kind": _kind(description), "rank": description.rank},
            "partner": {"kind": _kind(partner), "rank": partner.rank},
            "report": report.payload(),
        }
        return _json_text(payload), code
    extra = [
        f"# partner: {args.partner} ({_kind(partner)}, rank {partner.rank})"
    ] if args.format == "table" and not args.no_header else []
    lines = _header(args, description, extra)
    lines.append(
        f"invariant from characters = {report.invariant_from_characters}"
    )
    lines.append(f"invariant from geometry = {report.invariant_from_geometry}")
    lines.append(f"checked weights = {report.checked_weights}")
    if report.first_mismatch is not None:
        weight, from_character, from_geometry = report.first_mismatch
        lines.append(
            f"first mismatch: weight {_weight_text(weight)} gives "
            f"{from_character} from characters, {from_geometry} from geometry"
        )
    lines.append(f"result: {'MATCH' if report.matches else 'MISMATCH'}")
    return "\n".join(lines) + "\n", code


def _cmd_cancel(args):
    description = load_description(args.file)
    model = local_model(description, args.hypersurface)
    character = quantize_local_model(model)
    if args.format == "json":
        payload = {
            "command": "cancel",
            "input": {"kind": _kind(description), "rank": description.rank},
            "hypersurface": model.hypersurface,
            "threshold": model.threshold,
            "tails": [
                {"sign": sign, "polyhedron": polyhedron.to_payload()}
                for sign, polyhedron in model.tails
            ],
            "character": character.to_payload(),
        }
        return _json_text(payload), 0
    lines = _header(args, description)
    lines.append(f"hypersurface = {model.hypersurface}")
    lines.append(f"threshold = {model.threshold}")
    for sign, polyhedron in model.tails:
        lines.append(f"tail[{sign:+d}] = {polyhedron}")
    lines.append(f"local quantization = {character.dimension()}")
    return "\n".join(lines) + "\n", 0


_COMMANDS = {
    "check": _cmd_check,
    "quantize": _cmd_quantize,
    "reduce": _cmd_reduce,
    "verify-qr": _cmd_verify_qr,
    "cancel": _cmd_cancel,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")
    try:
        text, code = _COMMANDS[args.command](args)
    except _SEMANTIC_ERRORS as exc:
        print(f"bquant: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"bquant: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(
            f"bquant: internal error: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"bquant: error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
