"""Command-line batch interface.

Commands operate on description files and print deterministic text: given
the same invocation, the output is byte-identical across runs.  Exit
codes: 0 success, 1 semantic failure (failed check, uncancelled tails,
verification mismatch), 2 usage, I/O or parse problems and enumerations
over the budget, 3 internal error (any other exception, reported as
``bquant: internal error: <type>: <message>``).

One table, ``_COMMANDS``, declares the five commands, a row each: name,
help, handler and the command's own arguments, between the file and the
output options every command takes (``_COMMON``).  ``--threads N``
(N >= 1) is accepted and ignored; enumeration is sequential.  Each handler hands its
JSON payload and its table lines, both as callables, to ``_render``, which
writes the envelope they share (command, input kind and rank, ``# bquant``
header) and calls only the one the format needs.

A well-formed line is read straight from the table (``_read_line``)
into the namespace argparse would give for it: the command name, then
exact option names, ``--name=value`` and positionals, each value checked
with the option's own ``type`` and ``choices``.  Any other line (help,
``--version``, an abbreviation, a value that starts with ``-``, a
missing or refused value) goes to argparse, which alone writes help,
usage and error text.  Its grammar, every command with all of its
arguments, is built on the first such line and reused by every later one
in the same process: parsing keeps no state on the parser (each call
gets a fresh namespace, and usage, help and error text look up
``sys.stdout``, ``sys.stderr`` and the terminal width when they print).
"""

import argparse
import json
import re
import sys
from functools import cache

from . import __version__, _linalg, errors
from .engine import (
    facet_weights,
    quantize_description,
    quantize_local_model,
    reduced_space_quantization,
    verify_qr_product,
)
from .spaces import (
    CompactToricSpace,
    load_description,
    local_model,
    validate_description,
)

_INTEGER_TOKEN = re.compile(r"-?[0-9]+")
_USAGE_ERRORS = (
    errors.ParseError,
    errors.DimensionMismatchError,
    errors.DescriptionKindError,
    errors.HypersurfaceIndexError,
    errors.EnumerationBudgetError,
    OSError,
)
_SEMANTIC_ERRORS = (
    errors.NotValidatedError,
    errors.NotFiniteError,
    errors.SelfCheckError,
    errors.ZeroModularWeightError,
)


def _space(description):
    """The kind and rank of a description, as JSON output states them."""
    kind = "compact_toric" if isinstance(description, CompactToricSpace) \
        else "b_toric"
    return {"kind": kind, "rank": description.rank}


def _render(args, description, payload, lines, code=0, extra=()):
    """(output text, exit code) of a command on `description`.  JSON is
    the command, the input's kind and rank and the keys of `payload()`; a
    table is the header, unless --no-header, and then `lines()`.  The
    header names the command, the input and each (label, path,
    description) of `extra`."""
    if args.format == "json":
        return _json_text(
            {"command": args.command, "input": _space(description),
             **payload()}
        ), code
    text = []
    if not args.no_header:
        text.append(f"# bquant {args.command} v{__version__}")
        for label, path, space in (("input", args.file, description), *extra):
            text.append("# {}: {} ({kind}, rank {rank})".format(
                label, path, **_space(space)))
    text.extend(lines())
    return "\n".join(text) + "\n", code


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
        raise errors.ParseError(f"--weight: {text!r} is not a "
                                "comma-separated integer vector") from None
    if len(weight) != rank:
        raise errors.ParseError(
            f"--weight: expected {rank} coordinates, got {len(weight)}"
        )
    return weight


def _glue_weight_values(argv):
    """`argv` with each weight that follows ``--weight``, or a prefix of it
    argparse would take for it, joined to it as ``--weight=W``: argparse
    takes a value such as ``-2,-1`` for an option of its own."""
    glued = []
    for token in argv:
        if glued and len(glued[-1]) > 2 and "--weight".startswith(glued[-1]) \
                and all(map(_INTEGER_TOKEN.fullmatch, token.split(","))):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def _cmd_check(args):
    description = load_description(args.file)
    report = validate_description(description)
    return _render(args, description, report.payload, lambda: [
        *report.lines(), f"result: {'PASS' if report.passed else 'FAIL'}"
    ], 0 if report.passed else 1)


def _cmd_quantize(args):
    description = load_description(args.file)
    character = quantize_description(description)
    verify_lines = []
    if args.verify:
        # the match line rests on the self-check the character has passed
        # (b_toric) or on the certified rows it was listed from (compact)
        total = len(character.support())
        verify_lines = [
            "verify: character matches direct reduced-space counts at "
            f"{total} weights",
            f"verify: {len(facet_weights(description, character))} of "
            f"{total} support weights lie on facet boundaries",
        ]
    if args.format == "json":
        # keep the payload independent of --verify so it stays byte-stable
        for line in verify_lines:
            print(line, file=sys.stderr)

    def lines():
        texts = [
            (_weight_text(weight), str(multiplicity))
            for weight, multiplicity in character.items()
        ]
        width = max([len("weight")] + [len(t) for t, _ in texts])
        return [
            f"{'weight'.ljust(width)}  multiplicity",
            *(f"{weight.ljust(width)}  {count}" for weight, count in texts),
            f"dim = {character.dimension()}, "
            f"support = {len(character.support())} weights",
            *verify_lines,
        ]

    return _render(args, description, lambda: {
        "character": character.to_payload(),
        "dimension": character.dimension(),
    }, lines)


def _cmd_reduce(args):
    description = load_description(args.file)
    weight = _parse_weight(args.weight, description.rank)
    result = reduced_space_quantization(description, weight)
    return _render(args, description, lambda: {
        "weight": list(result.weight),
        "count": result.count,
        "contributions": list(result.contributions),
    }, lambda: [
        f"weight = {_weight_text(result.weight)}",
        f"count = {result.count} (" + ", ".join(
            f"P{index}:{value:+d}" if value else f"P{index}:0"
            for index, value in enumerate(result.contributions)
        ) + ")",
    ])


def _cmd_verify_qr(args):
    description = load_description(args.file)
    partner = load_description(args.partner)
    report = verify_qr_product(description, partner)

    def lines():
        text = [
            f"invariant from characters = {report.invariant_from_characters}",
            f"invariant from geometry = {report.invariant_from_geometry}",
            f"checked weights = {report.checked_weights}",
        ]
        if report.first_mismatch is not None:
            weight, from_character, from_geometry = report.first_mismatch
            text.append(
                f"first mismatch: weight {_weight_text(weight)} gives "
                f"{from_character} from characters, {from_geometry} from "
                "geometry"
            )
        text.append(f"result: {'MATCH' if report.matches else 'MISMATCH'}")
        return text

    return _render(args, description, lambda: {
        "partner": _space(partner), "report": report.payload(),
    }, lines, 0 if report.matches else 1, (("partner", args.partner, partner),))


def _cmd_cancel(args):
    description = load_description(args.file)
    model = local_model(description, args.hypersurface)
    character = quantize_local_model(model)
    return _render(args, description, lambda: {
        "hypersurface": model.hypersurface,
        "threshold": model.threshold,
        "tails": [
            {"sign": sign, "polyhedron": polyhedron.to_payload()}
            for sign, polyhedron in model.tails
        ],
        "character": character.to_payload(),
    }, lambda: [
        f"hypersurface = {model.hypersurface}",
        f"threshold = {model.threshold}",
        *(f"tail[{sign:+d}] = {polyhedron}" for sign, polyhedron in model.tails),
        f"local quantization = {character.dimension()}",
    ])


def _thread_count(text):
    """The ``--threads`` value: an int of at least 1.  argparse reports a
    refusal with the subcommand's usage, as ``argument --threads: ...``."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return count


_THREADS = ("--threads", dict(
    type=_thread_count, default=1, metavar="N",
    help="accepted for compatibility and ignored; must be at least 1",
))

# one row per command: name -> help, handler and the command's own
# arguments, each an argument name and its add_argument keywords
_COMMANDS = {
    "check": ("run every validation check", _cmd_check, ()),
    "quantize": ("compute the finite character", _cmd_quantize, (
        _THREADS,
        ("--verify", dict(
            action="store_true",
            help="cross-check the character against direct reduced-space "
                 "counts and report facet-boundary weights",
        )),
    )),
    "reduce": ("count the reduced space at one weight", _cmd_reduce, (
        ("--weight", dict(
            required=True, metavar="W",
            help="comma-separated integer weight, e.g. 1 or 2,-1",
        )),
    )),
    "verify-qr": ("check quantization commutes with reduction against a "
                  "compact partner", _cmd_verify_qr,
                  (("partner", {}), _THREADS)),
    "cancel": ("show the cancelling tails at one hypersurface", _cmd_cancel, (
        ("--hypersurface", dict(
            type=int, required=True, metavar="I",
            help="index of the hypersurface record",
        )),
    )),
}

# the file and output options every command takes
_COMMON = (
    ("--format", dict(
        choices=("table", "json"), default="table",
        help="output format (default: table)",
    )),
    ("--no-header", dict(
        action="store_true",
        help="omit the leading comment lines in table output",
    )),
    ("--output", dict(
        metavar="PATH", help="write the output to PATH instead of stdout",
    )),
)


@cache
def _build_parser():
    """The argument grammar argparse reads a line with, from the rows of
    _COMMANDS: a subparser per command, each with its handler and its
    arguments, the file first and the _COMMON options last."""
    parser = argparse.ArgumentParser(
        prog="bquant",
        description="exact quantization of toric moment-image descriptions",
    )
    parser.add_argument(
        "--version", action="version", version=f"bquant {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, own) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for argument, keywords in (("file", {}), *own, *_COMMON):
            sub.add_argument(argument, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def _read_line(argv):
    """The namespace argparse gives for `argv`, read from the command
    table, or None where the line is not plainly well formed.  After the
    command name each token is an exact option name (a flag, or a value
    option and its next token, which does not start with ``-``),
    ``--name=value`` for a value option, or a positional that does not
    start with ``-``; a value passes the option's ``type`` and
    ``choices``, the positional count is right and every required option
    is there.  A repeated option keeps its last value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    _, handler, own = _COMMANDS[command]
    arguments = (("file", {}), *own, *_COMMON)
    options = {name: keywords for name, keywords in arguments
               if name.startswith("-")}
    seen, positionals = {}, []
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, equals, value = token.partition("=")
        keywords = options.get(name)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            if equals:
                return None
            seen[name] = True
            continue
        if not equals:
            value = next(tokens, "-")  # a missing value is refused as "-"
            if value.startswith("-"):
                return None
        try:
            value = keywords.get("type", str)(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        seen[name] = value
    names = [name for name, _ in arguments if name not in options]
    if len(positionals) != len(names):
        return None
    args = argparse.Namespace(command=command, handler=handler,
                              **dict(zip(names, positionals)))
    for name, keywords in options.items():
        if name in seen:
            value = seen[name]
        elif keywords.get("required"):
            return None
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords.get("default")
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _read_line(argv) or \
        _build_parser().parse_args(_glue_weight_values(argv))
    try:
        text, code = args.handler(args)
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
