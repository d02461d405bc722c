"""End-to-end CLI behaviour: formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import address_space_cap, corpus_path, huge_box

import bquant
from bquant import __version__, cli, load_description, local_model
from bquant.cli import main


SPHERE = str(corpus_path("sphere_a2_bm1.json"))
SEGMENT = str(corpus_path("c_seg_0_3.json"))
PARTNER = str(corpus_path("c_seg_m2_0.json"))
SQUARE = str(corpus_path("c_square.json"))
BTORUS = str(corpus_path("btorus.json"))
BAD_SIGNS = str(corpus_path("neg_equal_signs.json"))
BAD_VERTEX = str(corpus_path("neg_nonlattice_vertex.json"))
BOX = str(corpus_path("c_box_m3_0_x_m1_0.json"))
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


# ----------------------------------------------------------------------
# check


def test_check_table_pass(run):
    code, out, err = run("check", SPHERE)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == f"# bquant check v{__version__}"
    assert lines[1] == f"# input: {SPHERE} (b_toric, rank 1)"
    assert lines[2:] == [
        "modular-dichotomy PASS",
        "gamma-integrality PASS",
        "mu-integrality PASS",
        "properness PASS",
        "orientation PASS",
        "tail-product PASS",
        "delzant PASS",
        "result: PASS",
    ]


def test_check_table_fail(run):
    code, out, _ = run("check", BAD_SIGNS, "--no-header")
    assert code == 1
    lines = out.splitlines()
    assert "orientation FAIL witness=[0,[1,1]]" in lines[4]
    assert lines[-1] == "result: FAIL"


def test_check_json(run):
    code, out, _ = run("check", BAD_VERTEX, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "check"
    assert payload["input"] == {"kind": "compact_toric", "rank": 1}
    assert payload["passed"] is False
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert failing == [{
        "check": "gamma-integrality",
        "passed": False,
        "witness": ["polytope", ["5/2"]],
        "message": "polytope has a non-lattice vertex",
    }]


# ----------------------------------------------------------------------
# quantize


def test_quantize_table_segment(run):
    code, out, _ = run("quantize", SEGMENT)
    assert code == 0
    assert out == (
        f"# bquant quantize v{__version__}\n"
        f"# input: {SEGMENT} (compact_toric, rank 1)\n"
        "weight  multiplicity\n"
        "0       1\n"
        "1       1\n"
        "2       1\n"
        "3       1\n"
        "dim = 4, support = 4 weights\n"
    )


def test_quantize_table_zero_character(run):
    code, out, _ = run("quantize", BTORUS, "--no-header")
    assert code == 0
    assert out == "weight  multiplicity\ndim = 0, support = 0 weights\n"


def test_quantize_json(run):
    code, out, _ = run("quantize", SPHERE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "quantize"
    assert payload["dimension"] == 3
    assert payload["input"] == {"kind": "b_toric", "rank": 1}
    # canonical serialization: sorted keys, no spaces, trailing newline
    assert out == json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ) + "\n"


def test_quantize_verify_lines(run):
    code, out, _ = run("quantize", SPHERE, "--verify", "--no-header")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == (
        "verify: character matches direct reduced-space counts at 3 weights"
    )
    assert lines[-1] == "verify: 1 of 3 support weights lie on facet boundaries"


def test_quantize_verify_rests_on_the_self_check(run, monkeypatch):
    # the --verify match line is printed because the character has passed
    # the self-check: a listing that drops a point fails there, exit 1,
    # before any line reaches stdout
    real = bquant.LatticePolyhedron.lattice_points
    monkeypatch.setattr(
        bquant.LatticePolyhedron, "lattice_points",
        lambda self: real(self)[:-1],
    )
    code, out, err = run("quantize", SPHERE, "--verify")
    assert (code, out) == (1, "")
    assert err.startswith("bquant: collapsed character gives")


def test_quantize_verify_keeps_json_payload_stable(run):
    code_plain, out_plain, _ = run("quantize", SPHERE, "--format", "json")
    code_verify, out_verify, err = run(
        "quantize", SPHERE, "--format", "json", "--verify"
    )
    assert (code_plain, code_verify) == (0, 0)
    assert out_verify == out_plain
    assert "verify: character matches" in err


def test_quantize_output_file(run, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        "quantize", SEGMENT, "--format", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dimension"] == 4


def test_unwritable_output_is_usage_error(run, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    code, out, err = run("check", SEGMENT, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("bquant: error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_quantize_rejects_invalid_description(run):
    code, out, err = run("quantize", BAD_SIGNS)
    assert code == 1
    assert out == ""
    assert err.startswith("bquant: ")
    assert "orientation" in err


def test_quantize_threads_validation(run, capsys):
    # a thread count under 1 is refused like any other bad argument: with
    # the subcommand's usage, naming the argument
    for argv in (("quantize", SEGMENT), ("verify-qr", SEGMENT, PARTNER)):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--threads", value])
            assert info.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"usage: bquant {argv[0]} ")
            assert err.endswith(
                f"bquant {argv[0]}: error: argument --threads: must be at "
                "least 1\n"
            )


def test_a_stray_argument_is_reported_with_every_command(capsys):
    # the table reader declines an unknown option and argparse refuses the
    # line with its full grammar, whose top-level usage lists all five
    with pytest.raises(SystemExit) as info:
        main(["quantize", SEGMENT, "--bogus"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "usage: bquant [-h] [--version] {check,quantize,reduce,verify-qr,cancel}"
    )
    assert err.endswith("bquant: error: unrecognized arguments: --bogus\n")


def test_threads_that_is_not_an_int_keeps_its_message(run, capsys):
    with pytest.raises(SystemExit) as info:
        main(["quantize", SEGMENT, "--threads", "two"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "bquant quantize: error: argument --threads: invalid int value: "
        "'two'\n"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_quantize_deterministic_across_runs_and_threads(run, fmt):
    outputs = set()
    for _ in range(3):
        for threads in ("1", "2", "8"):
            code, out, _ = run(
                "quantize", SPHERE, "--format", fmt, "--threads", threads
            )
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


# ----------------------------------------------------------------------
# reduce


def test_reduce_table(run):
    code, out, _ = run("reduce", SPHERE, "--weight", "-1", "--no-header")
    assert code == 0
    assert out == "weight = -1\ncount = 0 (P0:+1, P1:-1)\n"


def test_reduce_table_compact(run):
    code, out, _ = run("reduce", SEGMENT, "--weight", "2", "--no-header")
    assert code == 0
    assert out == "weight = 2\ncount = 1 (P0:+1)\n"


def test_reduce_json(run):
    code, out, _ = run("reduce", SPHERE, "--weight", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == [1]
    assert payload["count"] == 1
    assert payload["contributions"] == [1, 0]


def test_reduce_rejects_malformed_weight(run):
    # entries are ASCII integers: no underscores, spaces, plus signs or
    # other scripts' digits, all of which int() would take
    for weight in ["x", "1_0", " 1", "+1", "\u0663", "1,"]:
        code, out, err = run("reduce", SPHERE, "--weight", weight)
        assert code == 2
        assert err.startswith("bquant: error: --weight")


def test_reduce_rejects_wrong_arity(run):
    code, _, err = run("reduce", SPHERE, "--weight", "1,2")
    assert code == 2
    assert "expected 1 coordinates" in err


def test_reduce_takes_the_rank_0_weight_quantize_prints(run, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({
        "schema": "bquant/1", "kind": "compact_toric", "rank": 0,
        "polytope": {"rank": 0, "inequalities": []},
    }), encoding="utf-8")
    code, out, _ = run("quantize", str(path), "--no-header")
    assert code == 0
    weight = out.splitlines()[1].split()[0]
    assert weight == "()"
    code, out, err = run("reduce", str(path), "--weight", weight, "--no-header")
    assert (code, err) == (0, "")
    assert out == "weight = ()\ncount = 1 (P0:+1)\n"


def test_reduce_takes_a_weight_whose_first_coordinate_is_negative(run):
    # argparse reads a token such as -2,-1 as an option of its own
    expected = "weight = -2,-1\ncount = 1 (P0:+1)\n"
    assert run("reduce", BOX, "--weight", "-2,-1", "--no-header") == (
        0, expected, ""
    )
    assert run("reduce", BOX, "--weight=-2,-1", "--no-header") == (
        0, expected, ""
    )
    assert run("reduce", BOX, "--no-header", "--weigh", "-4,0") == (
        0, "weight = -4,0\ncount = 0 (P0:0)\n", ""
    )
    code, _, err = run("reduce", BOX, "--weight", "-1", "--no-header")
    assert (code, err) == (2, "bquant: error: --weight: expected 2 "
                              "coordinates, got 1\n")


@pytest.mark.parametrize("rest", [[], ["--no-header"], ["-2,x"]])
def test_reduce_without_a_weight_value_is_a_usage_error(capsys, rest):
    with pytest.raises(SystemExit) as info:
        main(["reduce", BOX, "--weight", *rest])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "bquant reduce: error: argument --weight: expected one argument\n"
    )


# ----------------------------------------------------------------------
# verify-qr


def test_verify_qr_table(run):
    code, out, _ = run("verify-qr", SPHERE, PARTNER)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == f"# partner: {PARTNER} (compact_toric, rank 1)"
    assert lines[3:] == [
        "invariant from characters = 3",
        "invariant from geometry = 3",
        "checked weights = 3",
        "result: MATCH",
    ]


def test_verify_qr_json(run):
    code, out, _ = run("verify-qr", SEGMENT, PARTNER, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["matches"] is True
    assert payload["report"]["invariant_from_characters"] == 3
    assert payload["partner"] == {"kind": "compact_toric", "rank": 1}


def test_verify_qr_reports_the_first_mismatch(run, monkeypatch):
    report = bquant.QRReport(3, 2, 3, first_mismatch=((1,), 2, 1))
    monkeypatch.setattr(cli, "verify_qr_product", lambda *_: report)
    code, out, _ = run("verify-qr", SPHERE, PARTNER)
    assert code == 1
    assert out.splitlines()[-2:] == [
        "first mismatch: weight 1 gives 2 from characters, 1 from geometry",
        "result: MISMATCH",
    ]
    code, out, _ = run("verify-qr", SPHERE, PARTNER, "--format", "json")
    assert code == 1
    assert json.loads(out)["report"]["first_mismatch"] == {
        "weight": [1], "from_characters": 2, "from_geometry": 1,
    }


def test_verify_qr_rejects_b_partner(run):
    code, _, err = run("verify-qr", SEGMENT, BTORUS)
    assert code == 2
    assert "partner" in err


def test_verify_qr_rejects_rank_mismatch(run):
    code, _, err = run("verify-qr", SEGMENT, SQUARE)
    assert code == 2
    assert "rank" in err


# ----------------------------------------------------------------------
# cancel


def test_cancel_table(run):
    code, out, _ = run("cancel", SPHERE, "--hypersurface", "0", "--no-header")
    assert code == 0
    assert out == (
        "hypersurface = 0\n"
        "threshold = 3\n"
        "tail[+1] = {x1 <= -3}\n"
        "tail[-1] = {x1 <= -3}\n"
        "local quantization = 0\n"
    )


def test_cancel_lists_tails_in_adjacent_order(run):
    # hypersurface 1 of the 4-cycle lists its minus component first; the
    # signs, not the order of `adjacent`, say which tail is the plus one
    path = str(corpus_path("btorus_4cycle.json"))
    model = local_model(load_description(path), 1)
    assert [sign for sign, _ in model.tails] == [-1, 1]
    code, out, _ = run("cancel", path, "--hypersurface", "1", "--no-header")
    assert code == 0
    tails = [line for line in out.splitlines() if line.startswith("tail[")]
    assert [line[:8] for line in tails] == ["tail[-1]", "tail[+1]"]


def test_cancel_json(run):
    code, out, _ = run(
        "cancel", SPHERE, "--hypersurface", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold"] == 3
    assert [t["sign"] for t in payload["tails"]] == [1, -1]
    assert payload["character"] == {"rank": 1, "multiplicities": []}


def test_cancel_rejects_bad_index(run):
    code, _, err = run("cancel", SPHERE, "--hypersurface", "3")
    assert code == 2
    assert err.startswith("bquant: error: ")


def test_cancel_rejects_compact_input(run):
    code, _, err = run("cancel", SEGMENT, "--hypersurface", "0")
    assert code == 2


def test_cancel_rejects_invalid_description(run):
    code, _, err = run("cancel", BAD_SIGNS, "--hypersurface", "0")
    assert code == 1
    assert err.startswith("bquant: ")


# ----------------------------------------------------------------------
# shared behaviour


@pytest.mark.parametrize("argv", [
    ("check",), ("quantize", "--format", "json"),
    ("cancel", "--hypersurface", "0", "--format", "json"),
])
def test_boolean_sign_is_a_parse_error(run, tmp_path, argv):
    # True == 1 in Python, but a JSON truth value is not a sign
    data = json.loads(Path(SPHERE).read_text())
    data["components"][0]["sign"] = True
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(argv[0], str(path), *argv[1:]) == (
        2, "", "bquant: error: components[0].sign: expected 1 or -1, got True\n"
    )


def test_missing_file_is_usage_error(run):
    code, _, err = run("check", "no/such/file.json")
    assert code == 2
    assert err.startswith("bquant: error: ")


def test_internal_error_is_not_a_usage_error(run, monkeypatch):
    # a bare builtin from inside the engine is a bug, not bad input
    def broken(description):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(bquant.cli, "quantize_description", broken)
    code, out, err = run("quantize", SEGMENT)
    assert code == 3
    assert out == ""
    assert err == "bquant: internal error: TypeError: unsupported operand\n"


@pytest.mark.parametrize("rank", [1, 2])
def test_huge_enumeration_is_usage_error(run, tmp_path, rank):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge_box(rank)), encoding="utf-8")
    started = time.perf_counter()
    with address_space_cap():
        code, out, err = run("quantize", str(path))
    assert time.perf_counter() - started < 5
    assert code == 2
    assert out == ""
    assert err.startswith("bquant: error: enumeration would ")
    assert err.endswith(" over the budget of 1000000\n")


@pytest.mark.parametrize("literal, where", [
    ("9" * 5001, "integer literal: "),
    ('"' + "9" * 5001 + '/2"', "polytope.inequalities[0].bound: "),
], ids=["json-integer", "p-q-string"])
def test_over_long_literal_is_usage_error(run, tmp_path, literal, where):
    # Python will not turn a string of more than 4,300 digits into an int;
    # that is a fault of the input, not an internal error
    text = Path(SEGMENT).read_text(encoding="utf-8")
    assert '"bound": 3' in text
    path = tmp_path / "long.json"
    path.write_text(text.replace('"bound": 3', '"bound": ' + literal),
                    encoding="utf-8")
    code, out, err = run("check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("bquant: error: " + where)
    assert "internal error" not in err
    assert "value has 5001 digits" in err


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000],
                         ids=["arrays", "objects"])
def test_nesting_past_the_recursion_limit_is_usage_error(run, tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("check", str(path))
    assert (code, out) == (2, "")
    assert err == "bquant: error: JSON nested too deeply to decode\n"


def _decimal_digits(n):
    """Decimal text of the int n, a 1,000-digit chunk at a time, so no
    single int-to-string conversion passes Python's 4,300-digit limit."""
    sign, n, chunks = "-" * (n < 0), abs(n), []
    while True:
        n, chunk = divmod(n, 10**1000)
        chunks.append(chunk)
        if not n:
            break
    head, *rest = reversed(chunks)
    return sign + str(head) + "".join(f"{chunk:01000d}" for chunk in rest)


def _fraction_text(value):
    text = _decimal_digits(value.numerator)
    if value.denominator == 1:
        return text
    return f"{text}/{_decimal_digits(value.denominator)}"


def test_number_derived_past_the_digit_limit_is_reported(run, tmp_path):
    # each literal is under 4,300 digits, but the vertex on x + y = a and
    # x - y = b, where the delzant row fails (determinant 2), has a
    # 4,790-digit numerator; the report writes it out in full
    a = Fraction(10**2400 + 1, 2**8000)
    b = Fraction(10**2400 + 7, 3**5000)
    path = tmp_path / "derived.json"
    path.write_text(json.dumps({
        "schema": "bquant/1", "kind": "compact_toric", "rank": 2,
        "polytope": {"rank": 2, "inequalities": [
            {"normal": [1, 1], "bound": _fraction_text(a)},
            {"normal": [1, -1], "bound": _fraction_text(b)},
            {"normal": [-1, 0], "bound": 0},
        ]},
    }), encoding="utf-8")
    vertex = ((a + b) / 2, (a - b) / 2)
    assert vertex[0].numerator.bit_length() > 4300 * 3.33
    witness = ["polytope", [_fraction_text(x) for x in vertex]]
    code, out, err = run("check", str(path), "--no-header")
    assert (code, err) == (1, "")
    assert out.splitlines()[2] == (
        "delzant FAIL witness=[polytope,[" + ",".join(witness[1]) + "]] "
        "(vertex cone has determinant 2, expected +-1)"
    )
    code, out, err = run("check", str(path), "--format", "json")
    assert (code, err) == (1, "")
    rows = {row["check"]: row for row in json.loads(out)["checks"]}
    assert rows["delzant"]["witness"] == witness


def test_pairing_derived_past_the_digit_limit_is_reported(run, tmp_path):
    # a primitive rank-2 modular weight and a splitting of 2,500-digit
    # entries pair to a number of about 5,000 digits
    weight = [10**2500, 10**2500 + 1]
    splitting = [3**5000, 7**3000]
    pairing = weight[0] * splitting[0] + weight[1] * splitting[1]
    strip = {"rank": 2, "inequalities": [
        {"normal": [0, 1], "bound": 1}, {"normal": [0, -1], "bound": 0}]}
    path = tmp_path / "pairing.json"
    path.write_text(
        json.dumps({
            "schema": "bquant/1", "kind": "b_toric", "rank": 2,
            "components": [{"sign": 1, "polyhedron": strip},
                           {"sign": -1, "polyhedron": strip}],
            "hypersurfaces": [{
                "modular_weight": ["W0", "W1"], "splitting": ["S0", "S1"],
                "leaf": {"rank": 1, "inequalities": [
                    {"normal": [1], "bound": 1}, {"normal": [-1], "bound": 0}]},
                "adjacent": [0, 1]}],
        })
        .replace('"W0"', _decimal_digits(weight[0]))
        .replace('"W1"', _decimal_digits(weight[1]))
        .replace('"S0"', _decimal_digits(splitting[0]))
        .replace('"S1"', _decimal_digits(splitting[1])),
        encoding="utf-8",
    )
    digits = _decimal_digits(pairing)
    code, out, err = run("check", str(path), "--no-header")
    assert (code, err) == (1, "")
    assert out.splitlines()[2] == (
        f"mu-integrality FAIL witness=[0,{digits}] (modular weight pairs "
        f"with the splitting to {digits}, expected 1)"
    )
    code, out, err = run("check", str(path), "--format", "json")
    assert (code, err) == (1, "")
    rows = {row["check"]: row for row in json.loads(out)["checks"]}
    assert rows["mu-integrality"]["witness"] == [0, digits]


def test_weight_past_the_digit_limit_is_written_out(run, tmp_path):
    # every literal of {y = b, x = n * y} is under 4,300 digits, but its
    # one lattice point (n * b, b) has a 4,305-digit first coordinate
    b, n = 10**4295 + 7, 10**9 + 7
    path = tmp_path / "line.json"
    path.write_text(json.dumps({
        "schema": "bquant/1", "kind": "compact_toric", "rank": 2,
        "polytope": {"rank": 2, "inequalities": [
            {"normal": [0, 1], "bound": "B"},
            {"normal": [0, -1], "bound": "-B"},
            {"normal": [1, -n], "bound": 0},
            {"normal": [-1, n], "bound": 0},
        ]},
    }).replace('"-B"', "-" + str(b)).replace('"B"', str(b)), encoding="utf-8")
    weight = f"{_decimal_digits(n * b)},{b}"
    assert len(weight) == 4305 + 1 + 4296
    limit = sys.get_int_max_str_digits()
    code, out, err = run("quantize", str(path), "--no-header", "--verify")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{'weight'.ljust(len(weight))}  multiplicity",
        f"{weight}  1",
        "dim = 1, support = 1 weights",
        "verify: character matches direct reduced-space counts at 1 weights",
        "verify: 1 of 1 support weights lie on facet boundaries",
    ]
    code, out, err = run("quantize", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    payload = {
        "command": "quantize",
        "input": {"kind": "compact_toric", "rank": 2},
        "character": {
            "rank": 2, "multiplicities": [{"weight": [n * b, b], "mult": 1}]
        },
        "dimension": 1,
    }
    try:
        sys.set_int_max_str_digits(0)
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected + "\n"


def test_parse_error_reports_position(run, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  nope")
    code, _, err = run("check", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [
    ("check", "{bad}"),
    ("quantize", "{bad}"),
    ("verify-qr", "{bad}", PARTNER),
    ("verify-qr", SEGMENT, "{bad}"),
])
def test_non_utf8_file_is_a_parse_error(run, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(*(arg.format(bad=bad) for arg in argv))
    assert (code, out) == (2, "")
    assert err == (
        "bquant: error: byte offset 0: not UTF-8 text (invalid start byte: "
        "0xff)\n"
    )


def test_non_utf8_byte_is_named_by_its_offset_in_the_file(run, tmp_path):
    # past the first 8 KiB a text-mode read would count from its chunk
    path = tmp_path / "late.json"
    path.write_bytes(b"{" + b" " * 9999 + b'"\xc3\xa9\xc3"}')
    code, _, err = run("check", str(path))
    assert code == 2
    assert err.startswith("bquant: error: byte offset 10003: not UTF-8 text")


def test_utf8_bom_message_is_kept(run, tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + Path(SEGMENT).read_bytes())
    assert run("check", str(path)) == (2, "", (
        "bquant: error: line 1, column 1: Unexpected UTF-8 BOM (decode "
        "using utf-8-sig)\n"
    ))


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_line_ends_count_as_in_text_mode(run, tmp_path, ending):
    path = tmp_path / "broken.json"
    path.write_bytes(f"{{{ending}  nope".encode())
    code, _, err = run("check", str(path))
    assert code == 2
    assert err.startswith("bquant: error: line 2, column 3: ")


# ----------------------------------------------------------------------
# one grammar per process


def test_calls_in_one_process_match_fresh_interpreters(
    capsys, tmp_path, monkeypatch
):
    # argparse sizes help and usage text to the terminal at print time;
    # pin it so that this process and its children agree
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    output = str(tmp_path / "out.txt")
    calls = [
        ("quantize", SPHERE, "--verify"),
        ("quantize", SPHERE),
        ("quantize", "--help"),
        ("quantize", SPHERE, "--threads", "0"),
        ("--version",),
        (),
        ("verify-qr", SEGMENT, PARTNER, "--no-header"),
        ("reduce", SPHERE, "--weight", "1"),
        ("cancel", SPHERE, "--hypersurface", "0", "--format", "json"),
        ("quantize", SPHERE, "--output", output),
        ("quantize", SPHERE),
        # lines the table reader declines, read by argparse
        ("quantize", SPHERE, "--form", "json"),
        ("quantize", SPHERE, "--format=json"),
        ("quantize", "--", SPHERE),
        ("reduce", BOX, "--weight", "-2,-1"),
        ("cancel", SPHERE, "--hypersurface", "-1"),
        ("verify-qr", SEGMENT, PARTNER, "--bogus"),
        ("verify-qr", "-h"),
    ]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        written = None
        if "--output" in argv:
            written = Path(output).read_text()
            os.remove(output)
        fresh = subprocess.run(
            [sys.executable, "-m", "bquant", *argv],
            capture_output=True, text=True,
        )
        assert (code, out, err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
        if written is not None:
            assert written == Path(output).read_text()


BUILD_COUNT = """
import argparse, contextlib, io, sys

built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting
from bquant import cli

counts = [len(built)]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv.split())
        except SystemExit:
            pass
    counts.append(len(built))
print(counts)
"""


def test_grammar_is_built_once_per_process():
    # importing builds nothing and well-formed lines of every command are
    # read from the table; the first line the reader declines builds the
    # full grammar (the top-level parser and one per command), and a later
    # declined line reuses it
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_COUNT, f"quantize {SEGMENT}",
         f"verify-qr {SEGMENT} {PARTNER}", f"reduce {SPHERE} --weight 1",
         f"cancel {SPHERE} --hypersurface 0", f"check {SPHERE} --format json",
         f"quantize {SEGMENT} --bogus", f"quantize {SEGMENT} --form json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 6, 6]\n"


ARGUMENTS = {
    command: [name for name, _ in (("file", {}), *own, *cli._COMMON)]
    for command, (_, _, own) in cli._COMMANDS.items()
}
OPTION_NAMES = sorted({name for names in ARGUMENTS.values() for name in names
                       if name.startswith("-")})
OPTION_VALUES = ("json", "table", "xml", "0", "1", "-1", "two", "-", "",
                 "1,2")
WORDS = ("F", "P", "stray")
# values each value option takes, so that many drawn lines are well formed
TAKEN = {"--format": ("json", "table"), "--hypersurface": ("0", "1"),
         "--output": ("", "F"), "--threads": ("1", "2"),
         "--weight": ("1", "1,2")}


def valued(name, values):
    return st.sampled_from(values).flatmap(lambda value: st.sampled_from(
        ([name, value], [f"{name}={value}"])))


STRAY_UNITS = st.one_of(
    st.sampled_from(WORDS + OPTION_VALUES).map(lambda word: [word]),
    st.sampled_from(OPTION_NAMES).map(lambda name: [name]),
    st.sampled_from(OPTION_NAMES).flatmap(
        lambda name: valued(name, OPTION_VALUES)),
    st.sampled_from(OPTION_NAMES).flatmap(
        lambda name: st.integers(1, len(name) - 1).map(lambda n: [name[:n]])),
    st.sampled_from(("--", "-h")).map(lambda token: [token]),
)


@st.composite
def command_lines(draw):
    """A line of one of the five commands: its own options, a flag alone
    and a value option with a value it takes, each three times as likely
    as a unit of STRAY_UNITS (any command's option alone or with any
    value, a prefix of one, a stray word or value, ``--`` or ``-h``), and
    positionals, as many as the command takes in half the lines and zero
    to three in the rest, placed among the options."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    names = [name for name in ARGUMENTS[command] if name.startswith("-")]
    own = st.sampled_from(names).flatmap(
        lambda name: valued(name, TAKEN[name]) if name in TAKEN
        else st.just([name]))
    units = draw(st.lists(st.one_of(own, own, own, STRAY_UNITS),
                          max_size=4))
    count = len(ARGUMENTS[command]) - len(names)
    if draw(st.booleans()):
        count = draw(st.integers(0, 3))
    for word in draw(st.lists(st.sampled_from(WORDS), min_size=count,
                              max_size=count)):
        units.insert(draw(st.integers(0, len(units))), [word])
    return [command, *(token for unit in units for token in unit)]


def argparse_reading(argv):
    """vars() of the namespace argparse's full grammar gives for `argv`
    (after the weight gluing `main` applies), or None where it refuses
    the line or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(
                cli._glue_weight_values(argv)))
        except SystemExit:
            return None


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(command_lines())
@example(["verify-qr", "F", "--threads", "2", "P", "--format=json"])
@example(["reduce", "F", "--weight=-2,-1", "--no-header"])
@example(["cancel", "F", "--hypersurface", "0", "--output", ""])
def test_table_reader_agrees_with_argparse(argv):
    """Every line the table reader accepts, argparse reads into an equal
    namespace, so every line argparse refuses the reader declines.  1,000
    derandomized lines of command_lines, of which the reader accepts 151
    and argparse 161; 2.5-3.4 s of a full tier-1 run."""
    read = cli._read_line(argv)
    if read is not None:
        assert vars(read) == argparse_reading(argv), argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"bquant {__version__}\n"


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ----------------------------------------------------------------------
# real process smoke tests


def test_module_entry_point_matches_in_process(run):
    _, expected, _ = run("quantize", SPHERE, "--format", "json")
    proc = subprocess.run(
        [sys.executable, "-m", "bquant", "quantize", SPHERE, "--format",
         "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def _load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as handle:
        return tomllib.load(handle)


def test_console_script_installed(tmp_path):
    """The declared ``bquant`` console script runs ``check`` end to end.

    The script is built the way an installer builds it, from the entry in
    ``[project.scripts]``, and run in its own process against the ``bquant``
    package this suite imported, so no install and no ``PATH`` is needed.
    """
    pyproject = _load_toml(Path(__file__).resolve().parents[1]
                           / "pyproject.toml")
    entry = pyproject.get("project", {}).get("scripts", {}).get("bquant")
    assert entry, "pyproject.toml should declare a bquant console script"
    module, _, attr = (part.strip() for part in entry.partition(":"))
    assert module and attr, f"malformed entry point {entry!r}"
    script = tmp_path / "bquant"
    script.write_text(
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == \"__main__\":\n"
        f"    sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(bquant.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(script), "check", SEGMENT, "--no-header"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("result: PASS\n")
    assert proc.stderr == ""


# ----------------------------------------------------------------------
# README


def readme_transcripts():
    """(argv, output lines) of each ``$ bquant ...`` example in README's
    "Command line" section; an example ends at a blank line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    transcripts = []
    for block in section.split("```")[1::2]:
        for example in block.strip("\n").split("\n\n"):
            command, *lines = example.splitlines()
            if command.startswith("$ bquant "):
                transcripts.append((command.split()[2:], lines))
    return transcripts


def test_readme_transcripts_match_the_cli(run, monkeypatch):
    # a line that elides its middle with "..." is compared at both ends
    monkeypatch.chdir(ROOT)
    transcripts = readme_transcripts()
    assert len(transcripts) == 4
    for argv, expected in transcripts:
        code, out, err = run(*argv)
        assert (code, err) == (0, ""), argv
        lines = out.splitlines()
        assert len(lines) == len(expected), argv
        for line, shown in zip(lines, expected):
            head, elided, tail = shown.partition("...")
            if not elided:
                assert line == shown, argv
            else:
                assert len(line) > len(head) + len(tail), argv
                assert line.startswith(head) and line.endswith(tail), argv
