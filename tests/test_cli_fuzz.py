"""Failure hygiene under mutated input: the CLI answers every corpus file
with one to three random mutations by exiting 0, 1 or 2, never with an
internal error (exit 3) or a traceback.

A mutation drops, duplicates or shuffles list entries, deletes an object
field, sets a value to null, a string, a boolean, a 'p/q' literal, +-2**70
or a 5,001-digit integer or 'p/q' literal, or flips the sign of a number or
a 'p/q' literal (a normal entry, a bound, a component sign, a modular weight
entry).  Huge numbers must meet the enumeration budget, so the run is
capped in address space: a missing guard fails the test with a MemoryError
instead of exhausting the machine.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS, address_space_cap

from bquant.cli import main

FILES = sorted(path.name for path in CORPUS.glob("*.json"))

COMMANDS = (
    ("check",),
    ("quantize",),
    ("quantize", "--verify"),
    ("cancel", "--hypersurface", "0"),
    ("reduce", "--weight"),
)

# json.dumps cannot write an int of more than 4,300 digits, so a 5,001-digit
# JSON integer is drawn as this token and written in by `dumps`
LONG_INTEGER = "<5001-digit integer>"

VALUES = (None, "text", True, False, "3/2", "-7/4", 2**70, -(2**70),
          LONG_INTEGER, "9" * 5001 + "/2")

NUMBER = re.compile(r"^-?\d+(/\d+)?$")

# the segment [-2**70, 0]: a listing of 2**70 + 1 points
HUGE_SEGMENT = {
    "schema": "bquant/1", "kind": "compact_toric", "rank": 1,
    "polytope": {"rank": 1, "inequalities": [
        {"normal": [1], "bound": 0},
        {"normal": [-1], "bound": 1180591620717411303424},
    ]},
}


def locations(value, path=()):
    """The path of every node of a decoded JSON value, root first."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from locations(value[key], path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from locations(item, path + (index,))


def negated(value):
    """-value for an int or a 'p/q' (or 'p') literal, else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return -value
    if isinstance(value, str) and NUMBER.match(value):
        return value[1:] if value.startswith("-") else "-" + value
    return None


@st.composite
def mutate(draw, data):
    """`data` with one mutation at a drawn node."""
    paths = list(locations(data))
    path = draw(st.sampled_from(paths))
    parent = None
    node = data
    for key in path:
        parent, node = node, node[key]
    moves = []
    if isinstance(node, list) and node:
        moves += ["drop", "duplicate", "shuffle"]
    if isinstance(node, dict) and node:
        moves.append("delete")
    if parent is not None:
        moves.append("set")
        if negated(node) is not None:
            moves.append("negate")
    if not moves:
        return data
    move = draw(st.sampled_from(moves))
    if move == "set":
        parent[path[-1]] = draw(st.sampled_from(VALUES))
    elif move == "negate":
        parent[path[-1]] = negated(node)
    elif move == "delete":
        del node[draw(st.sampled_from(sorted(node)))]
    elif move == "shuffle":
        node[:] = draw(st.permutations(node))
    else:
        index = draw(st.integers(0, len(node) - 1))
        if move == "drop":
            del node[index]
        else:
            node.insert(index, json.loads(json.dumps(node[index])))
    return data


@st.composite
def mutated_runs(draw):
    name = draw(st.sampled_from(FILES))
    data = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    rank = data["rank"]
    for _ in range(draw(st.integers(1, 3))):
        data = draw(mutate(data))
    command = draw(st.sampled_from(COMMANDS))
    if command[-1] == "--weight":
        command += (",".join(["0"] * rank),)
    return command, data


def with_first_bound(name, bound):
    data = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    data["polytope"]["inequalities"][0]["bound"] = bound
    return data


def dumps(data):
    return json.dumps(data).replace(json.dumps(LONG_INTEGER), "9" * 5001)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_runs())
@example((("quantize",), HUGE_SEGMENT))
@example((("check",), with_first_bound("c_seg_0_3.json", LONG_INTEGER)))
@example((("check",), with_first_bound("c_seg_0_3.json", VALUES[-1])))
def test_mutated_input_exits_cleanly(input_path, case):
    command, data = case
    input_path.write_text(dumps(data), encoding="utf-8")
    argv = [command[0], str(input_path), *command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with address_space_cap(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
