"""Byte-identity lock of the CLI over the corpus.

Every call below runs `bquant.cli.main` in process with the working
directory at tests/, so each input is named ``corpus/<file>``, and its
stdout, stderr and exit code must equal the ones recorded in
tests/cli_lock.json.  The calls, each in table and in JSON form, over all
37 corpus files: ``check``, ``quantize``, ``quantize --verify``,
``cancel --hypersurface i`` for every hypersurface record (and ``0`` on a
file without records), ``reduce --weight`` at the zero weight and
``verify-qr`` against every compact corpus file of the same rank.  That
is 798 calls; the test takes about 0.25 s of a tier-1 run (0.4 s alone).

Every line is well formed, so no call prints argparse's help, usage or
error text (which differs between Python versions), and every file
exists, so no OS error string is recorded.

A change that means to alter the output rewrites the lock with

    PYTHONPATH=src python tests/test_cli_lock.py --write

and shows the difference in its diff.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from bquant.cli import main

HERE = Path(__file__).resolve().parent
LOCK = HERE / "cli_lock.json"


def calls():
    """The argument lists of every locked call, in order."""
    described = {}
    for path in sorted((HERE / "corpus").glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            described[path.name] = json.load(handle)
    compact = [name for name, data in described.items()
               if data["kind"] == "compact_toric"]
    result = []
    for name, data in described.items():
        file, rank = f"corpus/{name}", data["rank"]
        records = len(data.get("hypersurfaces", ())) or 1
        for argv in (
            ["check", file],
            ["quantize", file],
            ["quantize", file, "--verify"],
            *(["cancel", file, "--hypersurface", str(index)]
              for index in range(records)),
            ["reduce", file, "--weight", ",".join(["0"] * rank)],
            *(["verify-qr", file, f"corpus/{partner}"] for partner in compact
              if described[partner]["rank"] == rank),
        ):
            result += [argv, argv + ["--format", "json"]]
    return result


def run(argv):
    """{"argv", "code", "stdout", "stderr"} of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def record():
    """The record of every call, run from tests/."""
    start = os.getcwd()
    os.chdir(HERE)
    try:
        return [run(argv) for argv in calls()]
    finally:
        os.chdir(start)


def test_cli_output_matches_the_lock():
    with open(LOCK, encoding="utf-8") as handle:
        locked = json.load(handle)
    assert [entry["argv"] for entry in locked] == calls()
    for found, expected in zip(record(), locked):
        assert found == expected, " ".join(found["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_lock.py --write")
    with open(LOCK, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(map(json.dumps, record())) + "\n]\n")
