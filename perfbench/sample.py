"""One benchmark sample: a fresh interpreter runs every case of a workload once.

A fresh process per sample is what keeps the program's caches cold:
``validate_description`` caches reports by value for the life of the process
and polyhedra memoise vertices and lattice points per instance, while a
user of the command line pays all of them on every run.  Within a sample
every input is distinct (checked below), so no case can hit a cache filled
by another; the record counts the ``validate_description`` cache misses so
that run.py can confirm it.

Usage (run.py starts these; the last stdout line is the JSON record)::

    python3 perfbench/sample.py --workload W --seed N --threads T \
        --variant plain|check|nocheck --spawned-at MONOTONIC
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bquant  # noqa: E402
from bquant import cli, engine, spaces  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def quantize(text, threads):
    """What ``bquant quantize FILE --format json`` computes, minus file I/O
    and argument parsing; module attributes are looked up at call time so a
    traced sample sees its wrappers."""
    description = spaces.parse_description(text)
    character = engine.quantize_description(description, threads=threads)
    return json.dumps(character.to_payload(), sort_keys=True, separators=(",", ":"))


def verify_qr(paths, threads):
    """``bquant verify-qr F P --format json`` in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["verify-qr", *paths, "--format", "json", "--threads", str(threads)]
        )
    if code != 0:
        raise RuntimeError(f"verify-qr exited with code {code}")
    return out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--variant", choices=("plain", "check", "nocheck"),
                        default="plain")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    if Path(bquant.__file__).resolve().parent != SRC / "bquant":
        raise SystemExit(f"imported bquant from {bquant.__file__}, not {SRC}")
    cases = workloads.generate(args.workload, args.seed)
    texts = [text for case in cases for text in case.texts]
    if len(set(texts)) != len(texts):
        raise SystemExit("a sample repeats an input, so it could hit a warm cache")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        files = []
        if args.workload == "qr_verify":
            for index, case in enumerate(cases):
                paths = []
                for part, text in enumerate(case.texts):
                    path = os.path.join(scratch, f"case{index}_{part}.json")
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(text)
                    paths.append(path)
                files.append(paths)
        setup_s = time.monotonic() - args.spawned_at

        # the lru_cache itself: its misses are the descriptions validated
        # cold, whatever wraps the module attribute below
        validate = spaces.validate_description
        tracer = None
        if args.variant != "plain":
            if args.threads != 1:
                raise SystemExit("traced samples run with --threads 1")
            tracer = spans.Tracer()
            spans.install(tracer, self_check=args.variant == "check")

        latencies = []
        failures = []
        for index, case in enumerate(cases):
            start = time.perf_counter()
            try:
                if files:
                    output = verify_qr(files[index], args.threads)
                else:
                    output = quantize(case.texts[0], args.threads)
            except Exception as exc:  # a failed case is counted, not fatal
                latencies.append(time.perf_counter() - start)
                failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            if json.loads(output) != case.expected():
                failures.append(f"{case.label}: output differs from the closed form")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": args.threads,
        "variant": args.variant,
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "attempted": len(cases),
        "descriptions": len(texts),
        "validations": validate.cache_info().misses,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.summary() if tracer else None,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
