"""bquant benchmark: seeded workloads, checked outputs, averages over fresh
processes.

    python3 perfbench/run.py --workload sphere_family --seed 1 --seconds 55 --trace 0

Each sample is one fresh interpreter running every case of the workload once
(see sample.py for why).  A run takes samples until ``--seconds`` have
passed.  Every time is a mean over samples, every count and size a median.
On a shared virtual machine the CPU speed switches between a fast and a
slow state every few seconds; a mean weighs the two states by the time
spent in each, while a median jumps to whichever state holds more samples.

``--trace 0`` reports the end-to-end metrics from untraced ``threads=1``
samples.  ``--trace 1`` interleaves four variants: untraced, traced, and
traced with the collapse self-check off, all ``threads=1``, and untraced
``threads=2``; it reports the per-layer metrics and the tracing overhead.
Every output is compared with a closed form computed without bquant.  The
last stdout line is the JSON result; a BENCH_*.json with the samples and the
machine is written under perfbench/results/.
"""

import argparse
import compileall
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# (name, unit, better); the same lists as BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("inputs_per_s", "1/s", "higher"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# (name, unit, better, end-to-end metric it should move, workload it moves it on)
PER_LAYER = (
    ("spaces.parse_s", "s", "lower", "wall_s", "sphere_family"),
    ("spaces.validate_s", "s", "lower", "wall_s", "sphere_family"),
    ("engine.match_s", "s", "lower", "wall_s", "sphere_family"),
    ("engine.collapse_s", "s", "lower", "wall_s", "sphere_family"),
    ("engine.selfcheck_s", "s", "lower", "wall_s", "sphere_family"),
    ("engine.enumerate_s", "s", "lower", "wall_s", "qr_verify"),
    ("engine.verify_qr_s", "s", "lower", "wall_s", "qr_verify"),
    ("engine.threads2_wall_s", "s", "lower", "no end-to-end metric", "any workload"),
    ("polyhedra.lattice_points_s", "s", "lower", "wall_s", "sphere_family"),
    ("polyhedra.bbox_candidates", "count", "lower", "wall_s", "sphere_family"),
    ("polyhedra.lattice_points", "count", "higher", "wall_s", "sphere_family"),
    ("polyhedra.kept_ratio", "ratio", "higher", "wall_s", "sphere_family"),
    ("linalg.fm_calls", "count", "lower", "wall_s", "sphere_family"),
    ("linalg.fm_s", "s", "lower", "wall_s", "sphere_family"),
    ("linalg.solve_calls", "count", "lower", "wall_s", "sphere_family"),
    ("linalg.solve_s", "s", "lower", "wall_s", "sphere_family"),
    ("characters.tensor_s", "s", "lower", "wall_s", "qr_verify"),
    ("characters.tensor_pairs", "count", "lower", "wall_s", "qr_verify"),
    ("cli.main_s", "s", "lower", "wall_s", "qr_verify"),
    ("cli.self_s", "s", "lower", "wall_s", "qr_verify"),
    ("trace.overhead_s", "s", "lower", "no end-to-end metric", "any workload"),
)

MIN_SAMPLES = 12  # per end-to-end run, however long that takes
MIN_TRACE_SAMPLES = 3  # per variant of a trace run
# the variants one round of a run samples, as (threads, variant)
END_TO_END_ROUND = ((1, "plain"),)
TRACE_ROUND = ((1, "plain"), (1, "check"), (1, "nocheck"), (2, "plain"))
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MIN_TAIL_BEYOND = 10
STOP_STARTING_AFTER_S = 140  # keeps a slow program inside the 180 s limit
SAMPLE_TIMEOUT_S = 165


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a wrong output)."""


def run_sample(workload, seed, threads, variant, deadline):
    command = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", workload, "--seed", str(seed),
        "--threads", str(threads), "--variant", variant,
    ]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"sample {command[2:]} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"sample {command[2:]} exited with {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def collect(workload, seed, seconds, round_, minimum):
    """Repeat the round until ``seconds`` have passed and each variant has
    ``minimum`` samples.  Bytecode is written first, so no sample pays for
    compiling."""
    start = time.monotonic()
    deadline = start + SAMPLE_TIMEOUT_S
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(directory, quiet=1)
    samples = {key: [] for key in round_}
    for key in itertools.cycle(round_):
        elapsed = time.monotonic() - start
        enough = all(len(found) >= minimum for found in samples.values())
        if (elapsed >= seconds and enough) or elapsed > STOP_STARTING_AFTER_S:
            break
        samples[key].append(run_sample(workload, seed, *key, deadline))
    if not all(samples.values()):
        raise BenchmarkError("too slow: a variant has no sample")
    return samples


def tail_percentile(cases):
    """The highest TAIL_PERCENTILES entry that leaves at least
    MIN_TAIL_BEYOND latencies above it in the shortest run.  It depends only
    on the workload, so runs of any speed report the same percentile."""
    n = cases * MIN_SAMPLES
    for percentile in TAIL_PERCENTILES:
        if n - math.ceil(percentile / 100 * n) >= MIN_TAIL_BEYOND:
            return percentile
    raise ValueError(f"{cases} cases x {MIN_SAMPLES} samples leave no tail")


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(samples):
    single = samples[(1, "plain")]
    latencies = [x for sample in single for x in sample["latencies_s"]]
    wall = statistics.fmean(s["wall_s"] for s in single)
    percentile = tail_percentile(single[0]["attempted"])
    metrics = {
        "setup_s": statistics.fmean(s["setup_s"] for s in single),
        "wall_s": wall,
        "inputs_per_s": single[0]["attempted"] / wall,
        "latency_tail_ms": 1000 * nearest_rank(latencies, percentile),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in single),
    }
    # printed and recorded, but not gated: the median of per-case latencies
    # jumps between the machine's fast and slow speed states, and its spread
    # over ten seeds went past the largest allowed bound
    details = {
        "latency_p50_ms": {"value": 1000 * nearest_rank(latencies, 50), "unit": "ms"},
        "latency_tail": {"percentile": percentile, "n": len(latencies)},
    }
    return metrics, details


def _span(sample, name, field="total_s"):
    return sample["trace"]["spans"].get(name, {}).get(field, 0.0)


def _calls(sample, name):
    return sample["trace"]["spans"].get(name, {}).get("calls", 0)


def _count(sample, name):
    return sample["trace"]["counts"].get(name, 0)


def per_layer(samples):
    """Per-layer metrics of a trace run.  A layer the workload never calls
    reports 0.  The self-check and the tracing overhead are differences
    between variants, taken over samples of one round, so they can come out
    slightly negative when the difference is small."""
    plain = samples[(1, "plain")]
    check = samples[(1, "check")]
    nocheck = samples[(1, "nocheck")]
    median = statistics.median
    mean = statistics.fmean

    def layer(name, field="total_s", source=check):
        return mean(_span(s, name, field) for s in source)

    candidates = median(_count(s, "polyhedra.bbox_candidates") for s in check)
    points = median(_count(s, "polyhedra.lattice_points") for s in check)
    metrics = {
        "spaces.parse_s": layer("spaces.parse"),
        "spaces.validate_s": layer("spaces.validate"),
        "engine.match_s": layer("engine.match"),
        "engine.collapse_s": layer("engine.collapse", source=nocheck),
        "engine.selfcheck_s": mean(
            _span(a, "engine.collapse") - _span(b, "engine.collapse")
            for a, b in zip(check, nocheck)
        ),
        "engine.enumerate_s": layer("engine.enumerate"),
        "engine.verify_qr_s": layer("engine.verify_qr"),
        "engine.threads2_wall_s": mean(s["wall_s"] for s in samples[(2, "plain")]),
        "polyhedra.lattice_points_s": layer("polyhedra.lattice_points"),
        "polyhedra.bbox_candidates": candidates,
        "polyhedra.lattice_points": points,
        "polyhedra.kept_ratio": points / candidates if candidates else 0.0,
        "linalg.fm_calls": median(_calls(s, "linalg.fm") for s in check),
        "linalg.fm_s": layer("linalg.fm"),
        "linalg.solve_calls": median(_calls(s, "linalg.solve") for s in check),
        "linalg.solve_s": layer("linalg.solve"),
        "characters.tensor_s": layer("characters.tensor"),
        "characters.tensor_pairs": median(
            _count(s, "characters.tensor_pairs") for s in check
        ),
        "cli.main_s": layer("cli.main"),
        "cli.self_s": layer("cli.main", "self_s"),
        "trace.overhead_s": mean(
            a["wall_s"] - b["wall_s"] for a, b in zip(check, plain)
        ),
    }
    return metrics, {}


def cold_cache_violations(samples):
    """Reasons the samples show a warm cache.  Every description a sample
    reads must miss the ``validate_description`` cache, and the traced
    samples of one variant must make the same number of Fourier-Motzkin
    calls, which a reused polyhedron memo would lower."""
    problems = [
        f"a {s['variant']} sample validated {s['validations']} of its "
        f"{s['descriptions']} descriptions cold"
        for s in samples
        if s["validations"] != s["descriptions"]
    ]
    for variant in ("check", "nocheck"):
        calls = {_calls(s, "linalg.fm") for s in samples if s["variant"] == variant}
        if len(calls) > 1:
            problems.append(
                f"linalg.fm_calls differs across {variant} samples: {sorted(calls)}"
            )
    return problems


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bquant" / "__init__.py").is_file():
        print(f"perfbench: no bquant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    round_ = TRACE_ROUND if args.trace else END_TO_END_ROUND
    minimum = MIN_TRACE_SAMPLES if args.trace else MIN_SAMPLES
    metric_table = PER_LAYER if args.trace else END_TO_END
    try:
        samples = collect(args.workload, args.seed, args.seconds, round_, minimum)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, details = (per_layer if args.trace else end_to_end)(samples)

    everything = [s for found in samples.values() for s in found]
    attempted = sum(s["attempted"] for s in everything)
    failures = [f for s in everything for f in s["failures"]]
    problems = cold_cache_violations(everything)

    units = {name: unit for name, unit, *_ in metric_table}
    moves = {name: f"  (moves {metric} on {where})" for name, _, _, metric, where in PER_LAYER}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}{moves.get(name, '')}")
    for name, detail in details.items():
        print(f"{name}: {detail}")
    print(f"failed_ratio = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} outputs)")
    print("samples: " + ", ".join(
        f"threads={t} {v}: {len(found)}" for (t, v), found in samples.items()
    ))
    for line in failures[:5] + problems:
        print(f"problem: {line}")

    out = HERE / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "details": details,
        "layer_map": {
            name: {"moves": metric, "on": where}
            for name, _, _, metric, where in PER_LAYER
        } if args.trace else None,
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "cold_cache_problems": problems,
        "samples": {
            f"threads{t}_{v}": [
                {key: value for key, value in s.items() if key != "latencies_s"}
                for s in found
            ]
            for (t, v), found in samples.items()
        },
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
