"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the generated inputs are valid, that the closed forms the
benchmark checks outputs against agree with brute-force scans, that the
metric names match BENCHMARK.json, and that the cold-cache guard works.
"""

import json
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_description_validates(workload, seed):
    import bquant

    for case in workloads.generate(workload, seed):
        for text in case.texts:
            report = bquant.validate_description(bquant.parse_description(text))
            assert report.passed, (case.label, report.lines())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs_and_no_sample_repeats_one(workload):
    texts = [c.texts for c in workloads.generate(workload, 1)]
    assert texts == [c.texts for c in workloads.generate(workload, 1)]
    assert texts != [c.texts for c in workloads.generate(workload, 2)]
    flat = [text for group in texts for text in group]
    assert len(set(flat)) == len(flat)


def raw_inside(poly, point):
    return all(
        sum(n * x for n, x in zip(inequality["normal"], point))
        <= inequality["bound"]
        for inequality in poly["inequalities"]
    )


def raw_multiplicity(data, point):
    """Signed membership count straight off the description JSON."""
    if data["kind"] == "compact_toric":
        return int(raw_inside(data["polytope"], point))
    return sum(
        component["sign"] * int(raw_inside(component["polyhedron"], point))
        for component in data["components"]
    )


def scan(data, ranges):
    """Signed multiplicity at every point of a box, off the raw JSON."""
    table = {}
    for point in product(*ranges):
        value = raw_multiplicity(data, point)
        if value:
            table[point] = value
    return table


def test_sphere_closed_form_matches_a_scan():
    for a, b in ((3, -2), (0, -4), (-3, -7), (5, 4)):
        table = scan(workloads.sphere(a, b), [range(b - 5, a + 6)])
        assert table == {w: 1 for w in workloads.sphere_weights(a, b)}


def test_qr_closed_form_matches_a_scan():
    for k, m, tx, ty in ((2, 3, 0, 0), (3, 2, 1, -2), (4, 4, -3, 2), (1, 3, 2, 2)):
        description = workloads.sphere_times_segment(k + tx, -k + tx, k, y0=ty)
        partner = workloads.box((-m - tx, -m - ty), (-tx, -ty))
        window = [range(-k - 8, k + 9), range(-k - 8, k + 9)]
        character = scan(description, window)
        points = scan(partner, window)
        invariant = sum(
            multiplicity * character.get(tuple(-x for x in point), 0)
            for point, multiplicity in points.items()
        )
        assert invariant == workloads.qr_invariant(k, m)
        assert len(points) == (m + 1) ** 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [row[:3] for row in run.PER_LAYER]


def start_sample(workload, threads, variant):
    return run.run_sample(workload, 1, threads, variant, time.monotonic() + 120)


@pytest.fixture(scope="module")
def sphere_samples():
    variants = ((1, "plain"), (2, "plain"), (1, "check"), (1, "nocheck"))
    samples = {key: [start_sample("sphere_family", *key)] for key in variants}
    samples[(1, "check")].append(start_sample("sphere_family", 1, "check"))
    return samples


def test_reported_metrics_are_the_declared_ones(sphere_samples):
    metrics, details = run.end_to_end(sphere_samples)
    assert list(metrics) == [name for name, *_ in run.END_TO_END]
    assert all(value > 0 for value in metrics.values())
    assert details["latency_tail"]["percentile"] == 99
    metrics, _ = run.per_layer(sphere_samples)
    assert list(metrics) == [name for name, *_ in run.PER_LAYER]
    for sample in sphere_samples.values():
        assert sample[0]["failures"] == []


def test_fresh_samples_pass_the_cold_cache_guard(sphere_samples):
    everything = [s for found in sphere_samples.values() for s in found]
    assert run.cold_cache_violations(everything) == []
    assert everything[0]["validations"] == 820
    assert run._calls(sphere_samples[(1, "check")][0], "linalg.fm") > 0


REPEATED_INPUT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import sample, workloads
from bquant import spaces
text = workloads.generate("sphere_family", 1)[0].texts[0]
for _ in range(2):
    sample.quantize(text, 1)
print(spaces.validate_description.cache_info().misses)
"""


def test_cold_cache_guard_catches_a_repeated_input():
    """Quantizing one input twice in one interpreter validates it cold only
    once, which the guard reports."""
    done = subprocess.run(
        [sys.executable, "-c", REPEATED_INPUT, str(HERE)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    misses = int(done.stdout)
    assert misses == 1
    warm = {"variant": "plain", "descriptions": 2, "validations": misses}
    assert run.cold_cache_violations([warm])


def test_cold_cache_guard_catches_differing_fm_calls():
    def traced(calls):
        return {"variant": "check", "descriptions": 1, "validations": 1,
                "trace": {"spans": {"linalg.fm": {"calls": calls}}}}

    assert run.cold_cache_violations([traced(5), traced(5)]) == []
    assert run.cold_cache_violations([traced(5), traced(4)])


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "sample.py", "spans.py", "workloads.py"):
        (tmp_path / "perfbench" / name).write_text(
            (HERE / name).read_text(encoding="utf-8"), encoding="utf-8"
        )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere_family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
