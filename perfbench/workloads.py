"""Seeded benchmark inputs and their closed-form expected outputs.

Stdlib only: nothing here imports bquant, so every expected value is
independent of the program under test.  A workload maps a seed to a list of
cases; each case carries the JSON the program receives and the exact output
it must produce.  Seeds vary placement (translations and order) but never
the amount of work, so the timing of one workload is comparable across
seeds.  The verify-qr cases cost about the same, so
per-case latency percentiles measure the machine and the program rather
than which case sits at which rank.

Why each workload exists (also in BENCHMARK.json):

* ``sphere_family`` -- 820 tiny rank-1 descriptions: the fixed per-description
  costs (parse, validate, Fourier-Motzkin, tail matching, collapse set-up)
  dominate; enumeration and the self-check are small.
* ``qr_verify`` -- ``bquant verify-qr`` in process: the character tensor and
  the CLI do most of the work.
"""

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

WORKLOADS = ("sphere_family", "qr_verify")


@dataclass(frozen=True)
class Case:
    """One program input.  ``texts`` are description files in JSON (one for
    quantize, description and partner for verify-qr); ``expected()`` builds
    the exact decoded JSON the program must print.  It is built only when
    checking, so it stays out of the set-up time."""

    label: str
    texts: tuple
    expected: Callable


# ----------------------------------------------------------------------
# description builders (the bquant/1 file format)


def polyhedron(rank, *inequalities):
    return {
        "rank": rank,
        "inequalities": [
            {"normal": list(normal), "bound": bound}
            for normal, bound in inequalities
        ],
    }


def compact(rank, polytope):
    return {
        "schema": "bquant/1",
        "kind": "compact_toric",
        "rank": rank,
        "polytope": polytope,
    }


def b_toric(rank, components, hypersurfaces):
    return {
        "schema": "bquant/1",
        "kind": "b_toric",
        "rank": rank,
        "components": [
            {"sign": sign, "polyhedron": poly} for sign, poly in components
        ],
        "hypersurfaces": [
            {
                "modular_weight": list(weight),
                "splitting": list(splitting),
                "leaf": leaf,
                "adjacent": list(adjacent),
            }
            for weight, splitting, leaf, adjacent in hypersurfaces
        ],
    }


def segment(low, high):
    return polyhedron(1, ((1,), high), ((-1,), -low))


def sphere(a, b):
    """Half-line {x <= a} with sign +1 against {x <= b} with sign -1."""
    return b_toric(
        1,
        [(1, polyhedron(1, ((1,), a))), (-1, polyhedron(1, ((1,), b)))],
        [((1,), (1,), polyhedron(0), (0, 1))],
    )


def sphere_times_segment(a, b, k, y0=0):
    """The sphere crossed with the band y0 <= y <= y0 + k; the leaf of the
    hypersurface is the segment [0, k]."""
    band = (((0, 1), y0 + k), ((0, -1), -y0))
    return b_toric(
        2,
        [
            (1, polyhedron(2, ((1, 0), a), *band)),
            (-1, polyhedron(2, ((1, 0), b), *band)),
        ],
        [((1, 0), (1, 0), segment(0, k), (0, 1))],
    )


def box(low, high):
    """Compact axis box prod_i [low_i, high_i]."""
    rank = len(low)
    inequalities = []
    for axis in range(rank):
        unit = tuple(int(i == axis) for i in range(rank))
        inequalities.append((unit, high[axis]))
        inequalities.append((tuple(-x for x in unit), -low[axis]))
    return compact(rank, polyhedron(rank, *inequalities))


# ----------------------------------------------------------------------
# closed forms for the expected outputs


def sphere_weights(a, b):
    return [(w,) for w in range(b + 1, a + 1)]


def qr_invariant(k, m):
    """Weights w of F with -w in P: {0..min(k, m)}^2."""
    return (min(k, m) + 1) ** 2


def character_payload(rank, weights):
    """The canonical quantize payload: multiplicity 1 on each weight."""
    return {
        "rank": rank,
        "multiplicities": [
            {"mult": 1, "weight": list(weight)} for weight in sorted(weights)
        ],
    }


def qr_payload(k, m):
    return {
        "command": "verify-qr",
        "input": {"kind": "b_toric", "rank": 2},
        "partner": {"kind": "compact_toric", "rank": 2},
        "report": {
            "matches": True,
            "invariant_from_characters": qr_invariant(k, m),
            "invariant_from_geometry": qr_invariant(k, m),
            "checked_weights": (m + 1) ** 2,
            "first_mismatch": None,
        },
    }


def _text(data):
    return json.dumps(data, separators=(",", ":"))


def sphere_payload(a, b):
    return character_payload(1, sphere_weights(a, b))


# ----------------------------------------------------------------------
# workloads


def sphere_family(rng):
    """All 820 spheres with integer -20 <= b < a <= 20, shifted by one common
    translation and shuffled.  The collapse pieces grow with the tail
    threshold max(|a|, |b|) + 1, so the shift stays small to keep the work
    the same for every seed."""
    shift = rng.randint(-2, 0)
    pairs = [(a + shift, b + shift) for a in range(-20, 21) for b in range(-20, a)]
    rng.shuffle(pairs)
    return [
        Case(
            f"sphere({a},{b})",
            (_text(sphere(a, b)),),
            partial(sphere_payload, a, b),
        )
        for a, b in pairs
    ]


# (k, m) with about the same tensor size 2k(k+1)(m+1)^2 ~ 370,000
QR_SIZES = ((21, 19), (20, 20), (19, 21), (22, 18))


def qr_verify(rng):
    """verify-qr of F = sphere_times_segment(k, -k, k) against the box
    P = [-m, 0]^2, moved by opposite seeded translations, which leaves every
    pairing w + v = 0 unchanged.  The collapse pieces of F grow with the
    tail threshold k + |tx| + 1 when tx > 0, so tx <= 0 keeps the work the
    same for every seed."""
    cases = []
    for k, m in QR_SIZES:
        tx, ty = rng.randint(-5, 0), rng.randint(-5, 5)
        description = sphere_times_segment(k + tx, -k + tx, k, y0=ty)
        partner = box((-m - tx, -m - ty), (-tx, -ty))
        cases.append(
            Case(
                f"verify_qr(k={k},m={m},t=({tx},{ty}))",
                (_text(description), _text(partner)),
                partial(qr_payload, k, m),
            )
        )
    return cases


def generate(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))
