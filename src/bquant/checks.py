"""Prequantization checks on description records.

Each check returns a `CheckReport` rather than raising, so a validation run
can list every verdict side by side.  A report's witness is the concrete
object that breaks the condition (an index, a vertex, a ray...), suitable
for printing and for structured payloads.

The mu-integrality check models integrality of the singular cohomology class
carried by each hypersurface as primitivity of its modular weight together
with a unit pairing against the chosen splitting.  That identification is a
modeling assumption of this combinatorial shadow, not a computed theorem;
see the README for discussion.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import (
    EmptyPolyhedronError,
    NoVerticesError,
    UnboundedPolyhedronError,
)

__all__ = [
    "CheckReport",
    "check_modular_dichotomy",
    "check_gamma_integrality",
    "check_mu_integrality",
    "check_properness",
    "check_delzant",
]


def _jsonable(value):
    if isinstance(value, Fraction):
        return _linalg.exact_text(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            str(value)
        except ValueError:  # past the int-string digit limit json.dumps keeps
            return _linalg.exact_text(value)
        return value
    if isinstance(value, (str, bool)) or value is None:
        return value
    return str(value)


def _witness_text(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_witness_text(entry) for entry in value) + "]"
    if isinstance(value, (int, Fraction)):
        return _linalg.exact_text(value)
    return str(value)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check."""

    name: str
    passed: bool
    witness: object = None
    message: str = ""

    def line(self):
        if self.passed:
            return f"{self.name} PASS"
        parts = [f"{self.name} FAIL"]
        if self.witness is not None:
            parts.append(f"witness={_witness_text(self.witness)}")
        if self.message:
            parts.append(f"({self.message})")
        return " ".join(parts)

    def payload(self):
        return {
            "check": self.name,
            "passed": self.passed,
            "witness": _jsonable(self.witness),
            "message": self.message,
        }


def _is_b_description(description):
    return hasattr(description, "hypersurfaces")


def _polytopes(description, skip):
    """(label, polyhedron) for each polyhedron a per-polytope row tests, in
    report order: the moment polytope of a compact description, else each
    hypersurface's leaf and then each component for which ``skip`` is
    false."""
    if not _is_b_description(description):
        yield "polytope", description.polytope
        return
    for index, record in enumerate(description.hypersurfaces):
        yield f"hypersurface[{index}].leaf", record.leaf
    for index, (_, polyhedron) in enumerate(description.components):
        if not skip(polyhedron):
            yield f"component[{index}]", polyhedron


def check_modular_dichotomy(description):
    """All modular weights must be nonzero.

    Genuine b-type geometries have modular weights that vanish either for
    every hypersurface or for none (the modular-weight dichotomy).  The
    all-zero case falls outside this quantization model, and a mixed list
    cannot occur at all; both get dedicated diagnostics.
    """
    name = "modular-dichotomy"
    if not _is_b_description(description):
        return CheckReport(name, True, message="no hypersurfaces")
    zero_indices = [
        index
        for index, record in enumerate(description.hypersurfaces)
        if not any(record.modular_weight)
    ]
    if not zero_indices:
        return CheckReport(name, True)
    if len(zero_indices) == len(description.hypersurfaces):
        return CheckReport(
            name,
            False,
            witness=zero_indices,
            message=(
                "every modular weight vanishes; the modular-weight dichotomy "
                "puts this description in the zero case, where this "
                "quantization model does not apply"
            ),
        )
    return CheckReport(
        name,
        False,
        witness=zero_indices[0],
        message=(
            "modular weights must vanish for all hypersurfaces or for none "
            "(modular-weight dichotomy); this index vanishes while others "
            "do not"
        ),
    )


def _lattice_verdict(polyhedron, label):
    """None when the polytope is compact with integer vertices, else a failing report."""
    name = "gamma-integrality"
    try:
        if polyhedron.is_lattice_polytope():
            return None
        bad = next(
            vertex
            for vertex in polyhedron.vertices()
            if any(coordinate.denominator != 1 for coordinate in vertex)
        )
        return CheckReport(
            name,
            False,
            witness=(label, bad),
            message="polytope has a non-lattice vertex",
        )
    except EmptyPolyhedronError:
        return CheckReport(name, False, witness=label, message="polytope is empty")
    except UnboundedPolyhedronError as exc:
        return CheckReport(
            name,
            False,
            witness=(label, exc.ray),
            message="polytope is unbounded",
        )


def check_gamma_integrality(description):
    """Every compact polytope in the description must be a lattice polytope;
    empty and unbounded components are other checks' business."""
    verdicts = (
        _lattice_verdict(polyhedron, label)
        for label, polyhedron in _polytopes(
            # the box settles emptiness too, so it is asked for first
            description, lambda p: not p.is_bounded() or p.is_empty()
        )
    )
    return next(filter(None, verdicts), CheckReport("gamma-integrality", True))


def _delzant_verdict(polyhedron, label):
    try:
        failure = polyhedron.delzant_failure()
    except (EmptyPolyhedronError, NoVerticesError):
        return None  # emptiness/properness rows report those situations
    if failure is None:
        return None
    vertex, reason = failure
    return CheckReport("delzant", False, witness=(label, vertex), message=reason)


def check_delzant(description):
    """Every vertex of every polytope in the description must be smooth;
    empty components are skipped."""
    verdicts = (
        _delzant_verdict(polyhedron, label)
        for label, polyhedron in _polytopes(description, lambda p: p.is_empty())
    )
    return next(filter(None, verdicts), CheckReport("delzant", True))


def check_mu_integrality(description):
    """Each modular weight must be primitive and pair to 1 with its splitting."""
    name = "mu-integrality"
    if not _is_b_description(description):
        return CheckReport(name, True, message="no hypersurfaces")
    for index, record in enumerate(description.hypersurfaces):
        v = record.modular_weight
        g = _linalg.vector_gcd(v)
        if g != 1:
            return CheckReport(
                name,
                False,
                witness=(index, list(v)),
                message="modular weight is not a primitive integer vector",
            )
        pairing = _linalg.dot(v, record.splitting)
        if pairing != 1:
            return CheckReport(
                name,
                False,
                witness=(index, pairing),
                message="modular weight pairs with the splitting to "
                        f"{_linalg.exact_text(pairing)}, expected 1",
            )
    return CheckReport(name, True)


def check_properness(description):
    """Every recession ray of every component is claimed by exactly one
    hypersurface end with nonzero modular weight."""
    name = "properness"
    if not _is_b_description(description):
        return CheckReport(name, True, message="no unbounded directions")
    claimed = {}
    for index, record in enumerate(description.hypersurfaces):
        if not any(record.modular_weight):
            continue  # a zero modular weight cannot absorb an end
        ray = _linalg.make_primitive(tuple(-x for x in record.modular_weight))
        for side in record.adjacent:
            claimed.setdefault(side, []).append((index, ray))
    for index, (_, polyhedron) in enumerate(description.components):
        if polyhedron.is_empty():
            return CheckReport(
                name,
                False,
                witness=("component", index),
                message="component polyhedron is empty",
            )
        rays = set(polyhedron.recession_rays())
        ends = claimed.get(index, [])
        seen = set()
        for hyper_index, ray in ends:
            if ray in seen:
                return CheckReport(
                    name,
                    False,
                    witness=(index, ray),
                    message="two hypersurface ends claim the same unbounded "
                            "direction of one component",
                )
            seen.add(ray)
            if ray not in rays:
                return CheckReport(
                    name,
                    False,
                    witness=(index, ray),
                    message=f"hypersurface {hyper_index} claims a direction "
                            "that is not an unbounded direction of the "
                            "component",
                )
        for ray in sorted(rays - seen):
            return CheckReport(
                name,
                False,
                witness=(index, ray),
                message="unbounded direction is not matched by any "
                        "hypersurface end",
            )
    return CheckReport(name, True)
