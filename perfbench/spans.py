"""Spans around the calls into each bquant module, recorded from outside.

The program itself is not instrumented: :func:`install` replaces module and
class attributes with timing wrappers, at the names the callers look up at
call time.  Each span adds its duration to its name's total and to its
parent's child time, so a layer's self time is total minus child.  Spans
are aggregated in memory; a tracer serves one thread only, so traced
samples run with ``threads=1``.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, total seconds, child seconds]
        self.counts = {}  # name -> integer or fractional total
        self._stack = []

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, func, count=None):
        """Time every call of ``func`` as span ``name``.  ``count(args,
        kwargs, result)``, if given, runs after the span closes and records
        counters with :meth:`add`."""
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def summary(self):
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": total - child}
                for name, (calls, total, child) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def bounding_box_size(polyhedron):
    """Integer points in the bounding box of the vertices, from the public
    ``vertices()``: the candidates a box scan of this polyhedron visits."""
    if polyhedron.rank == 0:
        return 1
    corners = polyhedron.vertices()
    size = 1
    for values in zip(*corners):
        low = -(-min(values) // 1)  # ceil of a Fraction
        high = max(values) // 1
        size *= max(0, int(high - low + 1))
    return size


def install(tracer, self_check=True):
    """Wrap the module boundaries of an imported ``bquant`` package.

    With ``self_check=False`` the collapse wrapper turns the engine's
    pointwise self-check off, so comparing the two variants in separate
    processes isolates its cost.
    """
    from bquant import _linalg, characters, cli, engine, polyhedra, spaces

    def patch(owner, attribute, name, count=None):
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), count))

    def count_tensor(args, kwargs, result):
        left, right = args
        tracer.add("characters.tensor_pairs", len(left.support()) * len(right.support()))

    def count_lattice(args, kwargs, result):
        (polyhedron,) = args
        tracer.add("polyhedra.lattice_points", len(result))
        if result or not polyhedron.is_empty():
            tracer.add("polyhedra.bbox_candidates", bounding_box_size(polyhedron))

    patch(spaces, "parse_description", "spaces.parse")
    patch(spaces, "validate_description", "spaces.validate")
    patch(engine, "tail_matching", "engine.match")
    patch(engine, "quantize_compact_toric", "engine.enumerate")
    collapse = engine.collapse_signed_tails
    if not self_check:
        original = collapse

        def collapse(*args, **kwargs):
            kwargs["self_check"] = False
            return original(*args, **kwargs)

    engine.collapse_signed_tails = tracer.wrap("engine.collapse", collapse)
    patch(cli, "verify_qr_product", "engine.verify_qr")
    patch(cli, "main", "cli.main")
    patch(characters.VirtualCharacter, "tensor", "characters.tensor", count_tensor)
    patch(polyhedra.LatticePolyhedron, "lattice_points", "polyhedra.lattice_points",
          count_lattice)
    patch(_linalg, "fm_feasible", "linalg.fm")
    patch(_linalg, "solve_unique", "linalg.solve")
