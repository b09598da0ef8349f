"""Reference oracles: the three canonical searches of ``certify`` as they
ran before one bounded walk replaced them.

Each walks the whole box of every height with the unpruned ``ball_walk``
and filters the finished points against the search's constraints and
keys, and ``canonical_functional`` asks the exact program for every
positivity row, repeated ones included. The pruned searches must select
the same points, and ``_positive_candidates`` must give the same full
candidate order.
"""

from math import lcm
from typing import Iterator, Sequence

from ball_walk import ball_walk

from k0mf.exactlinalg import Infeasible, LinearProgram, lp_feasible


def _first_nonzero(vec: Sequence[int]) -> int:
    return next((i for i, x in enumerate(vec) if x), len(vec))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def positive_candidates(basis_rows: Sequence[Sequence[int]], height_bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero nonnegative lattice vectors by increasing height, then
    earliest leading support, then lexicographic order."""
    for h in range(1, height_bound + 1):
        found = [v for v in ball_walk(basis_rows, h) if min(v) >= 0 and max(v) == h]
        found.sort(key=lambda v: (_first_nonzero(v), v))
        yield from found


def reduce_by_rows(vec: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
    out = list(vec)
    for row in rows:
        p = _first_nonzero(row)
        q = out[p] // row[p]
        if q:
            for i in range(len(out)):
                out[i] -= q * row[i]
    return out


def canonical_coset_vector(particular: Sequence[int], kernel_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Least element of particular + lattice under (height, total mass,
    leading support, lex)."""
    if not kernel_rows:
        return tuple(particular)
    reduced = reduce_by_rows(particular, kernel_rows)
    radius = max(1, max(abs(x) for x in reduced))
    for h in range(0, radius + 1):
        found = [v for v in ball_walk(kernel_rows, h, reduced) if max((abs(x) for x in v), default=0) == h]
        if found:
            return min(found, key=lambda v: (sum(abs(x) for x in v), _first_nonzero(v), v))
    raise AssertionError("coset enumeration missed its own representative")


def canonical_functional(
    kernel_rows: Sequence[Sequence[int]], positives: Sequence[Sequence[int]], require_nonnegative: bool
) -> tuple[int, ...] | None:
    """Least height, then greatest coordinate sum, then lexicographic,
    among lattice vectors with value >= 1 on every positive (and
    entrywise >= 0 when required); None when the program is infeasible."""
    width = len(kernel_rows[0])
    ineqs = [([row[i] for row in kernel_rows], 0) for i in range(width)] if require_nonnegative else []
    ineqs.extend(([_dot(row, pos) for row in kernel_rows], 1) for pos in positives)
    res = lp_feasible(LinearProgram.build(len(kernel_rows), inequalities=ineqs))
    if isinstance(res, Infeasible):
        return None
    scale = lcm(*(t.denominator for t in res.point))
    coeffs = [int(t * scale) for t in res.point]
    scaled = [sum(c * row[i] for c, row in zip(coeffs, kernel_rows)) for i in range(width)]
    radius = max(1, max(abs(x) for x in scaled))
    for h in range(0, radius + 1):  # height 0 holds the answer only where there are no positives
        cands = [
            v
            for v in ball_walk(kernel_rows, h)
            if max(abs(x) for x in v) == h
            and (not require_nonnegative or all(x >= 0 for x in v))
            and all(_dot(v, pos) >= 1 for pos in positives)
        ]
        if cands:
            return min(cands, key=lambda v: (-sum(v), v))
    raise AssertionError("scaled rational solution escaped the enumeration radius")
