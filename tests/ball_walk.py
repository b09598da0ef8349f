"""Reference oracle: the lattice walk ``enumerate_lattice_points`` ran
before it pruned on every coordinate.

``ball_walk`` bounds each Hermite coefficient by its pivot coordinate
alone and filters the finished vectors against the sup-norm ball at the
leaves. The pruned walk must yield the same nonzero points, and its
nonnegative box exactly the nonnegative ones among them; the tests'
brute-force oracles enumerate whole boxes with it.
"""

from typing import Iterator, Sequence


def ball_walk(
    basis_rows: Sequence[Sequence[int]],
    radius: int,
    offset: Sequence[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    rows = [tuple(r) for r in basis_rows]
    if offset is None:
        if not rows:
            return
        offset = (0,) * len(rows[0])
    off = tuple(offset)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]

    def rec(i: int, current: list[int]) -> Iterator[tuple[int, ...]]:
        if i == len(rows):
            if all(abs(x) <= radius for x in current):
                yield tuple(current)
            return
        p = pivots[i]
        piv = rows[i][p]
        cur = current[p]
        lo = -((radius + cur) // piv)
        hi = (radius - cur) // piv
        for c in range(lo, hi + 1):
            nxt = [x + c * y for x, y in zip(current, rows[i])]
            yield from rec(i + 1, nxt)

    yield from rec(0, list(off))
