"""Reference oracle: the dense Hermite reduction ``hermite_normal_form``
ran before it reduced sparse rows.

``dense_hermite_normal_form`` copies every row into a dense list and, for
each column in turn, brings the first row with a nonzero there up as the
pivot row, clears the column below it by exact division or a 2 x 2
extended-gcd combination, makes the pivot positive and reduces the rows
above it into [0, pivot). It builds its result from dense entries. The
row-sparse ``hermite_normal_form`` must return the same matrix.
``dense_rank``, ``dense_integer_kernel`` and ``dense_row_basis`` are
``rank``, ``integer_kernel`` and ``row_basis`` as they read that dense
form: the same code over ``dense_hermite_normal_form``.

``row_basis``, the canonical basis of the lattice that some vectors span,
is read from the row-sparse ``hermite_normal_form``; the tests use it to
build lattices and compare them.
"""

from itertools import chain, compress
from typing import Iterable, Sequence

from k0mf.exactlinalg import IntMatrix, _dense_row, hermite_normal_form, xgcd


def dense_hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row Hermite form H of ``a``: H has the same row lattice as ``a``.

    H is in row echelon form with positive pivots; every entry above a
    pivot is reduced into [0, pivot). This convention is fixed so that
    certificates derived from H are byte-reproducible. The unimodular
    transform is not kept; a caller that needs it can reduce [a | I].
    """
    m, n = a.rows, a.cols
    h = a.to_rows()

    def row_combine(r1: int, r2: int, x: int, y: int, z: int, w: int) -> None:
        # (row r1, row r2) <- (x*r1 + y*r2, z*r1 + w*r2), det [[x,y],[z,w]] = +-1
        a1, a2 = h[r1], h[r2]
        h[r1] = [x * s + y * t for s, t in zip(a1, a2)]
        h[r2] = [z * s + w * t for s, t in zip(a1, a2)]

    def row_sub(dst: int, src: int, q: int) -> None:
        h[dst] = [d - q * s for d, s in zip(h[dst], h[src])]

    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if h[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            h[r], h[pivot_row] = h[pivot_row], h[r]
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            aa, bb = h[r][c], h[i][c]
            if bb % aa == 0:
                row_sub(i, r, bb // aa)
            else:
                g, x, y = xgcd(aa, bb)
                row_combine(r, i, x, y, -(bb // g), aa // g)
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        piv = h[r][c]
        for i in range(r):
            q = h[i][c] // piv
            if q:
                row_sub(i, r, q)
        r += 1
        if r == m:
            break
    return IntMatrix.from_rows(h) if m else IntMatrix.zeros(0, n)


def dense_rank(a: IntMatrix) -> int:
    h = dense_hermite_normal_form(a)
    return sum(1 for row in h.to_rows() if any(row))


def dense_integer_kernel(a: IntMatrix) -> list[tuple[int, ...]]:
    m, n = a.rows, a.cols
    e = a.entries
    stacked = chain.from_iterable(e[j::n] + (0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n))
    h = dense_hermite_normal_form(IntMatrix(n, m + n, tuple(stacked)))
    return [tuple(row[m:]) for row in h.to_rows() if not any(row[:m])]


def dense_row_basis(vectors: Iterable[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != width:
            raise ValueError("vector width mismatch")
    if not vecs:
        return []
    h = dense_hermite_normal_form(IntMatrix.from_rows(vecs))
    return [tuple(row) for row in h.to_rows() if any(row)]


def row_basis(vectors: Iterable[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Canonical basis (Hermite rows) of the lattice spanned by ``vectors``."""
    rows = []
    for v in vectors:
        if len(v) != width:
            raise ValueError("vector width mismatch")
        rows.append(tuple(compress(enumerate(v), v)))
    if not rows:
        return []
    h = hermite_normal_form(IntMatrix._of_nonzeros(len(rows), width, tuple(rows)))
    return [_dense_row(row, width) for row in h.nonzeros if row]
