"""Exact integer and rational linear algebra substrate.

Integer matrices held as sparse rows only (each row's nonzero entries
as (column, value) pairs; dense input is converted once): products
(Gustavson's row-by-row sparse product), differences, transposes,
matrix-vector products, equality and hashing run over the nonzeros, so
the 0/1 inclusion and permutation maps of Bratteli diagrams cost in
proportion to their nonzeros, and dense values are derived on each
read, which only the Smith form makes on a verdict path. The
Hermite normal form (alone, as callers only read its rows) reduces
sparse rows by leading column; row bases, ranks and integer kernels in
their canonical Hermite basis (one reduction of [a^t | I], stacked from
the sparse rows of a^t) come from it. The Smith normal form, with the
unimodular transforms that witness it, is dense; integer linear solving
takes only its particular solution (the kernel is that Hermite basis),
one bounded walk over the lattice points in a box (the sup-norm ball,
or its nonnegative corner) that prunes a branch as soon as a coordinate
it has fixed leaves the box or a constraint row can no longer be met,
goes up by height and prunes on one running per-coordinate cost (minus
the sum, or the mass) when asked for a best point, and stops at
``WALK_NODE_BUDGET`` nodes, and an exact feasibility solver for
integer inequality rows a.x >= b: a phase-one simplex with Bland's
pivoting rule on a fraction-free integer tableau (one common
denominator) of Farkas' alternative, multipliers t >= 0 with
sum(t_k * a_k) == 0 and sum(t_k * b_k) == 1, in n + 1 rows over one
column per inequality. A solution is the exact rational Farkas
certificate of infeasibility; otherwise the rows' duals at the
optimum give an exact rational feasible point. Both results are
re-checked in integers before they are returned, the point or the
multipliers scaled by one common denominator.

Everything runs on Python ints, with Fractions only in the LP's
rational answers; there is no floating point on any verdict path. All
outputs are deterministic functions of their inputs, so certificates
built on top of this module are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import lcm
from operator import mul, neg
from typing import Iterable, Iterator, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# Decimal conversions split their digits into chunks of at most this
# many, the least digit limit an interpreter can be set to, so no
# integer of any length ever meets the interpreter's limit.
_CHUNK_DIGITS = 640


def _decimal_str(n: int, width: int = 0) -> str:
    """``str(n)`` for an integer of any length, zero-padded to ``width``."""
    if n < 0:
        return "-" + _decimal_str(-n)
    if n.bit_length() <= 3 * _CHUNK_DIGITS:  # then n has under 580 digits
        return str(n).zfill(width)
    low = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, rest = divmod(n, 10**low)
    return _decimal_str(high, width - low) + _decimal_str(rest, low)


_MESSAGE_INT_BOUND = 10**4300  # past the interpreter's default digit limit


def _message_int(n: int) -> str:
    """An integer as messages print it: its digits, or past 4300 digits
    ``<integer of N bits>`` (``-<integer of N bits>`` when negative),
    because converting a million digits takes seconds."""
    if -_MESSAGE_INT_BOUND < n < _MESSAGE_INT_BOUND:
        return _decimal_str(n)
    return f"{'-' if n < 0 else ''}<integer of {n.bit_length()} bits>"


_Row = tuple[tuple[int, int], ...]
_setattr = object.__setattr__


def _sparse_rows(rows: int, cols: int, entries: Sequence[int], nonzero: Iterable[int]) -> tuple[_Row, ...]:
    """The sparse rows of the row-major ``entries``, given the positions
    of their nonzero entries in increasing order: the one dense-to-sparse
    conversion, for ``IntMatrix`` and the document reader alike."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for k in nonzero:
        out[k // cols].append((k % cols, entries[k]))
    return tuple(map(tuple, out))


class IntMatrix:
    """Integer matrix, immutable, held as sparse rows only: per row, the
    nonzero entries as (column, value) pairs, columns increasing and no
    zero value (``nonzeros``). Products, differences, transposes, stacks,
    matrix-vector products, the Hermite form, equality and hashing read
    and write that form, so each costs in proportion to the nonzeros.

    ``IntMatrix(rows, cols, entries)`` and ``from_rows`` take dense
    row-major entries and convert them once, by ``_sparse_rows`` over the
    nonzero positions of one ``compress`` scan (the document reader
    converts its matrices by the same function); no dense copy is kept.
    ``entries``, ``at`` and ``to_rows`` derive dense values from the
    sparse rows on each call: ``entries`` for ``__repr__``, ``at`` and
    ``to_rows`` for the Smith form, and ``to_rows`` for the document
    writer in ``bratteli``.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    rows: int
    cols: int
    nonzeros: tuple[_Row, ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entries length must equal rows*cols")
        _setattr(self, "rows", rows)
        _setattr(self, "cols", cols)
        _setattr(self, "nonzeros", _sparse_rows(rows, cols, entries, compress(range(len(entries)), entries)))

    @classmethod
    def _of_nonzeros(cls, rows: int, cols: int, nonzeros: tuple[_Row, ...]) -> "IntMatrix":
        """A matrix from its sparse rows, which must keep the invariant."""
        m = object.__new__(cls)
        _setattr(m, "rows", rows)
        _setattr(m, "cols", cols)
        _setattr(m, "nonzeros", nonzeros)
        return m

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        m = len(data)
        n = len(data[0]) if m else 0
        if any(len(row) != n for row in data):
            raise ValueError("ragged rows")
        return cls(m, n, tuple(chain.from_iterable(data)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of_nonzeros(n, n, tuple(((i, 1),) for i in range(n)))

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls._of_nonzeros(m, n, ((),) * m)

    @classmethod
    def hstack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """One or more blocks with the same number of rows, side by side."""
        (m,) = {b.rows for b in blocks}
        rows: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        offset = 0
        for b in blocks:
            for row, brow in zip(rows, b.nonzeros):
                row.extend((j + offset, x) for j, x in brow)
            offset += b.cols
        return cls._of_nonzeros(m, offset, tuple(map(tuple, rows)))

    @property
    def entries(self) -> tuple[int, ...]:
        """The dense row-major entries."""
        return tuple(chain.from_iterable(_dense_row(row, self.cols) for row in self.nonzeros))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.nonzeros == other.nonzeros

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nonzeros))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries})"

    def at(self, i: int, j: int) -> int:
        return dict(self.nonzeros[i]).get(j, 0)

    def to_rows(self) -> list[list[int]]:
        return [list(_dense_row(row, self.cols)) for row in self.nonzeros]

    def transpose(self) -> "IntMatrix":
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzeros):
            for j, x in row:
                out[j].append((i, x))
        return IntMatrix._of_nonzeros(self.cols, self.rows, tuple(map(tuple, out)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Gustavson's row-by-row product: each result row combines the
        rows of ``other`` that the row's nonzeros pick, and a row with
        one nonzero is its partner row, scaled."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        brows = other.nonzeros
        out: list[_Row] = []
        for arow in self.nonzeros:
            if len(arow) == 1:
                ((k, x),) = arow
                out.append(brows[k] if x == 1 else tuple((j, x * y) for j, y in brows[k]))
            elif arow:
                acc: dict[int, int] = {}
                for k, x in arow:
                    for j, y in brows[k]:
                        acc[j] = acc.get(j, 0) + x * y
                out.append(tuple(p for p in sorted(acc.items()) if p[1]))
            else:
                out.append(())
        return IntMatrix._of_nonzeros(self.rows, other.cols, tuple(out))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        """Entrywise difference: each row is a merge of the two sorted
        sparse rows."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix difference")
        out: list[_Row] = []
        for arow, brow in zip(self.nonzeros, other.nonzeros):
            row = []
            i, n = 0, len(arow)
            for j, y in brow:
                while i < n and arow[i][0] < j:
                    row.append(arow[i])
                    i += 1
                if i < n and arow[i][0] == j:
                    if arow[i][1] != y:
                        row.append((j, arow[i][1] - y))
                    i += 1
                else:
                    row.append((j, -y))
            row.extend(arow[i:])
            out.append(tuple(row))
        return IntMatrix._of_nonzeros(self.rows, self.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.nonzeros:
            acc = 0
            for k, x in row:
                acc += x * vec[k]
            out.append(acc)
        return tuple(out)

    def is_nonnegative(self) -> bool:
        return all(x > 0 for row in self.nonzeros for _, x in row)


def _first_negative(a: IntMatrix) -> tuple[int, int, int]:
    """(row, column, value) of the first negative entry in row-major order."""
    return next((i, j, x) for i, row in enumerate(a.nonzeros) for j, x in row if x < 0)


def _zero_column(a: IntMatrix) -> int | None:
    """The first column of ``a`` with no nonzero entry, or None."""
    hit = {j for row in a.nonzeros for j, _ in row}
    return next((j for j in range(a.cols) if j not in hit), None)


def _subtract(row: dict[int, int], q: int, piv: dict[int, int]) -> None:
    """row -= q * piv, in place, keeping only the nonzero entries."""
    for j, v in piv.items():
        w = row.get(j, 0) - q * v
        if w:
            row[j] = w
        else:
            del row[j]


def _dense_row(row: Iterable[tuple[int, int]], width: int) -> tuple[int, ...]:
    """A sparse row as a dense tuple of ``width`` entries."""
    out = [0] * width
    for j, x in row:
        out[j] = x
    return tuple(out)


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Row Hermite form H of ``a``: H has the same row lattice as ``a``.

    H is in row echelon form with positive pivots; every entry above a
    pivot is reduced into [0, pivot). This convention is fixed so that
    certificates derived from H are byte-reproducible. H's rows are its
    rank rows and then empty rows, in the shape of ``a``. The unimodular
    transform is not kept; a caller that needs it can reduce [a | I].

    The reduction reads and writes sparse rows only, by leading column
    (as in Kannan-Bachem): for each column in increasing order, the rows
    leading there are combined with the first of them, by exact division
    or a 2 x 2 extended-gcd step, until it is the one pivot row left, and
    each other row moves on to its new leading column. The pivot is made
    positive and the pivot rows before it are reduced into [0, pivot).
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in a.nonzeros:
        if row:
            buckets.setdefault(row[0][0], []).append(dict(row))
    pivots: list[dict[int, int]] = []
    for c in range(a.cols):
        rows = buckets.pop(c, None)
        if rows is None:
            continue
        piv = rows[0]
        for row in rows[1:]:
            aa, bb = piv[c], row[c]
            if bb % aa:
                # (piv, row) <- (x*piv + y*row, (aa*row - bb*piv) / g), unimodular
                g, x, y = xgcd(aa, bb)
                new = {j: x * v for j, v in piv.items()} if x else {}  # x == 0 when bb divides aa
                _subtract(new, -y, row)
                rest = {j: aa // g * v for j, v in row.items()}
                _subtract(rest, bb // g, piv)
                piv, row = new, rest
            else:
                _subtract(row, bb // aa, piv)
            if row:
                buckets.setdefault(min(row), []).append(row)
        if piv[c] < 0:
            piv = {j: -v for j, v in piv.items()}
        p = piv[c]
        for prev in pivots:
            q = prev.get(c, 0) // p
            if q:
                _subtract(prev, q, piv)
        pivots.append(piv)
    nonzeros = tuple(tuple(sorted(r.items())) for r in pivots)
    return IntMatrix._of_nonzeros(a.rows, a.cols, nonzeros + ((),) * (a.rows - len(pivots)))


def rank(a: IntMatrix) -> int:
    """Rank over the rationals, read off the Hermite form."""
    return sum(1 for row in hermite_normal_form(a).nonzeros if row)


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith form: returns (S, U, V) with U @ a @ V == S.

    S is diagonal with nonnegative entries d_1 | d_2 | ...; U and V are
    unimodular.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def row_sub(dst: int, src: int, q: int) -> None:
        for mat in (d, u):
            dr, sr = mat[dst], mat[src]
            for j in range(len(dr)):
                dr[j] -= q * sr[j]

    def row_add(dst: int, src: int) -> None:
        for mat in (d, u):
            dr, sr = mat[dst], mat[src]
            for j in range(len(dr)):
                dr[j] += sr[j]

    def row_combine(r1: int, r2: int, x: int, y: int, z: int, w: int) -> None:
        for mat in (d, u):
            a1, a2 = mat[r1], mat[r2]
            for j in range(len(a1)):
                a1[j], a2[j] = x * a1[j] + y * a2[j], z * a1[j] + w * a2[j]

    def col_sub(dst: int, src: int, q: int) -> None:
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def col_combine(c1: int, c2: int, x: int, y: int, z: int, w: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[c1], row[c2] = x * row[c1] + y * row[c2], z * row[c1] + w * row[c2]

    lim = min(m, n)
    for k in range(lim):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = d[i][j]
                if e and (best is None or abs(e) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            d[k], d[bi] = d[bi], d[k]
            u[k], u[bi] = u[bi], u[k]
        if bj != k:
            for row in d:
                row[k], row[bj] = row[bj], row[k]
            for row in v:
                row[k], row[bj] = row[bj], row[k]
        while True:
            for i in range(k + 1, m):
                if d[i][k] == 0:
                    continue
                aa, bb = d[k][k], d[i][k]
                if bb % aa == 0:
                    row_sub(i, k, bb // aa)
                else:
                    g, x, y = xgcd(aa, bb)
                    row_combine(k, i, x, y, -(bb // g), aa // g)
            for j in range(k + 1, n):
                if d[k][j] == 0:
                    continue
                aa, bb = d[k][k], d[k][j]
                if bb % aa == 0:
                    col_sub(j, k, bb // aa)
                else:
                    g, x, y = xgcd(aa, bb)
                    col_combine(k, j, x, y, -(bb // g), aa // g)
            if any(d[i][k] for i in range(k + 1, m)):
                continue  # column reduction disturbed by a gcd column op
            # divisibility: the pivot must divide the trailing block
            piv = d[k][k]
            offender = None
            for i in range(k + 1, m):
                if any(d[i][j] % piv for j in range(k + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_add(k, offender)
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
    s = IntMatrix.from_rows(d) if m else IntMatrix.zeros(0, n)
    return s, IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def solve_in_lattice(
    a: IntMatrix, b: Sequence[int]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """Solve a @ x == b over the integers.

    Returns (x0, kernel_basis), or None when no integer solution exists.
    The Smith form gives only the particular solution x0 = V y (solve
    the diagonal system S y = U b); kernel_basis is ``integer_kernel(a)``,
    the canonical Hermite basis of the integer kernel.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    s, u, v = smith_normal_form(a)
    c = u.apply(b)
    r = min(a.rows, a.cols)
    y = [0] * a.cols
    for i in range(a.rows):
        di = s.at(i, i) if i < r else 0
        if di:
            if c[i] % di:
                return None
            y[i] = c[i] // di
        elif c[i]:
            return None
    return v.apply(y), integer_kernel(a)


def integer_kernel(a: IntMatrix) -> list[tuple[int, ...]]:
    """Canonical basis (Hermite rows) of {x : a @ x == 0} over the
    integers, from one Hermite reduction.

    Reduce the n x (m+n) matrix [a^t | I]: a unimodular U turns it into
    H = [U a^t | U], so a row of H whose first m entries vanish carries
    in its last n entries a kernel vector. These rows are a basis of the
    kernel, because U is unimodular and the other rows of U a^t, the
    echelon rows, are independent. They are Hermite rows of their own
    (echelon, positive pivots, reduced above each pivot), which is the
    one canonical basis of the kernel lattice.
    """
    m, n = a.rows, a.cols
    stacked = tuple(row + ((m + j, 1),) for j, row in enumerate(a.transpose().nonzeros))
    h = hermite_normal_form(IntMatrix._of_nonzeros(n, m + n, stacked))
    # [a^t | I] has full row rank, so every row of H leads somewhere
    return [_dense_row(row, m + n)[m:] for row in h.nonzeros if row[0][0] >= m]


# Lattice walks stop after visiting this many nodes (partial points,
# one per coefficient tried), so no walk can run for hours; the
# searches in ``certify`` turn the stop into their non-answer.
WALK_NODE_BUDGET = 200_000


class WalkBudgetExceeded(RuntimeError):
    """A lattice walk visited ``WALK_NODE_BUDGET`` nodes before it finished."""


def enumerate_lattice_points(
    basis_rows: Sequence[Sequence[int]],
    radius: int,
    offset: Sequence[int] | None = None,
    *,
    nonnegative: bool = False,
    rows: Sequence[tuple[Sequence[int], int]] = (),
    key: str,
) -> Iterator[tuple[int, ...]]:
    """Yield vectors v = offset + sum(c_i * b_i) whose coordinates all lie
    in [-h, h], or in [0, h] when ``nonnegative``, and which satisfy
    p . v >= b for every (p, b) in ``rows``.

    ``basis_rows`` must be Hermite rows (echelon, positive pivots p_0 <
    p_1 < ...). Rows after row i vanish before p_{i+1}, so once c_i is
    chosen the coordinates from p_i up to p_{i+1} are final: the box
    turns coordinate p_i into an exact integer range for c_i, and the
    coordinates strictly between the two pivots are checked at that
    level (exact per-level bounds on an echelon basis, as in
    Fincke-Pohst). Coordinates before p_0 are the offset's and are
    checked first. A branch is pruned as soon as a final coordinate
    leaves the box, or a row's part over the final coordinates plus the
    most the unfixed ones can add (h * |p_j| each, h * max(p_j, 0) in
    the nonnegative box) falls short of its bound.

    ``key`` picks what is yielded (a branch-and-bound in the manner of
    Land-Doig, with the walk's own running sums as bounds):

    * "sum" and "mass": one walk that minimises a per-coordinate cost,
      -v_j for "sum" and |v_j| for "mass", in the box h = 0, 1, ...,
      ``radius`` that first holds a point, trying candidates by the cost
      of their pivot coordinate. It yields only points that cost at most
      what every point yielded before did, and prunes a branch whose
      fixed cost plus the least cost of each unfixed coordinate exceeds
      the best so far (at first n times the largest cost in the box).
      The last point yielded costs least; ties are left to the caller.
    * "support": every nonzero point by increasing sup-norm h = 1, ...,
      ``radius``, then earliest leading support (first nonzero
      coordinate), then lexicographic order; each box h yields only its
      points of sup-norm h.

    Each call visits at most ``WALK_NODE_BUDGET`` nodes and raises
    ``WalkBudgetExceeded`` past it.
    """
    basis = [tuple(r) for r in basis_rows]
    if offset is None:
        if not basis:
            return
        offset = (0,) * len(basis[0])
    start = list(offset)
    n = len(start)
    depth = len(basis)
    pivots = [next(j for j, x in enumerate(r) if x) for r in basis]
    ends = pivots[1:] + [n]
    tails = [r[p:] for r, p in zip(basis, pivots)]
    first = pivots[0] if basis else n
    head = start[:first]
    vecs = [tuple(p) for p, _ in rows]
    bounds = [b for _, b in rows]
    seg_rows = [[v[p:end] for v in vecs] for p, end in zip(pivots, ends)]
    top = max(map(abs, head), default=0)
    nodes = 0
    cost = {"sum": neg, "mass": abs}.get(key)

    # no point is shorter than the offset's fixed head
    for h in range(max(top, 1 if key == "support" else 0), radius + 1):
        low = 0 if nonnegative else -h
        if head and (min(head) < low or max(head) > h):
            return  # then it leaves every box
        # reach[i][r]: the most row r can gain from the coordinates the
        # first i levels leave unfixed
        reach = [[sum(max(x * h, x * low) for x in v[end:]) for v in vecs] for end in [first] + ends]
        parts = [sum(map(mul, v[:first], head)) for v in vecs]
        if any(f + g < b for f, g, b in zip(parts, reach[0], bounds)):
            continue
        if cost is not None:  # the least and the largest cost of one coordinate in the box
            least, best = min(cost(low), 0, cost(h)), n * max(cost(low), cost(h))
        score = sum(map(cost, head)) if cost is not None else 0

        def rec(i: int, current: list[int], parts: list[int], score: int, top: int) -> Iterator[tuple[int, ...]]:
            nonlocal nodes, best
            if i == depth:
                if key != "support" or top == h:
                    best = score
                    yield tuple(current)
                return
            p, end, tail = pivots[i], ends[i], tails[i]
            piv = tail[0]
            cur = current[p]
            prefix, rest = current[:p], current[p:]
            cs = range(-((cur - low) // piv), (h - cur) // piv + 1)
            if cost is not None:
                cs = sorted(cs, key=lambda c: cost(cur + c * piv))
            elif key == "support" and top == 0 and cur % piv == 0 and -cur // piv in cs:
                zero = -cur // piv  # a leading zero here puts the support later
                cs = [c for c in cs if c != zero] + [zero]
            gains = reach[i + 1]
            for c in cs:
                nodes += 1
                if nodes > WALK_NODE_BUDGET:
                    raise WalkBudgetExceeded(f"the lattice walk ran out of its budget of {WALK_NODE_BUDGET} nodes")
                nxt = prefix + [x + c * y for x, y in zip(rest, tail)]
                seg = nxt[p:end]
                if min(seg) < low or max(seg) > h:
                    continue
                new_parts = [f + sum(map(mul, v, seg)) for f, v in zip(parts, seg_rows[i])]
                if any(f + g < b for f, g, b in zip(new_parts, gains, bounds)):
                    continue
                new_score = score
                if cost is not None:
                    new_score += sum(map(cost, seg))
                    if new_score + least * (n - end) > best:
                        continue
                yield from rec(i + 1, nxt, new_parts, new_score, max(top, max(map(abs, seg))))

        found = False
        for point in rec(0, start, parts, score, top):
            found = True
            yield point
        if found and cost is not None:
            return


# ---------------------------------------------------------------------------
# Exact feasibility of integer inequality rows, with certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProgram:
    """Exact program over integer inequality rows: each (a, b) reads a.x >= b."""

    num_vars: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def build(cls, num_vars: int, inequalities: Iterable[tuple[Sequence[int], int]] = ()) -> "LinearProgram":
        """Rows of ``num_vars`` ints: the tableau floor-divides, so no Fraction, float or bool."""
        rows = []
        for a, b in inequalities:
            a = tuple(a)
            if len(a) != num_vars:
                raise ValueError("constraint row length mismatch")
            if type(b) is not int or not set(map(type, a)) <= {int}:
                raise ValueError("constraint coefficients and right-hand sides must be ints")
            rows.append((a, b))
        return cls(num_vars, tuple(rows))


@dataclass(frozen=True)
class Feasible:
    point: tuple[Fraction, ...]


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: multipliers t_k >= 0, one per inequality, with
    sum(t_k * a_k) == 0 coefficient-wise while sum(t_k * b_k) > 0, so no
    point can satisfy every row. ``lp_feasible`` finds t as a point of
    Farkas' alternative, where sum(t_k * b_k) == 1."""

    ineq_multipliers: tuple[Fraction, ...]


def _pivot(tab: list[list[int]], z: list[int], basis: list[int], d: int, row: int, col: int) -> int:
    """Fraction-free pivot on (row, col) of the tableau tab / d with
    objective row z / d; returns the new common denominator.

    Every entry stays an integer (a minor of the initial tableau), so
    the floor divisions are exact, and the pivot row is left as it is
    because the new denominator is its pivot entry.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [(x * p - f * y) // d for x, y in zip(r, prow)]
        elif p != d:
            tab[i] = [x * p // d for x in r]
    f = z[col]
    z[:] = [(x * p - f * y) // d for x, y in zip(z, prow)]
    basis[row] = col
    return p


def _phase_one(rows: list[list[int]], rhs: list[int], width: int) -> tuple[list[Fraction] | None, list[int], int]:
    """Minimise the sum of artificial variables over rows @ t == rhs, t >= 0.

    rows (each ``width`` long) and rhs are integers and rhs must be >= 0.
    Row i has an artificial column width + i, of cost 1, and starts from
    the first column of rows equal to e_i, else from it. The tableau is
    kept all-integer under one positive common denominator d (the true
    tableau is tab / d; Bareiss/Edmonds integer pivoting), which makes
    the same pivots as a rational tableau: ratios are compared by
    cross-multiplication and d > 0 keeps every sign. Bland's rule
    (smallest entering index; smallest basis index on ratio ties)
    guarantees termination, and the loop stops as soon as the objective
    is 0. Returns (point, z, d): the value of each column of rows when
    the minimum is 0, else None, and the final objective row z / d,
    whose entry j is column j's reduced cost.
    """
    m = len(rows)
    ncols = width + m
    tab = [r + [0] * i + [1] + [0] * (m - 1 - i) + [b] for i, (r, b) in enumerate(zip(rows, rhs))]
    basis = list(range(width, ncols))
    for j, col in enumerate(zip(*rows)):  # the first column equal to e_i starts row i
        if col.count(0) == m - 1 and 1 in col and basis[col.index(1)] >= width:
            basis[col.index(1)] = j
    # cost 1 on each artificial, less the sum of the rows they start in
    z = [-sum(col) for col in zip([0] * (ncols + 1), *(r for r, b in zip(tab, basis) if b >= width))]
    z[width:ncols] = [x + 1 for x in z[width:ncols]]
    d = 1
    while z[ncols]:  # the objective -z[ncols] / d is positive
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            return None, z, d
        leave = None
        for i, r in enumerate(tab):
            if r[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                here = r[ncols] * tab[leave][enter]
                best = tab[leave][ncols] * r[enter]
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; input corrupted")
        d = _pivot(tab, z, basis, d, leave, enter)
    point = [Fraction(0)] * width
    for i, b in enumerate(basis):
        if b < width:
            point[b] = Fraction(tab[i][ncols], d)
    return point, z, d


def _point_satisfies(program: LinearProgram, x: Sequence[Fraction]) -> bool:
    d = lcm(*(t.denominator for t in x))
    scaled = [t.numerator * (d // t.denominator) for t in x]  # d * x
    return all(sum(map(mul, a, scaled)) >= b * d for a, b in program.inequalities)


def verify_farkas(program: LinearProgram, cert: Infeasible) -> bool:
    """Exactly re-check a Farkas certificate by substitution."""
    # a Fraction's sign is its numerator's, read without a Fraction compare
    if any(t.numerator < 0 for t in cert.ineq_multipliers):
        return False
    used = list(zip(cert.ineq_multipliers, program.inequalities))
    # d > 0 clears every multiplier's denominator: d * combination is integral, same signs
    d = lcm(*(t.denominator for t, _ in used))
    combo = [0] * program.num_vars
    total = 0
    for t, (a, b) in used:
        f = t.numerator * (d // t.denominator)
        if f:
            for j, c in enumerate(a):
                combo[j] += f * c
            total += f * b
    return not any(combo) and total > 0


def lp_feasible(program: LinearProgram) -> Feasible | Infeasible:
    """Exact feasibility verdict for a system of integer inequalities.

    Phase one runs on Farkas' alternative, t >= 0 with
    sum(t_k * a_k) == 0 and sum(t_k * b_k) == 1: n + 1 equality rows
    (the n coordinates of the a_k, then the b row) over one column per
    inequality, with right-hand sides 0 and 1. A zero minimum gives t,
    the Farkas multipliers. Otherwise the rows' duals at the optimum,
    y_i = 1 - z[m + i] / d from the reduced costs of the artificials,
    have y . (a_k, b_k) <= 0 for every k and y_n equal to the positive
    minimum, so x = -y[:n] / y_n satisfies every row.

    A Feasible result carries a point satisfying every constraint
    exactly; an Infeasible result carries a Farkas certificate that
    re-verifies exactly. Both are checked before returning.
    """
    n = program.num_vars
    m = len(program.inequalities)
    rows = [[a[j] for a, _ in program.inequalities] for j in range(n)]
    rows.append([b for _, b in program.inequalities])
    t, z, d = _phase_one(rows, [0] * n + [1], m)
    if t is not None:
        cert = Infeasible(tuple(t))
        if not verify_farkas(program, cert):
            raise AssertionError("simplex returned an invalid Farkas certificate")
        return cert
    y = [d - w for w in z[m : m + n + 1]]  # d * y
    x = tuple(Fraction(-w, y[n]) for w in y[:n])
    if not _point_satisfies(program, x):
        raise AssertionError("simplex returned a non-feasible point")
    return Feasible(x)
