import random
from fractions import Fraction

import pytest
from dense_hermite import row_basis
from determinant import determinant, is_unimodular

from k0mf.exactlinalg import (
    Feasible,
    Infeasible,
    IntMatrix,
    LinearProgram,
    enumerate_lattice_points,
    hermite_normal_form,
    integer_kernel,
    lp_feasible,
    rank,
    smith_normal_form,
    solve_in_lattice,
    verify_farkas,
    xgcd,
)


def is_row_hermite(h: IntMatrix) -> bool:
    """Echelon, positive pivots, entries above each pivot in [0, pivot)."""
    last_pivot = -1
    seen_zero_row = False
    for i, row in enumerate(h.to_rows()):
        piv_col = next((j for j, x in enumerate(row) if x), None)
        if piv_col is None:
            seen_zero_row = True
            continue
        if seen_zero_row or piv_col <= last_pivot:
            return False
        if row[piv_col] <= 0:
            return False
        for k in range(i):
            if not 0 <= h.at(k, piv_col) < row[piv_col]:
                return False
        last_pivot = piv_col
    return True


def rows_in_span(rows: IntMatrix, basis: IntMatrix) -> bool:
    """Every row of ``rows`` is an integer combination of the rows of
    ``basis``, decided by the Smith-form solver, not by Hermite form."""
    bt = basis.transpose()
    return all(solve_in_lattice(bt, row) is not None for row in rows.to_rows())


def check_hnf(a: IntMatrix) -> None:
    """H is Hermite, has the row lattice of ``a`` and one nonzero row
    per unit of rank: what a unimodular U with U @ a == H certifies."""
    h = hermite_normal_form(a)
    assert (h.rows, h.cols) == (a.rows, a.cols)
    assert is_row_hermite(h)
    assert rows_in_span(a, h) and rows_in_span(h, a)
    s, _, _ = smith_normal_form(a)
    smith_rank = sum(1 for i in range(min(s.rows, s.cols)) if s.at(i, i))
    assert sum(1 for row in h.to_rows() if any(row)) == rank(a) == smith_rank


def check_snf(a: IntMatrix) -> None:
    s, u, v = smith_normal_form(a)
    assert (s.rows, s.cols) == (a.rows, a.cols)
    assert u @ a @ v == s
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = [s.at(i, i) for i in range(min(s.rows, s.cols))]
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.at(i, j) == 0
    for d in diag:
        assert d >= 0
    for d1, d2 in zip(diag, diag[1:]):
        if d1 == 0:
            assert d2 == 0
        else:
            assert d2 % d1 == 0


def test_xgcd_basics():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -5), (12, 18)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        assert g == __import__("math").gcd(a, b)


def test_hnf_identity():
    ident = IntMatrix.identity(3)
    check_hnf(ident)
    assert hermite_normal_form(ident) == ident


def test_hnf_zero():
    z = IntMatrix.zeros(2, 2)
    check_hnf(z)
    assert hermite_normal_form(z) == z


def test_hnf_small_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    check_hnf(a)
    h = hermite_normal_form(a)
    # gcd of column 0 is 2; |det| = 8 is preserved up to the pivot product
    assert h.at(0, 0) == 2
    assert h.at(0, 0) * h.at(1, 1) == abs(determinant(a))


def test_normal_forms_without_rows_or_columns():
    for m, n in [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]:
        check_snf(IntMatrix.zeros(m, n))
        check_hnf(IntMatrix.zeros(m, n))


def test_snf_identity_and_zero():
    ident = IntMatrix.identity(3)
    s, u, v = smith_normal_form(ident)
    assert s == ident and u == ident and v == ident
    z = IntMatrix.zeros(2, 2)
    s, _, _ = smith_normal_form(z)
    assert s == z


def test_snf_small_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    check_snf(a)
    s, _, _ = smith_normal_form(a)
    # d1 = gcd of the entries, d1*d2 = |det|
    assert s.at(0, 0) == 2
    assert s.at(1, 1) == 4


def test_rank():
    assert rank(IntMatrix.from_rows([[1, 1]])) == 1
    assert rank(IntMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.zeros(3, 2)) == 0


def test_solve_identity():
    ident = IntMatrix.identity(3)
    solved = solve_in_lattice(ident, (5, -7, 2))
    assert solved is not None
    x0, kernel = solved
    assert x0 == (5, -7, 2)
    assert kernel == []


def test_solve_parity_obstruction():
    a = IntMatrix.from_rows([[2]])
    assert solve_in_lattice(a, (3,)) is None


def test_solve_with_kernel():
    a = IntMatrix.from_rows([[1, 1]])
    solved = solve_in_lattice(a, (0,))
    assert solved is not None
    x0, kernel = solved
    assert a.apply(x0) == (0,)
    assert kernel == [(1, -1)]
    # oracle: every small solution is x0 + multiple of the kernel vector
    small = [
        (x, y)
        for x in range(-4, 5)
        for y in range(-4, 5)
        if x + y == 0
    ]
    for sol in small:
        diff = (sol[0] - x0[0], sol[1] - x0[1])
        assert diff[0] * kernel[0][1] == diff[1] * kernel[0][0]


def test_integer_kernel_canonical():
    a = IntMatrix.from_rows([[2, -2], [1, -1]])
    assert integer_kernel(a) == [(1, 1)]


def test_row_basis_canonical():
    basis = row_basis([(1, -1, 0), (0, 1, -1), (-1, 0, 1)], 3)
    assert basis == [(1, 0, -1), (0, 1, -1)]


def test_enumerate_lattice_points_ball():
    basis = row_basis([(1, 0, -1), (0, 1, -1)], 3)
    pts = set(enumerate_lattice_points(basis, 1, key="support"))
    # all nonzero (a, b, c) with a + b + c = 0 and entries in [-1, 1]
    expected = {
        (a, b, c)
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        for c in (-1, 0, 1)
        if a + b + c == 0 and (a, b, c) != (0, 0, 0)
    }
    assert pts == expected


def test_enumerate_lattice_points_offset():
    pts = set(enumerate_lattice_points([(1, 1)], 2, offset=(1, 0), key="support"))
    assert pts == {(-1, -2), (0, -1), (1, 0), (2, 1)}


def test_lp_trivial_feasible():
    # x == 1 is written as x >= 1 and -x >= -1
    p = LinearProgram.build(1, inequalities=[([1], 1), ([-1], -1), ([1], 0)])
    res = lp_feasible(p)
    assert isinstance(res, Feasible)
    assert res.point == (Fraction(1),)


def test_lp_trivial_infeasible():
    # x >= 1 and -x >= 0 cannot both hold
    p = LinearProgram.build(1, inequalities=[([1], 1), ([-1], 0)])
    res = lp_feasible(p)
    assert isinstance(res, Infeasible)
    assert verify_farkas(p, res)
    assert res.ineq_multipliers == (1, 1)


def test_lp_cone_section_infeasible():
    # v in span{(1,-1)}, v >= 0, v1 + v2 >= 1: the span meets the
    # nonnegative orthant only at the origin. v = (x0, x1) and x0 == x2,
    # x1 == -x2 are each written as two inequalities.
    p = LinearProgram.build(
        3,
        inequalities=[
            ([1, 0, -1], 0), ([-1, 0, 1], 0), ([0, 1, 1], 0), ([0, -1, -1], 0),
            ([1, 0, 0], 0), ([0, 1, 0], 0), ([1, 1, 0], 1),
        ],
    )
    res = lp_feasible(p)
    assert isinstance(res, Infeasible)
    assert verify_farkas(p, res)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 1.0, True, False])
def test_lp_build_takes_only_int_rows(bad):
    with pytest.raises(ValueError, match="must be ints"):
        LinearProgram.build(2, inequalities=[([1, bad], 0)])
    with pytest.raises(ValueError, match="must be ints"):
        LinearProgram.build(2, inequalities=[([1, 1], 0), ([1, 1], bad)])


def test_lp_build_checks_row_length():
    for row in ([1], [1, 2, 3], []):
        with pytest.raises(ValueError, match="length"):
            LinearProgram.build(2, inequalities=[([1, 1], 0), (row, 0)])
    p = LinearProgram.build(2, inequalities=[((1, -1), 0), ([0, 2], -3)])
    assert p.inequalities == (((1, -1), 0), ((0, 2), -3))


def random_matrix(rng: random.Random, max_dim: int = 5, lo: int = -9, hi: int = 9) -> IntMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def test_normal_forms_random():
    rng = random.Random(20240817)
    for _ in range(120):
        a = random_matrix(rng)
        check_hnf(a)
        check_snf(a)


def test_solve_random_consistency():
    rng = random.Random(4711)
    for _ in range(60):
        a = random_matrix(rng, max_dim=4, lo=-4, hi=4)
        x = [rng.randint(-3, 3) for _ in range(a.cols)]
        b = a.apply(x)
        solved = solve_in_lattice(a, b)
        assert solved is not None
        x0, kernel = solved
        assert a.apply(x0) == b
        for k in kernel:
            assert a.apply(k) == (0,) * a.rows


def brute_force_feasible(p: LinearProgram, box: int = 10**4) -> bool:
    """Rational vertex-enumeration oracle.

    Adds a large bounding box so that a nonempty region always has a
    vertex, then tries every square subsystem of active constraints.
    """
    from itertools import combinations

    n = p.num_vars
    cons = list(p.inequalities)
    for j in range(n):
        row = tuple(1 if t == j else 0 for t in range(n))
        cons.append((row, -box))
        cons.append((tuple(-c for c in row), -box))

    def solve_square(rows):
        mat = [[Fraction(c) for c in cons[i][0]] + [Fraction(cons[i][1])] for i in rows]
        cols = n
        piv = []
        r = 0
        for c in range(cols):
            pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
            if pr is None:
                return None
            mat[r], mat[pr] = mat[pr], mat[r]
            mat[r] = [x / mat[r][c] for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    f = mat[i][c]
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            piv.append(c)
            r += 1
            if r == len(mat):
                break
        if r < len(mat):
            for i in range(r, len(mat)):
                if mat[i][cols] != 0:
                    return None
        if len(piv) < cols:
            return None
        x = [Fraction(0)] * cols
        for i, c in enumerate(piv):
            x[c] = mat[i][cols]
        return x

    def satisfied(x) -> bool:
        return all(sum(c * v for c, v in zip(coeffs, x)) >= b for coeffs, b in p.inequalities)

    if n == 0:
        return all(b <= 0 for _, b in p.inequalities)
    idx = list(range(len(cons)))
    for rows in combinations(idx, n):
        x = solve_square(rows)
        if x is not None and satisfied(x):
            return True
    return False


def random_program(rng: random.Random) -> LinearProgram:
    """Integer inequality rows; each of up to two equalities a.x == b is
    written as its two inequalities a.x >= b and -a.x >= -b."""
    n = rng.randint(1, 4)
    n_eq = rng.randint(0, 2)
    n_in = rng.randint(0, 4)
    rows = []
    for _ in range(n_eq):
        a, b = [rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3)
        rows += [(a, b), ([-c for c in a], -b)]
    rows += [([rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3)) for _ in range(n_in)]
    return LinearProgram.build(n, inequalities=rows)


def test_lp_matches_vertex_oracle():
    rng = random.Random(90210)
    for _ in range(80):
        p = random_program(rng)
        res = lp_feasible(p)
        expect = brute_force_feasible(p)
        assert isinstance(res, Feasible) == expect
        if isinstance(res, Infeasible):
            assert verify_farkas(p, res)


def test_lp_never_both_verdicts():
    # the solver returns exactly one verdict object per call
    p = LinearProgram.build(2, inequalities=[([1, 1], 1)])
    res = lp_feasible(p)
    assert isinstance(res, (Feasible, Infeasible))
    assert not (isinstance(res, Feasible) and isinstance(res, Infeasible))


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)
