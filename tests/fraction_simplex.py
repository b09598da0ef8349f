"""Reference oracle: the phase-one simplex over ``fractions.Fraction``.

This is the tableau ``k0mf.exactlinalg.lp_feasible`` ran before it moved
to fraction-free integer pivoting. It builds the same phase-one program
(x = x+ - x-, a surplus per inequality, every row signed so that its
right-hand side is >= 0, one artificial per row) and pivots by Bland's
rule, so on an integer program it must make the same pivots and return
the same point or the same Farkas multipliers.

``fraction_point_satisfies`` and ``fraction_verify_farkas`` are the
re-checks ``lp_feasible`` ran before they moved to integers: they
accumulate ``Fraction`` sums, and the integer re-checks must give the
same answer on every input.
"""

from fractions import Fraction
from typing import Sequence

from k0mf.exactlinalg import Feasible, Infeasible, LinearProgram


def _pivot(tab: list[list[Fraction]], z: list[Fraction], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][col]:
            f = tab[i][col]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
    if z[col]:
        f = z[col]
        for j in range(len(z)):
            z[j] -= f * tab[row][j]
    basis[row] = col


def _phase_one(
    rows: list[list[Fraction]], rhs: list[Fraction], width: int
) -> tuple[bool, list[Fraction] | None, list[Fraction] | None]:
    """Minimise the sum of artificial variables over rows @ x == rhs, x >= 0.

    rhs must be >= 0. Returns (feasible, structural point, phase-1 duals).
    """
    m = len(rows)
    ncols = width + m
    tab = [
        [Fraction(x) for x in rows[i]]
        + [Fraction(1 if t == i else 0) for t in range(m)]
        + [Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [width + i for i in range(m)]
    z = [Fraction(0)] * (ncols + 1)
    for j in range(ncols + 1):
        cj = Fraction(1) if width <= j < ncols else Fraction(0)
        z[j] = cj - sum(tab[i][j] for i in range(m))
    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                ratio = tab[i][ncols] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; input corrupted")
        _pivot(tab, z, basis, leave, enter)
    objective = -z[ncols]
    if objective > 0:
        duals = [Fraction(1) - z[width + i] for i in range(m)]
        return False, None, duals
    point = [Fraction(0)] * width
    for i, b in enumerate(basis):
        if b < width:
            point[b] = tab[i][ncols]
    return True, point, None


def fraction_lp_feasible(program: LinearProgram) -> Feasible | Infeasible:
    """The verdict, point or multipliers of the Fraction tableau (unchecked)."""
    n = program.num_vars
    n_ineq = len(program.inequalities)
    width = 2 * n + n_ineq  # x+ | x- | surplus
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    signs: list[int] = []
    for idx, (coeffs, b) in enumerate(program.inequalities):
        row = list(coeffs) + [-c for c in coeffs] + [Fraction(0)] * n_ineq
        row[2 * n + idx] = Fraction(-1)
        sign = 1 if b >= 0 else -1
        rows.append([sign * c for c in row])
        rhs.append(sign * b)
        signs.append(sign)
    feasible, point, duals = _phase_one(rows, rhs, width)
    if feasible:
        assert point is not None
        return Feasible(tuple(point[j] - point[n + j] for j in range(n)))
    assert duals is not None
    return Infeasible(tuple(signs[i] * duals[i] for i in range(n_ineq)))


def fraction_point_satisfies(program: LinearProgram, x: Sequence[Fraction]) -> bool:
    for coeffs, b in program.inequalities:
        if sum(c * v for c, v in zip(coeffs, x)) < b:
            return False
    return True


def fraction_verify_farkas(program: LinearProgram, cert: Infeasible) -> bool:
    if any(t < 0 for t in cert.ineq_multipliers):
        return False
    combo = [Fraction(0)] * program.num_vars
    total = Fraction(0)
    for mult, (coeffs, b) in zip(cert.ineq_multipliers, program.inequalities):
        for j, c in enumerate(coeffs):
            combo[j] += mult * c
        total += mult * b
    return all(c == 0 for c in combo) and total > 0
