"""Reference oracles: the phase-one simplex over ``fractions.Fraction``.

``fraction_lp_feasible`` builds the tableau ``k0mf.exactlinalg.lp_feasible``
builds, Farkas' alternative t >= 0 with sum(t_k * a_k) == 0 and
sum(t_k * b_k) == 1 (n + 1 rows, one column per inequality, an
artificial column per row; a row starts from the first column equal to
its unit vector, else from its artificial), and pivots by Bland's rule
on a Fraction tableau until the objective is 0 or optimal. On an
integer program it must make the same pivots and return the same
multipliers t or the same point x = -y[:n] / y_n, where y_i is 1 minus
the reduced cost of row i's artificial.

The two primal tableaux that ``lp_feasible`` ran before are kept as
verdict oracles: x = x+ - x-, a surplus per inequality, pivoted to
optimality. ``slack_started_lp_feasible`` negates a row with b <= 0 and
starts it from its surplus, giving only a row with b > 0 an artificial;
``all_artificial_lp_feasible`` signs every row so that its right-hand
side is >= 0 and gives each an artificial. Their start bases and
problems differ from the alternative's, so their points and
multipliers may differ, but their verdicts must not. Both read the
Farkas multiplier of row k as the reduced cost of its surplus column.

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
    rows: list[list[Fraction]], rhs: list[Fraction], width: int, start: list[int | None], alternative: bool
) -> tuple[list[Fraction] | None, list[Fraction]]:
    """Minimise the sum of artificial variables over rows @ x == rhs, x >= 0.

    rhs must be >= 0; start[i] is a unit column e_i of rows that starts
    in the basis, or None where row i starts from an artificial. With
    ``alternative`` every row has an artificial column (width + i) and
    the loop stops once the objective is 0; otherwise only the rows
    started from one have it and the loop runs to optimality. Returns
    (the point when the minimum is 0, else None; the reduced costs).
    """
    m = len(rows)
    artificial = list(range(m)) if alternative else [i for i in range(m) if start[i] is None]
    ncols = width + len(artificial)
    basis = list(start)
    tab = []
    for i in range(m):
        unit = [Fraction(0)] * len(artificial)
        if i in artificial:
            unit[artificial.index(i)] = Fraction(1)
            if start[i] is None:
                basis[i] = width + artificial.index(i)
        tab.append([Fraction(x) for x in rows[i]] + unit + [Fraction(rhs[i])])
    z = [Fraction(0)] * (ncols + 1)
    for j in range(ncols + 1):
        cj = Fraction(1) if width <= j < ncols else Fraction(0)
        z[j] = cj - sum(tab[i][j] for i in range(m) if start[i] is None)
    while not (alternative and z[ncols] == 0):
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
    if -z[ncols] > 0:
        return None, z
    point = [Fraction(0)] * width
    for i, b in enumerate(basis):
        if b < width:
            point[b] = tab[i][ncols]
    return point, z


def unit_starts(program: LinearProgram) -> list[int | None]:
    """For each row of the alternative's tableau (the n coordinates of
    the a_k, then the b row), the first inequality whose column
    (a_k, b_k) is that row's unit vector, or None."""
    columns = [(*a, b) for a, b in program.inequalities]
    units = [tuple(int(j == i) for j in range(program.num_vars + 1)) for i in range(program.num_vars + 1)]
    return [next((k for k, c in enumerate(columns) if c == e), None) for e in units]


def fraction_lp_feasible(program: LinearProgram) -> Feasible | Infeasible:
    """The verdict, point or multipliers of the Fraction tableau of Farkas' alternative (unchecked)."""
    n = program.num_vars
    m = len(program.inequalities)
    rows = [[Fraction(a[j]) for a, _ in program.inequalities] for j in range(n)]
    rows.append([Fraction(b) for _, b in program.inequalities])
    rhs = [Fraction(0)] * n + [Fraction(1)]
    t, z = _phase_one(rows, rhs, m, unit_starts(program), alternative=True)
    if t is not None:
        return Infeasible(tuple(t))
    y = [1 - z[m + i] for i in range(n + 1)]
    return Feasible(tuple(-v / y[n] for v in y[:n]))


def _primal(program: LinearProgram, slack_start: bool) -> Feasible | Infeasible:
    n = program.num_vars
    n_ineq = len(program.inequalities)
    width = 2 * n + n_ineq  # x+ | x- | surplus
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    start: list[int | None] = []
    for idx, (coeffs, b) in enumerate(program.inequalities):
        row = list(coeffs) + [-c for c in coeffs] + [Fraction(0)] * n_ineq
        row[2 * n + idx] = Fraction(-1)
        sign = 1 if b > 0 or (b == 0 and not slack_start) else -1
        rows.append([sign * c for c in row])
        rhs.append(sign * b)
        start.append(2 * n + idx if slack_start and b <= 0 else None)
    point, z = _phase_one(rows, rhs, width, start, alternative=False)
    if point is not None:
        return Feasible(tuple(point[j] - point[n + j] for j in range(n)))
    return Infeasible(tuple(z[2 * n + i] for i in range(n_ineq)))


def slack_started_lp_feasible(program: LinearProgram) -> Feasible | Infeasible:
    """The verdict, point or multipliers of the slack-started primal Fraction tableau (unchecked)."""
    return _primal(program, slack_start=True)


def all_artificial_lp_feasible(program: LinearProgram) -> Feasible | Infeasible:
    """The verdict, point or multipliers of the one-artificial-per-row primal Fraction tableau (unchecked)."""
    return _primal(program, slack_start=False)


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
