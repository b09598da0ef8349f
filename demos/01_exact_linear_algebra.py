"""Tour of the exact linear algebra substrate.

Everything below is exact: integer matrices, normal forms, lattice
solving, and a simplex over integer inequality rows with rational
answers. Run with `python demos/01_exact_linear_algebra.py`.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from k0mf import (
    Feasible,
    Infeasible,
    IntMatrix,
    LinearProgram,
    hermite_normal_form,
    lp_feasible,
    smith_normal_form,
    solve_in_lattice,
)

a = IntMatrix.from_rows([[2, 4], [6, 8]])
print("A =", a.to_rows())

# Hermite form: echelon rows with positive pivots spanning the same
# lattice as the rows of A; each row of A is an integer combination of H's.
h = hermite_normal_form(a)
print("H =", h.to_rows())
print("rows of A in the span of H:", all(solve_in_lattice(h.transpose(), row) is not None for row in a.to_rows()))

# Smith form: S = U @ A @ V, diagonal with a divisibility chain.
s, us, vs = smith_normal_form(a)
print("S =", s.to_rows(), " (d1 = gcd of entries, d1*d2 = |det|)")
print("U @ A @ V == S:", us @ a @ vs == s)

# Integer linear solving: one solution plus a canonical kernel basis.
line = IntMatrix.from_rows([[1, 1]])
solved = solve_in_lattice(line, (0,))
print("x + y = 0 over Z:", solved)
print("3 in 2Z?", solve_in_lattice(IntMatrix.from_rows([[2]]), (3,)))

# Exact LP feasibility over integer inequality rows (a, b), each read as
# a.x >= b; an equality is two rows. The simplex solves Farkas'
# alternative, multipliers t >= 0 with sum(t_k * a_k) = 0 and
# sum(t_k * b_k) = 1. When there are none, the program is feasible, and
# the optimal duals of that tableau give an exact rational point.
program = LinearProgram.build(1, inequalities=[([1], 1), ([-1], -1), ([1], 0)])
result = lp_feasible(program)
assert isinstance(result, Feasible)
print("{x >= 1, -x >= -1, x >= 0}:", result)

# An infeasible program returns a Farkas certificate: nonnegative
# multipliers combining the constraints into 0 >= 1, the alternative's
# solution itself.
program = LinearProgram.build(1, inequalities=[([1], 1), ([-1], 0)])
result = lp_feasible(program)
assert isinstance(result, Infeasible)
print("{x >= 1, -x >= 0}: infeasible, multipliers", result.ineq_multipliers)

# The cone-section program behind the witness search: does the span of
# (1,-1) meet the nonnegative orthant away from the origin? Over the
# coefficient c of v = c * (1,-1): each coordinate of v >= 0, and the
# coordinate sum of v >= 1. Never.
program = LinearProgram.build(1, inequalities=[([1], 0), ([-1], 0), ([0], 1)])
print("span{(1,-1)} meets the open cone:", isinstance(lp_feasible(program), Feasible))
