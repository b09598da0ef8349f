"""The integer-tableau ``lp_feasible`` against the Fraction tableau it replaced.

On integer programs the two tableaux are the same up to one common
denominator, so Bland's rule makes the same pivots and the results must
be identical: the same ``Feasible.point`` or the same ``Infeasible``
multipliers. On programs with non-integral coefficients the integer
solver first scales each row by the lcm of its denominators, which can
change the entering column; there only the verdict (against the vertex
oracle) and the exactness of the certificate are required.
"""

import random
from fractions import Fraction

from fraction_simplex import fraction_lp_feasible
from test_exactlinalg import brute_force_feasible, random_program

from k0mf.exactlinalg import Feasible, Infeasible, LinearProgram, lp_feasible, verify_farkas


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def cone_program(rng: random.Random) -> LinearProgram:
    """Shaped like ``certify._span_meets_cone``: 1-3 free coefficients of
    basis rows, each coordinate of the combination >= 0, its sum >= 1."""
    k = rng.randint(1, 3)
    width = rng.randint(k, 20)
    rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(k)]
    ineqs = [([row[i] for row in rows], 0) for i in range(width)]
    ineqs.append(([sum(row) for row in rows], 1))
    return LinearProgram.build(k, inequalities=ineqs)


def state_program(rng: random.Random) -> LinearProgram:
    """Shaped like ``certify._canonical_functional``: 1-3 free kernel
    coefficients, value >= 1 on up to 21 positive vectors, optionally
    every coordinate >= 0. A third of them get a vector that a positive
    combination of the others cancels, which makes them infeasible."""
    k = rng.randint(1, 3)
    width = rng.randint(2, 8)
    kernel = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(k)]
    n_pos = rng.randint(1, 21)
    positives = [[rng.randint(0, 3) for _ in range(width)] for _ in range(n_pos)]
    ineqs = []
    if rng.random() < 0.3:
        ineqs.extend(([row[i] for row in kernel], 0) for i in range(width))
    rows = [[_dot(row, pos) for row in kernel] for pos in positives]
    if rng.random() < 1 / 3:
        picks = rng.sample(rows, rng.randint(1, min(3, len(rows))))
        weights = [rng.randint(1, 3) for _ in picks]
        rows.insert(rng.randint(0, len(rows)), [-sum(w * r[j] for w, r in zip(weights, picks)) for j in range(k)])
    ineqs.extend((row, 1) for row in rows[:21])
    return LinearProgram.build(k, inequalities=ineqs)


def rational_program(rng: random.Random) -> LinearProgram:
    """Like ``random_program``, with coefficients over denominators 2-6."""

    def q() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(2, 6))

    n = rng.randint(1, 4)
    eqs = [([q() for _ in range(n)], q()) for _ in range(rng.randint(0, 2))]
    ins = [([q() for _ in range(n)], q()) for _ in range(rng.randint(1, 4))]
    return LinearProgram.build(n, equalities=eqs, inequalities=ins)


def test_integer_programs_match_fraction_tableau():
    rng = random.Random(20261018)
    programs = [cone_program(rng) for _ in range(25)]
    programs += [state_program(rng) for _ in range(60)]
    programs += [random_program(rng) for _ in range(100)]
    verdicts = {Feasible: 0, Infeasible: 0}
    for p in programs:
        got = lp_feasible(p)
        assert got == fraction_lp_feasible(p)
        verdicts[type(got)] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_state_shapes_cover_both_verdicts():
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        p = state_program(rng)
        assert any(b == 1 for _, b in p.inequalities)
        seen.add((type(lp_feasible(p)), any(b == 0 for _, b in p.inequalities)))
    assert seen == {(v, nonneg) for v in (Feasible, Infeasible) for nonneg in (False, True)}


def test_rational_programs_match_vertex_oracle():
    rng = random.Random(31337)
    verdicts = {Feasible: 0, Infeasible: 0}
    scaled = 0
    for _ in range(200):
        p = rational_program(rng)
        scaled += any(c.denominator > 1 for row, _ in p.equalities + p.inequalities for c in row)
        res = lp_feasible(p)
        assert isinstance(res, Feasible) == brute_force_feasible(p)
        if isinstance(res, Infeasible):
            assert verify_farkas(p, res)
        else:
            assert all(_dot(a, res.point) == b for a, b in p.equalities)
            assert all(_dot(a, res.point) >= b for a, b in p.inequalities)
        verdicts[type(res)] += 1
    assert min(verdicts.values()) >= 30, verdicts
    assert scaled >= 190


def test_rational_multipliers_are_scaled_back():
    # x/2 >= 1/3 and -x/3 >= 0 scale by 6 and 3 to 3x >= 2 and -x >= 0,
    # whose multipliers (1/3, 1) map back to (2, 3)
    p = LinearProgram.build(1, inequalities=[([Fraction(1, 2)], Fraction(1, 3)), ([Fraction(-1, 3)], 0)])
    res = lp_feasible(p)
    assert isinstance(res, Infeasible)
    assert verify_farkas(p, res)
    # the scaled program's multipliers (2, 3) times the row scales (1/3, 1/3)
    assert res.ineq_multipliers == (2, 3)
