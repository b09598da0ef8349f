"""The integer-tableau ``lp_feasible`` against the Fraction tableau it replaced.

The program is integer inequality rows, so the two tableaux are the
same up to one common denominator, Bland's rule makes the same pivots,
and the results must be identical: the same ``Feasible.point`` or the
same ``Infeasible`` multipliers. ``certify`` builds its cone and state
programs with one helper, ``_coefficient_program``.
"""

import random

import pytest

from fraction_simplex import fraction_lp_feasible
from test_exactlinalg import random_program
from test_lattice_pipeline import CASES, stage_bases

from k0mf import certify
from k0mf.certify import SearchParams, _coefficient_program, _span_meets_cone
from k0mf.exactlinalg import Feasible, Infeasible, LinearProgram, lp_feasible


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


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_cone_program_is_the_shared_helper(name, make, monkeypatch):
    """``_span_meets_cone`` asks the LP for the rows it always built:
    each coordinate >= 0, then the coordinate sum >= 1."""
    system, action = make()
    seen = []
    monkeypatch.setattr(certify, "lp_feasible", lambda p: seen.append(p) or lp_feasible(p))
    for _, basis in stage_bases(system, action, SearchParams().stage_max):
        _span_meets_cone(basis)
        if not basis:
            assert not seen  # an empty basis spans only zero; no program is built
            continue
        width = len(basis[0])
        rows = [([row[i] for row in basis], 0) for i in range(width)]
        rows.append(([sum(row) for row in basis], 1))
        expected = LinearProgram.build(len(basis), inequalities=rows)
        assert seen.pop() == expected == _coefficient_program(basis, [(1,) * width], nonnegative=True)
