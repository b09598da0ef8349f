"""The integer-tableau ``lp_feasible`` against Fraction tableaux.

The program is integer inequality rows, so the integer tableau of
Farkas' alternative and its Fraction copy are the same up to one common
denominator, Bland's rule makes the same pivots, and the results must be
identical: the same ``Feasible.point`` or the same ``Infeasible``
multipliers. The two primal Fraction tableaux (slack-started, and one
artificial per row) solve another problem from another basis, so only
their verdicts must agree. ``certify`` builds its cone and state
programs with one helper, ``_coefficient_program``.
"""

import random
from fractions import Fraction

import pytest

from fraction_simplex import (
    all_artificial_lp_feasible,
    fraction_lp_feasible,
    slack_started_lp_feasible,
    unit_starts,
)
from test_exactlinalg import random_program
from test_lattice_pipeline import CASES, stage_bases

from k0mf import certify, exactlinalg
from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import SearchParams, _coefficient_program, _span_meets_cone
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


def bounded_program(rng: random.Random) -> LinearProgram:
    """``random_program`` with x_j >= 0 for some j: each such row's column
    (e_j, 0) is a unit vector of the alternative's tableau, so its row
    starts from that column instead of an artificial."""
    p = random_program(rng)
    signs = [([int(i == j) for i in range(p.num_vars)], 0) for j in range(p.num_vars) if rng.random() < 0.6]
    rows = list(p.inequalities)
    for row in signs:
        rows.insert(rng.randint(0, len(rows)), row)
    return LinearProgram.build(p.num_vars, inequalities=rows)


EDGE_PROGRAMS = [
    LinearProgram.build(0),  # no rows, no unknowns
    LinearProgram.build(3),  # no rows
    LinearProgram.build(0, inequalities=[((), 0), ((), -2)]),  # no unknowns, 0 >= 0 and 0 >= -2
    LinearProgram.build(0, inequalities=[((), -1), ((), 2)]),  # no unknowns, 0 >= 2
    LinearProgram.build(2, inequalities=[([0, 0], 1)]),  # 0.x >= 1, a unit column of the b row
    LinearProgram.build(2, inequalities=[([1, 0], 0), ([0, 0], 1), ([0, 1], 0)]),  # every row starts from a unit column
    LinearProgram.build(2, inequalities=[([1, 0], 0), ([1, 0], 0), ([0, 0], 3)]),  # a repeated unit column
]


def test_integer_programs_match_fraction_tableau():
    rng = random.Random(20261018)
    programs = [cone_program(rng) for _ in range(25)]
    programs += [state_program(rng) for _ in range(60)]
    programs += [random_program(rng) for _ in range(100)]
    programs += [bounded_program(rng) for _ in range(60)]
    programs += EDGE_PROGRAMS
    verdicts = {Feasible: 0, Infeasible: 0}
    unit_started = {Feasible: 0, Infeasible: 0}  # programs with a row started from a unit column
    for p in programs:
        got = lp_feasible(p)
        assert got == fraction_lp_feasible(p)
        assert type(got) is type(slack_started_lp_feasible(p)) is type(all_artificial_lp_feasible(p))
        verdicts[type(got)] += 1
        if any(k is not None for k in unit_starts(p)):
            unit_started[type(got)] += 1
    assert min(verdicts.values()) >= 30, verdicts
    assert min(unit_started.values()) >= 30, unit_started


def test_edge_programs():
    """The verdicts and answers of the edge shapes, by hand: with no rows
    every artificial keeps reduced cost 0, so y = 1 and x = -1."""
    expected = [
        Feasible(()),
        Feasible((-1, -1, -1)),
        Feasible(()),
        Infeasible((0, Fraction(1, 2))),
        Infeasible((1,)),
        Infeasible((0, 1, 0)),
        Infeasible((0, 0, Fraction(1, 3))),
    ]
    assert [lp_feasible(p) for p in EDGE_PROGRAMS] == expected


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
    each coordinate >= 0, then the coordinate sum >= 1. Each nonempty
    stage basis is asked, rows that all sum to 0 included (the search
    skips those before it reduces, but the program still answers), and
    again with e_0 added."""
    system, action = make()
    seen = []
    monkeypatch.setattr(certify, "lp_feasible", lambda p: seen.append(p) or lp_feasible(p))
    bases = [basis for _, basis in stage_bases(system, action, SearchParams().stage_max) if basis]
    bases += [basis + [(1,) + (0,) * (len(basis[0]) - 1)] for basis in bases]
    for basis in bases:
        _span_meets_cone(basis)
        width = len(basis[0])
        rows = [([row[i] for row in basis], 0) for i in range(width)]
        rows.append(([sum(row) for row in basis], 1))
        expected = LinearProgram.build(len(basis), inequalities=rows)
        assert seen.pop() == expected == _coefficient_program(basis, [(1,) * width], nonnegative=True)


def degenerate_cone_program(k: int, p: int) -> LinearProgram:
    """k rows of p entries from ``random.Random(3)``, each in [-2, 2]: the
    cone program over them, each coordinate >= 0 and the sum >= 1. Its p
    coordinate rows have b = 0 and are met at the origin."""
    rng = random.Random(3)
    rows = [[rng.randint(-2, 2) for _ in range(p)] for _ in range(k)]
    return _coefficient_program(rows, [(1,) * p], nonnegative=True)


@pytest.mark.parametrize("k,p,bound", [(10, 40, 40), (15, 50, 80), (20, 60, 160), (30, 90, 1000)])
def test_degenerate_cone_programs_pivot_on_the_alternative(k, p, bound, monkeypatch):
    """Phase one runs on Farkas' alternative: k + 1 rows over the p + 1
    inequalities, where each coordinate row of the cone program is one
    column. The primal tableau (x = x+ - x-, a surplus per row, each
    row with b = 0 started from its surplus) made 53, 155, 578 and 4263
    pivots here; the alternative makes 35, 70, 144 and 720."""
    pivots = []
    pivot = exactlinalg._pivot
    monkeypatch.setattr(exactlinalg, "_pivot", lambda *args: pivots.append(args[-1]) or pivot(*args))
    program = degenerate_cone_program(k, p)
    res = lp_feasible(program)
    assert isinstance(res, Infeasible) and verify_farkas(program, res)
    assert len(pivots) <= bound, len(pivots)


def perm_sweep_systems(count: int):
    """1-3 random permutations of 8-20 points, the sizes of the benchmark's
    permutation sweep."""
    rng = random.Random(20261020)
    out = []
    for _ in range(count):
        n = rng.randint(8, 20)
        perms = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        out.append(finite_system_to_k0(FiniteSystem(n, tuple(perms))))
    return out


def weighted_spans(count: int):
    """Rows of 8-20 coordinates in the hyperplane w.v = 0 of a random
    weight w > 0, each a sum of 1-3 multiples of w_j * e_i - w_i * e_j:
    spans that miss the cone, and whose sum row is not zero."""
    rng = random.Random(20261020)
    for _ in range(count):
        p = rng.randint(8, 20)
        w = [rng.randint(1, 4) for _ in range(p)]
        rows = []
        for _ in range(rng.randint(2, p - 1)):
            row = [0] * p
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(p), 2)
                c = rng.randint(-2, 2)
                row[i] += c * w[j]
                row[j] -= c * w[i]
            rows.append(row)
        yield rows


def test_cone_multipliers_are_a_strictly_positive_functional_on_the_span():
    """The cone program's Farkas multipliers make the Stiemke
    certificate: with t_sum the sum row's multiplier, f = t + t_sum * 1
    vanishes on every basis row and f >= t_sum * 1 > 0. A permutation
    system's H_t misses the cone with a zero sum row (f = 1); a weighted
    span needs coordinate multipliers too."""
    spans = [
        basis
        for system, action in perm_sweep_systems(12)
        for _, basis in stage_bases(system, action, SearchParams().stage_max)
        if basis
    ]
    spans += weighted_spans(20)
    weighted = 0
    for basis in spans:
        res = lp_feasible(_coefficient_program(basis, [(1,) * len(basis[0])], nonnegative=True))
        assert isinstance(res, Infeasible)
        *t, t_sum = res.ineq_multipliers
        f = [x + t_sum for x in t]
        assert all(_dot(f, row) == 0 for row in basis)
        assert t_sum > 0 and min(f) >= t_sum
        weighted += any(t)
    assert len(spans) >= 32 and weighted >= 10
