"""The counting functional (1, ..., 1) decides a stage before any program.

* ``_span_meets_cone`` answers False with no program where every basis
  row sums to 0: (1, ..., 1) is strictly positive and vanishes on the
  span (Stiemke's lemma). The LP says the same on seeded such bases.
* ``_canonical_functional`` answers (1, ..., 1) with no program or walk
  where there is a positive, every positive sums to at least 1, and
  (1, ..., 1) lies in the kernel lattice; it equals the walk-then-filter
  oracle of ``canonical_search`` where that holds, where a positive sums
  to at most 0, where (1, ..., 1) is not in the lattice, and where there
  are no positives.
* So a finite permutation system, where (1, ..., 1) is the invariant
  faithful state, is decided without an LP or a lattice walk.
"""

import random

import pytest

import canonical_search
from conftest import load_golden

from k0mf import certify
from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import SearchParams, _canonical_functional, _coefficient_program, _span_meets_cone
from k0mf.cli import CONSISTENT, run_check
from k0mf.exactlinalg import Infeasible, IntMatrix, enumerate_lattice_points, integer_kernel, lp_feasible


@pytest.fixture
def counted(monkeypatch):
    """Count the programs and the lattice walks ``certify`` asks for."""
    calls = {"lp": 0, "walk": 0}

    def program(p):
        calls["lp"] += 1
        return lp_feasible(p)

    def walk(*args, **kwargs):
        calls["walk"] += 1
        return enumerate_lattice_points(*args, **kwargs)

    monkeypatch.setattr(certify, "lp_feasible", program)
    monkeypatch.setattr(certify, "enumerate_lattice_points", walk)
    return calls


def _sum_zero_rows(rng: random.Random, count: int, width: int) -> list[tuple[int, ...]]:
    """``count`` rows of ``width`` entries in [-3, 3], each summing to 0."""
    rows = []
    for _ in range(count):
        head = [rng.randint(-3, 3) for _ in range(width - 1)]
        rows.append(tuple(head + [-sum(head)]))
    return rows


def _blocked_perms(rng: random.Random, points: int, orbits: int, generators: int) -> tuple[tuple[int, ...], ...]:
    """Permutations of 1..points with exactly ``orbits`` orbits: the shuffled
    points cut into blocks, generator 1 one cycle per block, the others
    shuffling each block."""
    order = list(range(1, points + 1))
    rng.shuffle(order)
    cuts = [0] + sorted(rng.sample(range(1, points), orbits - 1)) + [points]
    blocks = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    perms = []
    for g in range(generators):
        perm = [0] * points
        for block in blocks:
            image = block[1:] + block[:1] if g == 0 else rng.sample(block, len(block))
            for src, dst in zip(block, image):
                perm[src - 1] = dst
        perms.append(tuple(perm))
    return tuple(perms)


def _seeded_permutation_systems(count: int):
    """(name, (system, action)) for ``count`` systems of 8-40 points,
    1-3 generators and 1-3 orbits."""
    rng = random.Random(20261020)
    for _ in range(count):
        points, generators, orbits = rng.randint(8, 40), rng.randint(1, 3), rng.randint(1, 3)
        perms = _blocked_perms(rng, points, orbits, generators)
        yield f"points{points}-generators{generators}-orbits{orbits}", finite_system_to_k0(FiniteSystem(points, perms))


PERMUTATION_CASES = [
    (name, load_golden(name).resolve()) for name in ("cycle3.json", "two_transpositions.json")
] + list(_seeded_permutation_systems(12))


@pytest.mark.parametrize("pair", [pair for _, pair in PERMUTATION_CASES], ids=[name for name, _ in PERMUTATION_CASES])
def test_permutation_systems_decide_without_a_program_or_a_walk(pair, counted):
    system, action = pair
    verdict = run_check(system, action, SearchParams())
    assert verdict.kind == CONSISTENT
    for cert in verdict.certificates:
        assert cert.functional == (1,) * system.rank_at(cert.stage)
    assert counted == {"lp": 0, "walk": 0}


def test_a_sum_zero_basis_meets_the_cone_only_at_zero(counted):
    rng = random.Random(26)
    for _ in range(60):
        width = rng.randint(2, 8)
        rows = _sum_zero_rows(rng, rng.randint(1, width), width)
        program = _coefficient_program(rows, [(1,) * width], nonnegative=True)
        assert isinstance(lp_feasible(program), Infeasible)
        assert _span_meets_cone(rows) is False
    assert _span_meets_cone([]) is False
    assert counted == {"lp": 0, "walk": 0}


def _kernel_holding_ones(rng: random.Random, width: int) -> list[tuple[int, ...]]:
    """The integer kernel of 0-2 rows that each sum to 0: it holds (1, ..., 1)."""
    rows = _sum_zero_rows(rng, rng.randint(0, 2), width)
    if not rows:
        return [tuple(int(i == j) for j in range(width)) for i in range(width)]
    return integer_kernel(IntMatrix.from_rows(rows))


def test_ones_is_the_canonical_functional_where_it_is_feasible(counted):
    rng = random.Random(27)
    checked = 0
    while checked < 40:
        width = rng.randint(1, 4)
        kernel = _kernel_holding_ones(rng, width)
        positives = [tuple(rng.randint(-1, 3) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        if not kernel or min(map(sum, positives)) < 1:
            continue
        want = canonical_search.canonical_functional(kernel, positives, False)
        assert _canonical_functional(kernel, positives) == want == (1,) * width
        checked += 1
    assert counted == {"lp": 0, "walk": 0}


def test_a_positive_summing_to_at_most_zero_leaves_it_to_the_program():
    rng = random.Random(28)
    outcomes = set()
    checked = 0
    while checked < 40:
        width = rng.randint(2, 4)
        kernel = _kernel_holding_ones(rng, width)
        positives = [tuple(rng.randint(-2, 3) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        if not kernel or min(map(sum, positives)) > 0:
            continue
        want = canonical_search.canonical_functional(kernel, positives, False)
        assert _canonical_functional(kernel, positives) == want
        outcomes.add(want is None)
        checked += 1
    assert outcomes == {False, True}


def test_ones_outside_the_lattice_leaves_it_to_the_program():
    rng = random.Random(29)
    kernels = [[(1, 2)], [(1, 0, 1), (0, 2, 0)], [(2, 0), (0, 1)]]
    while len(kernels) < 30:
        width = rng.randint(2, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(width))]
        kernel = integer_kernel(IntMatrix.from_rows(rows))
        if kernel and sum(rows[0]):
            kernels.append(kernel)
    for kernel in kernels:
        width = len(kernel[0])
        positives = [tuple(rng.randint(0, 2) for _ in range(width)) for _ in range(rng.randint(1, 3))]
        positives = [p for p in positives if any(p)] or [(1,) * width]
        want = canonical_search.canonical_functional(kernel, positives, False)
        assert _canonical_functional(kernel, positives) == want
        assert want != (1,) * width


def test_no_positives_give_the_zero_functional():
    rng = random.Random(30)
    for _ in range(20):
        width = rng.randint(1, 4)
        kernel = _kernel_holding_ones(rng, width)
        if kernel:
            want = canonical_search.canonical_functional(kernel, [], False)
            assert _canonical_functional(kernel, []) == want == (0,) * width
