"""The counting functional (1, ..., 1) decides a stage before any program.

* ``find_positive_coboundary`` skips a target whose coboundary
  generators all sum to 0, with no Hermite form and no program:
  (1, ..., 1) is strictly positive and vanishes on H_t (Stiemke's
  lemma). The LP says the same on seeded bases whose rows sum to 0.
* ``_canonical_functional`` answers (1, ..., 1) with no kernel, program
  or walk where every positive sums to at least 1 and every invariance
  difference sums to 0; it equals the walk-then-filter oracle of
  ``canonical_search`` on the kernel of the differences where that
  holds, where a positive sums to at most 0, and where a difference
  does not vanish on (1, ..., 1) (one kernel then).
* So a finite permutation system, where (1, ..., 1) is the invariant
  faithful state, is decided without a Hermite form, a kernel, an LP or
  a lattice walk.
"""

import random

import pytest

import canonical_search
from conftest import load_golden

from k0mf import certify, exactlinalg, kaction
from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import (
    SearchParams,
    WitnessSearch,
    _canonical_functional,
    _coefficient_program,
    _span_meets_cone,
    find_invariant_state,
    find_positive_coboundary,
)
from k0mf.cli import CONSISTENT, run_check
from k0mf.dimgroup import LimitElement, push
from k0mf.exactlinalg import Infeasible, IntMatrix, enumerate_lattice_points, integer_kernel, lp_feasible
from k0mf.kaction import Word

NONE_BUILT = {"lp": 0, "walk": 0, "kernel": 0}


@pytest.fixture
def counted(monkeypatch):
    """Count the programs, the lattice walks and the integer kernels
    ``certify`` asks for."""
    calls = {"lp": 0, "walk": 0, "kernel": 0}

    def program(p):
        calls["lp"] += 1
        return lp_feasible(p)

    def walk(*args, **kwargs):
        calls["walk"] += 1
        return enumerate_lattice_points(*args, **kwargs)

    def kernel(a):
        calls["kernel"] += 1
        return integer_kernel(a)

    monkeypatch.setattr(certify, "lp_feasible", program)
    monkeypatch.setattr(certify, "enumerate_lattice_points", walk)
    monkeypatch.setattr(certify, "integer_kernel", kernel)
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
    assert counted == NONE_BUILT


@pytest.mark.parametrize("pair", [pair for _, pair in PERMUTATION_CASES], ids=[name for name, _ in PERMUTATION_CASES])
def test_permutation_systems_reduce_no_coboundary_lattice(pair, monkeypatch):
    """Every generator of H_0 is e_i - e_pi(i), which sums to 0, so the
    witness search decides the one target of a permutation system
    without a Hermite form."""
    system, action = pair
    forms = []
    for module in (kaction, exactlinalg):
        real = module.hermite_normal_form
        monkeypatch.setattr(module, "hermite_normal_form", lambda a, real=real: forms.append(a) or real(a))
    assert find_positive_coboundary(system, action, SearchParams()) == WitnessSearch(None, ())
    assert forms == []


def test_a_sum_zero_basis_meets_the_cone_only_at_zero():
    """Stiemke's lemma, which the witness search reads off the generators
    of H_t: the LP finds no cone point in the span of rows that all sum
    to 0."""
    rng = random.Random(26)
    for _ in range(60):
        width = rng.randint(2, 8)
        rows = _sum_zero_rows(rng, rng.randint(1, width), width)
        program = _coefficient_program(rows, [(1,) * width], nonnegative=True)
        assert isinstance(lp_feasible(program), Infeasible)
        assert _span_meets_cone(rows) is False


def _differences_vanishing_on_ones(rng: random.Random, width: int) -> IntMatrix:
    """0-2 invariance differences that each sum to 0: their kernel holds
    (1, ..., 1)."""
    rows = _sum_zero_rows(rng, rng.randint(0, 2), width)
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, width)


def test_ones_is_the_canonical_functional_where_it_is_feasible(counted):
    rng = random.Random(27)
    checked = 0
    while checked < 40:
        width = rng.randint(1, 4)
        diffs = _differences_vanishing_on_ones(rng, width)
        positives = [tuple(rng.randint(-1, 3) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        if min(map(sum, positives)) < 1:
            continue
        want = canonical_search.canonical_functional(integer_kernel(diffs), positives, False)
        assert _canonical_functional(diffs, positives) == want == (1,) * width
        checked += 1
    assert counted == NONE_BUILT


def test_a_positive_summing_to_at_most_zero_leaves_it_to_the_program():
    rng = random.Random(28)
    outcomes = set()
    checked = 0
    while checked < 40:
        width = rng.randint(2, 4)
        diffs = _differences_vanishing_on_ones(rng, width)
        positives = [tuple(rng.randint(-2, 3) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        if min(map(sum, positives)) > 0:
            continue
        want = canonical_search.canonical_functional(integer_kernel(diffs), positives, False)
        assert _canonical_functional(diffs, positives) == want
        outcomes.add(want is None)
        checked += 1
    assert outcomes == {False, True}


def test_ones_outside_the_lattice_leaves_it_to_the_program(counted):
    """A difference that does not sum to 0: one kernel per call, and the
    oracle's functional, never (1, ..., 1)."""
    rng = random.Random(29)
    cases = [[(2, -1)], [(1, 1, -1)], [(1, 0), (0, 2)], [(1, 0)]]
    while len(cases) < 30:
        width = rng.randint(2, 4)
        row = tuple(rng.randint(-2, 2) for _ in range(width))
        if sum(row):
            cases.append([row])
    for rows in cases:
        diffs = IntMatrix.from_rows(rows)
        kernel = integer_kernel(diffs)
        positives = [tuple(rng.randint(0, 2) for _ in range(diffs.cols)) for _ in range(rng.randint(1, 3))]
        positives = [p for p in positives if any(p)] or [(1,) * diffs.cols]
        want = canonical_search.canonical_functional(kernel, positives, False) if kernel else None
        assert _canonical_functional(diffs, positives) == want
        assert want != (1,) * diffs.cols
    assert counted["kernel"] == len(cases)


def test_a_request_whose_differences_do_not_vanish_on_ones_builds_one_kernel(counted):
    """The right ray of the compactified shift and the shift: its
    difference at stage 2 is the singleton {1}, which sums to 1. The one
    stage solved builds one kernel and answers the oracle's functional."""
    system, action = load_golden("compactified_shift.json").resolve()
    ray = LimitElement(1, (1, 0, 0))
    cert = find_invariant_state(system, action, [ray], [Word.of(1)], 4)
    diffs = IntMatrix.from_rows([[0, 1, 0, 0, 0]])
    positives = [tuple(system.unit_at(cert.stage)), push(system, ray, cert.stage).vector]
    assert cert.stage == 2
    assert cert.functional == canonical_search.canonical_functional(integer_kernel(diffs), positives, False)
    assert counted["kernel"] == 1
