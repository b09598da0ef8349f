"""``integer_kernel`` (one Hermite reduction of [a^t | I]) against the
Smith-form route kept in ``smith_kernel``, and ``solve_in_lattice``'s
kernel and particular solution.
"""

import random

from conftest import GOLDEN_NAMES, load_golden
from smith_kernel import smith_kernel

from k0mf import certify
from k0mf.certify import SearchParams, exclusion_holds, find_invariant_state, find_positive_coboundary
from k0mf.dimgroup import LimitElement
from k0mf.exactlinalg import IntMatrix, integer_kernel, solve_in_lattice
from k0mf.kaction import Word


def check_kernel(a: IntMatrix, rng: random.Random) -> None:
    expected = smith_kernel(a)
    assert integer_kernel(a) == expected
    x = [rng.randint(-3, 3) for _ in range(a.cols)]
    b = a.apply(x)
    solved = solve_in_lattice(a, b)
    assert solved is not None
    x0, kernel = solved
    assert kernel == expected
    assert a.apply(x0) == b


def random_matrix(rng: random.Random, m: int, n: int) -> IntMatrix:
    return IntMatrix(m, n, tuple(rng.randint(-4, 4) for _ in range(m * n)))


def test_kernel_matches_smith_route_on_seeded_matrices():
    rng = random.Random(31415)
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        check_kernel(random_matrix(rng, m, n), rng)
    for k in range(6):
        check_kernel(IntMatrix.zeros(0, k), rng)  # the kernel is all of Z^k
        check_kernel(IntMatrix.zeros(k, 0), rng)  # there is nothing to solve for
        check_kernel(IntMatrix.zeros(k, k + 1), rng)
    for _ in range(200):
        # rank-deficient: the rows are integer combinations of fewer rows
        m, n, r = rng.randint(2, 6), rng.randint(1, 6), rng.randint(1, 2)
        base = random_matrix(rng, r, n)
        mix = random_matrix(rng, m, r)
        check_kernel(mix @ base, rng)


def test_kernel_matches_smith_route_on_bundled_state_requests(monkeypatch):
    """The difference matrices of state requests on the bundled documents
    whose differences do not all vanish on (1, ..., 1), at every stage
    their searches build a kernel for: the exclusion sets of each
    VIOLATION document's witness, and the basis vectors of each of its
    first three stages under the generator, its inverse and both. Where
    (1, ..., 1) is invariant, as on every default request, no kernel is
    built."""
    seen: list[IntMatrix] = []
    kernel = certify.integer_kernel
    monkeypatch.setattr(certify, "integer_kernel", lambda a: seen.append(a) or kernel(a))
    params = SearchParams()
    for name in GOLDEN_NAMES:
        system, action = load_golden(name).resolve()
        witness = find_positive_coboundary(system, action, params).witness
        if witness is None:
            continue
        assert exclusion_holds(system, action, witness, params.stage_max)
        for stage in range(3):
            p = system.rank_at(stage)
            basis = [LimitElement(stage, tuple(int(j == i) for j in range(p))) for i in range(p)]
            for words in ([Word.of(1)], [Word.of(-1)], [Word.of(1), Word.of(-1)]):
                find_invariant_state(system, action, basis, words, params.stage_max)
    assert len(seen) >= 7
    assert all(any(a.apply((1,) * a.cols)) for a in seen)
    rng = random.Random(2718)
    for a in seen:
        check_kernel(a, rng)
