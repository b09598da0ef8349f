"""The row-sparse Hermite reduction against the dense oracle of
``dense_hermite``.

``hermite_normal_form`` reduces a matrix's sparse rows by leading
column. On seeded matrices of every kind (signed entries with non-unit
pivots, duplicate and negated rows, zero rows and columns, rank-deficient
products, empty shapes, entries past 2**64) it must return the matrix the
dense reduction returns, keep the sparse-row invariant, and compare and
hash like the dense-built result; ``rank``, ``row_basis`` and
``integer_kernel`` must agree with their dense-form versions. The
coboundary lattice, the integer kernel and the invariant-state search of
a 20-point permutation system must read no dense value on the way.
"""

import random

import pytest

from conftest import stage_generators
from dense_hermite import dense_hermite_normal_form, dense_integer_kernel, dense_rank, dense_row_basis, row_basis
from test_sparse_products import assert_sparse_rows, record_dense_access
from word_grid import reduced_words

from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import find_invariant_state
from k0mf.cli import default_requests
from k0mf.exactlinalg import IntMatrix, hermite_normal_form, integer_kernel, rank
from k0mf.kaction import coboundary_block, coboundary_stage_lattice, word_map


def _signed(rng: random.Random, m: int, n: int, low: int = -9, high: int = 9) -> list[list[int]]:
    """Rows with about a third zeros, each scaled by 1, 2, 3 or -6 so
    that leading entries share factors and the gcd steps run."""
    rows = []
    for _ in range(m):
        scale = rng.choice((1, 2, 3, -6))
        rows.append([scale * rng.randint(low, high) if rng.random() < 0.65 else 0 for _ in range(n)])
    return rows


def _huge(rng: random.Random, m: int, n: int) -> list[list[int]]:
    return [[rng.choice((0, 1, -1)) * rng.randint(2**64, 2**80) for _ in range(n)] for _ in range(m)]


def _differences(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Rows e_i - e_p(i) for random permutations p, as coboundary
    generators are: many duplicate, negated and zero rows."""
    rows = []
    while len(rows) < m:
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            row = [0] * n
            row[i] += 1
            row[perm[i]] -= 1
            rows.append(row)
    return rows[:m]


def _with_repeats(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """The rows plus copies, negated copies and zero rows, shuffled."""
    n = len(rows[0]) if rows else 0
    out = list(rows)
    for row in rng.sample(rows, min(len(rows), 3)):
        out.append(list(row))
        out.append([-x for x in row])
    out.extend([[0] * n] * rng.randint(0, 2))
    rng.shuffle(out)
    return out


def _with_zero_columns(rng: random.Random, rows: list[list[int]], count: int) -> list[list[int]]:
    n = len(rows[0]) if rows else 0
    places = sorted(rng.randint(0, n) for _ in range(count))
    out = []
    for row in rows:
        new = list(row)
        for k, place in enumerate(places):
            new.insert(place + k, 0)
        out.append(new)
    return out


def _matrices(seed: int):
    """Seeded matrices of every kind, each once from dense entries and
    once from sparse rows (a double transpose)."""
    rng = random.Random(seed)
    mats = [IntMatrix.zeros(0, k) for k in range(4)] + [IntMatrix.zeros(k, 0) for k in range(4)]
    mats += [IntMatrix.zeros(3, 4), IntMatrix.identity(5)]
    mats.append(IntMatrix.from_rows([[4, 1], [2, 0]]))  # the extended gcd gives x == 0
    mats.append(IntMatrix.from_rows([[6, 4, 1], [-4, 6, 0], [10, 0, 3]]))
    for _ in range(30):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mats.append(IntMatrix.from_rows(_signed(rng, m, n)))
        mats.append(IntMatrix.from_rows(_with_repeats(rng, _signed(rng, m, n))))
        mats.append(IntMatrix.from_rows(_with_zero_columns(rng, _signed(rng, m, n), rng.randint(1, 3))))
        mats.append(IntMatrix.from_rows(_with_repeats(rng, _differences(rng, rng.randint(1, 12), n))))
        r = rng.randint(1, min(m, n))
        mix, base = IntMatrix.from_rows(_signed(rng, m + 2, r, -3, 3)), IntMatrix.from_rows(_signed(rng, r, n))
        mats.append(mix @ base)  # rank at most r < m + 2
    for _ in range(8):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mats.append(IntMatrix.from_rows(_huge(rng, m, n)))
        mats.append(IntMatrix.from_rows(_with_repeats(rng, _huge(rng, m, n))))
    for a in list(mats):
        mats.append(a.transpose().transpose())
    return mats


@pytest.mark.parametrize("seed", range(4))
def test_hermite_form_matches_dense_oracle(seed):
    gcd_steps = 0
    for a in _matrices(seed):
        h, oracle = hermite_normal_form(a), dense_hermite_normal_form(a)
        assert (h.rows, h.cols) == (a.rows, a.cols)
        assert_sparse_rows(h)
        assert h == oracle and hash(h) == hash(oracle)
        assert h.entries == oracle.entries
        ranked = [bool(row) for row in h.nonzeros]
        assert ranked == sorted(ranked, reverse=True)  # the rank rows, then empty rows
        leads = [row[0] for row in a.nonzeros if row]
        gcd_steps += any(x % y and y % x for (c, x) in leads for (d, y) in leads if c == d)
    assert gcd_steps >= 20


@pytest.mark.parametrize("seed", range(4))
def test_rank_kernel_and_basis_match_dense_oracles(seed):
    rng = random.Random(100 + seed)
    for a in _matrices(seed):
        assert rank(a) == dense_rank(a)
        assert integer_kernel(a) == dense_integer_kernel(a)
        vectors = list(map(tuple, a.to_rows()))
        assert row_basis(vectors, a.cols) == dense_row_basis(vectors, a.cols)
        assert row_basis(iter(vectors), a.cols) == dense_row_basis(vectors, a.cols)
    assert row_basis([], 3) == dense_row_basis([], 3) == []
    for basis in (row_basis, dense_row_basis):
        with pytest.raises(ValueError, match="vector width mismatch"):
            basis([(1, 2), (rng.randint(1, 9),)], 2)


def _twenty_points():
    """Three random permutations of 20 points."""
    rng = random.Random(20)
    perms = []
    for _ in range(3):
        p = list(range(1, 21))
        rng.shuffle(p)
        perms.append(tuple(p))
    return finite_system_to_k0(FiniteSystem(20, tuple(perms)))


def test_coboundary_lattice_and_kernel_derive_no_dense_view(monkeypatch):
    """Three permutations of 20 points: the lattice H_0's generators are
    block rows, its Hermite basis and the kernel of its transpose (the
    functionals that vanish on it) stay on sparse rows, and no matrix is
    built from dense entries. Its one-letter generators span what the
    words of length <= 2 span."""
    system, action = _twenty_points()
    dense = record_dense_access(monkeypatch)
    lattice = coboundary_stage_lattice(stage_generators(action, system, 0))
    kernel = integer_kernel(lattice.transpose())
    assert dense == []
    monkeypatch.undo()
    gens = [
        tuple(col)
        for w in reduced_words(3, 2)
        for col in coboundary_block(system, word_map(action, system, w, 0), 0).transpose().to_rows()
    ]
    assert len(gens) == 36 * 20
    assert list(map(tuple, lattice.transpose().to_rows())) == dense_row_basis(gens, 20)
    assert kernel == dense_integer_kernel(lattice.transpose()) and kernel


def test_state_search_derives_no_dense_view(monkeypatch):
    """The default request on three permutations of 20 points: the
    invariance differences stay one sparse matrix from the block products
    to the kernel, through the certificate's re-check."""
    system, action = _twenty_points()
    ((elements, words),) = default_requests(system, action)
    dense = record_dense_access(monkeypatch)
    cert = find_invariant_state(system, action, elements, words, 4)
    assert dense == []
    assert cert is not None and cert.stage == 0
