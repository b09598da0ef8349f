"""Sparse rows as ``IntMatrix``'s working form, and the per-system
transfer cache.

Products, matrix-vector products, transposes, differences and side-by-side
stacks run over each row's nonzeros; on seeded matrices of every shape
and kind they must agree with the dense loops kept in
``dense_products``, down to the dense entries a product derives. One
matrix must compare and hash alike however it was built: from dense
entries, by ``from_rows``, as a product or as a difference.
Dense entries convert to sparse rows and back through every dense
reader. ``verify_action`` on a long compactified shift must read no
dense value, and must report what dense products report.
``InductiveSystem.transfer`` caches its composites per system; whatever
order the pairs are asked in, each must equal the product of the
connecting maps, and an out-of-range pair must raise ``StageRangeError``
whether the cache is cold or warm.
"""

import random

import pytest

from dense_products import dense_apply, dense_matmul, dense_sub, dense_transpose
from test_lattice_pipeline import CASES, compactified_shift
from word_grid import reduced_words

from k0mf.dimgroup import StageRangeError
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import coboundary_block, verify_action, word_map

TOP = 8  # deepest stage the transfer tests ask for


def _random(rng: random.Random, rows: int, cols: int, kind: str) -> IntMatrix:
    if kind == "permutation":  # square: one 1 per row and column
        perm = list(range(cols))
        rng.shuffle(perm)
        return IntMatrix(rows, cols, tuple(int(perm[i] == j) for i in range(rows) for j in range(cols)))
    if kind == "inclusion":  # 0/1, each column sent to one or two rows
        entries = [0] * (rows * cols)
        for j in range(cols):
            for i in rng.sample(range(rows), min(rows, rng.randint(1, 2))):
                entries[i * cols + j] = 1
        return IntMatrix(rows, cols, tuple(entries))
    if kind == "dense":
        return IntMatrix(rows, cols, tuple(rng.randint(-9, 9) for _ in range(rows * cols)))
    assert kind == "huge"  # entries past 2**64, either sign, some zeros
    return IntMatrix(
        rows, cols, tuple(rng.choice((0, 1, -1)) * rng.randint(2**64, 2**80) for _ in range(rows * cols))
    )


def _pairs(seed: int):
    """Seeded (a, b) with a.cols == b.rows, covering empty and 1x1 shapes,
    permutation and inclusion maps, negative and huge entries."""
    rng = random.Random(seed)
    for m, n, q in ((0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (0, 0, 4), (4, 0, 0), (1, 1, 1)):
        yield _random(rng, m, n, "dense"), _random(rng, n, q, "dense")
    for _ in range(40):
        n = rng.randint(1, 7)
        kinds = ("permutation", "inclusion", "dense", "huge")
        a_kind, b_kind = rng.choice(kinds), rng.choice(kinds)
        m = n if a_kind == "permutation" else rng.randint(1, 7)
        q = n if b_kind == "permutation" else rng.randint(1, 7)
        yield _random(rng, m, n, a_kind), _random(rng, n, q, b_kind)


DENSE_READERS = ("at", "to_rows")


def record_dense_access(monkeypatch) -> list:
    """Record every dense read (``entries``, ``at``, ``to_rows``) and every
    matrix built from dense entries (``__init__``, which ``from_rows``
    also goes through) while the patch is in place."""
    dense = []

    def wrap(name, reader):
        return lambda m, *args: dense.append((name, m.rows, m.cols)) or reader(m, *args)

    for name in DENSE_READERS:
        monkeypatch.setattr(IntMatrix, name, wrap(name, getattr(IntMatrix, name)))
    monkeypatch.setattr(IntMatrix, "entries", property(wrap("entries", IntMatrix.entries.fget)))
    init = IntMatrix.__init__
    monkeypatch.setattr(IntMatrix, "__init__", lambda m, *args: dense.append(("built", *args[:2])) or init(m, *args))
    return dense


def assert_sparse_rows(m: IntMatrix) -> None:
    """The invariant of the working form: one row per matrix row, columns
    strictly increasing inside the matrix, no zero value."""
    assert len(m.nonzeros) == m.rows
    for row in m.nonzeros:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < m.cols for j in cols)
        assert all(type(x) is int and x for _, x in row)


@pytest.mark.parametrize("seed", range(5))
def test_products_match_dense_oracle(seed):
    rng = random.Random(1000 + seed)
    for a, b in _pairs(seed):
        product, oracle = a @ b, dense_matmul(a, b)
        assert product == oracle
        assert_sparse_rows(product)
        assert product.entries == oracle.entries  # derived from the sparse rows
        vec = [rng.randint(-(2**70), 2**70) for _ in range(a.cols)]
        assert a.apply(vec) == dense_apply(a, vec)
        assert a.apply(tuple(vec)) == dense_apply(a, tuple(vec))


def test_shape_errors_unchanged():
    rng = random.Random(7)
    for (m, n), (p, q) in (((2, 3), (2, 3)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((3, 3), (2, 3))):
        a, b = _random(rng, m, n, "dense"), _random(rng, p, q, "dense")
        for product in (lambda: a @ b, lambda: dense_matmul(a, b)):
            with pytest.raises(ValueError) as err:
                product()
            assert str(err.value) == "shape mismatch in matrix product"
        for vec in ([1] * (n + 1), [1] * (n - 1))[: 2 if n else 1]:
            for apply in (a.apply, lambda v: dense_apply(a, v)):
                with pytest.raises(ValueError) as err:
                    apply(vec)
                assert str(err.value) == "vector length mismatch"


@pytest.mark.parametrize("seed", range(5))
def test_transposes_differences_and_stacks_match_dense_oracle(seed):
    rng = random.Random(2000 + seed)
    for a, b in _pairs(seed):
        t = a.transpose()
        assert t == dense_transpose(a) and t.entries == dense_transpose(a).entries
        assert_sparse_rows(t)
        assert t.transpose() == a
        other = _random(rng, a.rows, a.cols, rng.choice(("inclusion", "dense", "huge")))
        for left, right in ((a, other), (other, a), (a, a), (a @ b, a @ b)):
            diff = left - right
            assert diff == dense_sub(left, right) and diff.entries == dense_sub(left, right).entries
            assert_sparse_rows(diff)
        stacked = IntMatrix.hstack([a, other, a])
        assert_sparse_rows(stacked)
        assert stacked.to_rows() == [x + y + x for x, y in zip(a.to_rows(), other.to_rows())]
        assert (stacked.rows, stacked.cols) == (a.rows, 3 * a.cols)
    for shape, other in (((2, 3), (3, 2)), ((0, 1), (0, 2)), ((1, 0), (2, 0))):
        a, b = IntMatrix.zeros(*shape), IntMatrix.zeros(*other)
        for difference in (lambda: a - b, lambda: dense_sub(a, b)):
            with pytest.raises(ValueError) as err:
                difference()
            assert str(err.value) == "shape mismatch in matrix difference"


def _builds(a: IntMatrix) -> list[IntMatrix]:
    """``a`` built every way there is: from dense entries, by
    ``from_rows`` (which needs a row to know the width), as products
    with identities, as a transpose's transpose, as a difference and as
    a one-block stack."""
    builds = [
        IntMatrix(a.rows, a.cols, a.entries),
        a @ IntMatrix.identity(a.cols),
        IntMatrix.identity(a.rows) @ a,
        a.transpose().transpose(),
        a - IntMatrix.zeros(a.rows, a.cols),
        IntMatrix.hstack([a]),
    ]
    if a.rows:
        builds.append(IntMatrix.from_rows(a.to_rows()))
    return builds


def test_equality_and_hash_ignore_how_a_matrix_was_built():
    """Whichever of its views a matrix holds, it equals and hashes like
    every other build of it; zero products, 0 x n and n x 0 shapes and
    entries past 2**64 included."""
    big = 2**64 + 7
    cancelling = [
        (IntMatrix.from_rows([[1, -1]]), IntMatrix.from_rows([[1], [1]])),
        (IntMatrix.from_rows([[big, big], [big, 0]]), IntMatrix.from_rows([[2**65, 0], [-(2**65), 0]])),
        (IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 2)),
        (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 4)),
        (IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.zeros(2, 0)),
    ]
    cases = [a for pair in _pairs(11) for a in pair] + [a @ b for a, b in _pairs(12)]
    cases += [a @ b for a, b in cancelling]
    cases += [IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 0), IntMatrix.zeros(2, 2)]
    for a in cases:
        builds = _builds(a)
        for twin in builds:
            assert twin == a and hash(twin) == hash(a)
            assert twin.entries == a.entries and twin.nonzeros == a.nonzeros
        assert len(set(builds)) == 1
    assert cancelling[0][0] @ cancelling[0][1] == IntMatrix(1, 1, (0,))
    assert cancelling[1][0] @ cancelling[1][1] == IntMatrix.from_rows([[0, 0], [big * 2**65, 0]])
    shapes = [IntMatrix.zeros(m, n) for m, n in ((0, 2), (0, 3), (2, 0), (3, 0), (2, 3), (3, 2))]
    assert len(set(shapes)) == len(shapes)
    identity = IntMatrix.identity(4)
    assert identity @ identity == IntMatrix.identity(4) == identity
    assert IntMatrix(4, 4, identity.entries).nonzeros == identity.nonzeros
    with pytest.raises(AttributeError):
        identity.rows = 5
    with pytest.raises(AttributeError):
        del identity.cols


def _sparse_reference(rows: int, cols: int, entries: tuple[int, ...]) -> tuple:
    """The sparse rows of dense row-major entries, by a plain double loop."""
    return tuple(
        tuple((j, entries[i * cols + j]) for j in range(cols) if entries[i * cols + j]) for i in range(rows)
    )


@pytest.mark.parametrize("seed", range(4))
def test_dense_and_sparse_forms_round_trip(seed):
    """Dense entries convert to the sparse rows a plain loop finds, and
    every dense reader gives the entries back, on seeded matrices with
    negative and huge entries, zero rows and zero columns, and 0 x n,
    n x 0 and 0 x 0 shapes; a matrix built from those sparse rows reads
    the same."""
    rng = random.Random(3000 + seed)
    shapes = [(0, 0), (0, rng.randint(1, 5)), (rng.randint(1, 5), 0)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for m, n in shapes:
        entries = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(2**70), 2**70))) for _ in range(m * n)]
        for i in rng.sample(range(m), m // 3):  # zero rows
            entries[i * n : (i + 1) * n] = [0] * n
        for j in rng.sample(range(n), n // 3):  # zero columns
            entries[j::n] = [0] * m
        entries = tuple(entries)
        a = IntMatrix(m, n, entries)
        b = IntMatrix._of_nonzeros(m, n, _sparse_reference(m, n, entries))
        assert a.nonzeros == b.nonzeros and a == b and hash(a) == hash(b)
        assert_sparse_rows(a)
        for mat in (a, b):
            assert mat.entries == entries
            assert mat.to_rows() == [list(entries[i * n : (i + 1) * n]) for i in range(m)]
            assert mat.transpose().to_rows() == [list(entries[j::n]) for j in range(n)]
            assert all(mat.at(i, j) == entries[i * n + j] for i in range(m) for j in range(n))
            assert repr(mat) == f"IntMatrix(rows={m}, cols={n}, entries={entries})"
        if m:
            assert IntMatrix.from_rows(a.to_rows()) == a
    for m, n, size in ((2, 3, 5), (0, 3, 1), (3, 0, 1)):
        with pytest.raises(ValueError, match="entries length must equal rows"):
            IntMatrix(m, n, (1,) * size)
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        IntMatrix(-1, 2, ())
    with pytest.raises(AttributeError):
        IntMatrix.identity(2).nonzeros = ()


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def case(request):
    return request.param[1]()


def test_coboundary_blocks_match_dense_oracle(case):
    """transfer(k, target) - transfer(m, target) @ W, each word W of
    length <= 2 out of stages 0-2, at its own stage and two later ones."""
    system, action = case
    checked = 0
    for k in range(3):
        for word in reduced_words(action.generators, 2):
            try:
                sm = word_map(action, system, word, k)
            except (StageRangeError, ValueError):
                continue
            for target in range(sm.to_stage, sm.to_stage + 3):
                if not system.has_stage(target):
                    break
                block = coboundary_block(system, sm, target)
                image = dense_matmul(system.transfer(sm.to_stage, target), sm.matrix)
                oracle = dense_sub(system.transfer(k, target), image)
                assert block == oracle and block.entries == oracle.entries
                assert_sparse_rows(block)
                checked += 1
    assert checked


def test_verify_action_builds_no_dense_view_of_a_product(monkeypatch):
    """A compactified shift with speeds 2 and 3 on 41 stages: every letter
    map, transfer, commuting square and inverse law stays on sparse rows,
    so no dense value is read and no matrix is built from dense entries.
    The report equals the one that dense products give."""
    system, action = compactified_shift(41, [2, 3])
    dense = record_dense_access(monkeypatch)
    report = verify_action(action, system, 40)
    assert dense == []
    monkeypatch.undo()
    assert report.ok and len(report.items) > 600
    monkeypatch.setattr(IntMatrix, "__matmul__", dense_matmul)
    oracle_system, oracle_action = compactified_shift(41, [2, 3])
    assert verify_action(oracle_action, oracle_system, 40) == report


# ---------------------------------------------------------------------------
# transfer cache
# ---------------------------------------------------------------------------


def _stage_pairs(system) -> list[tuple[int, int]]:
    stages = [k for k in range(TOP + 1) if system.has_stage(k)]
    return [(k, m) for k in stages for m in stages if k <= m]


def _composite(system, k: int, m: int) -> IntMatrix:
    """Product of the connecting maps from stage k to m, by the dense oracle."""
    out = IntMatrix.identity(system.rank_at(k))
    for t in range(k, m):
        out = dense_matmul(system.connecting(t), out)
    return out


def _uncached_error(system, k: int, m: int) -> str:
    """The StageRangeError message of the composite built without a cache."""
    with pytest.raises(StageRangeError) as err:
        if m < k:
            raise StageRangeError("transfer target precedes source")
        if m == k:
            system.rank_at(k)
        for t in range(k, m):
            system.connecting(t)
    return str(err.value)


def _bad_pairs(system) -> list[tuple[int, int]]:
    last = system.last_declared_stage
    out = [(-1, 0), (-1, 2), (-2, -2), (3, 1), (1, 0)]
    if not system.is_stationary:
        out += [(0, last + 1), (last, last + 2), (last + 1, last + 1), (last + 1, last + 3)]
    return out


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def make_system(request):
    return lambda: request.param[1]()[0]


@pytest.mark.parametrize("order", ["ascending", "descending", "twice"])
def test_transfer_equals_product_of_connecting_maps(make_system, order):
    expected = {pair: _composite(make_system(), *pair) for pair in _stage_pairs(make_system())}
    system = make_system()
    pairs = sorted(expected)
    if order == "descending":
        pairs.reverse()
    if order == "twice":
        pairs = pairs + pairs
    for k, m in pairs:
        assert system.transfer(k, m) == expected[k, m]
    for k, m in sorted(expected):
        assert system.transfer(k, m) == expected[k, m]
        if m > k:  # a composite is built once per system
            assert system.transfer(k, m) is system.transfer(k, m)


def test_transfer_out_of_range_raises_cold_and_warm(make_system):
    system = make_system()
    bad = _bad_pairs(system)
    messages = {pair: _uncached_error(system, *pair) for pair in bad}
    for k, m in bad:  # cold
        with pytest.raises(StageRangeError) as err:
            system.transfer(k, m)
        assert str(err.value) == messages[k, m]
    for k, m in _stage_pairs(system):  # warm every in-range pair
        system.transfer(k, m)
    for _ in range(2):
        for k, m in bad:
            with pytest.raises(StageRangeError) as err:
                system.transfer(k, m)
            assert str(err.value) == messages[k, m]
