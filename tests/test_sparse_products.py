"""Row-sparse integer products and the per-system transfer cache.

``IntMatrix.__matmul__`` and ``IntMatrix.apply`` run over each row's
nonzeros; on seeded matrices of every shape and kind they must agree
with the dense loops kept in ``dense_products``. ``InductiveSystem.transfer``
caches its composites per system; whatever order the pairs are asked in,
each must equal the product of the connecting maps, and an out-of-range
pair must raise ``StageRangeError`` whether the cache is cold or warm.
"""

import random

import pytest

from dense_products import dense_apply, dense_matmul
from test_lattice_pipeline import CASES

from k0mf.dimgroup import StageRangeError
from k0mf.exactlinalg import IntMatrix

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


@pytest.mark.parametrize("seed", range(5))
def test_products_match_dense_oracle(seed):
    rng = random.Random(1000 + seed)
    for a, b in _pairs(seed):
        assert a @ b == dense_matmul(a, b)
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


def test_equality_and_hash_ignore_the_nonzero_view():
    for a, b in _pairs(11):
        twin = IntMatrix(a.rows, a.cols, a.entries)
        a @ b  # builds a's nonzero view; twin's stays unbuilt
        a.apply([0] * a.cols)
        assert a == twin and hash(a) == hash(twin)
        assert len({a, twin}) == 1
    identity = IntMatrix.identity(4)
    assert identity @ identity == IntMatrix.identity(4) == identity


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
