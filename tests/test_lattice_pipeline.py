"""The incremental coboundary-lattice pipeline against fresh rebuilds.

``_stage_lattices`` skips cells translated from an earlier one and pushes
the previous target's Hermite basis through one connecting map. Every
basis it yields must equal a fresh ``coboundary_stage_lattice``, every
cell it skips must have the same fresh lattice as its translate, and
``find_positive_coboundary`` must return what the rebuild-every-cell
search below returns.
"""

import random

import pytest

from conftest import GOLDEN_NAMES, load_golden

from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import (
    SearchParams,
    WitnessSearch,
    _build_witness,
    _positive_candidates,
    _span_meets_cone,
    _stage_lattices,
    find_positive_coboundary,
)
from k0mf.dimgroup import InductiveSystem, StageRangeError
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import (
    K0Action,
    StageMap,
    StationaryRule,
    coboundary_stage_lattice,
    repeat_stage,
    verify_action,
)

M = IntMatrix.from_rows

BOXES = [SearchParams(), SearchParams(stage_max=6, word_length=3)]


def rebuild_every_cell(system, action, params) -> WitnessSearch:
    """The search as it was before the pipeline: a fresh lattice per cell."""
    exhausted = []
    decided_empty = set()
    for target in range(params.stage_max + 1):
        if not system.has_stage(target):
            break
        for source in range(target + 1):
            for length in range(1, params.word_length + 1):
                try:
                    lattice = coboundary_stage_lattice(action, system, source, target, length)
                except StageRangeError:
                    continue
                basis_rows = [lattice.column(j) for j in range(lattice.cols)]
                if not basis_rows:
                    continue
                key_stage = (
                    min(target, system.last_declared_stage)
                    if system.is_stationary
                    else target
                )
                key = (key_stage, tuple(basis_rows))
                if key in decided_empty:
                    continue
                if not _span_meets_cone(basis_rows):
                    decided_empty.add(key)
                    continue
                for cand in _positive_candidates(basis_rows, params.height_bound):
                    witness = _build_witness(system, action, cand, source, target, length, params)
                    if witness is not None:
                        return WitnessSearch(witness, tuple(exhausted))
                exhausted.append((target, source, length))
                decided_empty.add(key)
    return WitnessSearch(None, tuple(exhausted))


def fresh_basis(system, action, source, target, length):
    """Hermite rows of a freshly built lattice, or None when it cannot be built."""
    try:
        lattice = coboundary_stage_lattice(action, system, source, target, length)
    except StageRangeError:
        return None
    return [lattice.column(j) for j in range(lattice.cols)]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

INF = 10**9  # farther out than any shifted endpoint


def _shift_classes(k: int) -> list[tuple[int, int]]:
    """Stage k of the compactified line: Z itself at stage 0, then
    [k, inf), the singletons k-1 .. -(k-1), and (-inf, -k]."""
    if k == 0:
        return [(-INF, INF)]
    return [(k, INF)] + [(n, n) for n in range(k - 1, -k, -1)] + [(-INF, -k)]


def _shift_inclusion(src: int, dst: int, shift: int) -> IntMatrix:
    """Sends each stage-src class, translated by ``shift``, to the sum of
    the stage-dst classes it contains."""

    def moved(x: int) -> int:
        return x if abs(x) == INF else x + shift

    return M(
        [
            [int(moved(a) <= lo and hi <= moved(b)) for a, b in _shift_classes(src)]
            for lo, hi in _shift_classes(dst)
        ]
    )


def compactified_shift(stages: int, speeds: list[int]):
    """Translation of Z by each speed on the compactified line, declared
    on ``stages`` stages; a generator of speed s moves stage k to k + |s|."""
    system = InductiveSystem(
        stage_ranks=tuple(len(_shift_classes(k)) for k in range(stages)),
        connecting_maps=tuple(_shift_inclusion(k, k + 1, 0) for k in range(stages - 1)),
        unit=(1,),
    )

    def family(shift: int) -> tuple[StageMap, ...]:
        step = abs(shift)
        return tuple(
            StageMap(k, k + step, _shift_inclusion(k, k + step, shift)) for k in range(stages - step)
        )

    action = K0Action(
        len(speeds),
        tuple(family(s) for s in speeds),
        tuple(family(-s) for s in speeds),
    )
    return system, action


def swap_with_long_prefix():
    """Rank 2 with tail [[3, 1], [1, 3]] and one declared stage. The
    generator swaps the coordinates; its first three steps also move one
    stage forward, and only then does the shift-0 rule take over."""
    tail = M([[3, 1], [1, 3]])
    swap = M([[0, 1], [1, 0]])
    system = InductiveSystem((2,), (), (1, 1), tail)
    steps = tuple(StageMap(k, k + 1, tail @ swap) for k in range(3))
    action = K0Action(1, (steps,), (steps,), (StationaryRule(0, swap, swap),))
    return system, action


def unipotent_with_long_prefix():
    """Tail [[I, 0], [B, I]] on two sources and one sink, one declared
    stage. The generator is the limit automorphism [[I, 0], [Y, I]] with
    Y = [1, -1]; its first three steps move two stages ([[I, 0], [2B + Y, I]])
    and the rule moves one. It has a positive coboundary."""

    def lower(row: list[int]) -> IntMatrix:
        return M([[1, 0, 0], [0, 1, 0], row + [1]])

    system = InductiveSystem((3,), (), (1, 1, 1), lower([2, 3]))
    forward = tuple(StageMap(k, k + 2, lower([5, 5])) for k in range(3))
    inverse = tuple(StageMap(k, k + 2, lower([3, 7])) for k in range(3))
    rule = StationaryRule(1, lower([3, 2]), lower([1, 4]))
    return system, K0Action(1, (forward,), (inverse,), (rule,))


def rotation_tail():
    """Tail and generator both rotate three coordinates, so a pushed
    Hermite basis leaves echelon form and must be reduced again."""
    rotate = M([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    system = InductiveSystem((3,), (), (1, 1, 1), rotate)
    return system, K0Action(1, ((),), ((),), (StationaryRule(0, rotate, rotate.transpose()),))


def seeded_finite_systems(count: int):
    """Small ones: a fresh lattice for words of length 3 already stacks
    52 words times the point count into one Hermite form."""
    rng = random.Random(20261018)
    out = []
    for i in range(count):
        n = rng.randint(1, 5)
        perms = []
        for _ in range(1 + i % 2):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        out.append(finite_system_to_k0(FiniteSystem(n, tuple(perms))))
    return out


def seeded_three_generator_system():
    """Three permutations of 5 points: a fresh lattice for words of
    length 3 stacks 186 words times 5 points into one Hermite form."""
    rng = random.Random(20261019)
    perms = []
    for _ in range(3):
        p = list(range(1, 6))
        rng.shuffle(p)
        perms.append(tuple(p))
    return finite_system_to_k0(FiniteSystem(5, tuple(perms)))


CASES = (
    [(name, lambda name=name: load_golden(name).resolve()) for name in GOLDEN_NAMES]
    + [
        (f"finite-{i}", lambda i=i: seeded_finite_systems(6)[i])
        for i in range(6)
    ]
    + [
        ("finite-3-generators", seeded_three_generator_system),
        ("shift-7-[2]", lambda: compactified_shift(7, [2])),
        ("shift-7-[1,-3]", lambda: compactified_shift(7, [1, -3])),
        ("swap-long-prefix", swap_with_long_prefix),
        ("unipotent-long-prefix", unipotent_with_long_prefix),
        ("rotation-tail", rotation_tail),
    ]
)


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def case(request):
    system, action = request.param[1]()
    assert verify_action(action, system, 8).ok
    return system, action


@pytest.fixture(params=BOXES, ids=["default", "stage6-length3"])
def box(request):
    return request.param


def test_long_prefix_cases_repeat_past_the_system_prefix():
    for system, action in (swap_with_long_prefix(), unipotent_with_long_prefix()):
        assert repeat_stage(action, system) == 3 > system.last_declared_stage


def test_pipeline_bases_equal_fresh_lattices(case, box):
    system, action = case
    repeat = repeat_stage(action, system)
    yielded = [(t, s, n, basis) for t, s, n, basis in _stage_lattices(system, action, box)]
    expected = []
    for target in range(box.stage_max + 1):
        if not system.has_stage(target):
            break
        for source in range(target + 1):
            for length in range(1, box.word_length + 1):
                fresh = fresh_basis(system, action, source, target, length)
                if repeat is not None and source > repeat:
                    # skipped: the translate one stage earlier has the same lattice
                    assert fresh == fresh_basis(system, action, source - 1, target - 1, length)
                elif fresh is not None:
                    expected.append((target, source, length, fresh))
    assert yielded == expected


def test_search_matches_rebuild_every_cell(case, box):
    system, action = case
    assert find_positive_coboundary(system, action, box) == rebuild_every_cell(system, action, box)


def test_witness_cases_find_witnesses():
    """The comparison above covers the witness path, not only misses."""
    for system, action in (unipotent_with_long_prefix(), compactified_shift(7, [2])):
        assert find_positive_coboundary(system, action, SearchParams()).witness is not None
