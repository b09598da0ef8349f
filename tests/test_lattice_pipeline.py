"""One coboundary lattice per target stage against the word grid.

The witness search builds H_t (``kaction.coboundary_stage_lattice``)
once per target stage t, in order, and on a stationary action stops at
the repeat stage plus the largest shift. Every H_t must equal the
per-vector oracle's H_t and contain every (target, source, word length)
cell of the grid that ``word_grid`` keeps as the oracle; every witness
the grid search finds must have a counterpart from
``find_positive_coboundary`` at the same or an earlier target; and past
the cap H_t must not change.
"""

import random

import pytest

from conftest import GOLDEN_NAMES, load_golden, stage_generators
from dense_hermite import row_basis
from per_vector_coboundary import stage_lattice as per_vector_stage_lattice
from word_grid import grid_cells, grid_search

from k0mf import certify
from k0mf.bratteli import FiniteSystem, finite_system_to_k0
from k0mf.certify import SearchParams, _last_target, find_positive_coboundary
from k0mf.dimgroup import InductiveSystem, StageRangeError
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import (
    K0Action,
    StageMap,
    StationaryRule,
    Word,
    coboundary_stage_lattice,
    latest_letter_maps,
    repeat_stage,
    verify_action,
    word_map,
)

M = IntMatrix.from_rows

# (search box, longest word of the grid oracle)
BOXES = [(SearchParams(), 1), (SearchParams(stage_max=6), 3)]


def stage_bases(system, action, stage_max):
    """(t, Hermite basis vectors of H_t) for each target the search can
    visit: declared, and not past ``_last_target``."""
    for target in range(_last_target(system, action, stage_max) + 1):
        if not system.has_stage(target):
            break
        lattice = coboundary_stage_lattice(stage_generators(action, system, target))
        yield target, list(map(tuple, lattice.transpose().to_rows()))


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


def seeded_compactified_shift(seed: int):
    """One or two generators of speeds in +-1..3, on six declared stages,
    or on 2 * speed + 1 where that is more: a generator of speed s poses
    its inverse laws only on a stage k whose image k + s has a map back,
    at k + 2s."""
    rng = random.Random(seed)
    speeds = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    return compactified_shift(max(6, 2 * max(map(abs, speeds)) + 1), speeds)


def seeded_unipotent_shift(seed: int):
    """Tail A = [[I, 0], [B, I]] on 2-3 sources and 1-2 sinks, declared on
    one or three stages. Each generator of shift s in {1, 2} is
    [[I, 0], [sB + Y, I]] (inverse [[I, 0], [sB - Y, I]]): A^s followed
    by the automorphism [[I, 0], [Y, I]] of the limit, for a matrix Y of
    entries -1, 0, 1 whose rows sum to 0, so the unit is fixed."""
    rng = random.Random(seed)
    sources, sinks, stages = rng.randint(2, 3), rng.randint(1, 2), rng.choice((1, 3))
    size = sources + sinks

    def lower(block):
        return M([[int(i == j) for j in range(size)] for i in range(sources)]
                 + [row + [int(i == j) for j in range(sinks)] for i, row in enumerate(block)])

    b = [[rng.randint(1, 3) for _ in range(sources)] for _ in range(sinks)]
    forward, inverse, rules = [], [], []
    for _ in range(rng.randint(1, 2)):
        shift = rng.choice((1, 2))
        y = []
        for _ in range(sinks):
            row = [0] * sources
            i, j = rng.sample(range(sources), 2)
            row[i], row[j] = 1, -1
            y.append(row)
        fwd, inv = (lower([[shift * m + sign * t for m, t in zip(mr, yr)] for mr, yr in zip(b, y)]) for sign in (1, -1))
        forward.append(tuple(StageMap(k, k + shift, fwd) for k in range(stages - 1)))
        inverse.append(tuple(StageMap(k, k + shift, inv) for k in range(stages - 1)))
        rules.append(StationaryRule(shift, fwd, inv))
    tail = lower(b)
    system = InductiveSystem((size,) * stages, (tail,) * (stages - 1), (1,) * size, tail)
    return system, K0Action(len(rules), tuple(forward), tuple(inverse), tuple(rules))


# seeded shifts for the comparisons with the word grid only
SEEDED_CASES = [(f"seeded-shift-{i}", lambda i=i: seeded_compactified_shift(i)) for i in range(4)] + [
    (f"seeded-unipotent-{i}", lambda i=i: seeded_unipotent_shift(i)) for i in range(4)
]


@pytest.fixture(params=CASES + SEEDED_CASES, ids=[name for name, _ in CASES + SEEDED_CASES])
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
    """H_t equals the per-vector H_t at every declared target of the box,
    and contains every grid cell of that target up to the box's longest
    word: adding a cell's basis to H_t's leaves its Hermite basis as it is."""
    system, action = case
    params, longest = box
    bases = {}
    for target in range(params.stage_max + 1):
        if not system.has_stage(target):
            break
        lattice = coboundary_stage_lattice(stage_generators(action, system, target))
        assert lattice == per_vector_stage_lattice(action, system, target), target
        bases[target] = list(map(tuple, lattice.transpose().to_rows()))
    for target, source, length, cell in grid_cells(system, action, params.stage_max, longest):
        h = bases[target]
        assert row_basis(h + cell, system.rank_at(target)) == h, (target, source, length)


def test_search_matches_rebuild_every_cell(case, box):
    """A witness of the grid search, which rebuilds every cell, has a
    counterpart from the one-lattice search at the same or an earlier
    target. On these cases the two agree on whether there is one."""
    system, action = case
    params, longest = box
    new = find_positive_coboundary(system, action, params).witness
    old, _ = grid_search(system, action, params, longest)
    assert (new is None) == (old is None)
    if old is not None:
        assert new.positive_at_stage <= old.positive_at_stage


def _record_search(system, action, params, monkeypatch):
    """Run ``find_positive_coboundary`` with its letter maps, generators
    and lattices recorded: (the witness, [(target, maps)] per
    ``latest_letter_maps`` call, [(target, maps, generators)] per
    ``coboundary_generators`` call, [target] per
    ``coboundary_stage_lattice`` call). A lattice call must reduce the
    generators built last."""
    resolved, built, reduced = [], [], []
    real_maps = certify.latest_letter_maps
    real_generators = certify.coboundary_generators
    real_lattice = certify.coboundary_stage_lattice

    def letter_maps(a, s, t):
        maps = real_maps(a, s, t)
        resolved.append((t, maps))
        return maps

    def generators(s, maps, t):
        gens = real_generators(s, maps, t)
        built.append((t, maps, gens))
        return gens

    def lattice(gens):
        t, _, last = built[-1]
        assert gens is last  # reduced right after it was built
        reduced.append(t)
        return real_lattice(gens)

    monkeypatch.setattr(certify, "latest_letter_maps", letter_maps)
    monkeypatch.setattr(certify, "coboundary_generators", generators)
    monkeypatch.setattr(certify, "coboundary_stage_lattice", lattice)
    found = find_positive_coboundary(system, action, params).witness
    return found, resolved, built, reduced


def test_one_lattice_per_target_up_to_the_stationary_cap(case, box, monkeypatch):
    """The search visits every target once, from target 0 up, and without
    a witness exactly up to the last declared target of the box, or the
    repeat stage plus the largest shift if that comes first (stage 0 on
    every finite permutation system). It builds the generators of H_t
    exactly at the targets where some generator sums to a nonzero value
    (some letter's pullback of 1 is nonzero), in the same order, and
    reduces them to H_t right after."""
    system, action = case
    params, _ = box
    found, resolved, built, reduced = _record_search(system, action, params, monkeypatch)
    cap = params.stage_max
    repeat = repeat_stage(action, system)
    if repeat is not None and action.stationary is not None:
        cap = min(cap, repeat + max(rule.shift for rule in action.stationary))
    declared = [t for t in range(cap + 1) if system.has_stage(t)]
    targets = [t for t, _ in resolved]
    if found is None:
        assert targets == declared
    else:
        assert targets == declared[: found.positive_at_stage + 1]
    nonzero = [t for t in targets if any(map(sum, stage_generators(action, system, t).to_rows()))]
    assert [t for t, _, _ in built] == nonzero
    assert reduced == nonzero


def test_letter_maps_are_resolved_once_per_target(case, box, monkeypatch):
    """The search resolves each target's letter maps once
    (``latest_letter_maps``), in target order, and builds H_t's
    generators, where it builds them, from that target's very list."""
    system, action = case
    params, _ = box
    _, resolved, built, _ = _record_search(system, action, params, monkeypatch)
    targets = [t for t, _ in resolved]
    assert targets == list(range(len(targets))) and targets
    lists = dict(resolved)
    assert all(maps is lists[t] for t, maps, _ in built)


def fibonacci_prefix_action():
    """The Fibonacci tail [[1, 1], [1, 0]] with the identity action
    declared at stage 0 only: a prefix action on a stationary tail."""
    system = InductiveSystem((2,), (), (1, 1), M([[1, 1], [1, 0]]))
    identity = (StageMap(0, 0, IntMatrix.identity(2)),)
    return system, K0Action(1, (identity,), (identity,))


def every_stage_letter_maps(action, system, target_stage):
    """``latest_letter_maps`` by probing every source stage from the
    target down, as it was before each scan started at the letter's last
    possible source: the oracle."""
    maps = []
    for letter in (s * j for j in range(1, action.generators + 1) for s in (1, -1)):
        for k in range(target_stage, -1, -1):
            try:
                sm = word_map(action, system, Word((letter,)), k)
            except StageRangeError:
                continue
            if sm.to_stage <= target_stage:
                maps.append(sm)
                break
    return maps


SCAN_CASES = CASES + SEEDED_CASES + [("fibonacci-prefix", fibonacci_prefix_action)]


@pytest.mark.parametrize("make", [make for _, make in SCAN_CASES], ids=[name for name, _ in SCAN_CASES])
def test_latest_letter_maps_match_the_every_stage_scan(make):
    """Every stage the scan now skips has no map or one that lands past
    the target, so the maps are the same; undeclared targets included."""
    system, action = make()
    assert verify_action(action, system, 8).ok
    for target in (0, 1, 2, 3, 4, 5, 8, 13, 40):
        assert latest_letter_maps(action, system, target) == every_stage_letter_maps(action, system, target), target


def test_generators_sum_to_zero_exactly_when_the_basis_does():
    """What lets the search skip the reduction: the generators of H_t and
    its Hermite basis rows are integer combinations of each other, so
    some generator sums to a nonzero value exactly when some basis row
    does. Both outcomes occur."""
    seen = set()
    for _, make in CASES + SEEDED_CASES:
        system, action = make()
        for target in range(7):
            if not system.has_stage(target):
                break
            generators = stage_generators(action, system, target)
            basis = coboundary_stage_lattice(generators).transpose()
            nonzero = any(generators.apply((1,) * generators.cols))
            assert nonzero == any(basis.apply((1,) * basis.cols)), target
            seen.add(nonzero)
    assert seen == {False, True}


def test_lattices_past_the_cap_do_not_change():
    """What lets the search stop: on a stationary action H_t is the same
    lattice at every target from the repeat stage plus the largest shift."""
    stationary = 0
    for _, make in CASES:
        system, action = make()
        repeat = repeat_stage(action, system)
        if repeat is None or action.stationary is None:
            continue
        stationary += 1
        cap = repeat + max(rule.shift for rule in action.stationary)
        assert len({coboundary_stage_lattice(stage_generators(action, system, t)) for t in range(cap, cap + 3)}) == 1
    assert stationary >= 10


def test_witness_cases_find_witnesses():
    """The comparison above covers the witness path, not only misses."""
    for system, action in (unipotent_with_long_prefix(), compactified_shift(7, [2])):
        assert find_positive_coboundary(system, action, SearchParams()).witness is not None
