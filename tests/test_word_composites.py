"""Word composites against the per-vector oracles of ``per_vector_coboundary``.

``kaction.word_map`` composes a word's letter maps by sparse products,
and ``kaction.coboundary_block`` turns one composite into the columns
g - w(g) for every basis vector g at once. The coboundary lattices H_t,
the word images and the state search's invariance differences must
equal those built one basis vector, one element and one letter at a
time, and ``word_map`` must raise what letter-by-letter application
raises.
"""

import random

import pytest

from conftest import GOLDEN_NAMES, load_golden, stage_generators
from per_vector_coboundary import apply_letters, invariance_differences, word_images
from per_vector_coboundary import coboundary as per_vector_coboundary
from per_vector_coboundary import coboundary_stage_lattice as per_vector_cell
from per_vector_coboundary import stage_lattice as per_vector_lattice
from test_lattice_pipeline import (
    compactified_shift,
    seeded_finite_systems,
    seeded_three_generator_system,
    swap_with_long_prefix,
    unipotent_with_long_prefix,
)
from word_grid import reduced_words

from k0mf.certify import _invariance_differences
from k0mf.dimgroup import InductiveSystem, LimitElement, StageRangeError
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import (
    K0Action,
    StageMap,
    Word,
    coboundary,
    coboundary_stage_lattice,
    verify_action,
    word_map,
)

M = IntMatrix.from_rows

CASES = (
    [(name, lambda name=name: load_golden(name).resolve()) for name in GOLDEN_NAMES]
    + [(f"finite-{i}", lambda i=i: seeded_finite_systems(4)[i]) for i in range(4)]
    + [
        ("finite-3-generators", seeded_three_generator_system),
        ("shift-7-[1,-2]", lambda: compactified_shift(7, [1, -2])),
        ("swap-long-prefix", swap_with_long_prefix),
        ("unipotent-long-prefix", unipotent_with_long_prefix),
    ]
)


@pytest.fixture(params=CASES, ids=[name for name, _ in CASES])
def case(request):
    system, action = request.param[1]()
    assert verify_action(action, system, 8).ok
    return system, action


def outcome(build, *args):
    """What ``build(*args)`` returns, or the type and message it raises."""
    try:
        return build(*args)
    except (StageRangeError, ValueError) as exc:
        return type(exc), str(exc)


def declared(system: InductiveSystem, top: int) -> list[int]:
    return [k for k in range(top + 1) if system.has_stage(k)]


@pytest.mark.parametrize("stage_max", [4, 6])
def test_lattices_equal_per_vector_lattices(case, stage_max):
    """H_t at every target of the box, undeclared targets included."""
    system, action = case

    def lattice(*args):
        return coboundary_stage_lattice(stage_generators(*args))

    for target in range(stage_max + 1):
        args = (action, system, target)
        assert outcome(lattice, *args) == outcome(per_vector_lattice, *args), args


def test_three_generator_lattice_at_word_length_three():
    """On a finite system every cell of the word grid is H_t itself, the
    cell of the 186 words of length <= 3 included."""
    system, action = seeded_three_generator_system()
    for source, target in ((0, 0), (0, 2)):
        assert coboundary_stage_lattice(stage_generators(action, system, target)) == per_vector_cell(action, system, source, target, 3)


def test_word_maps_apply_like_their_letters(case):
    """``word_map(...).matrix.apply(v)`` against letter-by-letter
    application, for every reduced word of length <= 3, the empty word
    included, on basis vectors and random vectors of every stage up to 5."""
    system, action = case
    rng = random.Random(20261018)
    words = [Word(())] + list(reduced_words(action.generators, 3))
    for stage in declared(system, 5):
        p = system.rank_at(stage)
        vectors = [tuple(int(j == i) for j in range(p)) for i in range(p)]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(p)) for _ in range(3)]
        for word in words:
            sm = outcome(word_map, action, system, word, stage)
            for v in vectors:
                e = LimitElement(stage, v)
                want = outcome(apply_letters, action, system, word, e)
                if isinstance(sm, StageMap):
                    assert isinstance(want, LimitElement), (word, e)
                    assert (sm.from_stage, sm.to_stage, sm.matrix.cols) == (stage, want.stage, p)
                    assert LimitElement(sm.to_stage, sm.matrix.apply(v)) == want, (word, e)
                else:
                    assert sm == want, (word, e)


def test_a_one_letter_word_map_is_its_letter_map(cycle3_pair):
    system, action = cycle3_pair
    assert word_map(action, system, Word.of(1), 0).matrix == action.letter_map(1, 0).matrix
    assert word_map(action, system, Word.of(), 0).matrix == IntMatrix.identity(3)


def test_word_map_errors_match_letter_application():
    """An undeclared stage is a StageRangeError, a shape mismatch a
    ValueError, with the same message as letter-by-letter application."""
    one_stage = InductiveSystem((2,), (), (1, 1))
    swap = M([[0, 1], [1, 0]])
    past_the_prefix = K0Action(1, ((StageMap(0, 1, swap),),), ((StageMap(0, 1, swap),),))
    fits, wide = (StageMap(0, 0, swap),), (StageMap(0, 0, M([[1, 0, 0], [0, 1, 0]])),)
    misfit = K0Action(2, (fits, wide), (fits, fits))
    shift_system, shift_action = compactified_shift(4, [2])
    for system, action, word, stage, kind in (
        (one_stage, past_the_prefix, Word.of(1), 0, StageRangeError),
        (one_stage, past_the_prefix, Word.of(-1, -1), 0, StageRangeError),
        (one_stage, misfit, Word.of(2), 0, ValueError),
        (one_stage, misfit, Word.of(2, 1), 0, ValueError),
        (shift_system, shift_action, Word.of(1, 1), 0, StageRangeError),
        (shift_system, shift_action, Word.of(1), 2, StageRangeError),
        (shift_system, shift_action, Word.of(1), 5, StageRangeError),
    ):
        e = LimitElement(stage, (1,) * (system.rank_at(stage) if system.has_stage(stage) else 1))
        with pytest.raises(kind) as got:
            word_map(action, system, word, stage)
        with pytest.raises(kind) as want:
            apply_letters(action, system, word, e)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def request_elements(system: InductiveSystem, rng: random.Random) -> list[LimitElement]:
    """The stage-0 basis vectors, and random nonnegative vectors at the
    next two declared stages."""
    p = system.rank_at(0)
    elements = [LimitElement(0, tuple(int(j == i) for j in range(p))) for i in range(p)]
    for stage in declared(system, 2)[1:]:
        p = system.rank_at(stage)
        elements += [LimitElement(stage, tuple(rng.randint(0, 3) for _ in range(p))) for _ in range(2)]
    return elements


def word_maps(action, system, elements, words):
    """The maps the state search builds: one per (element stage, word)."""
    return {(g.stage, w): word_map(action, system, w, g.stage) for g in elements for w in words}


def test_invariance_differences_equal_per_vector_pushes(case):
    """The state search's differences g - w(g), for the default words
    (one per generator) and for every reduced word of length <= 2, at the
    first stage that holds every image and the stages after it."""
    system, action = case
    rng = random.Random(7)
    elements = request_elements(system, rng)
    one_letter = [Word.of(j) for j in range(1, action.generators + 1)]
    for words in (one_letter, list(reduced_words(action.generators, 2)), [Word.of(), Word.of(1), Word.of(1)]):
        try:
            images = word_images(action, system, elements, words)
        except StageRangeError:
            with pytest.raises(StageRangeError):
                word_maps(action, system, elements, words)
            continue
        maps = word_maps(action, system, elements, words)
        first = max([g.stage for g in elements] + [img.stage for img in images])
        for m in declared(system, first + 2)[first:]:
            diffs = _invariance_differences(system, maps, elements, words, m)
            got = list(map(tuple, diffs.to_rows()))
            assert got == invariance_differences(action, system, elements, words, m), (words, m)


def test_coboundaries_equal_per_vector_sums(case):
    """sum_j (g_j - a_j(g_j)) for random elements at the declared stages
    up to 2, one element per generator."""
    system, action = case
    rng = random.Random(11)
    stages = declared(system, 2)
    for _ in range(20):
        elements = []
        for _ in range(action.generators):
            stage = rng.choice(stages)
            elements.append(LimitElement(stage, tuple(rng.randint(-3, 3) for _ in range(system.rank_at(stage)))))
        args = (action, system, elements)
        assert outcome(coboundary, *args) == outcome(per_vector_coboundary, *args), elements
