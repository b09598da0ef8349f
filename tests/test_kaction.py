import random

import pytest

from conftest import stage_generators
from identity_action import identity_action
from word_grid import cell_lattice, reduced_words

from k0mf.bratteli import FiniteSystem, finite_system_to_k0, permutation_matrix
from k0mf.dimgroup import InductiveSystem, LimitElement, StageRangeError, push
from k0mf.exactlinalg import IntMatrix, solve_in_lattice
from k0mf.kaction import (
    K0Action,
    StageMap,
    StationaryRule,
    Word,
    coboundary,
    coboundary_stage_lattice,
    verify_action,
    word_map,
)

M = IntMatrix.from_rows


def act(action, system, word, e):
    """A word applied to a limit element: its word map from the element's
    stage, applied to the element's vector."""
    sm = word_map(action, system, word, e.stage)
    return LimitElement(sm.to_stage, sm.matrix.apply(e.vector))


def basis_vector(system, stage, idx):
    return LimitElement(stage, tuple(int(j == idx) for j in range(system.rank_at(stage))))


def test_word_reduction():
    assert Word.of(1, -1).letters == ()
    assert Word.of(1, 2, -2, -1, 1).letters == (1,)
    assert Word.of(1, 1, -2).letters == (1, 1, -2)
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((0,))


def test_reduced_words_enumeration():
    words = [w.letters for w in reduced_words(1, 2)]
    assert words == [(1,), (-1,), (1, 1), (-1, -1)]
    two = list(reduced_words(2, 1))
    assert [w.letters for w in two] == [(1,), (-1,), (2,), (-2,)]


def test_apply_empty_word(cycle3_pair):
    system, action = cycle3_pair
    e = LimitElement(0, (1, 2, 3))
    assert act(action, system, Word.of(), e) == e


def test_apply_cycle_order_three(cycle3_pair):
    system, action = cycle3_pair
    for vec in [(1, 0, 0), (1, 2, 3), (-1, 4, 0)]:
        e = LimitElement(0, vec)
        out = act(action, system, Word.of(1, 1, 1), e)
        assert out.vector == vec


def test_apply_then_inverse_is_push(shift_pair):
    # applied letterwise (the reduced word s^-1 s is empty), both
    # composition orders must equal the plain pushforward
    system, action = shift_pair
    for stage in (0, 1):
        for idx in range(system.rank_at(stage)):
            e = basis_vector(system, stage, idx)
            fwd = act(action, system, Word.of(1), e)
            round_trip = act(action, system, Word.of(-1), fwd)
            assert round_trip == push(system, e, round_trip.stage)
            bwd = act(action, system, Word.of(-1), e)
            other = act(action, system, Word.of(1), bwd)
            assert other == push(system, e, other.stage)
            assert act(action, system, Word.of(-1, 1), e) == e


def test_word_homomorphism_property(cycle3_pair):
    system, action = cycle3_pair
    rng = random.Random(3)
    for _ in range(20):
        letters1 = [rng.choice([1, -1]) for _ in range(rng.randint(0, 3))]
        letters2 = [rng.choice([1, -1]) for _ in range(rng.randint(0, 3))]
        e = LimitElement(0, tuple(rng.randint(-3, 3) for _ in range(3)))
        combined = act(action, system, Word.of(*letters1, *letters2), e)
        nested = act(
            action, system, Word.of(*letters1), act(action, system, Word.of(*letters2), e)
        )
        assert combined == nested


def test_coboundary_zero_elements(shift_pair):
    system, action = shift_pair
    z = LimitElement(1, (0, 0, 0))
    assert not any(coboundary(action, system, [z]).vector)


def test_coboundary_identity_action():
    system = InductiveSystem((3,), (), (1, 1, 1), IntMatrix.identity(3))
    action = identity_action(system, 2)
    g = [LimitElement(0, (1, -2, 5)), LimitElement(0, (0, 3, 1))]
    assert not any(coboundary(action, system, g).vector)


def test_coboundary_shift_right_ray(shift_pair):
    system, action = shift_pair
    g = LimitElement(1, (1, 0, 0))
    out = coboundary(action, system, [g])
    assert out == LimitElement(2, (0, 1, 0, 0, 0))


def test_coboundary_additive_in_each_slot(shift_pair):
    system, action = shift_pair
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(3))
        b = tuple(rng.randint(-3, 3) for _ in range(3))
        lhs = coboundary(action, system, [LimitElement(1, tuple(x + y for x, y in zip(a, b)))])
        ra = coboundary(action, system, [LimitElement(1, a)])
        rb = coboundary(action, system, [LimitElement(1, b)])
        assert lhs.vector == tuple(x + y for x, y in zip(ra.vector, rb.vector))


def test_lattice_identity_action_trivial():
    system = InductiveSystem((3,), (), (1, 1, 1), IntMatrix.identity(3))
    action = identity_action(system, 1)
    lat = coboundary_stage_lattice(stage_generators(action, system, 0))
    assert lat.cols == 0


def test_lattice_cycle_sum_zero(cycle3_pair):
    system, action = cycle3_pair
    lat = coboundary_stage_lattice(stage_generators(action, system, 0))
    cols = lat.transpose().to_rows()
    assert cols == [[1, 0, -1], [0, 1, -1]]
    for col in cols:
        assert sum(col) == 0


def test_lattice_shift_contains_witness(shift_pair):
    system, action = shift_pair
    lat = coboundary_stage_lattice(stage_generators(action, system, 2))
    assert solve_in_lattice(lat, (0, 1, 0, 0, 0)) is not None


def test_lattice_monotone(shift_pair):
    system, action = shift_pair

    def contains(rows, vec):
        if not rows:
            return not any(vec)
        mat = IntMatrix.from_rows([list(r) for r in rows]).transpose()
        return solve_in_lattice(mat, vec) is not None

    def columns(lat):
        return lat.transpose().to_rows()

    for target in range(1, system.last_declared_stage):
        h = columns(coboundary_stage_lattice(stage_generators(action, system, target)))
        # a later target: pushed basis vectors are still members
        later = columns(coboundary_stage_lattice(stage_generators(action, system, target + 1)))
        for row in h:
            assert contains(later, push(system, LimitElement(target, row), target + 1).vector)
        # every cell of the word grid at this target: earlier sources, longer words
        for source in range(target + 1):
            for length in (1, 2):
                try:
                    cell = cell_lattice(action, system, source, target, length)
                except StageRangeError:
                    continue
                for row in columns(cell):
                    assert contains(h, row), (source, target, length)


def test_all_ones_annihilates_permutation_lattices():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        r = rng.randint(1, 3)
        perms = []
        for _ in range(r):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        system, action = finite_system_to_k0(FiniteSystem(n, tuple(perms)))
        lat = coboundary_stage_lattice(stage_generators(action, system, 0))
        for col in lat.transpose().to_rows():
            assert sum(col) == 0


def test_word_differences_lie_in_single_letter_lattice(shift_pair):
    system, action = shift_pair
    # |w| <= 2 differences from stage 1 land inside H_3, whose single
    # letters act from stage 2 (the sources the telescoping uses)
    lat = coboundary_stage_lattice(stage_generators(action, system, 3))
    for word in reduced_words(1, 2):
        for idx in range(system.rank_at(1)):
            e = basis_vector(system, 1, idx)
            img = act(action, system, word, e)
            diff = tuple(
                a - b
                for a, b in zip(
                    push(system, e, 3).vector, push(system, img, 3).vector
                )
            )
            assert solve_in_lattice(lat, diff) is not None


def test_word_differences_one_stage_permutation(cycle3_pair):
    system, action = cycle3_pair
    lat = coboundary_stage_lattice(stage_generators(action, system, 0))
    for word in reduced_words(1, 3):
        for idx in range(3):
            e = basis_vector(system, 0, idx)
            img = act(action, system, word, e)
            diff = tuple(a - b for a, b in zip(e.vector, img.vector))
            assert solve_in_lattice(lat, diff) is not None


def test_verify_action_permutation_passes(cycle3_pair):
    system, action = cycle3_pair
    report = verify_action(action, system, 4)
    assert report.ok


def test_verify_action_negative_entry():
    system = InductiveSystem((2,), (), (1, 1), IntMatrix.identity(2))
    bad = M([[1, 1], [0, -1]])
    action = K0Action(
        1,
        ((),),
        ((),),
        (StationaryRule(0, bad, bad),),
    )
    report = verify_action(action, system, 2)
    failures = [f for f in report.failures() if f.check == "positivity"]
    assert failures
    assert "(1, 1)" in failures[0].detail and "-1" in failures[0].detail


def test_verify_action_broken_inverse():
    # transpose of a non-orthogonal matrix is not its inverse
    system = InductiveSystem((2,), (), (1, 2), IntMatrix.identity(2))
    fwd = M([[1, 1], [0, 1]])
    action = K0Action(1, ((),), ((),), (StationaryRule(0, fwd, fwd.transpose()),))
    report = verify_action(action, system, 2)
    failures = [f for f in report.failures() if f.check == "inverse_law"]
    assert failures and failures[0].stage == 0


def test_verify_action_unit_preservation_failure():
    system = InductiveSystem((2,), (), (1, 1), IntMatrix.identity(2))
    fwd = M([[2, 0], [0, 1]])
    action = K0Action(1, ((),), ((),), (StationaryRule(0, fwd, fwd),))
    report = verify_action(action, system, 2)
    failures = [f for f in report.failures() if f.check == "unit_preserved"]
    assert failures and failures[0].generator == 1 and failures[0].stage == 0


def test_verify_action_shift_all_pass(shift_pair):
    system, action = shift_pair
    assert verify_action(action, system, 3).ok


def test_permutation_matrix_composition():
    # matrix(p) @ matrix(q) == matrix(p after q): indicators move with points
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 6)
        p = list(range(1, n + 1))
        q = list(range(1, n + 1))
        rng.shuffle(p)
        rng.shuffle(q)
        composed = tuple(p[q[z] - 1] for z in range(n))
        assert permutation_matrix(tuple(p)) @ permutation_matrix(tuple(q)) == permutation_matrix(composed)
        # inverse permutation realizes the transpose
        inv = [0] * n
        for z in range(n):
            inv[p[z] - 1] = z + 1
        assert permutation_matrix(tuple(inv)) == permutation_matrix(tuple(p)).transpose()


def test_action_validation():
    ident = IntMatrix.identity(2)
    with pytest.raises(ValueError):
        K0Action(0, (), (), None)
    with pytest.raises(ValueError):
        # non-contiguous stage maps
        K0Action(1, ((StageMap(1, 1, ident),),), ((StageMap(1, 1, ident),),), None)
    with pytest.raises(ValueError):
        StageMap(1, 0, ident)
    # a stationary rule's first map, out of stage len(family), may not
    # land before the family's last map
    early = (StageMap(0, 2, M([[1]])),)
    with pytest.raises(ValueError, match="^target stages must be monotone$"):
        K0Action(1, (early,), (early,), (StationaryRule(0, M([[1]]), M([[1]])),))
    with pytest.raises(ValueError, match="^target stages must be monotone$"):
        K0Action(1, ((),), (early,), (StationaryRule(0, M([[1]]), M([[1]])),))
    K0Action(1, (early,), (early,), (StationaryRule(1, M([[1]]), M([[1]])),))  # lands at 2 as well


def test_letter_map_resolves_declared_and_rule_maps():
    """A positive letter reads its forward family, a negative one its
    inverse family, and past the family the rule's map of the same
    direction; there is no map at a negative stage, nor past the family
    without a rule, and a letter must name a generator."""
    forward = (StageMap(0, 1, M([[1]])), StageMap(1, 2, M([[1]])))
    inverse = (StageMap(0, 1, M([[4]])),)
    action = K0Action(1, (forward,), (inverse,), (StationaryRule(1, M([[2]]), M([[3]])),))
    assert action.letter_map(1, 1) is forward[1]
    assert action.letter_map(-1, 0) is inverse[0]
    assert action.letter_map(1, 5) == StageMap(5, 6, M([[2]]))
    assert action.letter_map(-1, 1) == StageMap(1, 2, M([[3]]))
    for letter in (0, 2, -2):
        with pytest.raises(ValueError, match=f"^letter {letter} out of range$"):
            action.letter_map(letter, 0)
    with pytest.raises(StageRangeError):
        action.letter_map(1, -1)
    prefix = K0Action(1, (forward,), (inverse,))
    with pytest.raises(StageRangeError, match="^generator 1 has no map at stage 2$"):
        prefix.letter_map(1, 2)
    with pytest.raises(StageRangeError, match="^generator 1 has no map at stage 1$"):
        prefix.letter_map(-1, 1)
