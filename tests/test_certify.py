import json
import random

import pytest

from ball_walk import ball_walk
from conftest import load_golden
from dense_hermite import row_basis
from identity_action import identity_action

from k0mf import certify
from k0mf.bratteli import FiniteSystem, finite_system_to_k0, parse
from k0mf.certify import (
    SearchParams,
    Witness,
    exclusion_holds,
    exclusion_sets,
    find_invariant_state,
    find_positive_coboundary,
    verify_state_certificate,
    verify_witness,
    _positive_candidates,
    _span_meets_cone,
)
from k0mf.dimgroup import InductiveSystem, LimitElement, push
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import K0Action, StageMap, Word

M = IntMatrix.from_rows

SHIFT_PARAMS = SearchParams(stage_max=3, height_bound=2)


def mirrored_shift_pair():
    """The shift document with forward and inverse roles swapped."""
    system, action = load_golden("compactified_shift.json").resolve()
    return system, K0Action(1, action.inverse, action.forward, None)


def shift_with_identity_generator():
    """Two generators: the shift and a trivial one."""
    system, action = load_golden("compactified_shift.json").resolve()
    ident_steps = tuple(
        StageMap(k, k, IntMatrix.identity(system.stage_ranks[k])) for k in range(4)
    )
    two = K0Action(
        2,
        (action.forward[0], ident_steps),
        (action.inverse[0], ident_steps),
        None,
    )
    return system, two


def test_identity_action_never_finds_witness():
    for name in ("fibonacci_identity.json", "car_identity.json", "minimal.json", "diamond.json"):
        system, action = load_golden(name).resolve()
        for params in (SearchParams(), SearchParams(2, 5)):
            search = find_positive_coboundary(system, action, params)
            assert search.witness is None
            assert search.exhausted_targets == ()


def test_permutation_action_never_finds_witness(cycle3_pair):
    system, action = cycle3_pair
    for params in (SearchParams(), SearchParams(3, 5), SearchParams(0, 3)):
        assert find_positive_coboundary(system, action, params).witness is None


def test_shift_witness_exact(shift_pair):
    system, action = shift_pair
    search = find_positive_coboundary(system, action, SHIFT_PARAMS)
    w = search.witness
    assert w is not None
    assert w.value == LimitElement(2, (0, 1, 0, 0, 0))
    assert w.positive_at_stage == 2
    assert w.height == 1
    assert w.preimages == (LimitElement(1, (1, 0, 0)),)
    assert w.nonzero_mode == "horizon"
    verify_witness(system, action, w)


def test_shift_witness_deterministic(shift_pair):
    system, action = shift_pair
    first = find_positive_coboundary(system, action, SHIFT_PARAMS)
    second = find_positive_coboundary(system, action, SHIFT_PARAMS)
    assert first == second


def test_mirrored_shift_witness():
    system, action = mirrored_shift_pair()
    search = find_positive_coboundary(system, action, SHIFT_PARAMS)
    w = search.witness
    assert w is not None
    # the same singleton class appears, now as a coboundary of the
    # negated ray one stage later
    assert w.value == LimitElement(2, (0, 1, 0, 0, 0))
    assert w.preimages == (LimitElement(2, (-1, 0, 0, 0, 0)),)
    verify_witness(system, action, w)


def test_two_generator_witness_recovery():
    system, action = shift_with_identity_generator()
    search = find_positive_coboundary(system, action, SHIFT_PARAMS)
    w = search.witness
    assert w is not None
    assert w.value == LimitElement(2, (0, 1, 0, 0, 0))
    assert w.preimages == (
        LimitElement(1, (1, 0, 0)),
        LimitElement(1, (0, 0, 0)),
    )
    verify_witness(system, action, w)


def test_witness_verification_rejects_tampering(shift_pair):
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    assert w is not None
    with pytest.raises(AssertionError):
        verify_witness(system, action, w._replace(value=LimitElement(2, (0, 0, 1, 0, 0))))
    with pytest.raises(AssertionError):
        verify_witness(system, action, w._replace(height=5))
    with pytest.raises(AssertionError):
        verify_witness(
            system, action, w._replace(preimages=(LimitElement(1, (0, 1, 0)),))
        )


def test_invariant_state_identity_unit():
    system = InductiveSystem((3,), (), (1, 1, 1), IntMatrix.identity(3))
    action = identity_action(system, 1)
    cert = find_invariant_state(
        system, action, [LimitElement(0, (1, 1, 1))], [Word.of(1)], 4
    )
    assert cert is not None
    assert cert.functional == (1, 1, 1)
    assert cert.unit_value == 3
    verify_state_certificate(system, action, cert)


def test_invariant_state_two_point_identity():
    system = InductiveSystem((2,), (), (1, 1), IntMatrix.identity(2))
    action = identity_action(system, 1)
    cert = find_invariant_state(system, action, [LimitElement(0, (1, 0))], [Word.of(1)], 4)
    assert cert is not None
    assert (cert.stage, cert.functional, cert.unit_value, cert.element_values) == (0, (1, 1), 2, (1,))
    verify_state_certificate(system, action, cert)


def test_invariant_state_on_the_fibonacci_tail():
    """The Fibonacci trace has irrational weights, so no integer functional
    is invariant under every connecting map; the search certifies at a
    finite stage instead, for elements declared at any stage."""
    system = InductiveSystem((2,), (), (1, 1), M([[1, 1], [1, 0]]))
    action = identity_action(system, 1)
    for stage in range(3):
        for vector in ((1, 0), (0, 1), (1, 1)):
            g = LimitElement(stage, vector)
            cert = find_invariant_state(system, action, [g], [Word.of(1)], stage + 2)
            assert cert is not None
            assert cert.stage == stage
            assert cert.element_values[0] > 0
            verify_state_certificate(system, action, cert)


def test_invariant_state_cycle_forces_constant(cycle3_pair):
    system, action = cycle3_pair
    cert = find_invariant_state(
        system, action, [LimitElement(0, (1, 0, 0))], [Word.of(1)], 4
    )
    assert cert is not None
    assert cert.functional == (1, 1, 1)
    assert cert.unit_value == 3
    assert cert.element_values == (1,)


def test_invariant_state_none_for_shift_witness(shift_pair):
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    assert w is not None
    (value, *parts), words = exclusion_sets(w, action.generators)
    for stage_max in (2, 3):
        assert find_invariant_state(system, action, parts, words, stage_max, (value,)) is None


def test_invariant_state_requires_positive_elements(shift_pair):
    system, action = shift_pair
    with pytest.raises(ValueError):
        find_invariant_state(system, action, [LimitElement(1, (-1, 0, 0))], [Word.of(1)], 3)
    with pytest.raises(ValueError):
        find_invariant_state(system, action, [], [Word.of(1)], 3)


def test_invariant_state_finite_basis_all_ones():
    system, action = finite_system_to_k0(FiniteSystem(4, ((2, 1, 3, 4), (1, 2, 4, 3))))
    elements = [
        LimitElement(0, tuple(1 if j == i else 0 for j in range(4))) for i in range(4)
    ]
    words = [Word.of(1), Word.of(2)]
    cert = find_invariant_state(system, action, elements, words, 4)
    assert cert is not None
    assert cert.functional == (1, 1, 1, 1)
    verify_state_certificate(system, action, cert)


def test_state_certificate_verification_rejects_tampering(cycle3_pair):
    system, action = cycle3_pair
    cert = find_invariant_state(
        system, action, [LimitElement(0, (1, 0, 0))], [Word.of(1)], 4
    )
    assert cert is not None
    with pytest.raises(AssertionError):
        verify_state_certificate(system, action, cert._replace(functional=(1, 2, 1)))
    with pytest.raises(AssertionError):
        verify_state_certificate(system, action, cert._replace(unit_value=7))


def test_witness_verification_names_each_failure(shift_pair):
    """The bundled shift's witness, mutated so that each re-check fails
    alone: negating the value and the preimages keeps the coboundary and
    the height but leaves no positive value; a fifth stage whose map has
    a zero column where the value sits keeps every check up to stage 3,
    and the value vanishes at stage 4."""
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    negated = w._replace(
        value=LimitElement(w.value.stage, tuple(-x for x in w.value.vector)),
        preimages=tuple(LimitElement(g.stage, tuple(-x for x in g.vector)) for g in w.preimages),
    )
    with pytest.raises(AssertionError, match="^witness value is not positive at its reporting stage$"):
        verify_witness(system, action, negated)
    assert push(system, w.value, 3).vector == (0, 0, 1, 0, 0, 0, 0)
    longer = InductiveSystem(
        system.stage_ranks + (1,), system.connecting_maps + (M([[1, 1, 0, 1, 1, 1, 1]]),), system.unit
    )
    with pytest.raises(AssertionError, match="^witness value vanishes in the limit$"):
        verify_witness(longer, action, w._replace(nonzero_stage=4))
    verify_witness(longer, action, w)


def test_witness_verification_checks_its_stages_and_nonzero_claim(shift_pair):
    """The reporting stage must be declared and no earlier than the
    value's stage, and (``nonzero_mode``, ``nonzero_stage``) must be what
    the value's zero test up to ``nonzero_stage`` gives. The genuine
    witness restated at a later reporting stage, or with a horizon past
    the declared stages, still verifies."""
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    assert (w.positive_at_stage, w.nonzero_mode, w.nonzero_stage) == (2, "horizon", 3)
    verify_witness(system, action, w._replace(positive_at_stage=3))
    verify_witness(system, action, w._replace(nonzero_stage=9))
    for stage in (1, 9):
        with pytest.raises(AssertionError, match="^witness reporting stage is undeclared or precedes its value's stage$"):
            verify_witness(system, action, w._replace(positive_at_stage=stage))
    for mode in ("limit", "bogus"):
        with pytest.raises(AssertionError, match="^witness nonzero claim is not what its zero test gives$"):
            verify_witness(system, action, w._replace(nonzero_mode=mode))


def test_state_certificate_verification_names_each_failure(cycle3_pair):
    """The counting functional on the three-cycle, certified on (1, 0, 0):
    a wrong recorded value is a mismatch, and (1, -1, 0), on which the
    invariant functional is 0, makes it unfaithful."""
    system, action = cycle3_pair
    cert = find_invariant_state(system, action, [LimitElement(0, (1, 0, 0))], [Word.of(1)], 4)
    assert (cert.functional, cert.element_values) == ((1, 1, 1), (1,))
    with pytest.raises(AssertionError, match="^certificate element value mismatch$"):
        verify_state_certificate(system, action, cert._replace(element_values=(2,)))
    unfaithful = cert._replace(elements=(LimitElement(0, (1, -1, 0)),), element_values=(0,))
    with pytest.raises(AssertionError, match="^certificate functional is not faithful on a nonzero element$"):
        verify_state_certificate(system, action, unfaithful)


# The one-generator compression check is the witness search itself;
# the CLI's generator-count guard is tested in test_cli.


def test_compression_check_finite_model_none(cycle3_pair):
    system, action = cycle3_pair
    assert find_positive_coboundary(system, action, SearchParams()).witness is None


def test_compression_check_identity_none():
    system, action = load_golden("minimal.json").resolve()
    assert find_positive_coboundary(system, action, SearchParams()).witness is None


def test_compression_check_shift_witness(shift_pair):
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    assert w is not None and w.preimages == (LimitElement(1, (1, 0, 0)),)


def test_exclusion_sets_split_each_preimage_into_its_parts():
    """A preimage with entries of both signs gives its positive part and
    then its negative part; zero parts and repeated parts are left out."""
    value = LimitElement(2, (0, 1, 0, 0, 0))
    mixed = LimitElement(1, (2, -3, 0))
    w = Witness((mixed, LimitElement(1, (0, 0, 0)), LimitElement(1, (2, 0, 0))), value, 2, 1, "horizon", 3)
    elements, words = exclusion_sets(w, 3)
    assert elements == (value, LimitElement(1, (2, 0, 0)), LimitElement(1, (0, 3, 0)))
    pos, neg = elements[1:]
    assert tuple(p - n for p, n in zip(pos.vector, neg.vector)) == mixed.vector
    assert words == (Word.of(1), Word.of(2), Word.of(3))


def test_exclusion_sets_contents(shift_pair):
    system, action = shift_pair
    w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
    elements, words = exclusion_sets(w, 1)
    assert elements == (w.value, LimitElement(1, (1, 0, 0)))
    assert words == (Word.of(1),)


def test_mutual_exclusion_on_all_witnesses():
    cases = [
        load_golden("compactified_shift.json").resolve(),
        mirrored_shift_pair(),
        shift_with_identity_generator(),
    ]
    for system, action in cases:
        w = find_positive_coboundary(system, action, SHIFT_PARAMS).witness
        assert w is not None
        assert exclusion_holds(system, action, w, 3)


def test_a_lattice_whose_span_misses_the_cone_is_decided_without_a_walk(monkeypatch):
    """One stage Z^2 with the identity tail and unit (1, 1), and one
    shift-0 stationary rule with forward map [[0, 0], [2, 1]] and the
    identity as inverse: H_0 is spanned by (1, -2), which sums to -1, so
    the counting functional does not decide it, and its span meets the
    cone only at 0. The target is decided by the cone program alone."""
    doc = {
        "schema_version": 1,
        "system": {"stage_ranks": [2], "connecting_maps": [], "unit": [1, 1], "stationary": [[1, 0], [0, 1]]},
        "action": {
            "generators": 1,
            "forward": [[]],
            "inverse": [[]],
            "stationary": [{"shift": 0, "forward": [[0, 0], [2, 1]], "inverse": [[1, 0], [0, 1]]}],
        },
    }
    system, action = parse(json.dumps(doc).encode()).resolve()
    spans, walks = [], []
    span_meets_cone = certify._span_meets_cone
    monkeypatch.setattr(certify, "_span_meets_cone", lambda rows: spans.append(rows) or span_meets_cone(rows))
    monkeypatch.setattr(certify, "enumerate_lattice_points", lambda *args, **kwargs: walks.append(args) or iter(()))
    search = find_positive_coboundary(system, action, SearchParams())
    assert (search.witness, search.exhausted_targets) == (None, ())
    assert spans == [[(1, -2)]]
    assert walks == []


def one_stage_lattice_rows(t: IntMatrix) -> list[tuple[int, ...]]:
    n = t.rows
    diffs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        img = t.apply(e)
        diffs.append(tuple(a - b for a, b in zip(e, img)))
    return row_basis(diffs, n)


def test_lattice_cone_decision_matches_enumeration_small():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = M([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        rows = one_stage_lattice_rows(t)
        lp_says = _span_meets_cone(rows) if rows else False
        brute = any(
            any(v) and all(x >= 0 for x in v)
            for v in ball_walk(rows, 5)
        ) if rows else False
        assert lp_says == brute


def test_positive_candidates_order():
    rows = row_basis([(0, 1, 0), (0, 0, 1)], 3)
    cands = list(_positive_candidates(rows, 2))
    assert cands[0] == (0, 1, 0)
    assert cands.index((0, 1, 0)) < cands.index((0, 0, 1))
    assert all(max(v) <= 2 for v in cands)


def test_height_bound_limits_candidates():
    # the span meets the cone, but the least cone vector of the lattice
    # generated by (2, 0) is taller than a height bound of 1
    rows = row_basis([(2, 0)], 2)
    assert _span_meets_cone(rows)
    assert list(_positive_candidates(rows, 1)) == []
    assert list(_positive_candidates(rows, 2)) == [(2, 0)]


def test_verdicts_are_parameter_relative(shift_pair):
    from k0mf.cli import run_check

    system, action = shift_pair
    # too small a box misses the witness; the default request still
    # certifies, so the verdict is consistency relative to the box
    small = run_check(system, action, SearchParams(stage_max=1, height_bound=2))
    assert small.kind == "CONSISTENT"
    # a request whose word images leave the declared prefix cannot be
    # realized at any stage: honest UNKNOWN, not a claim either way
    unreachable = ((LimitElement(3, (1, 0, 0, 0, 0, 0, 0)),), (Word.of(1),))
    out = run_check(
        system, action, SearchParams(stage_max=1, height_bound=2), [unreachable]
    )
    assert out.kind == "UNKNOWN"
    assert out.certificates == (None,)


def test_exhausted_cells_distinguished_in_report():
    # tripling on one coordinate: the coboundary lattice is 2Z, whose
    # least cone vector has height 2; a height bound of 1 exhausts the
    # target, and the report says so instead of silently claiming "none"
    system = InductiveSystem((1,), (), (1,))
    triple = M([[3]])
    action = K0Action(1, ((StageMap(0, 0, triple),),), ((StageMap(0, 0, IntMatrix.identity(1)),),))
    tight = find_positive_coboundary(system, action, SearchParams(0, 1))
    assert tight.witness is None
    assert tight.exhausted_targets == (0,)
    roomy = find_positive_coboundary(system, action, SearchParams(0, 2))
    assert roomy.witness is not None
    assert roomy.witness.value.vector == (2,)
    assert roomy.witness.preimages == (LimitElement(0, (-1,)),)
    assert roomy.exhausted_targets == ()
