import random

import pytest

from conftest import GOLDEN_NAMES, load_golden

from k0mf.dimgroup import (
    InductiveSystem,
    LimitElement,
    StageRangeError,
    Tristate,
    basis_element,
    injective_from,
    injectivity_report,
    is_positive,
    is_zero,
    push,
    unit_element,
)
from k0mf.exactlinalg import IntMatrix

M = IntMatrix.from_rows


def doubling_system() -> InductiveSystem:
    return InductiveSystem((1,), (), (1,), M([[2]]))


def identity_system(n: int = 2) -> InductiveSystem:
    return InductiveSystem((n,), (), (1,) * n, IntMatrix.identity(n))


def test_validation_rejects_bad_systems():
    with pytest.raises(ValueError):
        InductiveSystem((), (), ())
    with pytest.raises(ValueError):
        InductiveSystem((1, 2), (), (1,))
    with pytest.raises(ValueError):
        InductiveSystem((1, 2), (M([[1], [-1]]),), (1,))
    with pytest.raises(ValueError):
        InductiveSystem((1,), (), (0,))
    # zero row in a connecting map kills the propagated unit
    with pytest.raises(ValueError):
        InductiveSystem((2, 2), (M([[1, 1], [0, 0]]),), (1, 1))
    with pytest.raises(ValueError):
        InductiveSystem((2,), (), (1, 1), M([[1, 1], [0, 0]]))


def test_push_identity_stage():
    sys_ = identity_system()
    e = LimitElement(0, (1, -1))
    assert push(sys_, e, 0) == e


def test_push_stationary_doubling():
    sys_ = doubling_system()
    e = LimitElement(0, (1,))
    assert push(sys_, e, 2).vector == (4,)


def test_push_shift_block_refinement(shift_pair):
    system, _ = shift_pair
    # middle basis vector of stage 1 expands per the 5x3 connecting matrix
    e = basis_element(system, 1, 1)
    assert push(system, e, 2).vector == (0, 0, 1, 0, 0)
    # ray coordinates split into ray plus adjacent singleton
    assert push(system, basis_element(system, 1, 0), 2).vector == (1, 1, 0, 0, 0)
    assert push(system, basis_element(system, 1, 2), 2).vector == (0, 0, 0, 1, 1)


def test_push_rejects_bad_stages(shift_pair):
    system, _ = shift_pair
    e = basis_element(system, 1, 0)
    with pytest.raises(StageRangeError):
        push(system, e, 0)
    with pytest.raises(StageRangeError):
        push(system, e, 4)  # prefix ends at stage 3


def test_is_positive_immediate():
    sys_ = identity_system()
    res = is_positive(sys_, LimitElement(0, (2, 0)), 5)
    assert res.is_yes and res.at_stage == 0


def test_is_positive_identity_map_no():
    sys_ = identity_system()
    res = is_positive(sys_, LimitElement(0, (1, -1)), 4)
    # the identity tail fixes the vector, freezing the negative coordinate
    assert res.is_no


def test_is_positive_prefix_unknown():
    sys_ = InductiveSystem((2, 2), (IntMatrix.identity(2),), (1, 1))
    res = is_positive(sys_, LimitElement(0, (1, -1)), 1)
    assert res.verdict == "unknown"


def test_is_positive_shift_witness_vector(shift_pair):
    system, _ = shift_pair
    res = is_positive(system, LimitElement(2, (0, 1, 0, 0, 0)), 3)
    assert res.is_yes and res.at_stage == 2


def test_is_positive_becomes_positive_later():
    # [[2,1],[1,1]] sends (1,-1) to (1,0)
    sys_ = InductiveSystem((2,), (), (1, 1), M([[2, 1], [1, 1]]))
    res = is_positive(sys_, LimitElement(0, (1, -1)), 3)
    assert res.is_yes and res.at_stage == 1


def test_is_positive_nonpositive_injective_no():
    sys_ = doubling_system()
    res = is_positive(sys_, LimitElement(0, (-1,)), 3)
    assert res.is_no


def _frozen_negative(system: InductiveSystem, m: int, v: tuple[int, ...]) -> bool:
    """From the last declared stage on, the tail fixes v and v has a
    negative entry, or v_i < 0 for a coordinate whose tail row is e_i."""
    tail = system.stationary_tail
    if tail is None or m < system.last_declared_stage:
        return False
    rows = tail.to_rows()
    frozen = [i for i, row in enumerate(rows) if row == [int(j == i) for j in range(len(row))]]
    return (any(x < 0 for x in v) and tail.apply(v) == v) or any(v[i] < 0 for i in frozen)


def eager_is_positive(system: InductiveSystem, e: LimitElement, horizon: int) -> Tristate:
    """``is_positive`` as it was before it stopped at the first stage
    that answers: every push up to the horizon, then the answers, the
    first "yes" stage, else the first stage that is <= 0 with
    injectivity onward or has a frozen negative entry."""
    if horizon < e.stage:
        raise ValueError("horizon precedes the element's stage")
    trail = [(e.stage, tuple(e.vector))]
    while trail[-1][0] < horizon and system.has_stage(trail[-1][0] + 1):
        m, v = trail[-1]
        trail.append((m + 1, system.connecting(m).apply(v)))
    for m, v in trail:
        if all(x >= 0 for x in v):
            return Tristate.yes(m, horizon)
    for m, v in trail:
        if (all(x <= 0 for x in v) and any(v) and injective_from(system, m)) or _frozen_negative(system, m, v):
            return Tristate.no(m, horizon)
    return Tristate.unknown(horizon)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_is_positive_matches_the_eager_walk(name):
    """Basis vectors and random signed vectors of every declared stage up
    to 3, at every horizon from the element's stage to 6."""
    system, _ = load_golden(name).resolve()
    rng = random.Random(name)
    answers = set()
    for stage in (k for k in range(4) if system.has_stage(k)):
        p = system.rank_at(stage)
        vectors = [basis_element(system, stage, i).vector for i in range(p)]
        vectors += [tuple(rng.randint(-3, 3) for _ in range(p)) for _ in range(12)]
        for v in vectors:
            for horizon in range(stage, 7):
                e = LimitElement(stage, v)
                got = is_positive(system, e, horizon)
                assert got == eager_is_positive(system, e, horizon), (e, horizon)
                answers.add(got.verdict)
    assert "yes" in answers and answers != {"yes"}


def _seeded_stationary_system(rng: random.Random) -> InductiveSystem:
    """Rank 1-3, 0-2 declared maps, and a tail that is the identity, a
    unitriangular matrix (which fixes the vectors it does not move into
    the last coordinates) or a nonnegative matrix with entries 0-2 and no
    zero row (injective or not)."""
    p = rng.randint(1, 3)
    kind = rng.choice(("identity", "unitriangular", "random"))
    if kind == "identity":
        tail = IntMatrix.identity(p)
    elif kind == "unitriangular":
        tail = M([[1 if i == j else rng.randint(0, 1) if j < i else 0 for j in range(p)] for i in range(p)])
    else:
        while True:
            tail = M([[rng.randint(0, 2) for _ in range(p)] for _ in range(p)])
            if all(tail.nonzeros):
                break
    maps = []
    for _ in range(rng.randint(0, 2)):
        while True:
            a = M([[rng.randint(0, 2) for _ in range(p)] for _ in range(p)])
            if all(a.nonzeros):
                maps.append(a)
                break
    return InductiveSystem((p,) * (len(maps) + 1), tuple(maps), (1,) * p, tail)


def test_is_positive_stops_where_the_eager_walk_answers():
    """Seeded stationary systems, signed vectors at stages 0-3 and
    horizons up to 9: the walk that stops at the first stage that answers
    gives the answer and stage of the walk that pushes to the horizon
    first, and it reaches a "no" of each kind before the horizon: a
    vector <= 0 with injectivity onward, a vector the tail fixes, and a
    negative coordinate whose tail row is e_i (row 0 of every identity
    or unitriangular tail) in a vector the tail moves."""
    rng = random.Random(19)
    kinds = set()
    for _ in range(300):
        system = _seeded_stationary_system(rng)
        p = system.rank_at(0)
        for _ in range(6):
            e = LimitElement(rng.randint(0, 3), tuple(rng.randint(-3, 3) for _ in range(p)))
            horizon = rng.randint(e.stage, 9)
            got = is_positive(system, e, horizon)
            assert got == eager_is_positive(system, e, horizon), (system, e, horizon)
            if got.is_no:
                v = push(system, e, got.at_stage).vector
                if not _frozen_negative(system, got.at_stage, v):
                    kind = "nonpositive"
                elif system.stationary_tail.apply(v) == v:
                    kind = "fixed"
                else:
                    kind = "frozen coordinate"
                kinds.add((kind, got.at_stage < horizon))
            else:
                kinds.add((got.verdict, None))
    expected = {("yes", None), ("unknown", None), ("fixed", True), ("frozen coordinate", True), ("nonpositive", True)}
    assert kinds >= expected, kinds


def test_is_positive_stops_where_a_negative_entry_freezes(monkeypatch):
    """The unitriangular tail [[1, 0, 0], [0, 1, 0], [1, 1, 1]] fixes
    (1, -1, 0) from the last declared stage 3 on; a stage bound of 1000
    pushes it three times, not to the bound."""
    step = M([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    system = InductiveSystem((3,) * 4, (step,) * 3, (1, 1, 1), step)
    steps = []
    connecting = InductiveSystem.connecting
    monkeypatch.setattr(InductiveSystem, "connecting", lambda self, k: steps.append(k) or connecting(self, k))
    assert is_positive(system, LimitElement(0, (1, -1, 0)), 1000) == Tristate.no(3, 1000)
    assert steps == [0, 1, 2]


def test_is_positive_stops_where_a_negative_coordinate_freezes(monkeypatch):
    """The tail [[2, 0], [0, 1]] doubles the first coordinate of (1, -1)
    and never fixes the vector, but its row 1 is e_1, so the -1 stays
    forever: "no" at the last declared stage 0, with no push at all."""
    system = InductiveSystem((2,), (), (1, 1), M([[2, 0], [0, 1]]))
    steps = []
    connecting = InductiveSystem.connecting
    monkeypatch.setattr(InductiveSystem, "connecting", lambda self, k: steps.append(k) or connecting(self, k))
    assert is_positive(system, LimitElement(0, (1, -1)), 10**9) == Tristate.no(0, 10**9)
    assert steps == []
    assert eager_is_positive(system, LimitElement(0, (1, -1)), 5) == Tristate.no(0, 5)


def test_is_positive_pushes_only_to_its_first_nonnegative_stage(monkeypatch):
    # [[2,1],[1,1]] sends (1,-1) to (1,0): one push, whatever the horizon
    sys_ = InductiveSystem((2,), (), (1, 1), M([[2, 1], [1, 1]]))
    steps = []
    connecting = InductiveSystem.connecting
    monkeypatch.setattr(InductiveSystem, "connecting", lambda self, k: steps.append(k) or connecting(self, k))
    assert is_positive(sys_, LimitElement(0, (1, -1)), 1000) == Tristate.yes(1, 1000)
    assert steps == [0]
    with pytest.raises(ValueError):
        is_positive(sys_, LimitElement(3, (1, 1)), 2)


def test_is_zero_trivial():
    sys_ = identity_system()
    res = is_zero(sys_, LimitElement(0, (0, 0)), 3)
    assert res.is_yes and res.at_stage == 0


def test_is_zero_injective_no():
    sys_ = doubling_system()
    res = is_zero(sys_, LimitElement(0, (3,)), 3)
    assert res.is_no


def test_is_zero_kernel_yes():
    sys_ = InductiveSystem((2, 1), (M([[1, 1]]),), (1, 1))
    res = is_zero(sys_, LimitElement(0, (1, -1)), 1)
    assert res.is_yes and res.at_stage == 1


def test_is_zero_prefix_unknown(shift_pair):
    system, _ = shift_pair
    res = is_zero(system, LimitElement(2, (0, 1, 0, 0, 0)), 3)
    # nonzero through the declared prefix, but no claim about the tail
    assert res.verdict == "unknown"


def test_stationary_injective_is_zero_decisive():
    sys_ = doubling_system()
    for vec in [(0,), (1,), (-2,), (5,)]:
        res = is_zero(sys_, LimitElement(0, vec), 4)
        assert res.verdict in ("yes", "no")


def test_is_zero_on_a_singular_tail_stops_where_nothing_more_vanishes():
    """The tail sends (v0, v1, v2) to (v2, v0, v2), so (1, 0, 0) vanishes
    two steps past the last declared stage. The walk stops at that stage
    plus the tail rank: a horizon of 10**9 answers at once, and what
    pushing to stage 12 shows, "no" at that settled stage (Fitting's
    lemma) for what is still nonzero there."""
    sys_ = InductiveSystem((3, 3), (IntMatrix.identity(3),), (1, 1, 1), M([[0, 0, 1], [1, 0, 0], [0, 0, 1]]))
    assert is_zero(sys_, LimitElement(0, (1, 0, 0)), 10**9) == Tristate.yes(3, 10**9)
    for k in range(3):
        for vec in [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]:
            e = LimitElement(k, vec)
            res = is_zero(sys_, e, 10**9)
            assert res.is_yes != any(push(sys_, e, 12).vector)
            assert res.is_yes or res == Tristate.no(max(k, 1) + 3, 10**9)


def test_is_zero_says_no_at_the_settled_stage_of_a_singular_tail():
    """The tail [[1, 1], [1, 1]] is singular, so no stage is injective
    onward, but (1, 0) is still nonzero at its settled stage 0 + 2, and
    nothing nonzero there ever vanishes; (1, -1) vanishes at once. A
    horizon short of the settled stage leaves the answer unknown."""
    sys_ = InductiveSystem((2,), (), (1, 1), M([[1, 1], [1, 1]]))
    assert is_zero(sys_, LimitElement(0, (1, 0)), 10) == Tristate.no(2, 10)
    assert is_zero(sys_, LimitElement(0, (1, -1)), 10) == Tristate.yes(1, 10)
    assert is_zero(sys_, LimitElement(0, (1, 0)), 1) == Tristate.unknown(1)


def test_injectivity_report():
    assert injectivity_report(doubling_system(), 3).tail_injective is True
    sys_ = InductiveSystem((2, 1), (M([[1, 1]]),), (1, 1))
    rep = injectivity_report(sys_, 3)
    assert rep.stage_flags == ((0, False),)
    assert rep.tail_injective is None


def test_injectivity_report_shift(shift_pair):
    system, _ = shift_pair
    rep = injectivity_report(system, 3)
    assert rep.stage_flags == ((0, True), (1, True), (2, True))


def test_push_functoriality_random(shift_pair):
    system, _ = shift_pair
    rng = random.Random(7)
    for _ in range(40):
        s = rng.randint(0, 2)
        vec = tuple(rng.randint(-3, 3) for _ in range(system.rank_at(s)))
        e = LimitElement(s, vec)
        m = rng.randint(s, 3)
        n = rng.randint(m, 3)
        assert push(system, push(system, e, m), n) == push(system, e, n)


def test_cone_maps_forward(shift_pair):
    system, _ = shift_pair
    rng = random.Random(11)
    for _ in range(40):
        s = rng.randint(0, 2)
        vec = tuple(rng.randint(-2, 3) for _ in range(system.rank_at(s)))
        e = LimitElement(s, vec)
        res = is_positive(system, e, 3)
        if res.is_yes:
            for m in range(res.at_stage, 4):
                later = is_positive(system, push(system, e, m), 3)
                assert later.is_yes and later.at_stage == m


def test_unit_positivity(shift_pair):
    system, _ = shift_pair
    res = is_positive(system, unit_element(system), 3)
    assert res.is_yes and res.at_stage == 0
    assert system.unit_at(2) == (1, 1, 1, 1, 1)


def test_tristate_invariant():
    with pytest.raises(ValueError):
        from k0mf.dimgroup import Tristate

        Tristate("yes", 5, 3)
