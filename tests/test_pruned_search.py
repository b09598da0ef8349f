"""The pruned lattice walk, the integer LP re-checks, stage-by-stage
pushes and the per-system injectivity cache against their references.

* ``enumerate_lattice_points`` with ``key="support"`` must yield exactly
  the nonzero points of the unpruned walk kept in ``ball_walk``, and
  with ``nonnegative=True`` exactly its nonzero nonnegative points; with
  an empty basis the ``"mass"`` walk yields the offset where the box
  holds it.
* ``_point_satisfies`` and ``verify_farkas`` re-check in integers; they
  must agree with the ``Fraction`` re-checks kept in ``fraction_simplex``
  on seeded programs, points and certificates, and reject mutated
  certificates.
* ``find_invariant_state`` pushes each element and word image once and
  steps them a stage at a time, and after a miss it solves again only
  once a requested element has vanished, up to the stage past which no
  support changes; on seeded requests, on systems whose maps have
  zero columns and on the exclusion sets of witnesses it must return
  what pushing everything again and solving at every stage returns.
  Where no stage up to its bound can pose the question it raises
  ``StageRangeError``, and the oracle reports that too.
* ``InductiveSystem`` caches each map's full-column-rank flag; every
  ``is_zero`` and ``is_positive`` answer must be the uncached one, with
  each map ranked at most once.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from ball_walk import ball_walk
from conftest import GOLDEN_NAMES, load_golden
from dense_hermite import row_basis
from fraction_simplex import fraction_point_satisfies, fraction_verify_farkas
from identity_action import identity_action
from test_exactlinalg import random_program
from test_lattice_pipeline import BOXES, CASES, compactified_shift
from test_lp_integer import cone_program, state_program

from k0mf import certify, dimgroup
from k0mf.bratteli import canonical_json_bytes
from k0mf.certify import (
    SearchParams,
    StateCertificate,
    _canonical_functional,
    _dot,
    exclusion_sets,
    find_invariant_state,
    find_positive_coboundary,
)
from k0mf.cli import run_check, verdict_payload
from k0mf.dimgroup import InductiveSystem, LimitElement, StageRangeError, is_positive, is_zero, push
from k0mf.exactlinalg import (
    Infeasible,
    IntMatrix,
    LinearProgram,
    _point_satisfies,
    enumerate_lattice_points,
    lp_feasible,
    rank,
    verify_farkas,
)
from k0mf.kaction import K0Action, StageMap, StationaryRule, Word, coboundary, word_map


# ---------------------------------------------------------------------------
# pruned lattice walk
# ---------------------------------------------------------------------------


def _hermite_bases(seed: int, count: int):
    """Seeded Hermite bases of every shape: full and deficient rank,
    leading zero columns, non-pivot columns and pivots above 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        width = rng.randint(1, 5)
        height = rng.randint(1, width + 1)
        spread = rng.choice([1, 2, 3])
        vectors = [[rng.randint(-spread, spread) for _ in range(width)] for _ in range(height)]
        for j in range(rng.randint(0, 1)):  # sometimes a zero leading column
            for v in vectors:
                v[j] = 0
        rows = row_basis(vectors, width)
        if rows:
            out.append((rows, width))
    return out


BASES = _hermite_bases(20261018, 160)


def test_seeded_bases_cover_every_shape():
    pivots = [[next(j for j, x in enumerate(r) if x) for r in rows] for rows, _ in BASES]
    assert any(len(p) < w for p, (_, w) in zip(pivots, BASES))  # non-pivot columns
    assert any(p[0] > 0 for p in pivots)  # coordinates before the first pivot
    assert any(any(rows[i][j] > 1 for i, j in enumerate(p)) for p, (rows, _) in zip(pivots, BASES))


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_pruned_walk_yields_the_ball_walk(radius):
    rng = random.Random(radius)
    for rows, width in BASES:
        for offset in (None, tuple(rng.randint(-4, 4) for _ in range(width))):
            want = sorted(v for v in ball_walk(rows, radius, offset) if any(v))
            assert sorted(enumerate_lattice_points(rows, radius, offset, key="support")) == want
            nonneg = [v for v in want if min(v) >= 0]
            assert sorted(enumerate_lattice_points(rows, radius, offset, nonnegative=True, key="support")) == nonneg


def test_empty_basis_yields_the_offset_when_it_is_in_the_box():
    for radius in (0, 1, 3):
        for offset in ((0, 0), (1, -1), (-1, 2), (3, 3), (2, 4)):
            want = list(ball_walk([], radius, offset))
            assert list(enumerate_lattice_points([], radius, offset, key="mass")) == want
            assert list(enumerate_lattice_points([], radius, offset, nonnegative=True, key="mass")) == [
                v for v in want if min(v) >= 0
            ]
    assert list(enumerate_lattice_points([], 2, key="support")) == []
    assert list(enumerate_lattice_points([], 0, (0, 0, 0), key="mass")) == [(0, 0, 0)]


# ---------------------------------------------------------------------------
# integer re-checks of LP results
# ---------------------------------------------------------------------------


def _programs(seed: int, count: int):
    rng = random.Random(seed)
    makers = [random_program, cone_program, state_program]
    return [makers[i % len(makers)](rng) for i in range(count)], rng


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def test_point_check_agrees_with_the_fraction_oracle():
    programs, rng = _programs(11, 240)
    feasible = 0
    for p in programs:
        res = lp_feasible(p)
        points = [tuple(_random_rational(rng) for _ in range(p.num_vars)) for _ in range(3)]
        if not isinstance(res, Infeasible):
            feasible += 1
            points.append(res.point)
            for j in range(p.num_vars):  # one coordinate nudged
                x = list(res.point)
                x[j] += Fraction(1, 3)
                points.append(tuple(x))
        for x in points:
            assert _point_satisfies(p, x) == fraction_point_satisfies(p, x)
        if not isinstance(res, Infeasible):
            assert _point_satisfies(p, res.point)
    assert 20 < feasible < len(programs) - 20


def test_farkas_check_agrees_with_the_fraction_oracle():
    programs, rng = _programs(12, 240)
    infeasible = 0
    for p in programs:
        res = lp_feasible(p)
        n_ineq = len(p.inequalities)
        certs = [Infeasible(tuple(abs(_random_rational(rng)) for _ in range(n_ineq))) for _ in range(3)]
        if isinstance(res, Infeasible):
            infeasible += 1
            certs.append(res)
            certs.append(Infeasible(res.ineq_multipliers[:-1]))  # truncated
            certs.append(Infeasible(tuple(2 * t for t in res.ineq_multipliers)))
        for cert in certs:
            assert verify_farkas(p, cert) == fraction_verify_farkas(p, cert)
    assert 20 < infeasible < len(programs) - 20


def test_mutated_farkas_certificates_are_rejected():
    programs, rng = _programs(13, 400)
    mutated = Counter()
    for p in programs:
        res = lp_feasible(p)
        if not isinstance(res, Infeasible):
            continue
        mults = list(res.ineq_multipliers)
        rows = p.inequalities
        # rows whose multiplier and coefficients are both nonzero: changing
        # the multiplier of one, or dropping it, leaves a nonzero combination
        live = [i for i, t in enumerate(mults) if t and any(rows[i][0])]
        if not live:
            continue
        i = rng.choice(live)
        flipped = mults[:]
        flipped[i] = -flipped[i]
        nudged = mults[:]
        nudged[i] += Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
        dropped_program = LinearProgram(p.num_vars, rows[:i] + rows[i + 1 :])
        dropped = Infeasible(tuple(mults[:i] + mults[i + 1 :]))
        for name, program, cert in (
            ("flipped", p, Infeasible(tuple(flipped))),
            ("nudged", p, Infeasible(tuple(nudged))),
            ("dropped", dropped_program, dropped),
        ):
            assert not verify_farkas(program, cert), name
            assert not fraction_verify_farkas(program, cert), name
            mutated[name] += 1
    assert min(mutated.values()) > 20


def test_integer_checks_accept_int_entries():
    """Programs and results built directly from ints, not Fractions."""
    p = LinearProgram(2, (((1, 1), 2), ((-1, -1), -2), ((1, 0), 1)))
    assert _point_satisfies(p, (1, 1)) and not _point_satisfies(p, (0, 2))
    q = LinearProgram(1, (((1,), 1), ((-1,), 0)))
    assert verify_farkas(q, Infeasible((1, 1)))
    assert not verify_farkas(q, Infeasible((1, 2)))


# ---------------------------------------------------------------------------
# stage-by-stage pushes
# ---------------------------------------------------------------------------


CANNOT_ASK = "cannot ask"


def search_outcome(system, action, elements, words, stage_max, faithful=()):
    """``find_invariant_state``'s answer, or CANNOT_ASK where it raises
    StageRangeError because no stage up to ``stage_max`` can pose the
    question."""
    try:
        return find_invariant_state(system, action, elements, words, stage_max, faithful)
    except StageRangeError:
        return CANNOT_ASK


def push_every_stage(system, action, elements, words, stage_max, faithful=()):
    """The state search as it was before: every element and word image
    pushed again from its own stage at every stage tried. CANNOT_ASK
    when a word has no map out of an element's stage, or when the stage
    where the elements and their word images meet is past ``stage_max``
    or not declared; None only after a stage was solved."""
    requested = [*elements, *faithful]
    for g in requested:
        if not is_positive(system, g, max(stage_max, g.stage)).is_yes:
            raise ValueError("not positive")
    try:
        maps = [(gi, g, word_map(action, system, w, g.stage)) for gi, g in enumerate(elements) for w in words]
    except StageRangeError:
        return CANNOT_ASK
    images = [(gi, LimitElement(sm.to_stage, sm.matrix.apply(g.vector))) for gi, g, sm in maps]
    first = max([g.stage for g in requested] + [img.stage for _, img in images])
    if first > stage_max or not system.has_stage(first):
        return CANNOT_ASK
    for m in range(first, stage_max + 1):
        if not system.has_stage(m):
            break
        diffs = []
        for gi, img in images:
            gv = push(system, elements[gi], m).vector
            iv = push(system, img, m).vector
            diffs.append(tuple(a - b for a, b in zip(gv, iv)))
        positives = [tuple(system.unit_at(m))]
        for g in requested:
            gv = push(system, g, m).vector
            if any(gv):
                positives.append(gv)
        diffs_matrix = IntMatrix.from_rows(diffs) if diffs else IntMatrix.zeros(0, system.rank_at(m))
        best = _canonical_functional(diffs_matrix, positives)
        if best is None:
            continue
        return StateCertificate(
            stage=m,
            functional=tuple(best),
            elements=tuple(elements),
            words=tuple(words),
            unit_value=_dot(best, system.unit_at(m)),
            element_values=tuple(_dot(best, push(system, g, m).vector) for g in elements),
        )
    return None


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_state_search_matches_pushing_every_stage(name, make):
    """Seeded requests; some certificates land past the first stage."""
    system, action = make()
    rng = random.Random(name)
    letters = [s * j for j in range(1, action.generators + 1) for s in (1, -1)]
    for _ in range(30):
        elements = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3) if system.has_stage(3) else 0
            elements.append(LimitElement(k, tuple(rng.randint(0, 2) for _ in range(system.rank_at(k)))))
        words = [Word.of(*(rng.choice(letters) for _ in range(rng.randint(1, 2)))) for _ in range(rng.randint(0, 2))]
        stage_max = rng.randint(0, 5)
        assert search_outcome(system, action, elements, words, stage_max) == push_every_stage(
            system, action, elements, words, stage_max
        )


def test_a_certificate_past_the_first_stage():
    """The connecting map kills e2, which the action's invariance forces
    every functional to vanish on: stage 0 misses, stage 1 hits."""
    system = InductiveSystem((2, 2), (IntMatrix.from_rows([[1, 0], [1, 0]]),), (1, 1))
    a0 = StageMap(0, 0, IntMatrix.from_rows([[1, 0], [2, 1]]))
    a1 = StageMap(1, 1, IntMatrix.identity(2))
    action = K0Action(1, ((a0, a1),), ((a0, a1),))
    elements = [LimitElement(0, (1, 0)), LimitElement(0, (0, 1))]
    cert = find_invariant_state(system, action, elements, [Word.of(1)], 1)
    assert cert == push_every_stage(system, action, elements, [Word.of(1)], 1)
    assert (cert.stage, cert.functional, cert.element_values) == (1, (1, 1), (2, 0))
    assert find_invariant_state(system, action, elements, [Word.of(1)], 0) is None


def _exclusion_requests(system, action, params):
    """The exclusion sets of the witness the search finds, or None."""
    witness = find_positive_coboundary(system, action, params).witness
    if witness is None:
        return None
    return exclusion_sets(witness, action.generators)


def test_exclusion_searches_match_solving_every_stage():
    """Every bundled VIOLATION document at both pinned boxes."""
    checked = 0
    for name in GOLDEN_NAMES:
        system, action = load_golden(name).resolve()
        for params, _ in BOXES:
            sets = _exclusion_requests(system, action, params)
            if sets is None:
                continue
            elements, words = sets
            got = find_invariant_state(system, action, elements, words, params.stage_max)
            assert got is None  # the witness rules out an invariant faithful state
            assert got == push_every_stage(system, action, elements, words, params.stage_max)
            checked += 1
    assert checked >= 2


def _as_exclusion_holds_asks(system, action, params):
    """What ``exclusion_holds`` passes the state search for the witness
    the search finds: the preimages' parts, the words, its stage bound
    (where the preimages' coboundary lands, if past ``params``) and the
    value as ``faithful``; or None."""
    witness = find_positive_coboundary(system, action, params).witness
    if witness is None:
        return None
    (value, *parts), words = exclusion_sets(witness, action.generators)
    bound = max(params.stage_max, coboundary(action, system, witness.preimages).stage)
    return parts, words, bound, (value,)


def _count_state_work(monkeypatch):
    """Record each state LP's outcome and count the integer kernels."""
    outcomes, kernels = [], []
    lp, kernel = certify.lp_feasible, certify.integer_kernel
    monkeypatch.setattr(certify, "lp_feasible", lambda p: outcomes.append(lp(p)) or outcomes[-1])
    monkeypatch.setattr(certify, "integer_kernel", lambda a: kernels.append(a) or kernel(a))
    return outcomes, kernels


def test_seeded_injective_exclusion_searches(monkeypatch):
    """Compactified shifts have injective connecting maps, so no element
    of an exclusion set ever vanishes: the first stage that misses is the
    only one solved, and every later stage agrees with solving it."""
    outcomes, kernels = _count_state_work(monkeypatch)
    rng = random.Random(20261018)
    misses_before_the_last_stage = 0
    for _ in range(12):
        stages = rng.randint(4, 8)
        speeds = [rng.choice([1, -1, 2, -2, 3]) for _ in range(rng.randint(1, 2))]
        system, action = compactified_shift(stages, speeds)
        assert all(system.map_injective(k) for k in range(stages - 1))
        params = SearchParams(stage_max=rng.randint(stages - 2, stages + 1))
        asks = _as_exclusion_holds_asks(system, action, params)
        if asks is None:
            continue
        parts, words, bound, faithful = asks
        outcomes.clear()
        kernels.clear()
        assert find_invariant_state(system, action, parts, words, bound, faithful) is None
        assert len(outcomes) <= len(kernels) == 1
        assert all(isinstance(res, Infeasible) for res in outcomes)
        if outcomes and system.has_stage(max(g.stage for g in (*parts, *faithful)) + 1):
            misses_before_the_last_stage += 1
        assert push_every_stage(system, action, parts, words, bound, faithful) is None
    assert misses_before_the_last_stage >= 3


def test_an_injective_first_miss_runs_one_state_program(monkeypatch):
    """Eight stages, a miss at stage 2: stages 3 to 7 solve nothing."""
    system, action = compactified_shift(8, [1])
    assert all(system.map_injective(k) for k in range(7))
    elements, words = _exclusion_requests(system, action, SearchParams(stage_max=7))
    assert max(g.stage for g in elements) == 2
    outcomes, kernels = _count_state_work(monkeypatch)
    assert find_invariant_state(system, action, elements, words, 7) is None
    assert len(outcomes) == 1 and isinstance(outcomes[0], Infeasible)
    assert len(kernels) == 1


def test_a_certificate_after_an_element_vanishes_two_stages_later(monkeypatch):
    """As in ``test_a_certificate_past_the_first_stage``, but the map
    killing e2 is the second one: stage 0 misses, stage 1 (an identity
    step) is skipped, and the search solves again at stage 2, where e2
    has vanished and the counting functional (1, 1) is a state, found
    without a program."""
    a = IntMatrix.from_rows([[1, 0], [2, 1]])
    kill = IntMatrix.from_rows([[1, 0], [1, 0]])
    system = InductiveSystem((2, 2, 2), (IntMatrix.identity(2), kill), (1, 1))
    maps = (StageMap(0, 0, a), StageMap(1, 1, a), StageMap(2, 2, IntMatrix.identity(2)))
    action = K0Action(1, (maps,), (maps,))
    elements = [LimitElement(0, (1, 0)), LimitElement(0, (0, 1))]
    words = [Word.of(1)]
    outcomes, _ = _count_state_work(monkeypatch)
    cert = find_invariant_state(system, action, elements, words, 2)
    assert [isinstance(res, Infeasible) for res in outcomes] == [True]
    assert (cert.stage, cert.functional, cert.element_values) == (2, (1, 1), (2, 0))
    assert cert == push_every_stage(system, action, elements, words, 2)
    outcomes.clear()
    assert find_invariant_state(system, action, elements, words, 1) is None
    assert len(outcomes) == 1


def test_state_search_past_the_declared_stages_cannot_be_asked():
    """No word images, an element one stage past a finite prefix: no
    stage holds the question, so the search raises without pushing
    anything, as it does where a word has no map or the word images land
    past the stage bound."""
    system = InductiveSystem((1, 1), (IntMatrix.from_rows([[1]]),), (1,))
    action = identity_action(system)
    with pytest.raises(StageRangeError, match="meet at stage 2, which is not declared"):
        find_invariant_state(system, action, [LimitElement(2, (1,))], [], 4)
    with pytest.raises(StageRangeError, match="meet at stage 1, past the stage bound 0"):
        find_invariant_state(system, action, [LimitElement(1, (1,))], [Word.of(1)], 0)
    assert push_every_stage(system, action, [LimitElement(2, (1,))], [], 4) == CANNOT_ASK


def test_state_search_on_a_singular_tail_stops_where_nothing_more_vanishes():
    """The tail sends (v0, v1, v2) to (v2, v0, v2): (0, 1, 0) vanishes one
    step on and (1, 0, 0) two. No support changes past the first stage
    plus the tail rank (at most 6 here), so a stage bound of 10**9
    answers what solving every stage up to 12 answers."""
    system = InductiveSystem((3,), (), (1, 1, 1), IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 0, 1]]))
    rng = random.Random(3)
    outcomes = Counter()
    for _ in range(60):
        a = IntMatrix.from_rows([[rng.randint(0, 2) for _ in range(3)] for _ in range(3)])
        shift = rng.randint(0, 1)
        action = K0Action(1, ((),), ((),), (StationaryRule(shift, a, a),))
        elements = [LimitElement(rng.randint(0, 1), tuple(rng.randint(0, 1) for _ in range(3))) for _ in range(2)]
        words = [Word.of(rng.choice((1, -1)))]
        want = push_every_stage(system, action, elements, words, 12)
        assert find_invariant_state(system, action, elements, words, 10**9) == want
        first = max(g.stage for g in elements) + shift
        outcomes["miss" if want is None else "first" if want.stage == first else "later"] += 1
    assert set(outcomes) == {"miss", "first", "later"}, outcomes


def test_exclusion_on_a_long_shift_solves_no_stage_past_its_first_miss(monkeypatch):
    """A 21-stage compactified shift with speeds 2 and -3, searched up to
    stage 20: the inclusions of the shift are injective, so no element
    of the exclusion sets vanishes past the stage where they first miss,
    and no later stage builds a kernel."""
    system, action = compactified_shift(21, [2, -3])
    witness = find_positive_coboundary(system, action, SearchParams(stage_max=20)).witness
    elements, words = exclusion_sets(witness, action.generators)
    first = max(word_map(action, system, w, g.stage).to_stage for g in elements for w in words)
    assert system.has_stage(first + 1) and first < 20
    _, kernels = _count_state_work(monkeypatch)
    assert certify.exclusion_holds(system, action, witness, 20)
    assert len(kernels) == 1


def test_exclusion_solves_a_program_where_the_value_has_no_word_map(monkeypatch):
    """The seven-stage compactified shift of speed -3 (the benchmark's
    shift-witness-1-2): the witness value sits at stage 4, where the
    generator has no map, so the words must act on the preimages' parts
    alone. The check then solves a program, and it is infeasible."""
    system, action = compactified_shift(7, [-3])
    params = SearchParams(stage_max=6, height_bound=4)
    witness = find_positive_coboundary(system, action, params).witness
    with pytest.raises(StageRangeError):
        word_map(action, system, Word.of(1), witness.value.stage)
    outcomes, _ = _count_state_work(monkeypatch)
    assert certify.exclusion_holds(system, action, witness, params.stage_max)
    assert len(outcomes) >= 1 and all(isinstance(res, Infeasible) for res in outcomes)


def test_exclusion_without_a_word_map_on_the_parts_proves_nothing(monkeypatch):
    """A preimage moved to stage 4, where the generator has no map: no
    program can be solved, and that is not read as "no state exists"."""
    system, action = compactified_shift(7, [-3])
    witness = find_positive_coboundary(system, action, SearchParams(stage_max=6, height_bound=4)).witness
    moved = replace(witness, preimages=(LimitElement(4, (1,) + (0,) * (system.rank_at(4) - 1)),))
    outcomes, _ = _count_state_work(monkeypatch)
    assert not certify.exclusion_holds(system, action, moved, 6)
    assert outcomes == []


def test_exclusion_solves_a_program_past_a_small_stage_bound(monkeypatch):
    """The seven-stage compactified shift of speed -3 at --max-stage 4:
    the preimage sits at stage 3 and its generator image lands at stage
    6, past the bound. The check solves the program at that stage, where
    the witness's own check reaches, rather than holding with nothing
    solved; the payload keeps the bytes it had when nothing was solved."""
    system, action = compactified_shift(7, [-3])
    _, kernels = _count_state_work(monkeypatch)
    verdict = run_check(system, action, SearchParams(stage_max=4, height_bound=4))
    assert [g.stage for g in verdict.witness.preimages] == [3]
    assert coboundary(action, system, verdict.witness.preimages).stage == 6
    assert verdict.mutual_exclusion_ok is True
    assert len(kernels) >= 1
    blob = canonical_json_bytes(verdict_payload("check-mf", None, verdict))
    assert hashlib.sha256(blob).hexdigest() == "77d3f8ca32f400d7071a8f4467b36af0ef416afb0c403b27ca4351adee7087d4"


def test_a_certificate_after_a_negative_entry_cancels():
    """(1, -1) is positive (the map [[1, 1], [1, 1]], which has no zero
    column, sends it to 0), but invariance under the swap forces every
    functional to vanish on it: stage 0 misses, and the search must go
    on to stage 1, where it has vanished and a state exists."""
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    system = InductiveSystem((2, 2), (IntMatrix.from_rows([[1, 1], [1, 1]]),), (1, 1))
    maps = (StageMap(0, 0, swap), StageMap(1, 1, swap))
    action = K0Action(1, (maps,), (maps,))
    elements = [LimitElement(0, (1, -1))]
    cert = find_invariant_state(system, action, elements, [Word.of(1)], 1)
    assert cert == push_every_stage(system, action, elements, [Word.of(1)], 1)
    assert (cert.stage, cert.element_values) == (1, (0,))


def _seeded_nonnegative(rng: random.Random, rows: int, cols: int, zero_column: bool) -> IntMatrix:
    """Entries 0-2, no zero row (so the unit stays >= 1), and with
    ``zero_column`` one column of zeros."""
    while True:
        entries = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(cols)] for _ in range(rows)]
        if zero_column and cols > 1:
            dead = rng.randrange(cols)
            for row in entries:
                row[dead] = 0
        if all(any(row) for row in entries):
            return IntMatrix.from_rows(entries)


def _seeded_unipotent(rng: random.Random, p: int) -> IntMatrix:
    """I plus a strictly lower-triangular matrix with entries 0-2."""
    return IntMatrix.from_rows(
        [[1 if i == j else rng.choice((0, 1, 2)) if j < i else 0 for j in range(p)] for i in range(p)]
    )


def _seeded_system_with_dead_columns(rng: random.Random):
    """2-5 stages of rank 1-3 whose connecting maps (and optional tail)
    have a zero column two times in five, with one generator acting by
    a unipotent map at each stage, which forces invariant functionals to
    vanish on some coordinates."""
    n = rng.randint(2, 5)
    ranks = [rng.randint(1, 3) for _ in range(n)]
    maps = tuple(_seeded_nonnegative(rng, ranks[k + 1], ranks[k], rng.random() < 0.4) for k in range(n - 1))
    tail = _seeded_nonnegative(rng, ranks[-1], ranks[-1], rng.random() < 0.4) if rng.random() < 0.5 else None
    system = InductiveSystem(tuple(ranks), maps, (1,) * ranks[0], tail)
    steps = tuple(StageMap(k, k, _seeded_unipotent(rng, ranks[k])) for k in range(n - 1 if tail else n))
    rule = None
    if tail is not None:
        u = _seeded_unipotent(rng, ranks[-1])
        rule = (StationaryRule(0, u, u),)
    return system, K0Action(1, (steps,), (steps,), rule)


def test_state_search_stop_agrees_with_solving_every_stage(monkeypatch):
    """Seeded systems with zero columns in their connecting maps, and
    positive requests with entries -1 to 2: the search must return what
    solving every stage returns, both where every stage it solves misses
    and where a zero column kills an element after a miss and a
    certificate appears only at a later stage."""
    seen = Counter()
    calls = []
    canonical = certify._canonical_functional
    monkeypatch.setattr(certify, "_canonical_functional", lambda *args: calls.append(canonical(*args)) or calls[-1])
    for seed in range(2000):
        rng = random.Random(seed)
        system, action = _seeded_system_with_dead_columns(rng)
        elements = [
            LimitElement(k, tuple(rng.randint(-1, 2) for _ in range(system.rank_at(k))))
            for k in (rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        ]
        stage_max = rng.randint(0, len(system.stage_ranks) + 2)
        if not all(is_positive(system, g, max(stage_max, g.stage)).is_yes for g in elements):
            continue
        calls.clear()
        got = search_outcome(system, action, elements, [Word.of(1)], stage_max)
        assert got == push_every_stage(system, action, elements, [Word.of(1)], stage_max), seed
        if got is None and None in calls:
            seen["None after a miss"] += 1
        if got is not None and None in calls:
            seen["certificate after a miss"] += 1
    assert seen["None after a miss"] >= 20 and seen["certificate after a miss"] >= 2, seen


# ---------------------------------------------------------------------------
# per-system injectivity cache
# ---------------------------------------------------------------------------


def _queries(system):
    top = 5
    stages = [k for k in range(top + 1) if system.has_stage(k)]
    for k in stages:
        p = system.rank_at(k)
        basis = [tuple(1 if j == i else 0 for j in range(p)) for i in range(p)]
        vectors = basis + [tuple(-x for x in v) for v in basis] + [(0,) * p, system.unit_at(k)]
        if p > 1:
            vectors.append((1, -1) + (0,) * (p - 2))
            vectors.append((-1,) + (2,) * (p - 1))
        for v in vectors:
            for horizon in range(k, top + 1):
                yield LimitElement(k, v), horizon


def _answers(system):
    return [
        (is_zero(system, e, h), is_positive(system, e, h)) for e, h in _queries(system)
    ]


@pytest.mark.parametrize("make", [m for _, m in CASES], ids=[name for name, _ in CASES])
def test_injectivity_cache_keeps_every_answer(make, monkeypatch):
    def uncached(self, k):
        a = self.stationary_tail if k is None else self.connecting_maps[k]
        return rank(a) == a.cols

    with monkeypatch.context() as m:
        m.setattr(InductiveSystem, "map_injective", uncached)
        want = _answers(make()[0])
    ranked = []
    monkeypatch.setattr(dimgroup, "rank", lambda a: ranked.append(a) or rank(a))
    system = make()[0]
    assert _answers(system) == want
    assert _answers(system) == want  # warm
    assert bool(ranked) == system.is_stationary  # only a tail can certify injectivity
    maps = list(system.connecting_maps) + [system.stationary_tail]
    for a, calls in Counter(map(id, ranked)).items():
        assert calls <= sum(1 for b in maps if id(b) == a)
