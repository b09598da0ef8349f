"""``verify_action`` stops at the repeat stage and loses no verdict.

Past ``repeat_stage`` every rank, connecting map and letter map is the
tail's, so each check there repeats the one at the repeat stage (unit
preservation by induction through the commuting square). Against the
oracle that checked one stage past the longest prefix, ``ok`` must be
equal on every input, and the items must be the oracle's items up to
``min(horizon, repeat_stage)``, in the same order with the same details.
"""

import random

import pytest

from conftest import GOLDEN_NAMES, load_golden
from test_lattice_pipeline import CASES
from verify_action_oracle import verify_action as oracle_verify_action

from k0mf.bratteli import permutation_matrix
from k0mf.dimgroup import InductiveSystem
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import CheckItem, K0Action, StageMap, StationaryRule, repeat_stage, verify_action

M = IntMatrix.from_rows

HORIZONS = range(9)


def assert_matches_oracle(system, action, horizon) -> bool:
    report = verify_action(action, system, horizon)
    expected = oracle_verify_action(action, system, horizon)
    repeat = repeat_stage(action, system)
    top = horizon if repeat is None else min(horizon, repeat)
    assert report.ok == expected.ok
    assert report.items == tuple(item for item in expected.items if item.stage <= top)
    return report.ok


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_bundled_documents_match_oracle(name):
    system, action = load_golden(name).resolve()
    for horizon in HORIZONS:
        assert assert_matches_oracle(system, action, horizon)


@pytest.mark.parametrize("case", CASES, ids=[name for name, _ in CASES])
def test_pipeline_cases_match_oracle(case):
    system, action = case[1]()
    for horizon in HORIZONS:
        assert assert_matches_oracle(system, action, horizon)


# ---------------------------------------------------------------------------
# Seeded stationary actions, valid and broken
# ---------------------------------------------------------------------------


def _power(a: IntMatrix, e: int) -> IntMatrix:
    out = IntMatrix.identity(a.rows)
    for _ in range(e):
        out = out @ a
    return out


def _plus(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return M([[a.at(r, c) + b.at(r, c) for c in range(a.cols)] for r in range(a.rows)])


def stationary_action(rng: random.Random):
    """A valid action on a stationary system of rank n with 1-3 declared
    stages; with ``collapsed`` stage 0 has rank 1 and maps into the
    all-ones vector. Each generator is a permutation Q commuting with the
    tail T; with shift 0 it acts as Q, with shift 1 as T Q (the inverse
    as Q^-1 or T Q^-1), and its 0-3 declared steps repeat the rule."""
    n = rng.randint(1, 4)
    points = list(range(1, n + 1))
    rng.shuffle(points)
    p = permutation_matrix(tuple(points))
    ident = IntMatrix.identity(n)
    kind = rng.choice(("perm", "perm+1", "identity", "double"))
    tail = {"perm": p, "perm+1": _plus(p, ident), "identity": ident, "double": _plus(ident, ident)}[kind]
    declared = rng.randint(1, 3)
    collapsed = declared > 1 and rng.random() < 0.3
    ones = M([[1] for _ in range(n)])
    if collapsed:
        ranks = (1,) + (n,) * (declared - 1)
        maps = (ones,) + (tail,) * (declared - 2)
        unit = (1,)
    else:
        ranks = (n,) * declared
        maps = (tail,) * (declared - 1)
        unit = (1,) * n
    system = InductiveSystem(ranks, maps, unit, tail)

    generators = rng.randint(1, 2)
    forward, inverse, rules = [], [], []
    for _ in range(generators):
        if kind in ("perm", "perm+1"):
            q = _power(p, rng.randint(0, n))
        else:
            shuffled = list(range(1, n + 1))
            rng.shuffle(shuffled)
            q = permutation_matrix(tuple(shuffled))
        shift = rng.choice((0, 1))
        fwd, inv = (q, q.transpose()) if shift == 0 else (tail @ q, tail @ q.transpose())
        rules.append(StationaryRule(shift, fwd, inv))

        def family(mat: IntMatrix) -> tuple[StageMap, ...]:
            length = rng.randint(1 if collapsed else 0, 3)
            steps = []
            for k in range(length):
                if collapsed and k == 0:
                    steps.append(StageMap(0, shift, M([[1]]) if shift == 0 else ones))
                else:
                    steps.append(StageMap(k, k + shift, mat))
            return tuple(steps)

        forward.append(family(fwd))
        inverse.append(family(inv))
    return system, K0Action(generators, tuple(forward), tuple(inverse), tuple(rules))


def _mutated(rng: random.Random, m: IntMatrix) -> IntMatrix:
    rows = m.to_rows()
    how = rng.choice(("entry", "entry", "swap", "extra-row"))
    if how == "entry":
        r, c = rng.randrange(m.rows), rng.randrange(m.cols)
        rows[r][c] += rng.choice((-1, 1))
    elif how == "swap" and m.rows > 1:
        r, s = rng.sample(range(m.rows), 2)
        rows[r], rows[s] = rows[s], rows[r]
    else:
        rows.append([1] * m.cols)
    return M(rows)


def broken(rng: random.Random, action: K0Action) -> K0Action:
    """The action with one matrix changed: a rule's forward or inverse
    matrix, or one declared step (some changes leave it valid)."""
    j = rng.randrange(action.generators)
    forward = [list(f) for f in action.forward]
    inverse = [list(f) for f in action.inverse]
    rules = list(action.stationary)
    family = rng.choice((forward, inverse))
    if family[j] and rng.random() < 0.5:
        k = rng.randrange(len(family[j]))
        step = family[j][k]
        family[j][k] = StageMap(step.from_stage, step.to_stage, _mutated(rng, step.matrix))
    elif family is forward:
        rule = rules[j]
        rules[j] = StationaryRule(rule.shift, _mutated(rng, rule.forward), rule.inverse)
    else:
        rule = rules[j]
        rules[j] = StationaryRule(rule.shift, rule.forward, _mutated(rng, rule.inverse))
    return K0Action(
        action.generators,
        tuple(tuple(f) for f in forward),
        tuple(tuple(f) for f in inverse),
        tuple(rules),
    )


def test_seeded_stationary_actions_match_oracle():
    rng = random.Random(20261018)
    verdicts = {True: 0, False: 0}
    for i in range(240):
        system, action = stationary_action(rng)
        if i % 4:
            action = broken(rng, action)
        else:
            assert verify_action(action, system, 8).ok
        for horizon in rng.sample(HORIZONS, 3):
            verdicts[assert_matches_oracle(system, action, horizon)] += 1
    # both verdicts are exercised, not only one
    assert verdicts[True] > 150 and verdicts[False] > 300


def test_negative_horizon_is_an_error():
    system = InductiveSystem((2,), (), (1, 1), IntMatrix.identity(2))
    double = M([[2, 0], [0, 1]])
    action = K0Action(1, ((),), ((),), (StationaryRule(0, double, double),))
    assert not verify_action(action, system, 0).ok
    with pytest.raises(ValueError, match="horizon"):
        verify_action(action, system, -1)


def test_a_map_into_an_undeclared_stage_fails_its_shape_check():
    """A one-stage system whose generator maps stage 0 into stage 1, which
    is not declared: each map is a failed shape item, not a skipped one,
    though 5 does not even preserve the unit, and neither inverse law can
    be posed. A stage with no map at all is still not checked."""
    system = InductiveSystem((1,), (), (1,))
    action = K0Action(1, ((StageMap(0, 1, M([[5]])),),), ((StageMap(0, 1, M([[7]])),),))
    assert verify_action(action, system, 4).items == (
        CheckItem("shape", 1, 0, False, "forward map lands at undeclared stage 1"),
        CheckItem("shape", 1, 0, False, "inverse map lands at undeclared stage 1"),
        CheckItem("inverse_law", 1, 0, False, "no forward-then-inverse composite can be checked up to stage 4"),
        CheckItem("inverse_law", 1, 0, False, "no inverse-then-forward composite can be checked up to stage 4"),
    )
    assert not assert_matches_oracle(system, action, 4)
    two_stages = InductiveSystem((1, 1), (M([[1]]),), (1,))
    stage_zero = K0Action(1, ((StageMap(0, 0, M([[1]])),),), ((StageMap(0, 0, M([[1]])),),))
    assert {item.stage for item in verify_action(stage_zero, two_stages, 4).items} == {0}
    assert assert_matches_oracle(two_stages, stage_zero, 4)
