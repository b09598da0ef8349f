"""One bounded walk for the three canonical searches, against the
walk-then-filter searches it replaced (kept in ``canonical_search``).

* With constraint rows, ``enumerate_lattice_points`` must yield exactly
  the points of the unpruned ``ball_walk`` that satisfy them, in order;
  with ``key="support"`` every nonzero point by height, leading support
  and lexicographic order.
* ``_canonical_functional``, ``_canonical_coset_vector`` and
  ``_positive_candidates`` must select the points the oracles select, on
  seeded Hermite lattices, positives of mixed signs (some sharing a row
  in coefficient space), nonzero coset offsets, and over the full
  candidate order.
* Past ``WALK_NODE_BUDGET`` nodes a state search gives no certificate
  (``UNKNOWN``, with the budget on stderr), a witness target is exhausted,
  a candidate whose preimages cannot be made canonical is skipped, and
  ``find_invariant_state`` raises rather than answer None.
* The identity permutation on 32 points, the 3**n cliff of the old
  walk, decides in well under a second.
"""

import json
import random
import time

import pytest

import canonical_search
from ball_walk import ball_walk
from test_lattice_pipeline import CASES, stage_bases
from test_pruned_search import BASES

from k0mf import certify, exactlinalg
from k0mf.bratteli import canonical_json_bytes
from k0mf.certify import (
    _canonical_coset_vector,
    _canonical_functional,
    _distinct_positives,
    _positive_candidates,
    exclusion_holds,
    find_invariant_state,
    find_positive_coboundary,
)
from k0mf.cli import main
from k0mf.dimgroup import LimitElement
from k0mf.exactlinalg import IntMatrix, WalkBudgetExceeded, enumerate_lattice_points, integer_kernel
from k0mf.kaction import Word


def _first_nonzero(v):
    return next((i for i, x in enumerate(v) if x), len(v))


def _holds(v, rows):
    return all(sum(p * x for p, x in zip(pos, v)) >= b for pos, b in rows)


# ---------------------------------------------------------------------------
# the walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_rows_keep_exactly_the_ball_points_that_satisfy_them(radius):
    rng = random.Random(100 + radius)
    for rows, width in BASES:
        offset = tuple(rng.randint(-3, 3) for _ in range(width))
        cons = [
            (tuple(rng.randint(-2, 2) for _ in range(width)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        ]
        want = [v for v in ball_walk(rows, radius, offset) if _holds(v, cons)]
        assert list(enumerate_lattice_points(rows, radius, offset, rows=cons)) == want
        nonneg = [v for v in want if min(v) >= 0]
        assert list(enumerate_lattice_points(rows, radius, offset, nonnegative=True, rows=cons)) == nonneg


@pytest.mark.parametrize("nonnegative", [False, True])
def test_support_key_orders_by_height_then_leading_support_then_lex(nonnegative):
    for rows, _ in BASES:
        points = [v for v in ball_walk(rows, 2) if any(v) and (not nonnegative or min(v) >= 0)]
        points.sort(key=lambda v: (max(map(abs, v)), _first_nonzero(v), v))
        assert list(enumerate_lattice_points(rows, 2, nonnegative=nonnegative, key="support")) == points


def test_sum_and_mass_keys_end_on_a_best_point_of_the_least_height():
    rng = random.Random(5)
    for rows, width in BASES:
        offset = tuple(rng.randint(-3, 3) for _ in range(width))
        for h in range(0, 4):
            level = [v for v in ball_walk(rows, h, offset) if max(map(abs, v)) == h]
            if level:
                break
        for key, score in (("sum", lambda v: -sum(v)), ("mass", lambda v: sum(map(abs, v)))):
            got = list(enumerate_lattice_points(rows, 3, offset, key=key))
            assert set(got) <= set(level)
            assert score(got[-1]) == min(map(score, level))
            assert [score(v) for v in got] == sorted((score(v) for v in got), reverse=True)


# ---------------------------------------------------------------------------
# the three searches against their oracles
# ---------------------------------------------------------------------------


def _positives(rng, rows, width):
    """Positives of mixed signs, and copies of some of them moved by a
    vector orthogonal to the lattice, which share their coefficient row."""
    positives = [tuple(rng.randint(-2, 3) for _ in range(width)) for _ in range(rng.randint(1, 4))]
    normals = integer_kernel(IntMatrix.from_rows(rows))
    for pos in list(positives):
        if normals and rng.random() < 0.5:
            u = rng.choice(normals)
            positives.insert(rng.randint(0, len(positives)), tuple(a + b for a, b in zip(pos, u)))
    return positives


def test_canonical_functional_matches_the_oracle():
    rng = random.Random(31)
    outcomes = set()
    shared_rows = 0
    for rows, width in BASES:
        if width > 4:
            continue
        positives = _positives(rng, rows, width)
        shared_rows += len(_distinct_positives(rows, positives)) < len(positives)
        want = canonical_search.canonical_functional(rows, positives, False)
        assert _canonical_functional(rows, positives) == want
        outcomes.add(want is None)
    assert outcomes == {False, True}
    assert shared_rows >= 10


def test_the_program_and_the_walk_read_one_row_per_orbit(monkeypatch):
    """Two orbits of two points: the unit and four basis vectors give
    three distinct rows in the coefficients of the orbit sums."""
    kernel = [(1, 1, 0, 0), (0, 0, 1, 1)]
    positives = [(1, 1, 1, 1)] + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert _distinct_positives(kernel, positives) == [positives[0], positives[1], positives[3]]
    programs, walks = [], []
    monkeypatch.setattr(certify, "lp_feasible", lambda p: programs.append(p) or exactlinalg.lp_feasible(p))
    monkeypatch.setattr(
        certify, "enumerate_lattice_points", lambda *a, **k: walks.append(k["rows"]) or enumerate_lattice_points(*a, **k)
    )
    assert _canonical_functional(kernel, positives) == (1, 1, 1, 1)
    assert [a for a, _ in programs[0].inequalities] == [(2, 2), (1, 0), (0, 1)]
    assert walks == [[(positives[0], 1), (positives[1], 1), (positives[3], 1)]]


def test_canonical_coset_vector_matches_the_oracle():
    rng = random.Random(47)
    for rows, width in BASES:
        for _ in range(3):
            particular = tuple(rng.randint(-6, 6) for _ in range(width - 1)) + (rng.randint(1, 6),)
            assert _canonical_coset_vector(particular, rows) == canonical_search.canonical_coset_vector(particular, rows)
    assert _canonical_coset_vector((3, -4), []) == (3, -4)


def test_canonical_coset_vector_is_the_same_from_every_representative():
    """The walk starts from the representative it is given, unreduced:
    adding kernel rows with coefficients up to 50 moves the start far
    out of the least box, and the same point comes out."""
    rng = random.Random(48)
    for rows, width in BASES:
        particular = tuple(rng.randint(-6, 6) for _ in range(width))
        expected = _canonical_coset_vector(particular, rows)
        for _ in range(3):
            shifted = list(particular)
            for row in rows:
                c = rng.randint(-50, 50)
                shifted = [x + c * y for x, y in zip(shifted, row)]
            assert _canonical_coset_vector(tuple(shifted), rows) == expected


@pytest.mark.parametrize("height_bound", [1, 2, 3])
def test_positive_candidates_give_the_oracle_order(height_bound):
    for rows, _ in BASES:
        assert list(_positive_candidates(rows, height_bound)) == list(
            canonical_search.positive_candidates(rows, height_bound)
        )


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_pipeline_lattices_give_the_oracle_candidates(name, make):
    system, action = make()
    for _, basis in stage_bases(system, action, certify.SearchParams().stage_max):
        if basis:
            want = list(canonical_search.positive_candidates(basis, 2))
            assert list(_positive_candidates(basis, 2)) == want


# ---------------------------------------------------------------------------
# the node budget
# ---------------------------------------------------------------------------


def _identity_document(tmp_path, points: int) -> str:
    path = tmp_path / f"identity{points}.json"
    perm = ",".join(str(i) for i in range(1, points + 1))
    assert main(["convert", "--finite", "--points", str(points), "--perm", perm, "--json-out", str(path)]) == 0
    return str(path)


def test_the_walk_stops_at_its_budget(monkeypatch):
    rows = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    assert len(list(enumerate_lattice_points(rows, 1))) == 3**6
    monkeypatch.setattr(exactlinalg, "WALK_NODE_BUDGET", 100)
    with pytest.raises(WalkBudgetExceeded, match="budget of 100 nodes"):
        list(enumerate_lattice_points(rows, 1))


def test_a_state_search_past_the_budget_is_unknown(tmp_path, capsys, monkeypatch):
    doc = _identity_document(tmp_path, 6)
    capsys.readouterr()
    monkeypatch.setattr(exactlinalg, "WALK_NODE_BUDGET", 3)
    code = main(["check-mf", doc])
    out, err = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "UNKNOWN"
    assert payload["state_searches"][0]["certificate"] is None
    assert "state search 1: no certificate: the lattice walk ran out of its budget of 3 nodes" in err
    assert out.encode() == canonical_json_bytes(payload)


def test_a_cell_past_the_budget_is_exhausted(shift_pair, monkeypatch):
    system, action = shift_pair
    params = certify.SearchParams(stage_max=2)
    assert find_positive_coboundary(system, action, params).witness is not None
    monkeypatch.setattr(exactlinalg, "WALK_NODE_BUDGET", 1)
    search = find_positive_coboundary(system, action, params)
    assert search.witness is None
    assert search.exhausted_targets


def test_a_candidate_whose_coset_walk_runs_out_is_skipped(shift_pair, monkeypatch):
    system, action = shift_pair
    params = certify.SearchParams(stage_max=2, height_bound=2)
    tried = []

    def out_of_budget(particular, kernel_rows):
        tried.append(particular)
        raise WalkBudgetExceeded("stub")

    monkeypatch.setattr(certify, "_canonical_coset_vector", out_of_budget)
    search = find_positive_coboundary(system, action, params)
    assert tried
    assert search.witness is None
    assert search.exhausted_targets


def test_exclusion_fails_when_its_state_walk_runs_out(shift_pair, monkeypatch):
    system, action = shift_pair
    witness = find_positive_coboundary(system, action, certify.SearchParams(stage_max=2)).witness
    assert exclusion_holds(system, action, witness, 2)

    def out_of_budget(*args):
        raise WalkBudgetExceeded("stub")

    monkeypatch.setattr(certify, "find_invariant_state", out_of_budget)
    assert not exclusion_holds(system, action, witness, 2)


def test_a_state_walk_past_the_budget_raises(cycle3_pair, monkeypatch):
    system, action = cycle3_pair
    elements, words = [LimitElement(0, (1, 0, 0))], [Word.of(1)]
    assert find_invariant_state(system, action, elements, words, 4).functional == (1, 1, 1)
    monkeypatch.setattr(exactlinalg, "WALK_NODE_BUDGET", 1)
    with pytest.raises(WalkBudgetExceeded, match="budget of 1 nodes"):
        find_invariant_state(system, action, elements, words, 4)


# ---------------------------------------------------------------------------
# the cliff
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sets", [False, True], ids=["default-request", "one-element-request"])
def test_identity_on_32_points_decides_in_under_a_second(tmp_path, capsys, sets):
    doc = _identity_document(tmp_path, 32)
    argv = ["check-mf", doc]
    if sets:
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"requests": [{"elements": [{"stage": 0, "vector": [1] + [0] * 31}], "words": [[1]]}]}))
        argv += ["--sets", str(path)]
    capsys.readouterr()
    start = time.process_time()
    code = main(argv)
    elapsed = time.process_time() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "CONSISTENT"
    assert [s["certificate"]["functional"] for s in payload["state_searches"]] == [[1] * 32]
    assert elapsed < 1, elapsed

