"""Functionals pulled back through letter maps instead of coboundary blocks.

* ``IntMatrix.pull`` is the row-vector product ``vec @ A`` of a dense
  reference, and refuses a vector of the wrong length.
* ``kaction.coboundary_pullback`` is beta times ``coboundary_block``, for
  a random beta and every ``latest_letter_maps`` entry, on permutation
  systems, compactified shifts, stationary unipotent shifts and the
  Fibonacci prefix action.
* ``check-mf`` on a permutation system builds no coboundary block: the
  counting functional's tests in both searches and the state re-check
  pull 1 back instead.
* The state re-check still refuses an element vector whose length is not
  its stage's rank.
"""

import json
import random

import pytest

from conftest import golden_path, load_golden
from test_lattice_pipeline import (
    compactified_shift,
    fibonacci_prefix_action,
    seeded_compactified_shift,
    seeded_finite_systems,
    seeded_three_generator_system,
    seeded_unipotent_shift,
)

from k0mf import certify, kaction
from k0mf.certify import find_invariant_state, verify_state_certificate
from k0mf.cli import main
from k0mf.dimgroup import LimitElement, StageRangeError
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import Word, coboundary_block, coboundary_pullback, latest_letter_maps, verify_action


def dense_pull(vec, rows, width):
    """``vec @ A`` for A given as dense rows of ``width`` entries."""
    return tuple(sum(vec[i] * rows[i][j] for i in range(len(rows))) for j in range(width))


def test_pull_matches_the_dense_product():
    rng = random.Random(34)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        dense = [[rng.choice((0, 0, 0, 1, -2, 3, 10**30)) for _ in range(cols)] for _ in range(rows)]
        a = IntMatrix(rows, cols, [x for row in dense for x in row])
        vec = [rng.randint(-4, 4) for _ in range(rows)]
        assert a.pull(vec) == dense_pull(vec, dense, cols) == a.transpose().apply(vec)


def test_pull_refuses_a_vector_of_the_wrong_length():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.pull((1, -1)) == (-3, -3, -3)
    for vec in ((), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="^vector length mismatch$"):
            a.pull(vec)


PULLBACK_CASES = (
    [(f"finite-{i}", lambda i=i: seeded_finite_systems(4)[i]) for i in range(4)]
    + [("finite-3-generators", seeded_three_generator_system)]
    + [(name, lambda name=name: load_golden(name).resolve()) for name in ("cycle3.json", "compactified_shift.json")]
    + [("shift-7-[1,-3]", lambda: compactified_shift(7, [1, -3]))]
    + [(f"seeded-shift-{i}", lambda i=i: seeded_compactified_shift(i)) for i in range(4)]
    + [(f"seeded-unipotent-{i}", lambda i=i: seeded_unipotent_shift(i)) for i in range(4)]
    + [("fibonacci-prefix", fibonacci_prefix_action)]
)


@pytest.mark.parametrize("make", [make for _, make in PULLBACK_CASES], ids=[name for name, _ in PULLBACK_CASES])
def test_pullbacks_equal_the_transposed_blocks(make):
    """beta @ block for a random beta at each target, every letter map the
    witness search resolves there, and the target's counting functional;
    a map that lands past the target raises as the block does."""
    system, action = make()
    assert verify_action(action, system, 8).ok
    rng = random.Random(340)
    seen = 0
    for target in (0, 1, 2, 3, 4, 5, 6, 9, 13, 40):
        if not system.has_stage(target):
            continue
        p = system.rank_at(target)
        for sm in latest_letter_maps(action, system, target):
            block = coboundary_block(system, sm, target)
            for beta in ((1,) * p, tuple(rng.randint(-5, 5) for _ in range(p))):
                assert coboundary_pullback(system, sm, target, beta) == block.transpose().apply(beta), (target, sm)
                seen += 1
            with pytest.raises(ValueError, match="^vector length mismatch$"):
                coboundary_pullback(system, sm, target, (1,) * (p + 1))
            if sm.to_stage > 0:
                with pytest.raises(StageRangeError):
                    coboundary_block(system, sm, sm.to_stage - 1)
                with pytest.raises(StageRangeError):
                    coboundary_pullback(system, sm, sm.to_stage - 1, (1,) * system.rank_at(sm.to_stage - 1))
    assert seen


def _seeded_twenty_point_document(tmp_path) -> str:
    rng = random.Random(20)
    perms = []
    for _ in range(3):
        perm = list(range(1, 21))
        rng.shuffle(perm)
        perms.append(",".join(map(str, perm)))
    path = tmp_path / "twenty.json"
    argv = ["convert", "--points", "20", *(x for perm in perms for x in ("--perm", perm)), "--json-out", str(path)]
    assert main(argv) == 0
    return str(path)


@pytest.fixture
def blocks(monkeypatch):
    """The target stage of every ``coboundary_block`` call, from
    ``kaction`` and ``certify`` alike."""
    calls = []
    real = kaction.coboundary_block

    def block(system, sm, target):
        calls.append(target)
        return real(system, sm, target)

    for module in (kaction, certify):
        monkeypatch.setattr(module, "coboundary_block", block)
    return calls


def test_check_mf_on_permutation_systems_builds_no_coboundary_block(tmp_path, capsys, blocks):
    """The three-cycle and three random permutations of 20 points: both
    searches and the state re-check read 1 through pullbacks. The
    compactified shift, whose witness search reduces lattices, builds
    blocks through the same hook."""
    for doc in (str(golden_path("cycle3.json")), _seeded_twenty_point_document(tmp_path)):
        assert main(["check-mf", doc]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "CONSISTENT"
        assert blocks == [], doc
    main(["check-mf", str(golden_path("compactified_shift.json"))])
    assert json.loads(capsys.readouterr().out)["verdict"] == "VIOLATION"
    assert blocks


def test_state_recheck_refuses_an_element_of_the_wrong_length(cycle3_pair):
    """Pulling the functional back would dot it with a short or long
    element without complaint if ``zip`` truncated; it raises instead,
    whether or not the pullback is zero."""
    system, action = cycle3_pair
    cert = find_invariant_state(system, action, [LimitElement(0, (1, 0, 0))], [Word.of(1)], 4)
    verify_state_certificate(system, action, cert)
    for vector in ((1, 0), (1, 0, 0, 0)):
        for functional in ((1, 1, 1), (1, 2, 1)):
            bad = cert._replace(functional=functional, elements=(LimitElement(0, vector),))
            with pytest.raises(ValueError, match="^element vector length does not match its stage rank$"):
                verify_state_certificate(system, action, bad)

