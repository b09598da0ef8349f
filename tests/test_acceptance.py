"""End-to-end acceptance criteria.

Each test prints one ACCEPTANCE line; every check is exact (zero
tolerance) except the wall-clock budgets, which are stated inline.
"""

import json
import random
import time
from contextlib import contextmanager

from ball_walk import ball_walk
from conftest import GOLDEN_NAMES, golden_path, load_golden
from determinant import is_unimodular
from identity_action import identity_action

from k0mf.bratteli import FiniteSystem, Metadata, SystemDocument, parse, serialize
from k0mf.certify import (
    SearchParams,
    exclusion_holds,
    find_positive_coboundary,
)
from k0mf.cli import main, run_check
from k0mf.exactlinalg import (
    Feasible,
    IntMatrix,
    lp_feasible,
    smith_normal_form,
)

from test_certify import (
    _span_meets_cone,
    mirrored_shift_pair,
    one_stage_lattice_rows,
    shift_with_identity_generator,
)
from test_exactlinalg import brute_force_feasible, check_hnf, random_program


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_criterion_compactified_shift_violation(tmp_path, capsys):
    with criterion("compactified-shift witness"):
        out = tmp_path / "verdict.json"
        started = time.monotonic()
        code = main(
            [
                "check-mf",
                str(golden_path("compactified_shift.json")),
                "--max-stage", "3",
                "--word-length", "1",
                "--height", "2",
                "--json-out", str(out),
            ]
        )
        elapsed = time.monotonic() - started
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_bytes())
        assert payload["verdict"] == "VIOLATION"
        # the witness value is the singleton-{1} indicator at stage 2:
        # a single 1 in coordinate index 1 of (right ray, 1, 0, -1, left ray)
        assert payload["witness"]["value"] == {"stage": 2, "vector": [0, 1, 0, 0, 0]}
        # and the preimage is the right-ray indicator at stage 1
        assert payload["witness"]["preimages"] == [{"stage": 1, "vector": [1, 0, 0]}]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def random_finite_system(rng: random.Random) -> FiniteSystem:
    n = rng.randint(1, 8)
    perms = []
    for _ in range(rng.randint(1, 3)):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        perms.append(tuple(p))
    return FiniteSystem(n, tuple(perms))


def test_criterion_finite_systems_never_violate():
    with criterion("finite permutation systems"):
        rng = random.Random(20240808)
        boxes = [SearchParams(), SearchParams(stage_max=2, height_bound=5)]
        started = time.monotonic()
        for _ in range(100):
            fs = random_finite_system(rng)
            doc = SystemDocument(1, Metadata(), "finite_system", finite_system=fs)
            system, action = parse(serialize(doc)).resolve()
            verdict = run_check(system, action, boxes[0])
            assert verdict.kind == "CONSISTENT"
            for req, cert in zip(verdict.requests, verdict.certificates):
                assert cert is not None
                # the all-ones functional, exactly (scaling is trivial at height 1)
                assert cert.functional == (1,) * fs.points
            for box in boxes[1:]:
                assert find_positive_coboundary(system, action, box).witness is None
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_mutual_exclusion_for_every_witness():
    with criterion("witness/state mutual exclusion"):
        cases = [
            load_golden("compactified_shift.json").resolve(),
            mirrored_shift_pair(),
            shift_with_identity_generator(),
        ]
        params = SearchParams(stage_max=3, height_bound=2)
        found = 0
        for system, action in cases:
            search = find_positive_coboundary(system, action, params)
            if search.witness is None:
                continue
            found += 1
            # exact infeasibility at every stage up to the bound
            assert exclusion_holds(system, action, search.witness, params.stage_max)
        assert found == len(cases)


def test_criterion_identity_actions_consistent():
    with criterion("identity actions on bundled systems"):
        for name in GOLDEN_NAMES:
            system, original = load_golden(name).resolve()
            action = identity_action(system, original.generators)
            verdict = run_check(system, action, SearchParams())
            assert verdict.kind == "CONSISTENT", name
            assert all(c is not None for c in verdict.certificates), name


def test_criterion_exactlinalg_suites():
    with criterion("normal forms and LP oracle"):
        rng = random.Random(5150)
        for _ in range(500):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            check_hnf(a)
            s, us, vs = smith_normal_form(a)
            assert us @ a @ vs == s
            assert is_unimodular(us) and is_unimodular(vs)
            diag = [s.at(i, i) for i in range(min(m, n))]
            assert all(
                s.at(i, j) == 0 for i in range(m) for j in range(n) if i != j
            )
            for d1, d2 in zip(diag, diag[1:]):
                assert (d1 == 0 and d2 == 0) or (d1 != 0 and d2 % d1 == 0)
        for _ in range(200):
            p = random_program(rng)
            got = isinstance(lp_feasible(p), Feasible)
            assert got == brute_force_feasible(p)


def test_criterion_lattice_cone_oracle():
    with criterion("lattice-cone decision vs enumeration"):
        rng = random.Random(777)
        for _ in range(200):
            n = rng.randint(1, 4)
            t = IntMatrix.from_rows(
                [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            )
            rows = one_stage_lattice_rows(t)
            lp_says = _span_meets_cone(rows) if rows else False
            brute = (
                any(
                    any(v) and all(x >= 0 for x in v)
                    for v in ball_walk(rows, 5)
                )
                if rows
                else False
            )
            assert lp_says == brute


def test_criterion_round_trip_and_determinism(tmp_path, capsys):
    with criterion("round trips and byte determinism"):
        for name in GOLDEN_NAMES:
            blob = golden_path(name).read_bytes()
            assert serialize(parse(blob)) == blob
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.json"
            code = main(
                [
                    "check-mf",
                    str(golden_path("compactified_shift.json")),
                    "--max-stage", "3",
                    "--height", "2",
                    "--json-out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
