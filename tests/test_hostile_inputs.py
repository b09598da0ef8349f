"""Hostile inputs: documents and flags chosen to make a careless decider
run for hours. Each case runs ``python -m k0mf.cli`` in a child process
under a CPU-time limit (``RLIMIT_CPU``, so a runaway case is killed
rather than stalling the suite) and must end within its CPU bound with
a verdict, or with exit 2 and its message.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

from k0mf.kaction import MAX_STATIONARY_SHIFT

SRC = Path(__file__).resolve().parent.parent / "src"

# The first stationary unipotent shift the benchmark generates for seed 1:
# tail [[1, 0, 0], [0, 1, 0], [1, 1, 1]] on four declared stages, one
# generator of shift 2.
UNIPOTENT_SHIFT = {
    "schema_version": 1,
    "system": {
        "stage_ranks": [3, 3, 3, 3],
        "connecting_maps": [[[1, 0, 0], [0, 1, 0], [1, 1, 1]]] * 3,
        "stationary": [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        "unit": [1, 1, 1],
    },
    "action": {
        "generators": 1,
        "forward": [
            [{"from_stage": k, "to_stage": k + 2, "matrix": [[1, 0, 0], [0, 1, 0], [1, 3, 1]]} for k in range(3)]
        ],
        "inverse": [
            [{"from_stage": k, "to_stage": k + 2, "matrix": [[1, 0, 0], [0, 1, 0], [3, 1, 1]]} for k in range(3)]
        ],
        "stationary": [
            {"shift": 2, "forward": [[1, 0, 0], [0, 1, 0], [1, 3, 1]], "inverse": [[1, 0, 0], [0, 1, 0], [3, 1, 1]]}
        ],
    },
}


def _cpu_limited(seconds: int):
    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))

    return limit


def _run(*argv: str, cpu_bound: float) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and CPU seconds of one CLI run in a child
    process killed past ``cpu_bound`` + 1 s of CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "k0mf.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=_cpu_limited(int(cpu_bound) + 1),
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, proc.stdout, proc.stderr, cpu


def _write(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_a_frozen_negative_set_element_at_a_huge_stage_bound(tmp_path):
    """(1, -1, 0) at stage 0 is fixed by the unipotent tail from the last
    declared stage on, so it is never positive; that is known at stage 3,
    not after walking 10**9 stages."""
    doc = _write(tmp_path, "unipotent.json", UNIPOTENT_SHIFT)
    sets = _write(tmp_path, "sets.json", {"requests": [{"elements": [{"stage": 0, "vector": [1, -1, 0]}], "words": [[1]]}]})
    code, out, err, cpu = _run(
        "check-mf", doc, "--sets", sets, "--max-stage", "1000000000", "--height", "4", cpu_bound=5
    )
    assert (code, out) == (2, "")
    assert err == (
        f"invalid input: {sets}:$.requests[0].elements[0]: "
        "not positive (entrywise nonnegative at no stage up to 1000000000)\n"
    )
    assert cpu < 5, cpu


# One stage whose tail doubles the first coordinate and keeps the second,
# with the identity action: the tail never fixes (1, -1), but its row 1
# is e_1, so the -1 stays forever.
DOUBLING_TAIL = {
    "schema_version": 1,
    "system": {"stage_ranks": [2], "connecting_maps": [], "unit": [1, 1], "stationary": [[2, 0], [0, 1]]},
    "action": {
        "generators": 1,
        "forward": [[]],
        "inverse": [[]],
        "stationary": [{"shift": 0, "forward": [[1, 0], [0, 1]], "inverse": [[1, 0], [0, 1]]}],
    },
}


def test_a_negative_coordinate_the_tail_keeps_at_a_huge_stage_bound(tmp_path):
    """(1, -1) at stage 0 is never positive: its second coordinate is
    frozen at -1 from the last declared stage on, which is stage 0, so
    the answer must not wait for 10**9 pushes."""
    doc = _write(tmp_path, "doubling.json", DOUBLING_TAIL)
    sets = _write(tmp_path, "sets.json", {"requests": [{"elements": [{"stage": 0, "vector": [1, -1]}], "words": [[1]]}]})
    code, out, err, cpu = _run("check-mf", doc, "--sets", sets, "--max-stage", "1000000000", cpu_bound=5)
    assert (code, out) == (2, "")
    assert err == (
        f"invalid input: {sets}:$.requests[0].elements[0]: "
        "not positive (entrywise nonnegative at no stage up to 1000000000)\n"
    )
    assert cpu < 5, cpu


def test_a_deep_declared_prefix_at_a_huge_stage_bound(tmp_path):
    """400 declared stages of rank 2 joined by identities, with the swap
    as the action at every stage and no tail: the search ends at the
    last declared stage, and each stage must cost about the same."""
    swap = [[0, 1], [1, 0]]
    family = [{"from_stage": k, "to_stage": k, "matrix": swap} for k in range(400)]
    doc = _write(
        tmp_path,
        "deep.json",
        {
            "schema_version": 1,
            "system": {"stage_ranks": [2] * 400, "connecting_maps": [[[1, 0], [0, 1]]] * 399, "unit": [1, 1]},
            "action": {"generators": 1, "forward": [family], "inverse": [family]},
        },
    )
    code, out, err, cpu = _run("check-mf", doc, "--max-stage", "1000000000", cpu_bound=5)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "CONSISTENT"
    assert cpu < 5, cpu


def test_a_stationary_shift_past_the_bound(tmp_path):
    rule = {"shift": MAX_STATIONARY_SHIFT + 1, "forward": [[1]], "inverse": [[1]]}
    doc = _write(
        tmp_path,
        "shift.json",
        {
            "schema_version": 1,
            "system": {"stage_ranks": [1], "connecting_maps": [], "unit": [1], "stationary": [[1]]},
            "action": {"generators": 1, "forward": [[]], "inverse": [[]], "stationary": [rule]},
        },
    )
    code, out, err, cpu = _run("check-mf", doc, cpu_bound=5)
    assert (code, out) == (2, "")
    assert err == (
        f"invalid input: $.action.stationary[0].shift: stationary shift {MAX_STATIONARY_SHIFT + 1} "
        f"exceeds the bound {MAX_STATIONARY_SHIFT}\n"
    )
    assert cpu < 5, cpu


def _finite_document(tmp_path: Path, points: int, perms: list[list[int]]) -> str:
    return _write(
        tmp_path,
        "finite.json",
        {"schema_version": 1, "finite_system": {"points": points, "permutations": perms}},
    )


def test_the_identity_on_sixty_points(tmp_path):
    """Every coboundary vanishes and every functional is invariant: the
    state search must not grow with the 60 orbits."""
    doc = _finite_document(tmp_path, 60, [list(range(1, 61))])
    code, out, err, cpu = _run("check-mf", doc, cpu_bound=10)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "CONSISTENT"
    assert cpu < 10, cpu


def test_a_permutation_system_at_a_huge_height(tmp_path):
    """Three random permutations of 20 points (random.Random(20)) at
    --height 10**6: the height bounds a walk that the exact programs
    decide first, so it must not cost in proportion to it."""
    rng = random.Random(20)
    perms = []
    for _ in range(3):
        perm = list(range(1, 21))
        rng.shuffle(perm)
        perms.append(perm)
    doc = _finite_document(tmp_path, 20, perms)
    code, out, err, cpu = _run("check-mf", doc, "--height", "1000000", cpu_bound=10)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "CONSISTENT"
    assert cpu < 10, cpu
