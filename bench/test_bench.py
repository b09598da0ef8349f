"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import pace
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    generate = workloads.WORKLOADS[name].generate
    first = [doc.data for doc in generate(7)]
    assert first == [doc.data for doc in generate(7)]
    other = [doc.data for doc in generate(8)]
    assert len(other) == len(first)
    assert other != first


def test_shift_documents_validate(tmp_path):
    cli = run.import_k0mf()
    for doc in workloads.shift_witness(3):
        path = tmp_path / "doc.json"
        path.write_bytes(doc.data)
        box = doc.args[: doc.args.index("--max-stage") + 2]
        out = tmp_path / "out.json"
        code = cli.main(["validate", str(path), *box, "--json-out", str(out)])
        assert code == 0, doc.name
        assert json.loads(out.read_bytes())["valid"] is True


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_decides_every_document(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["decided_share"]["value"] == 1.0


def _decide(cli, doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(doc.data)
    out = tmp_path / "out.json"
    assert cli.main(["check-mf", str(path), *doc.args, "--json-out", str(out)]) == 0
    return out.read_bytes()


def test_tracing_changes_no_output_and_leaves_no_wrapper(tmp_path):
    cli = run.import_k0mf()
    k0mf = sys.modules["k0mf"]
    doc = workloads.shift_witness(1)[0]
    plain = _decide(cli, doc, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        traced = _decide(sys.modules["k0mf.cli"], doc, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracing.installed_wrappers() == []
    assert k0mf.certify.lp_feasible is k0mf.exactlinalg.lp_feasible
    assert k0mf.exactlinalg.hermite_normal_form.__module__ == "k0mf.exactlinalg"
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "bratteli.parse", "kaction.verify_action", "dimgroup.transfer",
            "exactlinalg.smith_normal_form", "certify.verify_witness"} <= names
    layers = tracing.Layers(tracer.spans)
    root = layers.busy_ns["cli.main"]
    assert sum(layers.self_ns.values()) == root


def test_checks_reject_a_tampered_witness(tmp_path):
    cli = run.import_k0mf()
    doc = workloads.shift_witness(1)[0]
    payload = json.loads(_decide(cli, doc, tmp_path))
    assert workloads.check_violation(doc, payload) is None
    vector = payload["witness"]["value"]["vector"]
    vector[vector.index(max(vector))] += 1
    assert workloads.check_violation(doc, payload) is not None
    assert workloads.check_consistent(doc, payload) is not None


def test_stationary_witness_is_proven_by_rank(tmp_path):
    cli = run.import_k0mf()
    doc = workloads.stationary_shifts(1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        payload = json.loads(_decide(sys.modules["k0mf.cli"], doc, tmp_path))
    finally:
        tracer.uninstall()
    assert payload["witness"]["nonzero"]["mode"] == "limit"
    assert "exactlinalg.rank" in {span[0] for span in tracer.spans}
    assert workloads.check_violation(doc, payload) is None
    payload["witness"]["preimages"][0]["vector"][0] += 1
    assert workloads.check_violation(doc, payload) is not None


def test_consistent_check_accepts_any_invariant_faithful_state():
    doc = workloads.perm_sweep(1)[1]  # two orbits
    perm = doc.expect["permutations"][0]  # one cycle per orbit
    orbit, p = {0}, perm[0] - 1
    while p != 0:
        orbit.add(p)
        p = perm[p] - 1
    weights = [2 if p in orbit else 3 for p in range(len(perm))]

    def payload(functional):
        return {"verdict": "CONSISTENT", "witness": None,
                "state_searches": [{"certificate": {"functional": functional}}]}

    assert workloads.check_consistent(doc, payload(weights)) is None
    assert workloads.check_consistent(doc, payload([1] * len(perm))) is None
    weights[0] = 5
    assert workloads.check_consistent(doc, payload(weights)) is not None
    assert workloads.check_consistent(doc, payload([0] * len(perm))) is not None


def test_overrun_counts_as_undecided(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "DOC_LIMIT_S", 0.05)
    cli = run.import_k0mf()
    workload = workloads.WORKLOADS["orbit-cliff"]
    doc = workloads.orbit_cliff(1)[0]  # the 11-orbit identity, about 1.5 s
    path = tmp_path / "doc.json"
    path.write_bytes(doc.data)
    old = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        loop = run.Loop(cli, workload, [doc], [str(path)], tmp_path / "out.json")
        loop.run_pass()
    finally:
        run.signal.signal(run.signal.SIGALRM, old)
    assert (loop.attempted, loop.decided, loop.timeouts) == (1, 0, 1)
    assert len(loop.times) == len(loop.kernels) == 1
    assert 0 < loop.times[0] < 0.5  # CPU time until the 0.05 s wall-time alarm


def test_documents_not_started_by_the_deadline_count_as_undecided(tmp_path):
    cli = run.import_k0mf()
    workload = workloads.WORKLOADS["perm-sweep"]
    docs = workloads.perm_sweep(1)[:3]
    loop = run.Loop(cli, workload, docs, ["unused"] * 3, tmp_path / "out.json")
    loop.run(0, run.time.perf_counter() - 1)
    assert (loop.attempted, loop.decided, loop.digests, loop.wrong) == (3, 0, [], [])


def test_scaled_times_follow_the_kernel_speed():
    kernels = [pace.REF_S, 2 * pace.REF_S, pace.REF_S / 2]
    assert pace.scaled([0.1, 0.1, 0.1], kernels) == [0.1, 0.05, 0.2]
    assert pace.kernel() != 0  # every column has a pivot
