"""Verdict benchmark for k0mf.

Usage (from the repository root):

    python3 bench/run.py --workload perm-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One client in one process and one thread decides generated documents in
a closed loop: each document is decided by an in-process call of
``k0mf.cli.main(["check-mf", DOC, ..., "--json-out", OUT])``, so parsing,
``verify_action``, the searches, certificate re-verification and the
canonical JSON emit all fall inside the timed span, and the next
document starts only when the previous call has returned. Every output
is checked against the answer the generator knows (see workloads.py).

The loop runs whole passes over the seeded document pool for about
``--seconds``, so every run decides every document of the pool the same
number of times. Each pass must produce byte-identical outputs. A
document's time is the median of its calls, and the percentiles and
throughput are over the documents of the pool, a fixed mix. Only the
time spent inside ``cli.main`` counts; reading the outputs back and
checking them is the client's work, not the program's.

Every time reported is CPU time scaled to a reference speed of the
machine (see pace.py), because the speed of the shared host this runs
on drifts by far more than the benchmark's bounds.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of traced passes
(see tracing.py), which alternate with untraced passes whose output
bytes they must reproduce. Human-readable lines come before it. The
exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DOC_LIMIT_S = 10.0  # per-document limit; an overrun counts as undecided
RUN_CAP_S = 150.0  # after set-up, no document starts later than this
SETUP_WINDOW_S = 3.0  # set up again until this long has passed ...
SETUP_MIN = 5  # ... and at least this many times
SETUP_KERNELS = 5  # kernel runs on each side of a set-up, for its local speed


class DocTimeout(Exception):
    """Raised by SIGALRM inside a document that overran its limit."""


def _on_alarm(signum: int, frame: object) -> None:
    raise DocTimeout()


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the smallest value with at least
    a share q of the samples at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def import_k0mf():
    """A fresh import of the package (earlier copies are dropped first)."""
    for name in [n for n in sys.modules if n == "k0mf" or n.startswith("k0mf.")]:
        del sys.modules[name]
    return importlib.import_module("k0mf.cli")


def set_up(workload: workloads.Workload, seed: int, docs_dir: Path):
    """Import k0mf, generate the pool and write it; returns (cli, docs,
    paths) and the set-up's CPU time at the reference speed, for which
    the kernel runs before and after it give the local speed."""
    kernels = [pace.kernel_s() for _ in range(SETUP_KERNELS)]
    start = time.process_time()
    cli = import_k0mf()
    docs = workload.generate(seed)
    if docs_dir.exists():
        shutil.rmtree(docs_dir)
    docs_dir.mkdir(parents=True)
    paths = []
    for doc in docs:
        path = docs_dir / f"{doc.name}.json"
        path.write_bytes(doc.data)
        paths.append(str(path))
    seconds = time.process_time() - start
    kernels += [pace.kernel_s() for _ in range(SETUP_KERNELS)]
    return cli, docs, paths, seconds * pace.REF_S / statistics.median(kernels)


class Loop:
    """Closed-loop decisions over one pool, with per-document checks."""

    def __init__(self, cli, workload: workloads.Workload, docs, paths, out: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.docs = docs
        self.paths = paths
        self.out = str(out)
        self.names: list[str] = []  # the document of each call
        self.times: list[float] = []  # CPU time of each call
        self.kernels: list[float] = []  # a kernel run's CPU time right before it
        self.attempted = 0
        self.decided = 0
        self.wrong: list[str] = []
        self.timeouts = 0
        self.digests: list[str] = []

    def decide(self, doc: workloads.Doc, path: str) -> bytes | None:
        """One timed call; returns the output bytes, or None on overrun.
        The limit is on wall time, the recorded time is CPU time."""
        argv = ["check-mf", path, *doc.args, "--json-out", self.out]
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        # Collect the previous call's garbage first, so that no call pays
        # for another's, as a fresh ``k0mf`` process would not.
        gc.collect()
        self.kernels.append(pace.kernel_s())
        self.names.append(doc.name)
        signal.setitimer(signal.ITIMER_REAL, DOC_LIMIT_S)
        start = time.process_time()
        try:
            code = self.cli.main(argv)
        except DocTimeout:
            self.times.append(time.process_time() - start)
            self.timeouts += 1
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.times.append(time.process_time() - start)
        if code != 0:
            self.wrong.append(f"{doc.name}: exit code {code}")
            return b""
        with open(self.out, "rb") as fh:
            return fh.read()

    def run_pass(self, tracer=None, deadline: float = math.inf) -> bool:
        """Decide every document once; False if the run cap cut it short."""
        digest = hashlib.sha256()
        for i, (doc, path) in enumerate(zip(self.docs, self.paths)):
            if time.perf_counter() > deadline:
                self.attempted += len(self.docs) - i
                return False
            if tracer is not None:
                tracer.doc = f"{len(self.digests)}:{doc.name}"
            self.attempted += 1
            blob = self.decide(doc, path)
            if not blob:
                continue
            try:
                problem = self.workload.check(doc, json.loads(blob))
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                problem = f"malformed payload: {exc!r}"
            if problem is not None:
                self.wrong.append(f"{doc.name}: {problem}")
                continue
            self.decided += 1
            digest.update(f"{doc.name}\n{len(blob)}\n".encode())
            digest.update(blob)
        self.digests.append(digest.hexdigest())
        return True

    def run(self, seconds: float, deadline: float) -> None:
        """Whole passes for about ``seconds`` (see ``go_on``); documents
        not started by ``deadline`` count as attempted and undecided."""
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            if not self.run_pass(deadline=deadline) or not go_on(start, begun, seconds):
                return

    @property
    def scaled_times(self) -> list[float]:
        """Each call's time at the reference speed."""
        return pace.scaled(self.times, self.kernels)

    def doc_times(self) -> list[float]:
        """Each document's median time at the reference speed over its
        calls. A burst of contention on the host slows one call of a
        document, not the median of several."""
        calls: dict[str, list[float]] = {}
        for name, t in zip(self.names, self.scaled_times):
            calls.setdefault(name, []).append(t)
        return [statistics.median(ts) for ts in calls.values()]

    @property
    def failed(self) -> int:
        return self.attempted - self.decided

    @property
    def bytes_agree(self) -> bool:
        return len(set(self.digests)) <= 1


def go_on(start: float, begun: float, seconds: float) -> bool:
    """Whether to start another pass (or round of passes) after the one
    begun at ``begun``: only if, taking as long as that one, it would end
    less than half a pass past ``seconds`` after ``start``. A run then
    lasts ``seconds`` give or take half a pass."""
    now = time.perf_counter()
    return now - start + (now - begun) / 2 < seconds


def end_to_end(loop: Loop, setup_s: float) -> dict:
    times = sorted(loop.doc_times())
    return {
        "docs_per_s": (loop.decided / loop.attempted * len(times) / sum(times), "1/s"),
        "verdict_ms_p50": (1e3 * nearest_rank(times, 0.5), "ms"),
        "verdict_ms_p90": (1e3 * nearest_rank(times, 0.9), "ms"),
        "decided_share": (loop.decided / loop.attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans: list[list], docs: int, overhead: float) -> dict:
    """Per-document layer totals of a traced run (see BENCHMARK.json)."""
    layers = tracing.Layers(spans)

    def calls(name: str) -> tuple[float, str]:
        return layers.calls[name] / docs, "calls/doc"

    def self_s(*names: str) -> tuple[float, str]:
        return sum(layers.self_ns[n] for n in names) / 1e9 / docs, "s/doc"

    def share(hits: int, total: int) -> tuple[float, str]:
        return (hits / total if total else 0.0), "share"

    lattice = [(s[2], s[6]) for s in spans if s[0] == "kaction.coboundary_stage_lattice"]
    lp = [s for s in spans if s[0] == "exactlinalg.lp_feasible"]
    lp_kind = tracing.lp_parents(spans)
    out = {
        "exactlinalg.enumerate_lattice_points.points": (
            sum(layers.notes["exactlinalg.enumerate_lattice_points"]) / docs, "points/doc"),
        "exactlinalg.enumerate_lattice_points.self_s": self_s("exactlinalg.enumerate_lattice_points"),
        "kaction.coboundary_stage_lattice.calls": calls("kaction.coboundary_stage_lattice"),
        "kaction.coboundary_stage_lattice.self_s": self_s("kaction.coboundary_stage_lattice"),
        "kaction.coboundary_stage_lattice.distinct_share": share(len(set(lattice)), len(lattice)),
        "exactlinalg.hermite_normal_form.calls": calls("exactlinalg.hermite_normal_form"),
        "exactlinalg.hermite_normal_form.self_s": self_s("exactlinalg.hermite_normal_form"),
        "exactlinalg.hermite_normal_form.cells": (
            sum(layers.notes["exactlinalg.hermite_normal_form"]) / docs, "cells/doc"),
        "kaction.verify_action.self_s": self_s("kaction.verify_action"),
        "dimgroup.transfer.calls": calls("dimgroup.transfer"),
        "dimgroup.transfer.self_s": self_s("dimgroup.transfer"),
    }
    for kind in ("cone", "state"):
        mine = [s for s, k in zip(lp, lp_kind) if k == kind]
        prefix = f"exactlinalg.lp_feasible.{kind}"
        out[f"{prefix}.calls"] = (len(mine) / docs, "calls/doc")
        out[f"{prefix}.self_s"] = (sum(s[5] for s in mine) / 1e9 / docs, "s/doc")
        out[f"{prefix}.infeasible_share"] = share(sum(1 for s in mine if s[6]), len(mine))
    out.update({
        "exactlinalg.smith_normal_form.calls": calls("exactlinalg.smith_normal_form"),
        "exactlinalg.smith_normal_form.self_s": self_s("exactlinalg.smith_normal_form"),
        "exactlinalg.rank.calls": calls("exactlinalg.rank"),
        "bratteli.parse.calls": calls("bratteli.parse"),
        "bratteli.parse.self_s": self_s("bratteli.parse"),
        "certify.find_positive_coboundary.self_s": self_s("certify.find_positive_coboundary"),
        "certify.find_invariant_state.calls": calls("certify.find_invariant_state"),
        "certify.find_invariant_state.self_s": self_s("certify.find_invariant_state"),
        "certify.verify.self_s": self_s("certify.verify_witness", "certify.verify_state_certificate"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead": (overhead, "ratio"),
    })
    return out


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def describe(loop: Loop, label: str) -> None:
    passes = len(loop.digests)
    print(
        f"{label}: {passes} passes x {len(loop.docs)} documents, {loop.decided} decided of "
        f"{loop.attempted}, {loop.timeouts} over the {DOC_LIMIT_S:g} s limit, "
        f"{sum(loop.times):.2f} CPU s in cli.main; the percentiles are over {len(loop.docs)} "
        f"per-document medians, {len(loop.docs) - math.ceil(0.9 * len(loop.docs))} beyond p90"
    )
    print(f"  output sha256 {loop.digests[0] if loop.digests else '-'} "
          f"({'identical across passes' if loop.bytes_agree else 'DIFFERS between passes'})")
    for problem in loop.wrong[:10]:
        print(f"  WRONG {problem}")


def alternate(plain: Loop, traced: Loop, tracer: tracing.Tracer, seconds: float, deadline: float) -> None:
    """Untraced and traced passes in turn for about ``seconds``.

    Alternating pass by pass puts both loops under the same machine
    conditions, so their time ratio measures the tracing overhead rather
    than drift in the machine's speed.
    """
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if not plain.run_pass(deadline=deadline):
            return
        tracer.install()
        try:
            finished = traced.run_pass(tracer, deadline)
        finally:
            tracer.uninstall()
        if not finished or not go_on(start, begun, seconds):
            return


def run_one(args: argparse.Namespace) -> int:
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # One set-up of tens of milliseconds is a noisy sample; setting
        # up again over a window of seconds and taking the median is
        # steadier.
        setups: list[float] = []
        window = time.perf_counter()
        while len(setups) < SETUP_MIN or time.perf_counter() - window < SETUP_WINDOW_S:
            cli, docs, paths, seconds = set_up(workload, args.seed, run_dir / "docs")
            setups.append(seconds)
            gc.collect()  # free the replaced modules, which would raise peak RSS
        setup_s = statistics.median(setups)
        # The pool and its expected answers are the benchmark's objects,
        # not the program's: keep the collector from scanning them.
        gc.freeze()
        loop = Loop(cli, workload, docs, paths, run_dir / "out.json")
        traced = Loop(cli, workload, docs, paths, run_dir / "out.json")

        print(f"workload {workload.name} seed {args.seed}: {workload.why}")
        print(f"set-up at the reference speed: median {setup_s:.4f} s of {len(setups)}, the first {setups[0]:.4f} s")
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            deadline = time.perf_counter() + RUN_CAP_S
            if not args.trace:
                loop.run(args.seconds, deadline)
            else:
                tracer = tracing.Tracer()
                alternate(loop, traced, tracer, args.seconds, deadline)
        describe(loop, "untraced")
        correct = not loop.wrong and loop.bytes_agree
        if not args.trace:
            report(correct, loop.attempted, loop.failed, end_to_end(loop, setup_s))
            return 0
        describe(traced, "traced")
        left = tracing.installed_wrappers()
        same = len(set(loop.digests) | set(traced.digests)) <= 1
        print(f"  traced output bytes {'equal' if same else 'DIFFER from'} the untraced run's")
        if left:
            print(f"  WRAPPERS LEFT INSTALLED: {left}")
        tracer.write(str(WORK / f"spans-{workload.name}.jsonl"))
        print(f"  spans written to {WORK.name}/spans-{workload.name}.jsonl")
        print("  layer                                         calls     busy s     self s")
        for name, calls, busy, own in tracing.Layers(tracer.spans).summary():
            print(f"  {name:<42} {calls:>8} {busy:>10.4f} {own:>10.4f}")
        overhead = sum(traced.scaled_times) / sum(loop.scaled_times) - 1
        correct = correct and not traced.wrong and same and not left
        report(
            correct,
            traced.attempted,
            traced.failed,
            per_layer(tracer.spans, traced.attempted, overhead),
        )
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "SOME WORKLOAD FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "k0mf" / "cli.py").is_file():
        print(f"k0mf sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
