"""Command-line surface.

Subcommands: ``validate`` (parse a document and verify the action
laws), ``check-mf`` (witness search, then invariant-state searches per
requested element/word sets), ``chain-recurrence`` (the one-generator
compression check: ``run_check`` without state searches, a witness
reported as COMPRESSION_FOUND and a miss as NONE_FOUND), and
``convert`` (dualize a finite permutation system to a K0 document).

Input is read by ``bratteli``: the document by ``parse`` and a
``--sets`` file by ``parse_request_sets``.

Integer flags and ``--perm`` entries are read by ``bratteli.integer``:
ASCII ``-?[0-9]+`` of any length, as in documents; anything else is
invalid input that names the flag.

Exit codes: 0 when a verdict was computed (whatever it says), 2 on
invalid input or a --json-out that cannot be written, 3 when a
soundness check failed: a witness was found but the state search did
not rule out an invariant state faithful on its exclusion sets, or an
exact re-verification (of a witness, a state certificate or a program's
certificate) did not hold. Every such failure is an ``AssertionError``;
``main`` prints ``error: soundness check failed: <message>`` and writes
no payload. Every payload with a witness carries
``"mutual_exclusion_ok": true``, since a witness whose exclusion check
fails is never written.
Human-readable summaries go to stderr; the canonical JSON payload goes
to stdout or --json-out and is byte-identical across runs on identical
inputs (timings are reported on stderr only). A state search whose
lattice walk runs out of its node budget (``exactlinalg.WALK_NODE_BUDGET``)
or that no stage up to --max-stage can pose gives no certificate, so
the verdict is UNKNOWN, and stderr names the reason.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Sequence

from .bratteli import (
    DocumentError,
    FiniteSystem,
    Metadata,
    SystemDocument,
    canonical_json_bytes,
    document_payload,
    integer,
    parse,
    parse_request_sets,
)
from .certify import (
    SearchParams,
    StateCertificate,
    Witness,
    exclusion_holds,
    find_invariant_state,
    find_positive_coboundary,
)
from .dimgroup import InductiveSystem, LimitElement, StageRangeError, injectivity_report
from .exactlinalg import WalkBudgetExceeded, _message_int
from .kaction import ActionReport, K0Action, Word, verify_action

VIOLATION = "VIOLATION"
CONSISTENT = "CONSISTENT"
UNKNOWN = "UNKNOWN"
COMPRESSION_FOUND = "COMPRESSION_FOUND"
NONE_FOUND = "NONE_FOUND"


Request = tuple[tuple[LimitElement, ...], tuple[Word, ...]]  # (elements, words) of one state search


@dataclass(frozen=True)
class Verdict:
    kind: str
    params: SearchParams
    witness: Witness | None
    certificates: tuple[StateCertificate | None, ...]
    requests: tuple[Request, ...]
    exhausted_targets: tuple[int, ...]
    elapsed: float  # stderr reporting only; never serialized
    reasons: tuple[str, ...] = ()  # why a state search gave no certificate; stderr only


def default_requests(system: InductiveSystem, action: K0Action) -> tuple[Request, ...]:
    """One request: the stage-0 basis vectors against all generators."""
    p = system.rank_at(0)
    elements = tuple(
        LimitElement(0, tuple(1 if j == i else 0 for j in range(p))) for i in range(p)
    )
    words = tuple(Word.of(j) for j in range(1, action.generators + 1))
    return ((elements, words),)


def run_check(
    system: InductiveSystem,
    action: K0Action,
    params: SearchParams,
    requests: Sequence[Request] | None = None,
) -> Verdict:
    """Witness search; on a miss, invariant-state searches per request.
    A witness whose exclusion check fails raises AssertionError."""
    start = time.monotonic()
    search = find_positive_coboundary(system, action, params)
    witness = search.witness
    if witness is not None:
        if not exclusion_holds(system, action, witness, params.stage_max):
            raise AssertionError(
                "the state search did not rule out an invariant state faithful on the "
                "witness's exclusion sets, which the witness rules out"
            )
        requests = ()
    elif requests is None:
        requests = default_requests(system, action)
    certs: list[StateCertificate | None] = []
    reasons: list[str] = []
    for i, (elements, words) in enumerate(requests):
        try:
            cert = find_invariant_state(system, action, elements, words, params.stage_max)
        except (StageRangeError, WalkBudgetExceeded) as exc:
            cert = None
            reasons.append(f"state search {i + 1}: no certificate: {exc}")
        certs.append(cert)
    return Verdict(
        kind=VIOLATION if witness else CONSISTENT if all(c is not None for c in certs) else UNKNOWN,
        params=params,
        witness=witness,
        certificates=tuple(certs),
        requests=tuple(requests),
        exhausted_targets=search.exhausted_targets,
        elapsed=time.monotonic() - start,
        reasons=tuple(reasons),
    )


# ---------------------------------------------------------------------------
# JSON payloads (canonical; no timing, no environment)
# ---------------------------------------------------------------------------


def _element_payload(e: LimitElement) -> dict:
    return {"stage": e.stage, "vector": list(e.vector)}


def _word_payload(w: Word) -> list[int]:
    return list(w.letters)


def _witness_payload(w: Witness) -> dict:
    return {
        "preimages": [_element_payload(e) for e in w.preimages],
        "value": _element_payload(w.value),
        "positive_at_stage": w.positive_at_stage,
        "height": w.height,
        "nonzero": {"mode": w.nonzero_mode, "stage": w.nonzero_stage},
    }


def _certificate_payload(c: StateCertificate) -> dict:
    return {
        "stage": c.stage,
        "functional": list(c.functional),
        "elements": [_element_payload(e) for e in c.elements],
        "words": [_word_payload(w) for w in c.words],
        "unit_value": c.unit_value,
        "element_values": list(c.element_values),
    }


def verdict_payload(command: str, name: str | None, verdict: Verdict) -> dict:
    payload: dict[str, Any] = {
        "command": command,
        "verdict": verdict.kind,
        "parameters": {
            "max_stage": verdict.params.stage_max,
            "height_bound": verdict.params.height_bound,
        },
        "witness": _witness_payload(verdict.witness) if verdict.witness else None,
        "exhausted_targets": list(verdict.exhausted_targets),
    }
    if name is not None:
        payload["document"] = name
    if verdict.witness:
        payload["mutual_exclusion_ok"] = True  # run_check raises where it fails
    if verdict.requests:
        payload["state_searches"] = [
            {
                "elements": [_element_payload(e) for e in elements],
                "words": [_word_payload(w) for w in words],
                "certificate": _certificate_payload(cert) if cert else None,
            }
            for (elements, words), cert in zip(verdict.requests, verdict.certificates)
        ]
    return payload


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _read(path: str, what: str) -> bytes:
    """The bytes of the file at ``path``; one that cannot be read is
    invalid input, named by ``path`` and ``what``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(path, f"{what}: {exc}") from None


def _emit(payload: dict, json_out: str | None) -> None:
    blob = canonical_json_bytes(payload)
    if json_out:
        try:
            with open(json_out, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            raise ValueError(f"{json_out}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.flush()


def _params_from(args: argparse.Namespace) -> SearchParams:
    """The search box of the flags; a flag below its least value is a
    ValueError that names it. ``--word-length`` is checked, though no
    search reads it."""
    for flag, value, least in (
        ("--max-stage", args.max_stage, 0),
        ("--word-length", args.word_length, 1),
        ("--height", args.height, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {_message_int(value)}")
    return SearchParams(stage_max=args.max_stage, height_bound=args.height)


def _gate(
    args: argparse.Namespace,
) -> tuple[SystemDocument, InductiveSystem, K0Action, SearchParams, ActionReport]:
    """Check the flags, read and resolve the document, and verify the
    action laws up to --max-stage."""
    params = _params_from(args)
    doc = parse(_read(args.path, "cannot read"))
    system, action = doc.resolve()
    return doc, system, action, params, verify_action(action, system, params.stage_max)


def _failed(report: ActionReport, prefix: str) -> bool:
    """Report each failed action law on stderr after ``prefix``; True if
    any failed."""
    for item in report.failures():
        print(f"{prefix}{item.check} generator {item.generator} stage {item.stage}: {item.detail}", file=sys.stderr)
    return not report.ok


def _cmd_validate(args: argparse.Namespace) -> int:
    doc, system, _, params, report = _gate(args)
    inj = injectivity_report(system, params.stage_max)
    payload = {
        "command": "validate",
        "valid": report.ok,
        "checks": [
            {
                "check": item.check,
                "generator": item.generator,
                "stage": item.stage,
                "ok": item.ok,
                "detail": item.detail,
            }
            for item in report.items
        ],
        "injectivity": {
            "stages": [{"stage": k, "injective": ok} for k, ok in inj.stage_flags],
            "tail": inj.tail_injective,
        },
    }
    if doc.metadata.name:
        payload["document"] = doc.metadata.name
    _emit(payload, args.json_out)
    if _failed(report, "FAIL "):
        return 2
    print(f"valid: {len(report.items)} checks passed", file=sys.stderr)
    return 0


def _cmd_check_mf(args: argparse.Namespace) -> int:
    doc, system, action, params, report = _gate(args)
    if _failed(report, "invalid action: "):
        return 2
    requests = None
    if args.sets:
        requests = parse_request_sets(
            _read(args.sets, "cannot read request sets"), args.sets, system, action, params.stage_max
        )
    verdict = run_check(system, action, params, requests)
    payload = verdict_payload("check-mf", doc.metadata.name, verdict)
    _emit(payload, args.json_out)
    for reason in verdict.reasons:
        print(reason, file=sys.stderr)
    bounds = f"stage_max={_message_int(params.stage_max)}, height_bound={_message_int(params.height_bound)}"
    print(f"{verdict.kind} in {verdict.elapsed:.3f}s (params: SearchParams({bounds}))", file=sys.stderr)
    return 0


def _cmd_chain_recurrence(args: argparse.Namespace) -> int:
    doc, system, action, params, report = _gate(args)
    if _failed(report, "invalid action: "):
        return 2
    if action.generators != 1:
        print("chain-recurrence requires a single-generator document", file=sys.stderr)
        return 2
    verdict = run_check(system, action, params, requests=())
    verdict = replace(verdict, kind=COMPRESSION_FOUND if verdict.kind == VIOLATION else NONE_FOUND)
    payload = verdict_payload("chain-recurrence", doc.metadata.name, verdict)
    _emit(payload, args.json_out)
    print(f"{verdict.kind} in {verdict.elapsed:.3f}s", file=sys.stderr)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    perms = []
    for raw in args.perm:
        try:
            perms.append(tuple(map(integer, raw.split(","))))
        except ValueError:
            print(f"malformed --perm value: {raw!r}", file=sys.stderr)
            return 2
    try:
        fs = FiniteSystem(args.points, tuple(perms))
    except ValueError as exc:
        print(f"invalid finite system: {exc}", file=sys.stderr)
        return 2
    doc = SystemDocument(
        schema_version=1,
        metadata=Metadata(name=args.name),
        kind="finite_system",
        finite_system=fs,
    )
    _emit(document_payload(doc), args.json_out)
    return 0


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-stage", type=integer, default=SearchParams.stage_max, help="largest stage index searched (default %(default)s)")
    p.add_argument(
        "--word-length", type=integer, default=1,
        help="accepted and checked (>= 1) but no longer shapes the search: single letters generate every word difference (default 1)",
    )
    p.add_argument("--height", type=integer, default=SearchParams.height_bound, help="height bound for witness vectors (default %(default)s)")
    p.add_argument("--json-out", type=str, default=None, help="write the canonical JSON payload here instead of stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    leaves it unchanged, so every call can share it."""
    parser = argparse.ArgumentParser(
        prog="k0mf",
        description="Exact K0 certificates: coboundary witnesses and locally invariant integer states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a document and verify the action laws")
    p.add_argument("path")
    _add_params(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-mf", help="decide the positive-coboundary criterion with certificates")
    p.add_argument("path")
    _add_params(p)
    p.add_argument("--sets", type=str, default=None, help="JSON file of element/word request sets")
    p.set_defaults(func=_cmd_check_mf)

    p = sub.add_parser("chain-recurrence", help="single-generator compression check")
    p.add_argument("path")
    _add_params(p)
    p.set_defaults(func=_cmd_chain_recurrence)

    p = sub.add_parser("convert", help="emit a document for a finite permutation system")
    p.add_argument("--points", type=integer, required=True)
    p.add_argument("--perm", action="append", default=[], required=True, help="1-based images, comma separated; repeat per generator")
    p.add_argument("--name", type=str, default=None)
    p.add_argument("--json-out", type=str, default=None)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: soundness check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
