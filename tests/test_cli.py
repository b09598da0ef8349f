import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import golden_path

from k0mf import bratteli
from k0mf.bratteli import _decimal_int, _load_json
from k0mf.cli import build_parser, main
from k0mf.kaction import MAX_STATIONARY_SHIFT


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_golden_ok(capsys):
    code, out, err = run_cli(capsys, "validate", str(golden_path("compactified_shift.json")))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert all(c["ok"] for c in payload["checks"])
    assert payload["injectivity"]["stages"] == [
        {"stage": 0, "injective": True},
        {"stage": 1, "injective": True},
        {"stage": 2, "injective": True},
    ]


def test_validate_corrupted_shape(tmp_path, capsys):
    blob = json.loads(golden_path("compactified_shift.json").read_text())
    blob["system"]["connecting_maps"][0] = [[1], [1]]  # should be 3x1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "connecting map" in err or "$.system" in err


def test_validate_negative_entry_names_field(tmp_path, capsys):
    blob = json.loads(golden_path("diamond.json").read_text())
    blob["diagram"]["edge_matrices"][0][1][0] = -1
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "edge_matrices[0][1][0]" in err


UNIT_BREAKING_DOC = {
    "schema_version": 1,
    "system": {"stage_ranks": [2], "connecting_maps": [], "unit": [1, 1], "stationary": [[1, 0], [0, 1]]},
    "action": {
        "generators": 1,
        "forward": [[]],
        "inverse": [[]],
        "stationary": [{"shift": 0, "forward": [[2, 0], [0, 1]], "inverse": [[2, 0], [0, 1]]}],
    },
}


def test_validate_unit_preservation_failure_names_generator_and_stage(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(UNIT_BREAKING_DOC))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "unit_preserved" in err and "generator 1" in err and "stage 0" in err


def test_negative_max_stage_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(UNIT_BREAKING_DOC))
    for command in ("validate", "check-mf", "chain-recurrence"):
        code, out, err = run_cli(capsys, command, str(path), "--max-stage", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --max-stage must be >= 0, got -1\n"


@pytest.mark.parametrize("text", ["1_0", "+2", " 2", "2 ", "\u0662", "0x2", "2.0", ""])
def test_integer_flags_follow_the_document_rule(text, capsys):
    """Integer flags are ASCII ``-?[0-9]+``, like integers in documents;
    ``int`` alone would run ``--max-stage 1_0`` with max_stage 10."""
    doc = str(golden_path("minimal.json"))
    for argv, flag in [
        (["check-mf", doc, "--max-stage", text], "--max-stage"),
        (["validate", doc, "--height", text], "--height"),
        (["chain-recurrence", doc, "--word-length", text], "--word-length"),
        (["convert", "--points", text, "--perm", "1,2"], "--points"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: invalid integer value: {text!r}" in captured.err
    # the document rule has no length limit, so neither do the flags
    big = "1" + "0" * 5000
    for argv, dest in [
        (["check-mf", doc, "--max-stage", big], "max_stage"),
        (["validate", doc, "--height", big], "height"),
        (["chain-recurrence", doc, "--word-length", big], "word_length"),
        (["convert", "--points", big, "--perm", "1,2"], "points"),
    ]:
        assert getattr(build_parser().parse_args(argv), dest) == 10**5000


@pytest.mark.parametrize("perm", ["+2,3,1", " 2,3,1", "2,3,1 ", "2,3,0_1", "\u0662,3,1", "2,,3,1"])
def test_perm_entries_follow_the_document_rule(perm, capsys):
    code, out, err = run_cli(capsys, "convert", "--points", "3", "--perm", "2,3,1", "--perm", perm)
    assert (code, out) == (2, "")
    assert err == f"malformed --perm value: {perm!r}\n"


def test_unwritable_json_out_is_invalid_input(tmp_path, capsys):
    """An output path that cannot be opened exits 2 and names it, as an
    unreadable document does, and writes no payload anywhere."""
    doc = str(golden_path("minimal.json"))
    for target, reason in [(tmp_path / "missing" / "out.json", "No such file or directory"), (tmp_path, "Is a directory")]:
        for argv in (["validate", doc], ["check-mf", doc], ["chain-recurrence", doc], ["convert", "--points", "2", "--perm", "2,1"]):
            code, out, err = run_cli(capsys, *argv, "--json-out", str(target))
            assert (code, out) == (2, "")
            assert err == f"error: {target}: cannot write: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_check_mf_shift_violation(capsys):
    code, out, err = run_cli(
        capsys,
        "check-mf",
        str(golden_path("compactified_shift.json")),
        "--max-stage", "3", "--word-length", "1", "--height", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "VIOLATION"
    assert payload["witness"]["value"] == {"stage": 2, "vector": [0, 1, 0, 0, 0]}
    assert payload["witness"]["preimages"] == [{"stage": 1, "vector": [1, 0, 0]}]
    assert payload["mutual_exclusion_ok"] is True
    assert "VIOLATION" in err


def test_check_mf_finite_consistent(capsys):
    code, out, _ = run_cli(capsys, "check-mf", str(golden_path("two_transpositions.json")))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "CONSISTENT"
    certs = [s["certificate"] for s in payload["state_searches"]]
    assert all(c is not None for c in certs)
    assert certs[0]["functional"] == [1, 1, 1, 1]


def test_check_mf_fibonacci_identity_consistent(capsys):
    code, out, _ = run_cli(capsys, "check-mf", str(golden_path("fibonacci_identity.json")))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "CONSISTENT"


def test_check_mf_sets_file(tmp_path, capsys):
    sets = {
        "requests": [
            {"elements": [{"stage": 0, "vector": [1, 0, 0]}], "words": [[1]]},
        ]
    }
    sets_path = tmp_path / "sets.json"
    sets_path.write_text(json.dumps(sets))
    code, out, _ = run_cli(
        capsys, "check-mf", str(golden_path("cycle3.json")), "--sets", str(sets_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "CONSISTENT"
    assert payload["state_searches"][0]["certificate"]["functional"] == [1, 1, 1]


def _check_mf_with_sets(tmp_path, capsys, text: str, doc: str = "cycle3.json") -> tuple[int, str, str]:
    sets_path = tmp_path / "sets.json"
    sets_path.write_text(text)
    return run_cli(capsys, "check-mf", str(golden_path(doc)), "--sets", str(sets_path))


def test_check_mf_sets_rejects_float_entry(tmp_path, capsys):
    text = '{"requests": [{"elements": [{"stage": 0, "vector": [1.9, 0, 0]}], "words": [[1]]}]}'
    code, out, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert "requests[0].elements[0].vector[0]: floating-point numbers are not allowed" in err


def test_check_mf_sets_rejects_bool_entry(tmp_path, capsys):
    text = '{"requests": [{"elements": [{"stage": 0, "vector": [1, true, 0]}], "words": [[1]]}]}'
    code, out, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert "requests[0].elements[0].vector[1]: expected an integer" in err


def test_check_mf_sets_rejects_float_letter(tmp_path, capsys):
    text = '{"requests": [{"elements": [{"stage": 0, "vector": [1, 0, 0]}], "words": [[1.2]]}]}'
    code, out, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert "requests[0].words[0][0]: floating-point numbers are not allowed" in err


def test_check_mf_sets_rejects_float_stage(tmp_path, capsys):
    text = '{"requests": [{"elements": [{"stage": 0.0, "vector": [1, 0, 0]}], "words": [[1]]}]}'
    code, out, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert (code, out) == (2, "")
    assert "requests[0].elements[0].stage: floating-point numbers are not allowed" in err


def test_check_mf_sets_names_path_of_bad_letter_and_stage(tmp_path, capsys):
    text = '{"requests": [{"elements": [{"stage": 0, "vector": [1, 0, 0]}], "words": [[1, "x"]]}]}'
    code, _, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert code == 2
    assert "requests[0].words[0][1]: not an integer" in err
    text = '{"requests": [{"elements": [{"stage": false, "vector": [1, 0, 0]}], "words": [[1]]}]}'
    code, _, err = _check_mf_with_sets(tmp_path, capsys, text)
    assert code == 2
    assert "requests[0].elements[0].stage: expected an integer" in err


def test_check_mf_sets_rejects_unknown_fields(tmp_path, capsys):
    """A misspelled key would drop its data and certify less than asked."""
    element = {"stage": 0, "vector": [1, 0, 0]}
    for sets, where in (
        ({"requests": [{"elements": [element], "wrods": [[1]]}]}, "$.requests[0].wrods"),
        ({"requests": [{"elements": [dict(element, weight=2)], "words": [[1]]}]}, "$.requests[0].elements[0].weight"),
        ({"requests": [{"elements": [element]}], "request": []}, "$.request"),
    ):
        code, out, err = _check_mf_with_sets(tmp_path, capsys, json.dumps(sets))
        assert (code, out) == (2, ""), where
        assert err == f"invalid input: {tmp_path / 'sets.json'}:{where}: unknown field\n"


# Stage 0 has rank 1 on the shift and rank 3 on cycle3; both have one generator.
MISFIT_SETS = '{"requests":[{"elements":[{"stage":0,"vector":[1,0,0,0,0,0,0]}],"words":[[7]]}]}'


def test_check_mf_sets_vector_must_match_stage_rank(tmp_path, capsys):
    for doc in ("compactified_shift.json", "cycle3.json"):
        code, out, err = _check_mf_with_sets(tmp_path, capsys, MISFIT_SETS, doc)
        assert (code, out) == (2, ""), doc
        assert "requests[0].elements[0].vector: length 7" in err, doc


def test_check_mf_sets_letter_must_name_a_generator(tmp_path, capsys):
    for doc, vector in (("compactified_shift.json", [1]), ("cycle3.json", [1, 0, 0])):
        for letter in (7, -2, 0):
            text = json.dumps({"requests": [{"elements": [{"stage": 0, "vector": vector}], "words": [[1, letter]]}]})
            code, out, err = _check_mf_with_sets(tmp_path, capsys, text, doc)
            assert (code, out) == (2, ""), (doc, letter)
            assert f"requests[0].words[0][1]: letter {letter}" in err, (doc, letter)


def test_check_mf_sets_stage_must_exist(tmp_path, capsys):
    # the shift declares stages 0..3; cycle3 is stationary, so only a negative stage is missing
    for doc, stage in (("compactified_shift.json", 4), ("compactified_shift.json", -1), ("cycle3.json", -1)):
        text = json.dumps({"requests": [{"elements": [{"stage": stage, "vector": [1]}], "words": [[1]]}]})
        code, out, err = _check_mf_with_sets(tmp_path, capsys, text, doc)
        assert (code, out) == (2, ""), (doc, stage)
        assert f"requests[0].elements[0].stage: stage {stage}" in err, (doc, stage)


def test_check_mf_sets_element_must_be_positive(tmp_path, capsys):
    """A non-positive element is named by its path when the sets are read,
    before any search, so a VIOLATION document rejects it too."""
    for doc, vector, horizon in (("cycle3.json", [-1, 0, 0], 4), ("compactified_shift.json", [-1], 4)):
        text = json.dumps({"requests": [{"elements": [{"stage": 0, "vector": vector}], "words": [[1]]}]})
        code, out, err = _check_mf_with_sets(tmp_path, capsys, text, doc)
        assert (code, out) == (2, ""), doc
        assert err == (
            f"invalid input: {tmp_path / 'sets.json'}:$.requests[0].elements[0]: "
            f"not positive (entrywise nonnegative at no stage up to {horizon})\n"
        ), doc


def test_check_mf_sets_objects_report_like_every_other_object(tmp_path, capsys):
    """A missing key is named at its own path and a non-object is
    "expected an object", as for the objects of a document. Every path
    has the one form FILE:$.requests..., at the top level and below it."""
    for text, where, reason in (
        ('{"requests": [{"elements": [{"stage": 0}]}]}', "$.requests[0].elements[0].vector", "missing field"),
        ('{"requests": [{"elements": [{"vector": [1, 0, 0]}]}]}', "$.requests[0].elements[0].stage", "missing field"),
        ('{"requests": [{"elements": [[0, [1, 0, 0]]]}]}', "$.requests[0].elements[0]", "expected an object"),
        ('{"requests": [7]}', "$.requests[0]", "expected an object"),
        ('{"requests": [{}]}', "$.requests[0]", "request needs at least one element"),
        ('{"requests": {}}', "$.requests", "expected an array"),
        ('{"requests": []}', "$.requests", "no requests given"),
        ('{"request": []}', "$.request", "unknown field"),
        ("{}", "$.requests", "missing field"),
        ("[]", "$", "expected an object"),
    ):
        code, out, err = _check_mf_with_sets(tmp_path, capsys, text)
        assert (code, out) == (2, ""), text
        assert err == f"invalid input: {tmp_path / 'sets.json'}:{where}: {reason}\n", text


def test_check_mf_sets_file_that_is_not_utf8_is_named(tmp_path, capsys):
    sets_path = tmp_path / "sets.json"
    sets_path.write_bytes(b'{"requests": [{"elements": [{"stage": 0, "vector": [1, 0, 0]}], "words": [["\xff"]]}]}')
    code, out, err = run_cli(capsys, "check-mf", str(golden_path("cycle3.json")), "--sets", str(sets_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: {sets_path}: cannot read request sets: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
def test_check_mf_sets_file_is_utf8_without_a_bom(tmp_path, capsys, encoding):
    """The decoder of ``json.loads`` would detect either encoding in
    bytes; a --sets file is read as UTF-8, as a document is."""
    sets_path = tmp_path / "sets.json"
    sets_path.write_bytes('{"requests": [{"elements": [{"stage": 0, "vector": [1, 0, 0]}]}]}'.encode(encoding))
    code, out, err = run_cli(capsys, "check-mf", str(golden_path("cycle3.json")), "--sets", str(sets_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: {sets_path}: cannot read request sets: ") and err.count("\n") == 1


def test_check_mf_request_without_words_keeps_its_payload(tmp_path, capsysbinary):
    """No words means no invariance rows: the functional ranges over the
    whole stage lattice. The digest was recorded before the kernel of
    the empty difference matrix replaced a hand-built identity, and
    renewed when the payload dropped ``parameters.word_length`` and
    renamed ``exhausted_cells`` to ``exhausted_targets``."""
    sets_path = tmp_path / "sets.json"
    sets_path.write_text(
        '{"requests": [{"elements": [{"stage": 0, "vector": [1, 0, 0]},'
        ' {"stage": 0, "vector": [0, 1, 2]}], "words": []}]}'
    )
    code = main(["check-mf", str(golden_path("cycle3.json")), "--sets", str(sets_path)])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == "ec3bf263873767bbf0937aee52ece12a382e8ab79db86c3ff1e592caba194c85"


# A two-stage identity system whose generator is declared at stage 0 only.
STAGE_ZERO_GENERATOR_DOC = {
    "schema_version": 1,
    "system": {"stage_ranks": [1, 1], "connecting_maps": [[[1]]], "unit": [1]},
    "action": {
        "generators": 1,
        "forward": [[{"from_stage": 0, "to_stage": 0, "matrix": [[1]]}]],
        "inverse": [[{"from_stage": 0, "to_stage": 0, "matrix": [[1]]}]],
    },
}


def test_a_word_with_no_map_is_an_unknown_with_a_reason(tmp_path, capsysbinary):
    """The element (1) at stage 1 under the word [1]: the generator has no
    map out of stage 1, so no stage can pose the question. The verdict is
    UNKNOWN, as before, and stderr now says why."""
    doc = _write(tmp_path, "doc.json", json.dumps(STAGE_ZERO_GENERATOR_DOC))
    sets = _write(tmp_path, "sets.json", '{"requests": [{"elements": [{"stage": 1, "vector": [1]}], "words": [[1]]}]}')
    code = main(["check-mf", doc, "--sets", sets])
    captured = capsysbinary.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verdict"] == "UNKNOWN"
    assert hashlib.sha256(captured.out).hexdigest() == "89fc8f1122f3eabef39ef3469617f2896c800b874d772a1975917593d8e56f6b"
    assert b"state search 1: no certificate: generator 1 has no map at stage 1\n" in captured.err


def test_word_images_past_the_stage_bound_are_an_unknown_with_a_reason(tmp_path, capsysbinary):
    """The compactified shift's generator maps stage 0 into stage 1, past
    --max-stage 0, for a --sets request and for the default one alike."""
    sets = _write(tmp_path, "sets.json", '{"requests": [{"elements": [{"stage": 0, "vector": [1]}], "words": [[1]]}]}')
    for extra in (["--sets", sets], []):
        code = main(["check-mf", str(golden_path("compactified_shift.json")), "--max-stage", "0", *extra])
        captured = capsysbinary.readouterr()
        assert code == 0
        assert json.loads(captured.out)["verdict"] == "UNKNOWN"
        assert hashlib.sha256(captured.out).hexdigest() == "6abac90687c33453e587e5ef7025360c3fcf2092ac015b81a65ee500ac4cb0f2"
        reason = b"state search 1: no certificate: the elements and their word images meet at stage 1, past the stage bound 0\n"
        assert reason in captured.err


# A one-stage system whose generator maps stage 0 into stage 1, which is not declared.
UNDECLARED_TARGET_DOC = {
    "schema_version": 1,
    "system": {"stage_ranks": [1], "connecting_maps": [], "unit": [1]},
    "action": {
        "generators": 1,
        "forward": [[{"from_stage": 0, "to_stage": 1, "matrix": [[5]]}]],
        "inverse": [[{"from_stage": 0, "to_stage": 1, "matrix": [[7]]}]],
    },
}


def test_a_map_into_an_undeclared_stage_fails_validation(tmp_path, capsys):
    """Both maps fail their shape check, so validate and check-mf exit 2;
    they used to be skipped, and validate passed with 0 checks. No inverse
    law can be posed either, and that fails too."""
    doc = _write(tmp_path, "doc.json", json.dumps(UNDECLARED_TARGET_DOC))
    failures = [f"shape generator 1 stage 0: {tag} map lands at undeclared stage 1" for tag in ("forward", "inverse")]
    failures += [
        f"inverse_law generator 1 stage 0: no {tag} composite can be checked up to stage 4"
        for tag in ("forward-then-inverse", "inverse-then-forward")
    ]
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, json.loads(out)["valid"]) == (2, False)
    assert err == "".join(f"FAIL {line}\n" for line in failures)
    code, out, err = run_cli(capsys, "check-mf", doc)
    assert (code, out) == (2, "")
    assert err == "".join(f"invalid action: {line}\n" for line in failures)


_EMPTY_ACTION = {"generators": 1, "forward": [[]], "inverse": [[]]}
_ONE_STAGE = {"stage_ranks": [1], "connecting_maps": [], "unit": [1]}
_THREE_STAGES = {"stage_ranks": [1, 1, 1], "connecting_maps": [[[1]], [[1]]], "unit": [1]}


def _stage_map(source: int, target: int) -> dict:
    return {"from_stage": source, "to_stage": target, "matrix": [[1]]}


@pytest.mark.parametrize(
    "document, where, reason",
    [
        (
            {"diagram": {"vertex_counts": [1, 1, 1], "edge_matrices": [[[1]]]}, "action": _EMPTY_ACTION},
            "$.diagram", "expected 2 edge matrices for 3 levels, got 1",
        ),
        ({"finite_system": {"points": 0, "permutations": [[]]}}, "$.finite_system", "need at least one point"),
        (
            {"finite_system": {"points": 2, "permutations": []}},
            "$.finite_system", "need at least one generator permutation",
        ),
        (
            {"system": {"stage_ranks": [0], "connecting_maps": [], "unit": []}, "action": _EMPTY_ACTION},
            "$.system", "stage ranks must be >= 1",
        ),
        (
            {"system": dict(_ONE_STAGE, stationary=[[1, 0]]), "action": _EMPTY_ACTION},
            "$.system", "stationary tail must be 1x1",
        ),
        (
            {"system": dict(_ONE_STAGE, stationary=[[-1]]), "action": _EMPTY_ACTION},
            "$.system", "stationary tail has a negative entry",
        ),
        (
            {"system": dict(_ONE_STAGE, unit=[1, 1]), "action": _EMPTY_ACTION},
            "$.system", "unit length must match the stage-0 rank",
        ),
        (
            {"system": _ONE_STAGE, "action": {"generators": 2, "forward": [[]], "inverse": [[]]}},
            "$.action", "need one forward and one inverse family per generator",
        ),
        (
            {"system": dict(_ONE_STAGE, stationary=[[1]]), "action": dict(_EMPTY_ACTION, stationary=[])},
            "$.action", "need one stationary rule per generator",
        ),
        (
            {"system": _THREE_STAGES, "action": dict(_EMPTY_ACTION, forward=[[_stage_map(0, 2), _stage_map(1, 1)]])},
            "$.action", "target stages must be monotone",
        ),
        (
            {
                "system": dict(_ONE_STAGE, stationary=[[1]]),
                "action": dict(
                    _EMPTY_ACTION, forward=[[_stage_map(0, 2)]], inverse=[[_stage_map(0, 2)]],
                    stationary=[{"shift": 0, "forward": [[1]], "inverse": [[1]]}],
                ),
            },
            "$.action", "target stages must be monotone",
        ),
    ],
    ids=[
        "diagram-edge-matrix-count", "no-points", "no-permutations", "rank-0-stage", "tail-shape",
        "negative-tail-entry", "unit-length", "missing-family", "stationary-rule-count", "non-monotone-targets",
        "rule-lands-before-its-family",
    ],
)
def test_a_rejected_document_names_its_path(tmp_path, capsys, document, where, reason):
    """Each object's own check, reached through the CLI: exit 2, nothing
    on stdout, and one line on stderr with the object's path and why."""
    doc = _write(tmp_path, "doc.json", json.dumps({"schema_version": 1, **document}))
    assert run_cli(capsys, "validate", doc) == (2, "", f"invalid input: {where}: {reason}\n")


@pytest.mark.parametrize("case", ["not-utf8", "missing-document", "directory", "missing-sets"])
def test_an_unreadable_input_names_its_path(tmp_path, capsys, case):
    """Each exits 2 with the path and why it could not be read; the rest
    of the message is the decoder's or the operating system's."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(b'{"schema_version": 1, "metadata": {"name": "\xe9"}}')  # Latin-1, read before any field
    missing = str(tmp_path / "missing.json")
    argv, prefix = {
        "not-utf8": (["validate", str(doc)], "invalid input: $: not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
        "missing-document": (["validate", missing], f"invalid input: {missing}: cannot read: "),
        "directory": (["validate", str(tmp_path)], f"invalid input: {tmp_path}: cannot read: "),
        "missing-sets": (
            ["check-mf", str(golden_path("cycle3.json")), "--sets", missing],
            f"invalid input: {missing}: cannot read request sets: ",
        ),
    }[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1


def test_validate_names_a_bad_field_inside_an_action_stage_map(tmp_path, capsys):
    blob = json.loads(golden_path("minimal.json").read_text())
    blob["action"]["forward"][0][0]["from_stage"] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "invalid input: $.action.forward[0][0].from_stage: floating-point numbers are not allowed\n"


def test_check_mf_invalid_document(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check-mf", str(path))
    assert code == 2
    assert "invalid" in err


def test_chain_recurrence_finite_none(capsys):
    code, out, _ = run_cli(capsys, "chain-recurrence", str(golden_path("cycle3.json")))
    assert code == 0
    assert json.loads(out)["verdict"] == "NONE_FOUND"


def test_chain_recurrence_identity_none(capsys):
    code, out, _ = run_cli(capsys, "chain-recurrence", str(golden_path("minimal.json")))
    assert code == 0
    assert json.loads(out)["verdict"] == "NONE_FOUND"


def test_chain_recurrence_shift_found(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain-recurrence",
        str(golden_path("compactified_shift.json")),
        "--max-stage", "3", "--height", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "COMPRESSION_FOUND"
    assert payload["witness"]["preimages"] == [{"stage": 1, "vector": [1, 0, 0]}]


def test_chain_recurrence_rejects_two_generators(capsys):
    code, _, err = run_cli(capsys, "chain-recurrence", str(golden_path("two_transpositions.json")))
    assert code == 2
    assert "single-generator" in err


def test_chain_recurrence_rejects_an_action_that_fails_the_laws(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(UNIT_BREAKING_DOC))
    code, out, err = run_cli(capsys, "chain-recurrence", str(path))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines and all(line.startswith("invalid action: ") for line in lines)
    assert lines[0] == (
        "invalid action: unit_preserved generator 1 stage 0: "
        "forward map sends the stage-0 unit to (2, 1), expected (1, 1)"
    )


def test_convert_has_no_finite_flag(capsys):
    """Finite permutation systems are the one input ``convert`` reads, so
    it takes no flag to say so; ``--finite`` is an unknown argument."""
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--finite", "--points", "3", "--perm", "2,3,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --finite" in captured.err


def test_convert_three_cycle(capsys):
    code, out, _ = run_cli(capsys, "convert", "--points", "3", "--perm", "2,3,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["finite_system"] == {"points": 3, "permutations": [[2, 3, 1]]}


def test_convert_identity(capsys):
    code, out, _ = run_cli(capsys, "convert", "--points", "2", "--perm", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["finite_system"]["permutations"] == [[1, 2]]


def test_convert_two_generators_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "convert", "--points", "4", "--perm", "2,1,3,4", "--perm", "1,2,4,3"
    )
    assert code == 0
    from k0mf.bratteli import parse

    doc = parse(out)
    _, action = doc.resolve()
    for rule in action.stationary:
        assert rule.inverse == rule.forward.transpose()


def test_convert_malformed_permutation(capsys):
    code, _, err = run_cli(capsys, "convert", "--points", "3", "--perm", "2,a,1")
    assert code == 2
    assert "malformed" in err
    code, _, err = run_cli(capsys, "convert", "--points", "3", "--perm", "1,1,2")
    assert code == 2
    assert "invalid finite system" in err


def test_json_out_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "check-mf",
            str(golden_path("compactified_shift.json")),
            "--max-stage", "3", "--height", "2",
            "--json-out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "k0mf.cli", "check-mf", str(golden_path("cycle3.json"))],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "CONSISTENT"


def test_exit_code_zero_for_every_verdict(capsys):
    # verdict kind never affects the exit code
    for name, args in [
        ("compactified_shift.json", ["--max-stage", "3", "--height", "2"]),
        ("cycle3.json", []),
        ("fibonacci_identity.json", []),
    ]:
        code, out, _ = run_cli(capsys, "check-mf", str(golden_path(name)), *args)
        assert code == 0


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_huge_points_is_invalid_input(tmp_path, capsys):
    """10**30 points used to overflow building range(1, points + 1)."""
    doc = _write(
        tmp_path, "huge.json",
        '{"schema_version": 1, "finite_system": {"points": 1000000000000000000000000000000, "permutations": [[1]]}}',
    )
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out) == (2, "")
    assert err == f"invalid input: $.finite_system: permutation 0 is not a bijection of 1..{10**30}\n"


def _bits(digits: str) -> int:
    return _decimal_int(digits).bit_length()


def test_long_integer_literals_keep_their_path(tmp_path, capsys):
    """Past the interpreter's 4300-digit limit, as a literal or a string;
    the message gives the integer's bit length, not its digits."""
    limit = sys.get_int_max_str_digits()
    big = "3" * 5000
    shown = f"<integer of {_bits(big)} bits>"
    for name, points in (("literal.json", big), ("string.json", f'"{big}"')):
        doc = _write(tmp_path, name, '{"schema_version": 1, "finite_system": {"points": %s, "permutations": [[1]]}}' % points)
        code, out, err = run_cli(capsys, "validate", doc)
        assert (code, out) == (2, "")
        assert err == f"invalid input: $.finite_system: permutation 0 is not a bijection of 1..{shown}\n"
        assert sys.get_int_max_str_digits() == limit
    doc = _write(tmp_path, "version.json", '{"schema_version": %s, "finite_system": {"points": 1, "permutations": [[1]]}}' % big)
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out) == (2, "")
    assert err == f"invalid input: $.schema_version: unsupported version {shown}\n"
    assert sys.get_int_max_str_digits() == limit


def test_messages_print_digits_up_to_the_default_digit_limit(tmp_path, capsys):
    """4300 digits are printed; 4301 digits are not."""
    for digits, shown in (("9" * 4300, "9" * 4300), ("1" + "0" * 4300, f"<integer of {_bits('1' + '0' * 4300)} bits>")):
        doc = _write(tmp_path, "points.json", '{"schema_version": 1, "finite_system": {"points": %s, "permutations": [[1]]}}' % digits)
        code, _, err = run_cli(capsys, "validate", doc)
        assert (code, err) == (2, f"invalid input: $.finite_system: permutation 0 is not a bijection of 1..{shown}\n")


def test_a_long_negative_edge_multiplicity_keeps_its_path(tmp_path, capsys):
    big = "4" * 5000
    diagram = '{"vertex_counts": [1, 1], "edge_matrices": [[[-%s]]]}' % big
    action = '{"generators": 1, "forward": [[]], "inverse": [[]]}'
    doc = _write(tmp_path, "edge.json", '{"schema_version": 1, "diagram": %s, "action": %s}' % (diagram, action))
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out) == (2, "")
    assert err == f"invalid input: $.diagram.edge_matrices[0][0][0]: negative edge multiplicity -<integer of {_bits(big)} bits>\n"


def test_a_million_digit_points_is_rejected_quickly(tmp_path, capsys):
    """Printing a million digits took seconds; the message gives bits."""
    doc = _write(tmp_path, "million.json", '{"schema_version": 1, "finite_system": {"points": 1%s, "permutations": [[1]]}}' % ("0" * 10**6))
    start = time.process_time()
    code, out, err = run_cli(capsys, "validate", doc)
    elapsed = time.process_time() - start
    assert (code, out) == (2, "")
    assert err == "invalid input: $.finite_system: permutation 0 is not a bijection of 1..<integer of 3321929 bits>\n"
    assert elapsed < 5, elapsed


def test_check_mf_sets_long_integer_literal_keeps_its_path(tmp_path, capsys):
    big = "9" * 5000
    sets = _write(tmp_path, "sets.json", '{"requests": [{"elements": [{"stage": %s, "vector": [1]}]}]}' % big)
    code, out, err = run_cli(capsys, "check-mf", str(golden_path("compactified_shift.json")), "--sets", sets)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {sets}:$.requests[0].elements[0].stage: stage <integer of {_bits(big)} bits> is outside the document's stages\n"
    sets = _write(tmp_path, "words.json", '{"requests": [{"elements": [{"stage": 0, "vector": [1]}], "words": [[-%s]]}]}' % big)
    code, out, err = run_cli(capsys, "check-mf", str(golden_path("compactified_shift.json")), "--sets", sets)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {sets}:$.requests[0].words[0][0]: letter -<integer of {_bits(big)} bits> is not a signed generator index 1..1\n"


def test_a_stage_bound_past_the_digit_limit(tmp_path, capsys):
    """--max-stage 10**5000 decides as --max-stage 10**9 does: the same
    payload but for parameters.max_stage, and exit 0 after the stderr
    summary. Its negative is rejected with its bit length."""
    big = "1" + "0" * 5000
    doc = _write(tmp_path, "doc.json", json.dumps(STAGE_ZERO_GENERATOR_DOC))
    sets = _write(tmp_path, "sets.json", '{"requests": [{"elements": [{"stage": 1, "vector": [1]}], "words": [[1]]}]}')
    for argv in (
        ["check-mf", str(golden_path("compactified_shift.json"))],
        ["check-mf", str(golden_path("cycle3.json"))],
        ["chain-recurrence", str(golden_path("compactified_shift.json"))],
        ["validate", str(golden_path("fibonacci_identity.json"))],
        ["check-mf", doc, "--sets", sets],
    ):
        payloads = []
        for bound in (big, "1000000000"):
            code, out, err = run_cli(capsys, *argv, "--max-stage", bound)
            assert code == 0, (argv, err)
            payload = _load_json(out)
            payload.get("parameters", {}).pop("max_stage", None)
            payloads.append(payload)
        assert payloads[0] == payloads[1], argv
    code, out, err = run_cli(capsys, "check-mf", str(golden_path("cycle3.json")), "--max-stage", f"-{big}")
    assert (code, out) == (2, "")
    assert err == f"error: --max-stage must be >= 0, got -<integer of {_bits(big)} bits>\n"


def test_a_word_with_no_map_at_a_stage_past_the_digit_limit(tmp_path, capsys):
    """A --sets element at stage 10**5000 of a stationary tail, under a
    generator declared at stage 0 only: an UNKNOWN whose reason gives the
    stage's bit length."""
    big = "1" + "0" * 5000
    system = '{"stage_ranks": [2], "connecting_maps": [], "unit": [1, 1], "stationary": [[1, 1], [1, 0]]}'
    identity = '[[{"from_stage": 0, "to_stage": 0, "matrix": [[1, 0], [0, 1]]}]]'
    action = '{"generators": 1, "forward": %s, "inverse": %s}' % (identity, identity)
    doc = _write(tmp_path, "doc.json", '{"schema_version": 1, "system": %s, "action": %s}' % (system, action))
    sets = _write(tmp_path, "sets.json", '{"requests": [{"elements": [{"stage": %s, "vector": [1, 1]}], "words": [[1]]}]}' % big)
    code, out, err = run_cli(capsys, "check-mf", doc, "--sets", sets, "--max-stage", "3")
    assert code == 0, err
    assert _load_json(out)["verdict"] == "UNKNOWN"
    assert f"state search 1: no certificate: generator 1 has no map at stage <integer of {_bits(big)} bits>\n" in err


def test_check_mf_writes_payload_integers_past_the_digit_limit(tmp_path, capsys):
    """A unit entry of 5000 digits reaches the certificate's unit_value."""
    limit = sys.get_int_max_str_digits()
    big = "7" * 5000
    system = '{"stage_ranks": [1], "connecting_maps": [], "unit": [%s], "stationary": [[1]]}' % big
    action = '{"generators": 1, "forward": [[]], "inverse": [[]], "stationary": [{"shift": 0, "forward": [[1]], "inverse": [[1]]}]}'
    doc = _write(tmp_path, "big.json", '{"schema_version": 1, "system": %s, "action": %s}' % (system, action))
    code, out, err = run_cli(capsys, "check-mf", doc)
    assert code == 0, err
    payload = _load_json(out)
    assert payload["verdict"] == "CONSISTENT"
    assert payload["state_searches"][0]["certificate"]["unit_value"] == _decimal_int(big)
    assert f'"unit_value": {big},' in out
    assert sys.get_int_max_str_digits() == limit


def test_long_integer_in_an_action_detail_is_a_failing_check(tmp_path, capsys):
    """A generator matrix entry past the 4300-digit limit is reported as a
    failing check item, not as the interpreter's conversion error; the
    detail gives its bit length."""
    limit = sys.get_int_max_str_digits()
    big = "5" * 5000
    shown = f"<integer of {_bits(big)} bits>"
    action = '{"generators": 1, "forward": [[]], "inverse": [[]], "stationary": [{"shift": 0, "forward": [[%s]], "inverse": [[1]]}]}'
    system = '{"stage_ranks": [1], "connecting_maps": [], "unit": [1], "stationary": [[1]]}'
    for entry, check, detail in (
        (big, "unit_preserved", f"forward map sends the stage-0 unit to ({shown},), expected (1,)"),
        (f"-{big}", "positivity", f"forward map entry (0, 0) = -{shown} is negative"),
    ):
        doc = _write(tmp_path, "big.json", '{"schema_version": 1, "system": %s, "action": %s}' % (system, action % entry))
        code, out, err = run_cli(capsys, "validate", doc)
        assert code == 2
        failing = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert {"check": check, "generator": 1, "stage": 0, "detail": detail} in [
            {k: c[k] for k in ("check", "generator", "stage", "detail")} for c in failing
        ]
        assert f"FAIL {check} generator 1 stage 0: {detail}\n" in err
        code, out, err = run_cli(capsys, "check-mf", doc)
        assert (code, out) == (2, "")
        assert err.startswith(f"invalid action: {check} generator 1 stage 0: {detail}")
        assert sys.get_int_max_str_digits() == limit


def test_one_parser_serves_every_call(capsys):
    """The parser is built once; one call's subcommand and options do not
    reach the next call, and an argument error leaves it usable."""
    assert build_parser() is build_parser()
    doc = str(golden_path("compactified_shift.json"))
    validate = run_cli(capsys, "validate", doc)
    check = run_cli(capsys, "check-mf", doc, "--max-stage", "1", "--height", "2")
    assert validate[0] == check[0] == 0
    assert json.loads(check[1])["parameters"] == {"max_stage": 1, "height_bound": 2}
    with pytest.raises(SystemExit) as exc:
        main(["check-mf"])
    assert exc.value.code == 2
    assert "the following arguments are required: path" in capsys.readouterr().err
    assert run_cli(capsys, "validate", doc) == validate
    assert run_cli(capsys, "check-mf", doc, "--max-stage", "1", "--height", "2")[:2] == check[:2]
    default = json.loads(run_cli(capsys, "check-mf", doc)[1])["parameters"]
    assert default == {"max_stage": 4, "height_bound": 16}


def test_each_document_is_resolved_once(monkeypatch, capsys):
    """``parse`` resolves a document to validate it; the commands reuse
    that system and action rather than building them again."""
    for name, convert in (("cycle3.json", "finite_system_to_k0"), ("diamond.json", "diagram_to_system")):
        built = []
        original = getattr(bratteli, convert)
        monkeypatch.setattr(bratteli, convert, lambda x, original=original: built.append(x) or original(x))
        for command in ("validate", "check-mf"):
            built.clear()
            code, _, err = run_cli(capsys, command, str(golden_path(name)))
            assert code == 0, err
            assert len(built) == 1, (name, command)
        doc = bratteli.parse(golden_path(name).read_bytes())
        assert doc.resolve() is doc.resolve()
        assert doc == bratteli.parse(golden_path(name).read_bytes())


def _shift_document(tmp_path, shift: str) -> str:
    system = '{"stage_ranks": [1], "connecting_maps": [], "unit": [1], "stationary": [[1]]}'
    rule = '{"shift": %s, "forward": [[1]], "inverse": [[1]]}' % shift
    action = '{"generators": 1, "forward": [[]], "inverse": [[]], "stationary": [%s]}' % rule
    return _write(tmp_path, "shift.json", '{"schema_version": 1, "system": %s, "action": %s}' % (system, action))


@pytest.mark.parametrize("shift", ["1000000000", "5" * 5000], ids=["1e9", "5000-digits"])
def test_a_huge_stationary_shift_is_rejected_quickly(tmp_path, capsys, shift):
    """Verifying a rule builds the unit ``shift`` stages on, one map at a
    time, so a shift of 10**9 ran for hours; past the bound it is invalid."""
    doc = _shift_document(tmp_path, shift)
    shown = shift if len(shift) < 20 else f"<integer of {_bits(shift)} bits>"
    for command in ("validate", "check-mf"):
        start = time.process_time()
        code, out, err = run_cli(capsys, command, doc)
        elapsed = time.process_time() - start
        assert (code, out) == (2, "")
        assert err == (
            f"invalid input: $.action.stationary[0].shift: stationary shift {shown} "
            f"exceeds the bound {MAX_STATIONARY_SHIFT}\n"
        )
        assert elapsed < 1, elapsed


@pytest.mark.parametrize("command", ["check-mf", "chain-recurrence"])
@pytest.mark.parametrize(
    "flag, value, least",
    [("--max-stage", "-1", 0), ("--word-length", "0", 1), ("--height", "0", 1), ("--height", "-5", 1)],
)
def test_a_bad_search_flag_names_itself(capsys, command, flag, value, least):
    code, out, err = run_cli(capsys, command, str(golden_path("cycle3.json")), flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= {least}, got {value}\n"


def _eighty_point_permutation(tmp_path, capsys) -> str:
    """One random permutation of 80 points (random.Random(80))."""
    perm = list(range(1, 81))
    random.Random(80).shuffle(perm)
    path = tmp_path / "eighty.json"
    assert main(["convert", "--points", "80", "--perm", ",".join(map(str, perm)), "--json-out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_a_long_word_length_decides_like_length_one(tmp_path, capsys):
    """``--word-length`` no longer shapes the search: single letters
    generate every word difference, so length 100 on one 80-point
    permutation (200 reduced words) costs what length 1 does and writes
    the same bytes."""
    doc = _eighty_point_permutation(tmp_path, capsys)
    short = run_cli(capsys, "check-mf", doc, "--word-length", "1")
    start = time.process_time()
    long = run_cli(capsys, "check-mf", doc, "--word-length", "100")
    elapsed = time.process_time() - start
    assert short[0] == long[0] == 0
    assert json.loads(short[1])["verdict"] == "CONSISTENT"
    assert long[1] == short[1]
    assert elapsed < 2, elapsed


def test_a_huge_stage_bound_costs_nothing_on_a_stationary_document(tmp_path, capsys):
    """A unitriangular tail with one generator of shift 2 has a positive
    coboundary. Past the repeat stage plus the tail rank nothing new can
    vanish (Fitting's lemma), so the zero test and the exclusion's state
    search stop there; a stage bound of 10**9 ran for hours when both
    walked every stage up to it."""
    system = '{"stage_ranks": [3], "connecting_maps": [], "unit": [1, 1, 1], "stationary": [[1, 0, 0], [0, 1, 0], [1, 1, 1]]}'
    rule = '{"shift": 2, "forward": [[1, 0, 0], [0, 1, 0], [1, 3, 1]], "inverse": [[1, 0, 0], [0, 1, 0], [3, 1, 1]]}'
    action = '{"generators": 1, "forward": [[]], "inverse": [[]], "stationary": [%s]}' % rule
    doc = _write(tmp_path, "unipotent.json", '{"schema_version": 1, "system": %s, "action": %s}' % (system, action))
    small = run_cli(capsys, "check-mf", doc, "--max-stage", "100", "--height", "4")
    start = time.process_time()
    huge = run_cli(capsys, "check-mf", doc, "--max-stage", "1000000000", "--height", "4")
    elapsed = time.process_time() - start
    assert small[0] == huge[0] == 0
    want = json.loads(small[1])
    assert want["verdict"] == "VIOLATION"
    want["parameters"]["max_stage"] = 1000000000
    assert json.loads(huge[1]) == want
    assert elapsed < 2, elapsed


def test_a_stationary_shift_at_the_bound_is_valid(tmp_path, capsys):
    doc = _shift_document(tmp_path, str(MAX_STATIONARY_SHIFT))
    code, out, _ = run_cli(capsys, "validate", doc)
    assert code == 0
    assert json.loads(out)["valid"] is True
