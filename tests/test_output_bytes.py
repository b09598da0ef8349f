"""Pinned stdout bytes and exit codes of ``check-mf``, ``chain-recurrence``
and ``validate``.

The ``check-mf`` and ``chain-recurrence`` digests were recorded on every
bundled document at the default box and at ``--max-stage 6
--word-length 3`` when the witness search went from the (target, source,
word length) grid to one lattice per target stage. That change dropped
``parameters.word_length`` and ``witness.lattice`` and turned
``exhausted_cells`` into ``exhausted_targets``; every other byte was the
one recorded from the fraction-based simplex. The four
``compactified_shift`` digests were renewed when a ``"horizon"``
witness on a system without a tail began to report the last declared
stage as ``nonzero.stage`` (3), not the search's stage bound (4 or 6).
The ``validate`` digests were recorded once the action
verifier stopped at the repeat stage. Any change to a verdict, a witness,
a certificate, a check item or the canonical JSON encoding shows here; a
change that is meant must name itself and renew the digests.
"""

import hashlib

import pytest

from conftest import GOLDEN_NAMES, golden_path

from k0mf import cli

BOXES = {"default": [], "deep": ["--max-stage", "6", "--word-length", "3"]}

EMPTY = hashlib.sha256(b"").hexdigest()

# (document, command, box) -> sha256 of stdout
STDOUT_SHA256 = {
    ("car_identity", "chain-recurrence", "deep"): "f4b7d369b8161b58a1586a4548d3b12b2bdfe7b6561b8c6e2a7dc1a069d43186",
    ("car_identity", "chain-recurrence", "default"): "a4c00b1f5c370698bc8810aca02ae02be3cd42c074a96a2aa65681804a9b6261",
    ("car_identity", "check-mf", "deep"): "b0ae8ab0cb9d9d1e302eca16579f40f43734fe06f67cb3c4fe2dd09c7b03b343",
    ("car_identity", "check-mf", "default"): "0ad12a4ec173d42b58dd0ef911f1e0999db14aaa11ef71cf1784478f64b23185",
    ("compactified_shift", "chain-recurrence", "deep"): "b2ae2de7140c14d3afb8c224ffcfaa91fe6eee97009f9274bb073e489f93c2df",
    ("compactified_shift", "chain-recurrence", "default"): "26b6429ed714d3758eb96c05c079800009bc11fcfa66cf147c94fee98e726586",
    ("compactified_shift", "check-mf", "deep"): "bb0df218a9224900a993b16f309278a6740f2e5df6d2522e977c5fc36b0d028a",
    ("compactified_shift", "check-mf", "default"): "4b71823a24740c813745cb9b0c6313eb23ac8b49c060ac3772fa8583994797a0",
    ("cycle3", "chain-recurrence", "deep"): "d8c5101a725f2f81191f835d079332ba231186d1de5d6ac29516abb2522e06a6",
    ("cycle3", "chain-recurrence", "default"): "a710cf165dd1c0bd334359f0b09a8b1366560421aa0b6ea4d53a93d1c5b1836c",
    ("cycle3", "check-mf", "deep"): "ea5091aebd14c9203252106e144eede13574cca9773b32249183b0524eef00ba",
    ("cycle3", "check-mf", "default"): "d117b0b737b50819b76809eece4bb7b444f8b5b38b303b46af68885ef53e83ec",
    ("diamond", "chain-recurrence", "deep"): "c9b1e93f61f9ba79fd8899996fea51c0a8342d2e1c677a68701779ca1c774194",
    ("diamond", "chain-recurrence", "default"): "b68aa696d73100301bf57164c6342f974770ce508b122cdd8a2d227c569f90f3",
    ("diamond", "check-mf", "deep"): "6c08c6d6f4075acb534fa5cbe1fbe09a764537238d38e95f89995c24aef41883",
    ("diamond", "check-mf", "default"): "9274c7e41998c855b93a58c8795ad563ed55f53183f9c8453982f4b1bebc5302",
    ("fibonacci_identity", "chain-recurrence", "deep"): "8ba3af87ed54ce6462727d7613656083b5d7e4f53cdfba8e63a1e21756f53bc5",
    ("fibonacci_identity", "chain-recurrence", "default"): "1a93ed54d53aa6c6c002deb5caa32f23858cb1da817594d6055cabff75e69dfa",
    ("fibonacci_identity", "check-mf", "deep"): "ceaba04f83ea7b699d5bce69fec2310f3e483ba9fd6c40274a3db6602c8ca37d",
    ("fibonacci_identity", "check-mf", "default"): "67460ec3c08d54240b67a2f1ca6166f1edc99473b8aa99db0caa04da9715ab5e",
    ("minimal", "chain-recurrence", "deep"): "7d829e6206c0b795470bb3d722951fa49399c137336ebdf46068d6e9ec7027fc",
    ("minimal", "chain-recurrence", "default"): "42afa621d58c0171c1c4d7d9f4427fee66336c497cc9760ce789e59d6eb336b1",
    ("minimal", "check-mf", "deep"): "a2a5f56a28279abdf8186f5bddcd4bec51077ebd64fe377590a863362e054d13",
    ("minimal", "check-mf", "default"): "81af4a95f1ad0b6bc8b3bb96c23fb443f8036400baa38f802377897025cc78db",
    # two generators: chain-recurrence refuses the document
    ("two_transpositions", "chain-recurrence", "deep"): EMPTY,
    ("two_transpositions", "chain-recurrence", "default"): EMPTY,
    ("two_transpositions", "check-mf", "deep"): "6a79fa7694f6f2727e35d002b4ccae589fc92e699db3eba4b60c3f08792ffc1b",
    ("two_transpositions", "check-mf", "default"): "504b9220a6721561bb79b06068fd0be5667c5a269c795d84dec9c60c9f2ff1c6",
}

# document -> sha256 of ``validate`` stdout, the same at both boxes: both
# reach past every bundled document's repeat stage or last declared stage
VALIDATE_SHA256 = {
    "car_identity": "9cd0ba6b5053ebfda79bbf028faa9c870b626b91eb99b2a0f8f1e03c8213d233",
    "compactified_shift": "df75b0553f4e6493689d331563c2890b1689c40b2605372be8a717b67ebb3053",
    "cycle3": "9b08be89f493c45b59e4d017ef02dc3efb2e14560cb84f2a98000933c1b7f8e6",
    "diamond": "a3a08bddd03b4f31384c6b5d57fea2b1c5077f1ec49ba47e934a7736d9318072",
    "fibonacci_identity": "14c8055963fe874b3a4bda92004706c39efd0a68fd62b26e6b3aaa40db85de94",
    "minimal": "fcc3efb64e67e4d138d0cbefbc528174a984fad181c3fed9038b252b0dbad68f",
    "two_transpositions": "e1340a7648f62a53eff32d13448628b6384184ccd2cce52e8c5d9db04f03fd26",
}


def run_bytes(capsysbinary, *argv) -> tuple[int, bytes, bytes]:
    code = cli.main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("command", ["check-mf", "chain-recurrence"])
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_stdout_bytes_pinned(capsysbinary, name, command, box):
    doc = name.removesuffix(".json")
    code, out, _ = run_bytes(capsysbinary, command, str(golden_path(name)), *BOXES[box])
    expected = STDOUT_SHA256[(doc, command, box)]
    assert code == (2 if expected == EMPTY else 0)
    assert hashlib.sha256(out).hexdigest() == expected


@pytest.mark.parametrize("box", sorted(BOXES))
@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_validate_bytes_pinned(capsysbinary, name, box):
    code, out, _ = run_bytes(capsysbinary, "validate", str(golden_path(name)), *BOXES[box])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == VALIDATE_SHA256[name.removesuffix(".json")]


@pytest.mark.parametrize("command", ["check-mf", "chain-recurrence"])
def test_failed_exclusion_exits_3_without_payload(capsysbinary, monkeypatch, tmp_path, command):
    monkeypatch.setattr(cli, "exclusion_holds", lambda *args: False)
    path = str(golden_path("compactified_shift.json"))
    code, out, err = run_bytes(capsysbinary, command, path)
    assert code == 3
    assert out == b""
    assert err.startswith(b"error: soundness check failed: ")
    json_out = tmp_path / "verdict.json"
    code, out, _ = run_bytes(capsysbinary, command, path, "--json-out", str(json_out))
    assert code == 3
    assert out == b"" and not json_out.exists()


def test_held_exclusion_keeps_payload(capsysbinary, monkeypatch):
    monkeypatch.setattr(cli, "exclusion_holds", lambda *args: True)
    code, out, _ = run_bytes(capsysbinary, "check-mf", str(golden_path("compactified_shift.json")))
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[("compactified_shift", "check-mf", "default")]
