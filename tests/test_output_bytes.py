"""Pinned stdout bytes and exit codes of ``check-mf``, ``chain-recurrence``
and ``validate``.

The ``check-mf`` and ``chain-recurrence`` digests were recorded from the
fraction-based simplex, before the exact LP moved to an integer tableau,
on every bundled document at the default box and at ``--max-stage 6
--word-length 3``. The ``validate`` digests were recorded once the action
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
    ("car_identity", "chain-recurrence", "deep"): "ddd92ad7af3910add89b3f7ed805621bceffbb517875d0c1780cfa15d76f4f74",
    ("car_identity", "chain-recurrence", "default"): "d82903783fae028c24bc803805d22d610a72d0f6ac9ec1ab96f665dcc5f41158",
    ("car_identity", "check-mf", "deep"): "bc493d760eb3d71ba665de5f3c415b49a4ddb93c2bd91b7c150a0230a3e29d58",
    ("car_identity", "check-mf", "default"): "bdab8a2a0e3f0ecdef17f86996ecd3c9ce0d7e1c969d8dde06d877fb336776ea",
    ("compactified_shift", "chain-recurrence", "deep"): "b70713659c84bd91437ec3c8fd212e2de882d031bd249cef00055ef0ae39ce9a",
    ("compactified_shift", "chain-recurrence", "default"): "d2d8aeb8ffc7045b356286deb6152880319eabbcb2d7c483eb30eac07dd3d579",
    ("compactified_shift", "check-mf", "deep"): "45035953c16ab587551346cfa8c9cc0feb57d0abebe47513cd8014e069f3e071",
    ("compactified_shift", "check-mf", "default"): "00ea3e963d5a85c07a41cfc2330f6fd97121934bf152ab0159cc0b9c837b2ea2",
    ("cycle3", "chain-recurrence", "deep"): "0f0a3fa8f7578e04b3caf1b3ff9caeb061eed22f866309b018b503695fd35af4",
    ("cycle3", "chain-recurrence", "default"): "04a0ef302f168b256872fb01392098d34fe62bd38eb54b66428c4f8f0737e3b0",
    ("cycle3", "check-mf", "deep"): "81517c951861064a2cfc046827aecb550f43c9a6292e2c0a4cb1c2ec83889d0a",
    ("cycle3", "check-mf", "default"): "acb679411efa4505dc71421ac125907ac5e115cc50fb99fe986eeedb1982fbc5",
    ("diamond", "chain-recurrence", "deep"): "ef040669b359d89b1d46303bcd42b2145bd9eabf3d3998c0ea62031b6fc46fd0",
    ("diamond", "chain-recurrence", "default"): "f42c9777d1bfc676f0c2bffe91c74d74dce9447702bc281a7b2fd8b0fd8acba4",
    ("diamond", "check-mf", "deep"): "297a3f9bd9a8bf4a46129f564be2667d63f0fb7b12b1f902ba4f1d338ad32969",
    ("diamond", "check-mf", "default"): "cef7bb3829e4c7c270a287e5ae819a7e1eba873a652a2cb9057f0541363185cf",
    ("fibonacci_identity", "chain-recurrence", "deep"): "2e891b7a14d69423d1dbe5343208a8ac4b91e79c9035a46fc29d6360818250c2",
    ("fibonacci_identity", "chain-recurrence", "default"): "5aefbeaf474e187e9014c50e0c45f5d6c33eca0de2557f25b8453c17b5e0b889",
    ("fibonacci_identity", "check-mf", "deep"): "893a0f20cf77d2b5ef76d81793bddf31536333ed39e05656142b98b7621010e5",
    ("fibonacci_identity", "check-mf", "default"): "91b54a287c455a8ff37aa85e2b2c478a1e07579be86ed74cddf5f315ef2ca11b",
    ("minimal", "chain-recurrence", "deep"): "d92d126302a342b5efcdaa79088c09c5e109da53a3781505ebd15a3954e0064d",
    ("minimal", "chain-recurrence", "default"): "3e9484ee84179f5c8d07bb94f7a4ed87424cb5e0a9b01209916588d18627ac1e",
    ("minimal", "check-mf", "deep"): "6a510f7b561ab53a86e7c8877fea73a528052506489bc70c1521de0a2564e654",
    ("minimal", "check-mf", "default"): "799032e6e9498cd29899bc5126bc19c5bae3e4dbbaf0b04e3d5e6a8f0b59e07a",
    # two generators: chain-recurrence refuses the document
    ("two_transpositions", "chain-recurrence", "deep"): EMPTY,
    ("two_transpositions", "chain-recurrence", "default"): EMPTY,
    ("two_transpositions", "check-mf", "deep"): "e2dc0e31e38c800bac03d0becdf35f611853d79e82ce95a425ffcb7bb467b56b",
    ("two_transpositions", "check-mf", "default"): "1c061557315f6a8a08cce1243bbaf189d1840881e516e2e11f8b843f7fa0611f",
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
