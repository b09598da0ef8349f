"""The command-line surface, driven through subprocesses.

Human summaries go to stderr; the canonical JSON payload goes to stdout
or --json-out and is byte-identical across runs. Run with
`python demos/05_command_line.py`.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "k0mf" / "data"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "k0mf.cli", *args], capture_output=True, env=ENV, text=True
    )


# validate: parses the document and verifies every action law
proc = cli("validate", str(DATA / "compactified_shift.json"))
print("validate exit:", proc.returncode, "|", proc.stderr.strip())

# check-mf: the shift violates the positive-coboundary criterion
proc = cli(
    "check-mf", str(DATA / "compactified_shift.json"),
    "--max-stage", "3", "--word-length", "1", "--height", "2",
)
payload = json.loads(proc.stdout)
print("check-mf verdict:", payload["verdict"])
print("  witness value:", payload["witness"]["value"])
print("  witness preimage:", payload["witness"]["preimages"][0])

# a permutation system is consistent, with the all-ones functional
proc = cli("check-mf", str(DATA / "two_transpositions.json"))
payload = json.loads(proc.stdout)
print("two transpositions:", payload["verdict"],
      "| functional:", payload["state_searches"][0]["certificate"]["functional"])

# chain-recurrence: the single-generator vocabulary
for name in ("cycle3.json", "compactified_shift.json"):
    proc = cli("chain-recurrence", str(DATA / name), "--max-stage", "3", "--height", "2")
    print("chain-recurrence", name, "->", json.loads(proc.stdout)["verdict"])

# convert: dualize a finite permutation system to a document
proc = cli("convert", "--points", "3", "--perm", "2,3,1")
print("convert emits:", json.loads(proc.stdout)["finite_system"])

# determinism: two runs write byte-identical certificates
with tempfile.TemporaryDirectory() as tmp:
    outs = []
    for tag in ("a", "b"):
        out = pathlib.Path(tmp) / f"{tag}.json"
        cli(
            "check-mf", str(DATA / "compactified_shift.json"),
            "--max-stage", "3", "--height", "2", "--json-out", str(out),
        )
        outs.append(out.read_bytes())
    print("two runs byte-identical:", outs[0] == outs[1])
