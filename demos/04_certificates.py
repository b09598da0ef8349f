"""Witnesses and invariant-state certificates, end to end.

A positive coboundary witness refutes stable finiteness of the crossed
product; an invariant faithful integer state is the consistent
direction. The two are mutually exclusive, and the package re-checks
both kinds of certificate exactly before returning them. Run with
`python demos/04_certificates.py`.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from k0mf import (
    FiniteSystem,
    LimitElement,
    SearchParams,
    Word,
    exclusion_holds,
    exclusion_sets,
    find_invariant_state,
    find_positive_coboundary,
    finite_system_to_k0,
    parse,
)

data = pathlib.Path(__file__).resolve().parents[1] / "src" / "k0mf" / "data"

# --- the compactified shift: a witness exists -------------------------------
system, action = parse((data / "compactified_shift.json").read_bytes()).resolve()
# one lattice per target stage, up to stage 3; the first witness is at stage 2
params = SearchParams(stage_max=3, height_bound=2)
search = find_positive_coboundary(system, action, params)
w = search.witness
print("witness value:", w.value, "(the singleton {1} indicator)")
print("witness preimage:", w.preimages[0], "(the right-ray indicator)")
print("height:", w.height, "| nonzero established:", w.nonzero_mode, "to stage", w.nonzero_stage)

# No invariant faithful state can coexist with the witness: invariance
# on the preimage parts forces the functional to vanish on the value.
elements, words = exclusion_sets(w, action.generators)
print("state search on the witness sets returns none:", exclusion_holds(system, action, w, 3))

# --- a finite permutation system: always consistent -------------------------
fs = FiniteSystem(3, ((2, 3, 1),))
psystem, paction = finite_system_to_k0(fs)
print("3-cycle witness search:", find_positive_coboundary(psystem, paction, SearchParams()).witness)

cert = find_invariant_state(
    psystem, paction, [LimitElement(0, (1, 0, 0))], [Word.of(1)], stage_max=4
)
print("3-cycle certificate:", cert.functional, "unit value:", cert.unit_value)
