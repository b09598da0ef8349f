"""Induced actions, word maps, and coboundary lattices.

The running example is the bundled compactified-shift document: the
two-point compactification of the integers under n -> n+1. Stage k
splits the space into the right ray, the singletons k-1 .. -(k-1) in
decreasing order, and the left ray. Run with
`python demos/03_actions_and_coboundaries.py`.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from k0mf import (
    LimitElement,
    Word,
    coboundary,
    coboundary_stage_lattice,
    parse,
    verify_action,
)
from k0mf.kaction import word_map

data = pathlib.Path(__file__).resolve().parents[1] / "src" / "k0mf" / "data"
system, action = parse((data / "compactified_shift.json").read_bytes()).resolve()

# The action laws are machine-checked: positivity, commuting squares,
# unit preservation, and both inverse laws, itemised per stage.
report = verify_action(action, system, 3)
print("action verifies:", report.ok, f"({len(report.items)} checks)")

# Stage-1 coordinates are (right ray [1,oo], {0}, left ray [-oo,-1]).
right_ray = LimitElement(1, (1, 0, 0))



def apply(word: Word, e: LimitElement) -> LimitElement:
    """A word acts on an element through its word map, one matrix from
    the element's stage; the rightmost letter acts first."""
    sm = word_map(action, system, word, e.stage)
    return LimitElement(sm.to_stage, sm.matrix.apply(e.vector))


# The generator shifts everything right; the right ray indicator maps to
# the stage-2 indicator of [2, oo].
image = apply(Word.of(1), right_ray)
print("shift of the right ray:", image)

# Its coboundary g - a(g) is the indicator of the singleton {1}: the
# class 1_[1,oo) - 1_[2,oo). It is nonzero and entrywise nonnegative.
print("coboundary of the right ray:", coboundary(action, system, [right_ray]))

# Inverse letters compose with forward letters to plain pushforwards
# (applied letterwise; the reduced word itself would be empty).
round_trip = apply(Word.of(-1), apply(Word.of(1), right_ray))
print("apply s then s^-1:", round_trip.vector, "(= pushforward to stage", f"{round_trip.stage})")

# The finite-stage coboundary lattice H_2: the columns g - a(g) of each
# letter from its latest source stage whose image lands by stage 2 (stage
# 1, for the shift and its inverse alike). Single letters generate
# every word difference, so longer words add nothing. Its canonical
# basis spans the three middle coordinates, so it meets the positive cone.
lattice = coboundary_stage_lattice(action, system, 2)
print("lattice basis columns:", [tuple(col) for col in lattice.transpose().to_rows()])
