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
    coboundary_generators,
    coboundary_stage_lattice,
    parse,
    verify_action,
)
from k0mf.kaction import coboundary_pullback, latest_letter_maps, word_map

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

# The finite-stage coboundary lattice H_2 is generated by the columns
# g - a(g) of each letter from its latest source stage whose image lands
# by stage 2 (stage 1, for the shift and its inverse alike), resolved
# once by `latest_letter_maps`. Single letters generate every word
# difference, so longer words add nothing.
# The witness search reads the generators' sums first, as the counting
# functional (1, ..., 1) pulled back through each letter map, with no
# generator built: where all are 0, (1, ..., 1) is strictly positive and
# vanishes on H_2, so H_2 meets the positive cone only at 0 and is never
# built or reduced. Here the right ray's generator, [1, oo) minus
# [2, oo), is the singleton {1}, and it sums to 1.
maps = latest_letter_maps(action, system, 2)
print("latest sources of s, s^-1:", [sm.from_stage for sm in maps])
ones = (1,) * system.rank_at(2)
print("generator sums, per letter:", [coboundary_pullback(system, sm, 2, ones) for sm in maps])
generators = coboundary_generators(system, maps, 2)

# Reduced, H_2's canonical basis spans the three middle coordinates, so
# it meets the positive cone.
lattice = coboundary_stage_lattice(generators)
print("lattice basis columns:", [tuple(col) for col in lattice.transpose().to_rows()])
