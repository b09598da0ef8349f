"""Reference oracle: the (target stage, source stage, word length) grid of
coboundary lattices that the witness search walked before it searched
one lattice H_t per target stage (``kaction.coboundary_stage_lattice``).

``reduced_words`` enumerates the words of a cell, ``cell_lattice`` builds
one cell's lattice from the ``coboundary_block`` of every word up to the
cell's length, and ``grid_search`` visits the cells in lexicographic
order with a fresh lattice each and the old search's dedup key (without
its translate skip and push-forward, which gave the same lattices).
Every cell at target t must lie inside H_t, and every witness the grid
finds must have a counterpart from the new search at target t or earlier.
"""

from typing import Iterator

from k0mf.certify import (
    SearchParams,
    Witness,
    _build_witness,
    _positive_candidates,
    _span_meets_cone,
)
from k0mf.dimgroup import InductiveSystem, StageRangeError
from k0mf.exactlinalg import IntMatrix, WalkBudgetExceeded, hermite_normal_form
from k0mf.kaction import K0Action, Word, coboundary_block, word_map


def reduced_words(generators: int, max_length: int) -> Iterator[Word]:
    """All reduced words with 1 <= length <= max_length, in a fixed order.

    Letters are ordered +1, -1, +2, -2, ...; words are emitted by length
    and then lexicographically in that letter order.
    """
    alphabet = [s * j for j in range(1, generators + 1) for s in (1, -1)]

    def extend(prefix: list[int], remaining: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(prefix)
            return
        for letter in alphabet:
            if prefix and prefix[-1] == -letter:
                continue
            prefix.append(letter)
            yield from extend(prefix, remaining - 1)
            prefix.pop()

    for length in range(1, max_length + 1):
        for letters in extend([], length):
            yield Word(letters)


def cell_lattice(
    action: K0Action,
    system: InductiveSystem,
    source_stage: int,
    target_stage: int,
    word_length: int,
) -> IntMatrix:
    """Hermite basis (columns) of the target-stage subgroup generated by
    the pushforwards of g - w(g), for g a source-stage basis vector and w
    a reduced word of length at most ``word_length``: the columns of each
    word's ``coboundary_block``. Raises StageRangeError when the target
    stage cannot receive every word image."""
    if word_length < 0:
        raise ValueError("word length must be >= 0")
    system.rank_at(source_stage)  # an undeclared source stage is reported before the target
    p_tgt = system.rank_at(target_stage)
    gens: list[tuple[tuple[int, int], ...]] = []
    for word in reduced_words(action.generators, word_length):
        sm = word_map(action, system, word, source_stage)
        if sm.to_stage > target_stage:
            raise StageRangeError(
                f"target stage {target_stage} cannot receive |w|={len(word)} images from stage {source_stage}"
            )
        gens.extend(coboundary_block(system, sm, target_stage).transpose().nonzeros)
    if not gens:
        return IntMatrix.zeros(p_tgt, 0)
    h = hermite_normal_form(IntMatrix._of_nonzeros(len(gens), p_tgt, tuple(gens)))
    basis = tuple(row for row in h.nonzeros if row)
    return IntMatrix._of_nonzeros(len(basis), p_tgt, basis).transpose()


def cell_basis(action, system, source, target, length) -> list[tuple[int, ...]] | None:
    """A cell's Hermite basis vectors, or None when the cell cannot be built."""
    try:
        lattice = cell_lattice(action, system, source, target, length)
    except StageRangeError:
        return None
    return list(map(tuple, lattice.transpose().to_rows()))


def grid_cells(system: InductiveSystem, action: K0Action, stage_max: int, word_length: int):
    """(target, source, length, basis) for every cell that can be built,
    in the grid's lexicographic order."""
    for target in range(stage_max + 1):
        if not system.has_stage(target):
            break
        for source in range(target + 1):
            for length in range(1, word_length + 1):
                basis = cell_basis(action, system, source, target, length)
                if basis is not None:
                    yield target, source, length, basis


def grid_search(
    system: InductiveSystem, action: K0Action, params: SearchParams, word_length: int
) -> tuple[Witness | None, tuple[tuple[int, int, int], ...]]:
    """The grid search: the first witness over the cells in order (each
    candidate's preimages recovered from the cell's source stage up), and
    the cells whose candidates all failed or whose walk ran out.

    As in the old search, a cell whose lattice was decided at a target
    with the same future is not decided again: on a stationary system
    every target past the last declared stage has the same future."""
    exhausted = []
    decided = set()
    for target, source, length, basis in grid_cells(system, action, params.stage_max, word_length):
        if not basis:
            continue
        key = (min(target, system.last_declared_stage) if system.is_stationary else target, tuple(basis))
        if key in decided:
            continue
        decided.add(key)
        if not _span_meets_cone(basis):
            continue
        try:
            for cand in _positive_candidates(basis, params.height_bound):
                witness = _build_witness(system, action, cand, source, target, params)
                if witness is not None:
                    return witness, tuple(exhausted)
        except WalkBudgetExceeded:
            pass
        exhausted.append((target, source, length))
    return None, tuple(exhausted)
