"""Reference oracles: coboundary data built one basis vector at a time,
as it was before ``kaction.word_map`` and ``kaction.coboundary_block``
replaced it with one sparse product per word.

``apply_letters`` applies a word's letter maps to a vector one after
another, ``coboundary_stage_lattice`` pushes g and w(g) to the target
stage separately for every source-stage basis vector g and every word of
a grid cell, ``stage_lattice`` does the same for each signed letter from
its latest source stage (H_t), and ``coboundary`` and
``invariance_differences`` do the same for the elements of a coboundary
and of a state request. The composites must give the same lattices,
images, sums and differences.
"""

from typing import Sequence

from dense_hermite import row_basis
from word_grid import reduced_words

from k0mf.dimgroup import InductiveSystem, LimitElement, StageRangeError, push
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import K0Action, Word


def apply_letters(
    action: K0Action, system: InductiveSystem, word: Word, e: LimitElement
) -> LimitElement:
    """Apply a word letter by letter; the rightmost letter acts first."""
    out = e
    for letter in reversed(word.letters):
        sm = action.letter_map(letter, out.stage)
        if not system.has_stage(sm.to_stage):
            raise StageRangeError(f"letter {letter} maps into undeclared stage {sm.to_stage}")
        if sm.matrix.cols != system.rank_at(out.stage) or sm.matrix.rows != system.rank_at(sm.to_stage):
            raise ValueError(f"stage map shape mismatch at stage {out.stage}")
        out = LimitElement(sm.to_stage, sm.matrix.apply(out.vector))
    return out


def coboundary(
    action: K0Action, system: InductiveSystem, elements: Sequence[LimitElement]
) -> LimitElement:
    """sum over generators j of (g_j - a_j(g_j)): each g_j and its image
    pushed to the common stage on its own."""
    pairs = []
    target = 0
    for j, g in enumerate(elements):
        image = apply_letters(action, system, Word.of(j + 1), g)
        pairs.append((g, image))
        target = max(target, g.stage, image.stage)
    acc = [0] * system.rank_at(target)
    for g, image in pairs:
        gv = push(system, g, target).vector
        iv = push(system, image, target).vector
        for t in range(len(acc)):
            acc[t] += gv[t] - iv[t]
    return LimitElement(target, tuple(acc))


def coboundary_stage_lattice(
    action: K0Action,
    system: InductiveSystem,
    source_stage: int,
    target_stage: int,
    word_length: int,
) -> IntMatrix:
    """Hermite basis (columns) of the pushforwards of g - w(g), one
    source-stage basis vector g and one word w at a time."""
    p_src = system.rank_at(source_stage)
    p_tgt = system.rank_at(target_stage)
    vectors = []
    for word in reduced_words(action.generators, word_length):
        for i in range(p_src):
            e = LimitElement(source_stage, tuple(1 if t == i else 0 for t in range(p_src)))
            image = apply_letters(action, system, word, e)
            if image.stage > target_stage:
                raise StageRangeError(
                    f"target stage {target_stage} cannot receive |w|={len(word)} images from stage {source_stage}"
                )
            ev = push(system, e, target_stage).vector
            iv = push(system, image, target_stage).vector
            vectors.append(tuple(a - b for a, b in zip(ev, iv)))
    return _columns(row_basis(vectors, p_tgt), p_tgt)


def stage_lattice(action: K0Action, system: InductiveSystem, target_stage: int) -> IntMatrix:
    """Hermite basis (columns) of H_t: for each signed letter, from the
    latest source stage whose image lands at or before the target, the
    pushforwards of g - a(g), one basis vector g at a time."""
    p_tgt = system.rank_at(target_stage)
    vectors = []
    for letter in (s * j for j in range(1, action.generators + 1) for s in (1, -1)):
        for k in range(target_stage, -1, -1):
            p = system.rank_at(k)
            basis = [LimitElement(k, tuple(int(t == i) for t in range(p))) for i in range(p)]
            try:
                pairs = [(e, apply_letters(action, system, Word((letter,)), e)) for e in basis]
            except StageRangeError:
                continue
            if all(image.stage <= target_stage for _, image in pairs):
                for e, image in pairs:
                    ev = push(system, e, target_stage).vector
                    iv = push(system, image, target_stage).vector
                    vectors.append(tuple(a - b for a, b in zip(ev, iv)))
                break
    return _columns(row_basis(vectors, p_tgt), p_tgt)


def _columns(basis: list[tuple[int, ...]], rows: int) -> IntMatrix:
    """The basis vectors as the columns of a matrix with ``rows`` rows."""
    return IntMatrix.from_rows([[b[i] for b in basis] for i in range(rows)]) if basis else IntMatrix.zeros(rows, 0)


def word_images(
    action: K0Action, system: InductiveSystem, elements: Sequence[LimitElement], words: Sequence[Word]
) -> list[LimitElement]:
    """w(g) for each element g and then each word w."""
    return [apply_letters(action, system, w, g) for g in elements for w in words]


def invariance_differences(
    action: K0Action, system: InductiveSystem, elements: Sequence[LimitElement], words: Sequence[Word], m: int
) -> list[tuple[int, ...]]:
    """g - w(g) at stage m for each element g and then each word w, each
    pushed to m on its own."""
    images = iter(word_images(action, system, elements, words))
    out = []
    for g in elements:
        gv = push(system, g, m).vector
        for _ in words:
            iv = push(system, next(images), m).vector
            out.append(tuple(a - b for a, b in zip(gv, iv)))
    return out
