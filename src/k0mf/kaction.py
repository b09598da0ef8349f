"""Induced free-group actions on the K0 data of an inductive system.

An action of the free group on r generators is given, per generator, by
a family of entrywise-nonnegative stage maps (stage k to stage m(k),
with m(k) either k or a later stage, monotone in k) together with an
explicit family of inverse-direction maps. Inverses are supplied rather
than computed because stage maps need not be square; invertibility is a
limit-level condition and supplying both directions makes it checkable.

This module provides word maps (``word_map``: a word's letter maps
composed by sparse products, so a word acts on a vector in one product)
and coboundary blocks (``coboundary_block``: the matrix whose column i
is e_i - w(e_i) pushed to a target stage, for every basis vector e_i at
once). On these rest word application, the coboundary combination
sum_j (g_j - a_j(g_j)) over the generators, and H_t, the finite-stage
lattice at a target stage t generated by the one-letter blocks, each
from its letter's latest source stage that lands by t; single letters
generate every word difference. The state search in ``certify`` and
its re-check take their invariance differences from word blocks. Last
comes an itemised verifier for the order-automorphism laws (positivity,
commuting squares, unit preservation, inverse laws). ``repeat_stage``
says from which stage stationary data repeats, for the verifier and the
witness search alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add
from typing import Sequence

from .dimgroup import InductiveSystem, LimitElement, StageRangeError
from .exactlinalg import IntMatrix, _first_negative, _message_int, hermite_normal_form


@dataclass(frozen=True)
class StageMap:
    from_stage: int
    to_stage: int
    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.from_stage < 0 or self.to_stage < self.from_stage:
            raise ValueError("stage maps must go forward (to_stage >= from_stage >= 0)")


# The largest stationary shift accepted. Verifying a rule of shift s
# builds the unit s stages on, one connecting map at a time, so a shift
# of 10**9 would run for hours; every shift this package generates or
# ships is at most 2.
MAX_STATIONARY_SHIFT = 1024

@dataclass(frozen=True)
class StationaryRule:
    """Repeats forever past the declared steps: stage k -> k + shift."""

    shift: int
    forward: IntMatrix
    inverse: IntMatrix

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError("stationary shift must be >= 0")
        if self.shift > MAX_STATIONARY_SHIFT:
            raise ValueError(
                f"stationary shift {_message_int(self.shift)} exceeds the bound {MAX_STATIONARY_SHIFT}"
            )


@dataclass(frozen=True)
class K0Action:
    generators: int
    forward: tuple[tuple[StageMap, ...], ...]
    inverse: tuple[tuple[StageMap, ...], ...]
    stationary: tuple[StationaryRule, ...] | None = None

    def __post_init__(self) -> None:
        if self.generators < 1:
            raise ValueError("need at least one generator")
        if len(self.forward) != self.generators or len(self.inverse) != self.generators:
            raise ValueError("need one forward and one inverse family per generator")
        if self.stationary is not None and len(self.stationary) != self.generators:
            raise ValueError("need one stationary rule per generator")
        for family in (*self.forward, *self.inverse):
            for k, sm in enumerate(family):
                if sm.from_stage != k:
                    raise ValueError("stage maps must be contiguous from stage 0")
            for prev, nxt in zip(family, family[1:]):
                if nxt.to_stage < prev.to_stage:
                    raise ValueError("target stages must be monotone")

    def _resolve(self, family: tuple[StageMap, ...], j: int, k: int, inverse: bool) -> StageMap:
        if k < 0:
            raise StageRangeError("negative stage")
        if k < len(family):
            return family[k]
        if self.stationary is not None:
            rule = self.stationary[j]
            mat = rule.inverse if inverse else rule.forward
            return StageMap(k, k + rule.shift, mat)
        raise StageRangeError(f"generator {j + 1} has no map at stage {k}")

    def forward_map(self, j: int, k: int) -> StageMap:
        return self._resolve(self.forward[j], j, k, inverse=False)

    def inverse_map(self, j: int, k: int) -> StageMap:
        return self._resolve(self.inverse[j], j, k, inverse=True)

    def letter_map(self, letter: int, k: int) -> StageMap:
        """Resolve a signed 1-based generator index at stage k."""
        if letter == 0 or abs(letter) > self.generators:
            raise ValueError(f"letter {letter} out of range")
        j = abs(letter) - 1
        return self.forward_map(j, k) if letter > 0 else self.inverse_map(j, k)


@dataclass(frozen=True)
class Word:
    """Reduced word in the free group: signed 1-based generator indices."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in self.letters:
            if x == 0:
                raise ValueError("letters are nonzero signed generator indices")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not reduced")

    @classmethod
    def of(cls, *letters: int) -> "Word":
        stack: list[int] = []
        for x in letters:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return cls(tuple(stack))

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))


def word_map(action: K0Action, system: InductiveSystem, word: Word, stage: int) -> StageMap:
    """The map of a word out of ``stage``: its letter maps composed by
    sparse products, the rightmost letter first. A one-letter word is its
    letter's map, with no product; the empty word is the identity.

    Raises StageRangeError when a letter has no map at the stage it
    meets or maps into an undeclared stage, and ValueError when a letter
    map's shape does not fit the stage ranks.
    """
    k, matrix = stage, None
    for letter in reversed(word.letters):
        sm = action.letter_map(letter, k)
        if not system.has_stage(sm.to_stage):
            raise StageRangeError(f"letter {letter} maps into undeclared stage {sm.to_stage}")
        if sm.matrix.cols != system.rank_at(k) or sm.matrix.rows != system.rank_at(sm.to_stage):
            raise ValueError(f"stage map shape mismatch at stage {k}")
        matrix = sm.matrix if matrix is None else sm.matrix @ matrix
        k = sm.to_stage
    return StageMap(stage, k, system.transfer(stage, stage) if matrix is None else matrix)


def apply_word(
    action: K0Action, system: InductiveSystem, word: Word, e: LimitElement
) -> LimitElement:
    """Apply a word to a limit element (``word_map`` applied to its
    vector); the rightmost letter acts first.

    The empty word returns the element unchanged (pushforward is the
    caller's concern when stages must be aligned).
    """
    if not word.letters:
        return e
    sm = word_map(action, system, word, e.stage)
    return LimitElement(sm.to_stage, sm.matrix.apply(e.vector))


def coboundary_block(system: InductiveSystem, sm: StageMap, target: int) -> IntMatrix:
    """transfer(k, target) - transfer(m, target) @ W for a word's map W
    from stage k to stage m <= ``target``.

    Column i is e_i - w(e_i) pushed to ``target``, for the stage-k basis
    vector e_i, so the block sends a stage-k vector g to g - w(g) at
    ``target``. Raises StageRangeError when m is past ``target``.
    """
    image = sm.matrix if sm.to_stage == target else system.transfer(sm.to_stage, target) @ sm.matrix
    return system.transfer(sm.from_stage, target) - image


def coboundary(
    action: K0Action, system: InductiveSystem, elements: Sequence[LimitElement]
) -> LimitElement:
    """sum over generators j of (g_j - a_j(g_j)), at a common stage."""
    if len(elements) != action.generators:
        raise ValueError("need exactly one element per generator")
    maps = [word_map(action, system, Word.of(j + 1), g.stage) for j, g in enumerate(elements)]
    target = max(sm.to_stage for sm in maps)
    acc = [0] * system.rank_at(target)
    for sm, g in zip(maps, elements):
        acc = list(map(add, acc, coboundary_block(system, sm, target).apply(g.vector)))
    return LimitElement(target, tuple(acc))


def latest_letter_maps(action: K0Action, system: InductiveSystem, target_stage: int) -> list[StageMap]:
    """Each signed letter's map (+1, -1, +2, -2, ...) out of its latest
    source stage whose map resolves and lands at or before
    ``target_stage``; a letter with no such stage is left out."""
    maps = []
    for letter in (s * j for j in range(1, action.generators + 1) for s in (1, -1)):
        for k in range(target_stage, -1, -1):
            try:
                sm = word_map(action, system, Word((letter,)), k)
            except StageRangeError:
                continue
            if sm.to_stage <= target_stage:
                maps.append(sm)
                break
    return maps


def coboundary_stage_lattice(action: K0Action, system: InductiveSystem, target_stage: int) -> IntMatrix:
    """H_t, the finite-stage approximation of the coboundary subgroup at
    target stage t.

    Columns form the canonical (Hermite) basis of the subgroup generated
    by the ``coboundary_block`` columns of each signed letter, each taken
    from the letter's latest source stage that lands at or before t
    (``latest_letter_maps``). Single letters generate every word
    difference, g - ab(g) = (g - b(g)) + (b(g) - a(b(g))), and by the
    commuting squares a block from an earlier source is the later block
    times a connecting map, so H_t holds g - w(g) pushed to t for every
    word w and every g whose images land by t.
    """
    p_tgt = system.rank_at(target_stage)
    gens: list[tuple[tuple[int, int], ...]] = []
    for sm in latest_letter_maps(action, system, target_stage):
        gens.extend(coboundary_block(system, sm, target_stage).transpose().nonzeros)
    if not gens:
        return IntMatrix.zeros(p_tgt, 0)
    h = hermite_normal_form(IntMatrix._of_nonzeros(len(gens), p_tgt, tuple(gens)))
    basis = tuple(row for row in h.nonzeros if row)
    return IntMatrix._of_nonzeros(len(basis), p_tgt, basis).transpose()


@dataclass(frozen=True)
class CheckItem:
    check: str
    generator: int  # 1-based; 0 for system-level checks
    stage: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ActionReport:
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]


def _vector_str(v: tuple[int, ...]) -> str:
    """``str(v)`` for a tuple of integers, each printed as ``_message_int`` does."""
    body = ", ".join(map(_message_int, v))
    return f"({body},)" if len(v) == 1 else f"({body})"


def repeat_stage(action: K0Action, system: InductiveSystem) -> int | None:
    """Stage from which ranks, connecting maps and letter maps repeat
    (None without a stationary tail)."""
    if not system.is_stationary:
        return None
    return max(
        [system.last_declared_stage]
        + [len(f) for f in action.forward]
        + [len(f) for f in action.inverse]
    )


def verify_action(action: K0Action, system: InductiveSystem, horizon: int) -> ActionReport:
    """Itemised pass/fail for the order-automorphism laws up to a horizon.

    Checks, per generator and stage: nonnegativity of each stage map,
    shape agreement with the stage ranks, unit preservation, commuting
    squares with the connecting maps, and both inverse laws (forward
    then inverse, and inverse then forward, each equal to the plain
    pushforward). Failures are report items, never exceptions; a
    negative horizon is a ValueError.

    Stages 0..horizon are checked, but none past ``repeat_stage``: from
    there on ranks, connecting maps and letter maps are the tail's, so
    every shape, positivity, commuting-square and inverse-law check is
    the one at the repeat stage, and unit preservation at k + 1 follows
    from the square and unit preservation at k.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    repeat = repeat_stage(action, system)
    top = horizon if repeat is None else min(horizon, repeat)
    items: list[CheckItem] = []

    @cache
    def resolve(j: int, k: int, inv: bool) -> tuple[StageMap | None, bool]:
        """Generator j's map out of stage k and whether its shape fits the
        stage ranks; (None, False) without a map into a declared stage."""
        try:
            sm = action.inverse_map(j, k) if inv else action.forward_map(j, k)
            shape = (system.rank_at(sm.to_stage), system.rank_at(k))
        except StageRangeError:  # no map, or one into an undeclared stage
            return None, False
        return sm, (sm.matrix.rows, sm.matrix.cols) == shape

    for j in range(action.generators):
        gen = j + 1
        for k in range(top + 1):
            if not system.has_stage(k):
                break
            for inv, tag in ((False, "forward"), (True, "inverse")):
                sm, fits = resolve(j, k, inv)
                if sm is None:
                    continue
                if not fits:
                    items.append(
                        CheckItem(
                            "shape", gen, k, False,
                            f"{tag} map is {sm.matrix.rows}x{sm.matrix.cols}, expected {system.rank_at(sm.to_stage)}x{system.rank_at(k)}",
                        )
                    )
                    continue
                items.append(CheckItem("shape", gen, k, True, tag))
                if not sm.matrix.is_nonnegative():
                    r, c, x = _first_negative(sm.matrix)
                    items.append(
                        CheckItem(
                            "positivity", gen, k, False,
                            f"{tag} map entry {(r, c)} = {_message_int(x)} is negative",
                        )
                    )
                else:
                    items.append(CheckItem("positivity", gen, k, True, tag))
                got = sm.matrix.apply(system.unit_at(k))
                want = system.unit_at(sm.to_stage)
                items.append(
                    CheckItem(
                        "unit_preserved", gen, k, got == want,
                        "" if got == want else f"{tag} map sends the stage-{k} unit to {_vector_str(got)}, expected {_vector_str(want)}",
                    )
                )
            # commuting squares per direction
            for inv, tag in ((False, "forward"), (True, "inverse")):
                (sm_k, fits_k), (sm_k1, fits_k1) = resolve(j, k, inv), resolve(j, k + 1, inv)
                if not (fits_k and fits_k1):
                    continue
                lhs = sm_k1.matrix @ system.transfer(k, k + 1)
                rhs = system.transfer(sm_k.to_stage, sm_k1.to_stage) @ sm_k.matrix
                items.append(
                    CheckItem(
                        "commuting_square", gen, k, lhs == rhs,
                        "" if lhs == rhs else f"{tag} map does not commute with the connecting map at stage {k}",
                    )
                )
            # inverse laws: each composite must equal the pushforward
            for first_inv, tag in ((False, "forward-then-inverse"), (True, "inverse-then-forward")):
                sm1, fits1 = resolve(j, k, first_inv)
                if not fits1:
                    continue
                sm2, fits2 = resolve(j, sm1.to_stage, not first_inv)
                if not fits2:
                    continue
                lhs = sm2.matrix @ sm1.matrix
                rhs = system.transfer(k, sm2.to_stage)
                items.append(
                    CheckItem(
                        "inverse_law", gen, k, lhs == rhs,
                        "" if lhs == rhs else f"{tag} composite differs from the pushforward at stage {k}",
                    )
                )
    return ActionReport(tuple(items))


def identity_action(system: InductiveSystem, generators: int = 1) -> K0Action:
    """The trivial action: every generator acts as the identity per stage."""
    declared = len(system.stage_ranks)
    # with a stationary tail the rule takes over once the ranks stabilise
    n_steps = declared - 1 if system.is_stationary else declared
    steps = tuple(
        StageMap(k, k, IntMatrix.identity(system.stage_ranks[k])) for k in range(n_steps)
    )
    rule = None
    if system.is_stationary:
        ident = IntMatrix.identity(system.stage_ranks[-1])
        rule = tuple(StationaryRule(0, ident, ident) for _ in range(generators))
    return K0Action(
        generators,
        tuple(steps for _ in range(generators)),
        tuple(steps for _ in range(generators)),
        rule,
    )
