"""Induced free-group actions on the K0 data of an inductive system.

An action of the free group on r generators is given, per generator, by
a family of entrywise-nonnegative stage maps (stage k to stage m(k),
with m(k) either k or a later stage, monotone in k, a stationary rule
included) together with an explicit family of inverse-direction maps,
all resolved by ``K0Action.letter_map``. Inverses are supplied rather
than computed because stage maps need not be square; invertibility is a
limit-level condition and supplying both directions makes it checkable.

This module provides word maps (``word_map``: a word's letter maps
composed by sparse products, so a word acts on a vector in one product),
coboundary blocks (``coboundary_block``: the matrix whose column i is
e_i - w(e_i) pushed to a target stage, for every basis vector e_i at
once) and their pullbacks (``coboundary_pullback``: a functional beta
at the target times the block, from row-vector products through the
cached transfers, with no block built). H_t is the finite-stage lattice
at a target stage t generated by the one-letter blocks, each from its
letter's latest source stage that lands by t; single letters generate
every word difference. It comes in three steps: ``latest_letter_maps``
resolves those maps, ``coboundary_generators`` stacks their blocks'
columns as rows, and ``coboundary_stage_lattice`` reduces them to a
Hermite basis. Blocks are built only where their columns are needed:
H_t's generators, a witness's preimage solve and the kernel path of
the state search in ``certify``. Where a caller only evaluates one
functional on a block (the counting functional's test in both searches
of ``certify``, and the state certificate's re-check), it pulls the
functional back instead, and the coboundary combination
sum_j (g_j - a_j(g_j)) over the generators is matrix-vector products.
Last comes an itemised verifier for the order-automorphism laws
(positivity, commuting squares, unit preservation, inverse laws).
``repeat_stage`` says from which stage stationary data repeats, for the
verifier and the witness search alike.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import add, sub
from typing import NamedTuple, Sequence

from .dimgroup import InductiveSystem, LimitElement, StageRangeError
from .exactlinalg import IntMatrix, _Checked, _first_negative, _message_int, hermite_normal_form


class StageMap(_Checked, namedtuple("StageMap", "from_stage to_stage matrix")):
    __slots__ = ()

    def __new__(cls, from_stage: int, to_stage: int, matrix: IntMatrix) -> "StageMap":
        if from_stage < 0 or to_stage < from_stage:
            raise ValueError("stage maps must go forward (to_stage >= from_stage >= 0)")
        return tuple.__new__(cls, (from_stage, to_stage, matrix))


# The largest stationary shift accepted. Verifying a rule of shift s
# builds the unit s stages on, one connecting map at a time, so a shift
# of 10**9 would run for hours; every shift this package generates or
# ships is at most 2.
MAX_STATIONARY_SHIFT = 1024


class StationaryRule(_Checked, namedtuple("StationaryRule", "shift forward inverse")):
    """Repeats forever past the declared steps: stage k -> k + shift."""

    __slots__ = ()

    def __new__(cls, shift: int, forward: IntMatrix, inverse: IntMatrix) -> "StationaryRule":
        if shift < 0:
            raise ValueError("stationary shift must be >= 0")
        if shift > MAX_STATIONARY_SHIFT:
            raise ValueError(f"stationary shift {_message_int(shift)} exceeds the bound {MAX_STATIONARY_SHIFT}")
        return tuple.__new__(cls, (shift, forward, inverse))


class K0Action(_Checked, namedtuple("K0Action", "generators forward inverse stationary")):
    __slots__ = ()

    def __new__(
        cls,
        generators: int,
        forward: tuple[tuple[StageMap, ...], ...],
        inverse: tuple[tuple[StageMap, ...], ...],
        stationary: tuple[StationaryRule, ...] | None = None,
    ) -> "K0Action":
        if generators < 1:
            raise ValueError("need at least one generator")
        if len(forward) != generators or len(inverse) != generators:
            raise ValueError("need one forward and one inverse family per generator")
        if stationary is not None and len(stationary) != generators:
            raise ValueError("need one stationary rule per generator")
        rules = stationary or (None,) * generators
        for family, rule in zip((*forward, *inverse), rules * 2):
            if any(sm.from_stage != k for k, sm in enumerate(family)):
                raise ValueError("stage maps must be contiguous from stage 0")
            targets = [sm.to_stage for sm in family] + ([len(family) + rule.shift] if rule else [])
            if any(nxt < prev for prev, nxt in zip(targets, targets[1:])):
                raise ValueError("target stages must be monotone")
        return tuple.__new__(cls, (generators, forward, inverse, stationary))

    def letter_map(self, letter: int, k: int) -> StageMap:
        """The map of a signed 1-based generator index out of stage k: the
        declared map, or past the family the stationary rule's."""
        if letter == 0 or abs(letter) > self.generators:
            raise ValueError(f"letter {letter} out of range")
        j = abs(letter) - 1
        family = self.forward[j] if letter > 0 else self.inverse[j]
        if k < 0:
            raise StageRangeError("negative stage")
        if k < len(family):
            return family[k]
        if self.stationary is None:
            raise StageRangeError(f"generator {j + 1} has no map at stage {_message_int(k)}")
        rule = self.stationary[j]
        return StageMap(k, k + rule.shift, rule.forward if letter > 0 else rule.inverse)


class Word(_Checked, namedtuple("Word", "letters")):
    """Reduced word in the free group: signed 1-based generator indices."""

    __slots__ = ()

    def __new__(cls, letters: tuple[int, ...]) -> "Word":
        for x in letters:
            if x == 0:
                raise ValueError("letters are nonzero signed generator indices")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not reduced")
        return tuple.__new__(cls, (letters,))

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


def coboundary_block(system: InductiveSystem, sm: StageMap, target: int) -> IntMatrix:
    """transfer(k, target) - transfer(m, target) @ W for a word's map W
    from stage k to stage m <= ``target``.

    Column i is e_i - w(e_i) pushed to ``target``, for the stage-k basis
    vector e_i, so the block sends a stage-k vector g to g - w(g) at
    ``target``. Raises StageRangeError when m is past ``target``.
    """
    image = sm.matrix if sm.to_stage == target else system.transfer(sm.to_stage, target) @ sm.matrix
    return system.transfer(sm.from_stage, target) - image


def coboundary_pullback(
    system: InductiveSystem, sm: StageMap, target: int, beta: Sequence[int]
) -> tuple[int, ...]:
    """beta @ ``coboundary_block(system, sm, target)``, built with no block:
    beta @ transfer(k, target) - (beta @ transfer(m, target)) @ W for a
    word's map W from stage k to stage m <= ``target``.

    The stage-k row vector whose dot with g is beta(g - w(g)) at
    ``target``. It pulls beta through the cached composite transfers, never
    stage by stage, so a scan over targets far past k costs one
    row-vector product per transfer; the identity transfer of a stage at
    ``target`` is skipped, as W's shape is the stage ranks'. Raises
    StageRangeError when m is past ``target`` and ValueError when beta's
    length is not the target rank.
    """
    at_image = beta if sm.to_stage == target else system.transfer(sm.to_stage, target).pull(beta)
    pulled = sm.matrix.pull(at_image)
    at_source = beta if sm.from_stage == target else system.transfer(sm.from_stage, target).pull(beta)
    return tuple(map(sub, at_source, pulled))


def coboundary(
    action: K0Action, system: InductiveSystem, elements: Sequence[LimitElement]
) -> LimitElement:
    """sum over generators j of (g_j - a_j(g_j)), at a common stage, by
    matrix-vector products only: transfer(k, t) g_j - transfer(m, t) W g_j
    for generator j's map W from stage k to stage m."""
    if len(elements) != action.generators:
        raise ValueError("need exactly one element per generator")
    maps = [word_map(action, system, Word.of(j + 1), g.stage) for j, g in enumerate(elements)]
    target = max(sm.to_stage for sm in maps)
    acc = [0] * system.rank_at(target)
    for sm, g in zip(maps, elements):
        acc = list(map(add, acc, system.transfer(sm.from_stage, target).apply(g.vector)))
        acc = list(map(sub, acc, system.transfer(sm.to_stage, target).apply(sm.matrix.apply(g.vector))))
    return LimitElement(target, tuple(acc))


def latest_letter_maps(action: K0Action, system: InductiveSystem, target_stage: int) -> list[StageMap]:
    """Each signed letter's map (+1, -1, +2, -2, ...) out of its latest
    source stage whose map resolves and lands at or before
    ``target_stage``; a letter with no such stage is left out. The scan
    starts at the letter's last stage with a map, if that is earlier."""
    maps = []
    for letter in (s * j for j in range(1, action.generators + 1) for s in (1, -1)):
        family = (action.forward if letter > 0 else action.inverse)[abs(letter) - 1]
        last = target_stage if action.stationary else min(target_stage, len(family) - 1)
        for k in range(last, -1, -1):
            try:
                sm = word_map(action, system, Word((letter,)), k)
            except StageRangeError:
                continue
            if sm.to_stage <= target_stage:
                maps.append(sm)
                break
    return maps


def coboundary_generators(system: InductiveSystem, maps: Sequence[StageMap], target_stage: int) -> IntMatrix:
    """The generators of H_t, the finite-stage approximation of the
    coboundary subgroup at target stage t, one row each: the
    ``coboundary_block`` columns of each of ``maps``, in order.

    Given ``latest_letter_maps`` at t (each signed letter's map from its
    latest source stage that lands at or before t), the rows generate
    H_t. Single letters generate every word difference, g - ab(g) =
    (g - b(g)) + (b(g) - a(b(g))), and by the commuting squares a block
    from an earlier source is the later block times a connecting map, so
    the rows generate g - w(g) pushed to t for every word w and every g
    whose images land by t.
    """
    p_tgt = system.rank_at(target_stage)
    gens: list[tuple[tuple[int, int], ...]] = []
    for sm in maps:
        gens.extend(coboundary_block(system, sm, target_stage).transpose().nonzeros)
    return IntMatrix._of_nonzeros(len(gens), p_tgt, tuple(gens))


def coboundary_stage_lattice(generators: IntMatrix) -> IntMatrix:
    """H_t from its ``coboundary_generators``: the canonical (Hermite)
    basis of the rows' lattice, as the columns of a matrix."""
    h = hermite_normal_form(generators)
    basis = tuple(row for row in h.nonzeros if row)
    return IntMatrix._of_nonzeros(len(basis), generators.cols, basis).transpose()


class CheckItem(NamedTuple):
    """One verified law. Like every record of this package, a NamedTuple:
    immutable, and cheaper to build and hash than a frozen dataclass (the
    verifier makes one per check)."""

    check: str
    generator: int  # 1-based; 0 for system-level checks
    stage: int
    ok: bool
    detail: str = ""


class ActionReport(NamedTuple):
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
    shape agreement with the stage ranks (a map into an undeclared stage
    fails it; a stage without a map is not checked), unit preservation,
    commuting squares with the connecting maps, and both inverse laws
    (forward then inverse, and inverse then forward, each equal to the
    plain pushforward). A generator for which no stage up to the horizon
    poses one of the two composites gets a failed ``inverse_law`` item at
    stage 0 for it, since nothing then shows its maps are invertible.
    Failures are report items, never exceptions; a negative horizon is a
    ValueError.

    Stages 0..horizon are checked, but none past ``repeat_stage``: from
    there on ranks, connecting maps and letter maps are the tail's, so
    every shape, positivity, commuting-square and inverse-law check is
    the one at the repeat stage, and unit preservation at k + 1 follows
    from the square and unit preservation at k.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {_message_int(horizon)}")
    repeat = repeat_stage(action, system)
    top = horizon if repeat is None else min(horizon, repeat)
    items: list[CheckItem] = []

    @cache
    def resolve(j: int, k: int, inv: bool) -> tuple[StageMap | None, str]:
        """Generator j's map out of stage k, None without one, and what is
        wrong with it: "" when it lands at a declared stage in the shape
        of the stage ranks."""
        tag = "inverse" if inv else "forward"
        try:
            sm = action.letter_map(-(j + 1) if inv else j + 1, k)
        except StageRangeError:
            return None, "no map"
        if not system.has_stage(sm.to_stage):
            return sm, f"{tag} map lands at undeclared stage {sm.to_stage}"
        rows, cols = system.rank_at(sm.to_stage), system.rank_at(k)
        if (sm.matrix.rows, sm.matrix.cols) != (rows, cols):
            return sm, f"{tag} map is {sm.matrix.rows}x{sm.matrix.cols}, expected {rows}x{cols}"
        return sm, ""

    for j in range(action.generators):
        gen = j + 1
        posed: set[str] = set()  # the inverse laws checked at some stage
        for k in range(top + 1):
            if not system.has_stage(k):
                break
            for inv, tag in ((False, "forward"), (True, "inverse")):
                sm, problem = resolve(j, k, inv)
                if sm is None:
                    continue
                items.append(CheckItem("shape", gen, k, not problem, problem or tag))
                if problem:
                    continue
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
                (sm_k, problem_k), (sm_k1, problem_k1) = resolve(j, k, inv), resolve(j, k + 1, inv)
                if problem_k or problem_k1:
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
                sm1, problem1 = resolve(j, k, first_inv)
                if problem1:
                    continue
                sm2, problem2 = resolve(j, sm1.to_stage, not first_inv)
                if problem2:
                    continue
                lhs = sm2.matrix @ sm1.matrix
                rhs = system.transfer(k, sm2.to_stage)
                posed.add(tag)
                items.append(
                    CheckItem(
                        "inverse_law", gen, k, lhs == rhs,
                        "" if lhs == rhs else f"{tag} composite differs from the pushforward at stage {k}",
                    )
                )
        for tag in ("forward-then-inverse", "inverse-then-forward"):
            if tag not in posed:
                items.append(
                    CheckItem("inverse_law", gen, 0, False, f"no {tag} composite can be checked up to stage {_message_int(horizon)}")
                )
    return ActionReport(tuple(items))
