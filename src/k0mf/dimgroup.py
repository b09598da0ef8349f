"""Dimension groups as inductive limits of simplicial ordered groups.

A system is a chain Z^{p_0} -> Z^{p_1} -> ... of entrywise-nonnegative
integer matrices together with an order unit at stage 0. A finite prefix
may be followed by a stationary tail (one square matrix repeated
forever); systems without a tail are defined only on their declared
prefix and hard-fail past it.

Elements of the limit are carried as (stage, vector) pairs modulo
pushforward. Positivity and equality in the limit are only
semi-decidable, so the query operations return a three-valued answer:
"yes" answers are exact statements about the limit, "no" answers are
issued only under conditions that provably persist at every later
stage, and everything else is "unknown" relative to the horizon used.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .exactlinalg import IntMatrix, _Checked, rank


class StageRangeError(ValueError):
    """A stage index falls outside a system's declared prefix."""


@dataclass(frozen=True)
class InductiveSystem:
    stage_ranks: tuple[int, ...]
    connecting_maps: tuple[IntMatrix, ...]
    unit: tuple[int, ...]
    stationary_tail: IntMatrix | None = None

    def __post_init__(self) -> None:
        ranks = self.stage_ranks
        maps = self.connecting_maps
        if not ranks:
            raise ValueError("a system needs at least one stage")
        if any(p < 1 for p in ranks):
            raise ValueError("stage ranks must be >= 1")
        if len(maps) != len(ranks) - 1:
            raise ValueError("need exactly one connecting map per adjacent stage pair")
        for k, a in enumerate(maps):
            if (a.rows, a.cols) != (ranks[k + 1], ranks[k]):
                raise ValueError(f"connecting map {k} has shape {a.rows}x{a.cols}, expected {ranks[k + 1]}x{ranks[k]}")
            if not a.is_nonnegative():
                raise ValueError(f"connecting map {k} has a negative entry")
        tail = self.stationary_tail
        if tail is not None:
            p = ranks[-1]
            if (tail.rows, tail.cols) != (p, p):
                raise ValueError(f"stationary tail must be {p}x{p}")
            if not tail.is_nonnegative():
                raise ValueError("stationary tail has a negative entry")
            if not all(tail.nonzeros):
                raise ValueError("stationary tail has a zero row; order unit would degenerate")
        if len(self.unit) != ranks[0]:
            raise ValueError("unit length must match the stage-0 rank")
        if any(x < 1 for x in self.unit):
            raise ValueError("order unit must be entrywise >= 1")
        units = [tuple(self.unit)]
        for k, a in enumerate(maps):
            units.append(a.apply(units[-1]))
            if any(x < 1 for x in units[-1]):
                raise ValueError(f"propagated unit degenerates at stage {k + 1}")
        # plain attributes, read on every stage lookup
        object.__setattr__(self, "is_stationary", tail is not None)
        object.__setattr__(self, "last_declared_stage", len(ranks) - 1)
        # eagerly propagated units: certificates reference them per stage
        object.__setattr__(self, "_prefix_units", tuple(units))
        # k -> [transfer(k, k + 1), transfer(k, k + 2), ...], grown on demand
        object.__setattr__(self, "_transfers", {})
        # rank -> the identity of that rank, transfer(k, k) for every k of that rank
        object.__setattr__(self, "_identities", {})
        # declared map index (None for the tail) -> has full column rank
        object.__setattr__(self, "_injective", {})

    # -- stage bookkeeping -------------------------------------------------

    def has_stage(self, k: int) -> bool:
        return k >= 0 and (k <= self.last_declared_stage or self.is_stationary)

    def rank_at(self, k: int) -> int:
        if not self.has_stage(k):
            raise StageRangeError(f"stage {k} is outside the declared prefix")
        return self.stage_ranks[min(k, self.last_declared_stage)]

    def connecting(self, k: int) -> IntMatrix:
        """The map from stage k to stage k+1."""
        if k < 0 or not self.has_stage(k + 1):
            raise StageRangeError(f"no connecting map out of stage {k}")
        if k < len(self.connecting_maps):
            return self.connecting_maps[k]
        assert self.stationary_tail is not None
        return self.stationary_tail

    def transfer(self, k: int, m: int) -> IntMatrix:
        """The composite map from stage k to stage m >= k.

        Cached per system: transfer(k, m) is built from transfer(k, m - 1)
        and one connecting map, and so on down to the longest one already
        cached, and transfer(k, k) is one identity per stage rank. An
        out-of-range pair raises StageRangeError on every call.
        """
        if m < k:
            raise StageRangeError("transfer target precedes source")
        if m == k:
            identities: dict[int, IntMatrix] = self._identities  # type: ignore[attr-defined]
            p = self.rank_at(k)
            ident = identities.get(p)
            if ident is None:
                ident = identities[p] = IntMatrix.identity(p)
            return ident
        chains: dict[int, list[IntMatrix]] = self._transfers  # type: ignore[attr-defined]
        chain = chains.get(k)
        if chain is None:
            chain = chains[k] = [self.connecting(k)]
        while len(chain) < m - k:
            chain.append(self.connecting(k + len(chain)) @ chain[-1])
        return chain[m - k - 1]

    def map_injective(self, k: int | None) -> bool:
        """Whether declared connecting map k (the stationary tail for
        None) has full column rank; ranked once per system."""
        flags: dict[int | None, bool] = self._injective  # type: ignore[attr-defined]
        flag = flags.get(k)
        if flag is None:
            a = self.stationary_tail if k is None else self.connecting_maps[k]
            assert a is not None
            flag = flags[k] = rank(a) == a.cols
        return flag

    def unit_at(self, k: int) -> tuple[int, ...]:
        if not self.has_stage(k):
            raise StageRangeError(f"stage {k} is outside the declared prefix")
        prefix: tuple[tuple[int, ...], ...] = self._prefix_units  # type: ignore[attr-defined]
        if k < len(prefix):
            return prefix[k]
        return self.push_vector(prefix[-1], len(prefix) - 1, k)

    def push_vector(self, vec: Sequence[int], k: int, m: int) -> tuple[int, ...]:
        """Apply the connecting maps stagewise (no composite matrices)."""
        if m < k:
            raise StageRangeError("transfer target precedes source")
        out = tuple(vec)
        for t in range(k, m):
            out = self.connecting(t).apply(out)
        return out


class LimitElement(NamedTuple):
    stage: int
    vector: tuple[int, ...]


def push(system: InductiveSystem, e: LimitElement, to_stage: int) -> LimitElement:
    """Image of e at a later stage along the connecting maps."""
    if to_stage < e.stage:
        raise StageRangeError("cannot push an element backwards")
    if len(e.vector) != system.rank_at(e.stage):
        raise ValueError("element vector length does not match its stage rank")
    return LimitElement(to_stage, system.push_vector(e.vector, e.stage, to_stage))


class Tristate(_Checked, namedtuple("Tristate", "verdict at_stage horizon")):
    """Limit-level answer: yes/no are theorems, unknown is horizon-relative."""

    __slots__ = ()

    def __new__(cls, verdict: str, at_stage: int | None, horizon: int) -> "Tristate":
        if verdict not in ("yes", "no", "unknown"):
            raise ValueError("bad verdict")
        if at_stage is not None and at_stage > horizon:
            raise ValueError("witness stage beyond horizon")
        return tuple.__new__(cls, (verdict, at_stage, horizon))

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"

    @property
    def is_no(self) -> bool:
        return self.verdict == "no"

    @classmethod
    def yes(cls, at_stage: int, horizon: int) -> "Tristate":
        return cls("yes", at_stage, horizon)

    @classmethod
    def no(cls, at_stage: int, horizon: int) -> "Tristate":
        return cls("no", at_stage, horizon)

    @classmethod
    def unknown(cls, horizon: int) -> "Tristate":
        return cls("unknown", None, horizon)


def injective_from(system: InductiveSystem, stage: int) -> bool:
    """True when every map from ``stage`` on provably has full column rank.

    Only stationary systems can certify this: a bare prefix says nothing
    about its continuation.
    """
    if not system.is_stationary or not system.map_injective(None):
        return False
    return all(system.map_injective(k) for k in range(stage, len(system.connecting_maps)))


def _settled_stage(system: InductiveSystem, stage: int) -> int | None:
    """The stage from which an element of ``stage`` that is still nonzero
    stays nonzero (None without a tail): past the last declared stage
    every map is the p x p tail T, and ker T^k = ker T^p for k >= p
    (Fitting's lemma)."""
    if not system.is_stationary:
        return None
    return max(stage, system.last_declared_stage) + system.stage_ranks[-1]


def _walk(system: InductiveSystem, e: LimitElement, horizon: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(stage, vector) of e at its own stage and then at each later one up
    to the horizon, pushed one connecting map at a time as it is read."""
    if horizon < e.stage:
        raise ValueError("horizon precedes the element's stage")
    m, v = e.stage, tuple(e.vector)
    yield m, v
    while m < horizon and system.has_stage(m + 1):
        v = system.connecting(m).apply(v)
        m += 1
        yield m, v


def is_positive(system: InductiveSystem, e: LimitElement, horizon: int) -> Tristate:
    """Is e in the positive cone of the limit?

    Yes(m): the pushforward at stage m is entrywise nonnegative (this
    persists, since connecting maps are nonnegative). No(m) is claimed
    only when provable for every later stage: either the vector is
    entrywise <= 0 and nonzero with injectivity certified onward, or,
    from the last declared stage on, a negative coordinate is frozen in:
    the stationary tail fixes the vector, or the coordinate's tail row
    is exactly e_i, which keeps its value forever.

    The element is pushed one stage at a time and the walk stops at the
    first stage that answers. Every "no" condition persists once met,
    so that is the stage a walk to the horizon would report.
    """
    tail = system.stationary_tail
    for m, v in _walk(system, e, horizon):
        if all(x >= 0 for x in v):
            return Tristate.yes(m, horizon)
        # from here on v has a negative entry
        if all(x <= 0 for x in v) and injective_from(system, m):
            return Tristate.no(m, horizon)
        if tail is not None and m >= system.last_declared_stage:
            rows = tail.nonzeros
            if tail.apply(v) == v or any(x < 0 and rows[i] == ((i, 1),) for i, x in enumerate(v)):
                return Tristate.no(m, horizon)
    return Tristate.unknown(horizon)


def is_zero(system: InductiveSystem, e: LimitElement, horizon: int) -> Tristate:
    """Is e the zero element of the limit?

    Yes(m): the pushforward vanishes at stage m (and hence forever).
    No(m): the vector is nonzero at stage m, where every later map is
    provably injective or which is ``_settled_stage`` (Fitting's lemma),
    so it never vanishes. One walk stops at the first stage that answers.
    """
    settled = _settled_stage(system, e.stage)
    for m, v in _walk(system, e, horizon):
        if not any(v):
            return Tristate.yes(m, horizon)
        if m == settled or injective_from(system, m):
            return Tristate.no(m, horizon)
    return Tristate.unknown(horizon)


class InjectivityReport(NamedTuple):
    """Full-column-rank flags for each declared connecting map."""

    stage_flags: tuple[tuple[int, bool], ...]
    tail_injective: bool | None


def injectivity_report(system: InductiveSystem, horizon: int) -> InjectivityReport:
    declared = range(min(horizon, len(system.connecting_maps)))
    flags = tuple((k, system.map_injective(k)) for k in declared)
    tail_flag = system.map_injective(None) if system.is_stationary else None
    return InjectivityReport(flags, tail_flag)
