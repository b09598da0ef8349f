"""Decision engines for the K0 finiteness criteria.

Two searches drive everything:

* ``find_positive_coboundary`` looks for a nonzero entrywise-nonnegative
  element of a finite-stage coboundary lattice H_t. A hit is packaged as a
  Witness (preimages, value, stage, height) and re-verified exactly
  before it is returned; it certifies that the positive cone meets the
  coboundary subgroup nontrivially, which refutes stable finiteness of
  the crossed product. A miss is only a statement about the parameter
  box searched, never a proof.

* ``find_invariant_state`` looks for an integer functional on a stage
  lattice that is invariant under the requested words on the requested
  elements, positive on the order unit, and strictly positive on the
  nonzero requested elements. Unless the counting functional answers
  (below), the existence question is decided by an exact rational
  feasibility program over the integer kernel of the invariance
  constraints; strictness is encoded as ">= 1", which is valid because
  the constraint functionals are homogeneous in the unknown. The
  returned certificate re-verifies exactly; None follows a solved stage
  only, and a question no stage can pose raises.

Both try the counting functional 1 = (1, ..., 1) before any program is
built, pulled back through each letter or word map
(``kaction.coboundary_pullback``) with no coboundary block built. A
strictly positive functional that vanishes on H_t proves that H_t
meets the cone only at 0 (Stiemke's lemma), so a target stage where 1
pulls back to 0 through every letter map (every generator of H_t sums
to 0) has no witness and builds no generators. Where every invariance
difference sums to 0 and the unit and every requested element nonzero
at the stage sum to at least 1, 1 is the canonical state functional,
and the stage builds no difference and no kernel. On a finite
permutation system 1 is the invariant faithful state: both rules
decide every stage there, with no coboundary block and no Hermite form
at all.

Otherwise the searches read the action through
``kaction.coboundary_block``, the matrix that sends a vector g at a
word's source stage to g - w(g) at a target stage: H_t is generated by
the columns of the one-letter blocks (``kaction.latest_letter_maps``,
once per target, stacked and reduced by
``kaction.coboundary_generators`` and ``coboundary_stage_lattice``), a
witness's preimages solve the one-letter blocks stacked side by side,
and the state search's kernel path gets every invariance difference
g - w(g) of one stage's elements from one sparse product per word. The
state re-check pulls its functional back once per (stage, word) instead.

The two are mutually exclusive by design: if a witness with value x and
preimages g_j exists, any functional that is invariant on the positive
and negative parts of every g_j must vanish on x, so no certificate
faithful on x can exist at any stage. ``exclusion_sets`` builds the
element/word sets realizing that test for a discovered witness.

The witness search visits one lattice per target stage t, in increasing
order: H_t contains every word difference whose images land by t, so a
search over words, or over earlier source stages, finds nothing more.
Ties are broken by least height, then earliest leading support, then
lexicographic order, so results are deterministic and certificates
byte-reproducible. The three canonical choices (witness candidates in
that order, the preimages' coset representative of least height, mass,
leading support and lex, and the state functional of least height,
greatest sum and lex) are one bounded walk,
``exactlinalg.enumerate_lattice_points``: it goes up by height, prunes
on the constraint rows and on the best key found so far, and leaves the
tie-breaks to the caller. A candidate walk or a state walk that runs
out of its node budget is a non-answer: the witness target is
exhausted, and the state search gives no certificate. A preimages walk
that runs out falls back to the Hermite-reduced representative of the
coset, which is as canonical and costs one pass over the kernel rows.

On a stationary action the stage ranks, connecting maps and letter maps
repeat from stage P = ``kaction.repeat_stage`` on (the last declared
stage or the longest declared action family, whichever is later; the
action verifier stops at the same P). From target P + s on, for s the
largest shift of a stationary rule, every letter's latest source is past
P, so H_t is one lattice on identical stage data, and the search stops
there. No element vanishes past ``dimgroup._settled_stage``, so the
zero test of a witness and the state search stop there too.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .dimgroup import (
    InductiveSystem,
    LimitElement,
    StageRangeError,
    Tristate,
    _settled_stage,
    is_positive,
    is_zero,
    push,
)
from .exactlinalg import (
    Feasible,
    Infeasible,
    IntMatrix,
    LinearProgram,
    WalkBudgetExceeded,
    _Checked,
    _dense_row,
    _message_int,
    enumerate_lattice_points,
    integer_kernel,
    lp_feasible,
    solve_in_lattice,
)
from .kaction import (
    K0Action,
    StageMap,
    Word,
    coboundary,
    coboundary_block,
    coboundary_generators,
    coboundary_pullback,
    coboundary_stage_lattice,
    latest_letter_maps,
    repeat_stage,
    word_map,
)


class SearchParams(_Checked, namedtuple("SearchParams", "stage_max height_bound")):
    __slots__ = ()

    def __new__(cls, stage_max: int = 4, height_bound: int = 16) -> "SearchParams":
        if stage_max < 0 or height_bound < 1:
            raise ValueError("bad search parameters")
        return tuple.__new__(cls, (stage_max, height_bound))


class Witness(NamedTuple):
    """A positive-coboundary certificate.

    ``value`` equals the coboundary of ``preimages`` pushed to
    ``positive_at_stage``, where it is entrywise nonnegative and not the
    zero vector. ``nonzero_mode`` records how "nonzero in the limit" was
    established: "limit" when injectivity from the reporting stage is
    certified, "horizon" when the value merely stays nonzero at every
    stage checked.
    """

    preimages: tuple[LimitElement, ...]
    value: LimitElement
    positive_at_stage: int
    height: int
    nonzero_mode: str
    nonzero_stage: int


class StateCertificate(NamedTuple):
    """An integer functional on a stage lattice realizing the local
    invariant-state data for the element set and word set recorded."""

    stage: int
    functional: tuple[int, ...]
    elements: tuple[LimitElement, ...]
    words: tuple[Word, ...]
    unit_value: int
    element_values: tuple[int, ...]


class WitnessSearch(NamedTuple):
    """Search outcome. ``exhausted_targets`` lists the target stages
    where the rational relaxation met the cone but no certified lattice
    witness existed within the height bound; a None witness with no
    exhausted targets means the whole box was decided."""

    witness: Witness | None
    exhausted_targets: tuple[int, ...]


def _first_nonzero(vec: Sequence[int]) -> int:
    return next((i for i, x in enumerate(vec) if x), len(vec))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _coefficient_program(
    basis_rows: Sequence[Sequence[int]], positives: Sequence[Sequence[int]], nonnegative: bool
) -> LinearProgram:
    """Program over the coefficients c of v = sum(c_i * basis_rows[i]): each
    coordinate of v >= 0 when ``nonnegative``, then v . p >= 1 per p in ``positives``."""
    ineqs = [(column, 0) for column in zip(*basis_rows)] if nonnegative else []
    ineqs.extend(([_dot(row, pos) for row in basis_rows], 1) for pos in positives)
    return LinearProgram.build(len(basis_rows), inequalities=ineqs)


def _span_meets_cone(basis_rows: list[tuple[int, ...]]) -> bool:
    """Does the rational span of the lattice meet the cone nontrivially?

    Equivalent to the lattice itself meeting the cone away from zero: a
    nonnegative nonzero rational vector in the span has a positive
    integer multiple inside the lattice. The basis must not be empty:
    the witness search asks only where some generator of the lattice,
    and so some basis row, sums to nonzero (see
    ``find_positive_coboundary``).
    """
    program = _coefficient_program(basis_rows, [(1,) * len(basis_rows[0])], nonnegative=True)
    return isinstance(lp_feasible(program), Feasible)


def _positive_candidates(basis_rows: list[tuple[int, ...]], height_bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero nonnegative lattice vectors by increasing height, then
    earliest leading support, then lexicographic order, walked lazily."""
    return enumerate_lattice_points(basis_rows, height_bound, nonnegative=True, key="support")


def _canonical_coset_vector(
    particular: Sequence[int], kernel_rows: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Least element of particular + lattice under (height, total mass,
    leading support, lex). Deterministic representative for recovered
    data that prefers sparse vectors. The least-mass walk from
    ``particular``, any representative, walks the same coset points in
    the same order (an empty kernel yields ``particular`` itself).

    Least mass in a coset is a closest-vector problem, so the walk may
    run out of its node budget. Then the representative is the
    Hermite-reduced one: for each kernel row in order, subtract
    floor(v[p] / row[p]) times the row, for p the row's pivot. The rows
    are Hermite rows (``integer_kernel``), so every later row vanishes
    at p, each v[p] ends in [0, row[p]), and two such points of one
    coset differ by no nonzero lattice vector: the point is the same
    from every representative.
    """
    radius = max(map(abs, particular))
    try:
        found = enumerate_lattice_points(kernel_rows, radius, particular, key="mass")
        best = min(found, key=lambda v: (sum(map(abs, v)), _first_nonzero(v), v), default=None)
    except WalkBudgetExceeded:
        reduced = list(particular)
        for row in kernel_rows:
            p = _first_nonzero(row)
            q = reduced[p] // row[p]
            if q:
                reduced = [x - q * y for x, y in zip(reduced, row)]
        return tuple(reduced)
    if best is None:
        raise AssertionError("coset enumeration missed its own representative")
    return best


def _canonical_functional(
    diffs: IntMatrix,
    positives: list[tuple[int, ...]],
) -> tuple[int, ...] | None:
    """Canonical integer functional that vanishes on every row of
    ``diffs`` and is at least 1 on every vector of ``positives``; None
    when there is none. The state search lists the unit first, so
    ``positives`` is never empty.

    The functional lives in ``integer_kernel(diffs)``, and an empty
    kernel gives None. An exact rational feasibility check decides
    existence: the value constraints are homogeneous in the functional,
    so any rational solution scales to an integer one, and the scaled
    solution bounds the exact least-height walk. Selection is least
    height, then greatest coordinate sum, then lexicographic. The
    program and the walk read one row per positive.
    """
    width = diffs.cols
    kernel_rows = integer_kernel(diffs)  # with no rows: the identity rows
    if not kernel_rows:
        return None
    res = lp_feasible(_coefficient_program(kernel_rows, positives, nonnegative=False))
    if isinstance(res, Infeasible):
        return None
    scale = lcm(*(t.denominator for t in res.point))
    coeffs = [int(t * scale) for t in res.point]
    scaled = [0] * width
    for c, row in zip(coeffs, kernel_rows):
        for i in range(width):
            scaled[i] += c * row[i]
    radius = max(1, max(abs(x) for x in scaled))
    found = enumerate_lattice_points(kernel_rows, radius, rows=[(pos, 1) for pos in positives], key="sum")
    best = min(found, key=lambda v: (-sum(v), v), default=None)
    if best is None:
        raise AssertionError("scaled rational solution escaped the enumeration radius")
    return best


def _recover_preimages(
    system: InductiveSystem,
    action: K0Action,
    value: LimitElement,
    source_hint: int,
    stage_max: int,
) -> tuple[LimitElement, ...] | None:
    """Solve value = sum_j (g_j - a_j(g_j)) over the integers: the
    one-letter ``coboundary_block`` of each generator, side by side, is
    the matrix that sends the stacked g_j to that sum.

    Tries source stages from ``source_hint``, the least latest source of
    the target's lattice, upward; a witness produced by an inverse letter
    may only be a coboundary of elements one stage later. Stops where a
    ``word_map`` raises, as target stages only grow with the source.
    """
    r = action.generators
    for k in range(source_hint, stage_max + 1):
        try:
            maps = [word_map(action, system, Word.of(j + 1), k) for j in range(r)]
        except StageRangeError:
            break
        target = max([value.stage] + [sm.to_stage for sm in maps])
        p_src = system.rank_at(k)
        matrix = IntMatrix.hstack([coboundary_block(system, sm, target) for sm in maps])
        solved = solve_in_lattice(matrix, push(system, value, target).vector)
        if solved is None:
            continue
        x0, kernel = solved
        stacked = _canonical_coset_vector(x0, kernel)
        return tuple(
            LimitElement(k, tuple(stacked[j * p_src : (j + 1) * p_src]))
            for j in range(r)
        )
    return None


def _nonzero_claim(zero: Tristate) -> tuple[str, int]:
    """(``nonzero_mode``, ``nonzero_stage``) from a zero test not yes."""
    return ("limit", zero.at_stage) if zero.is_no else ("horizon", zero.horizon)


def verify_witness(system: InductiveSystem, action: K0Action, w: Witness) -> None:
    """Exact re-verification, the stages and the nonzero claim included;
    raises AssertionError on any failure."""
    if not system.has_stage(w.positive_at_stage) or w.positive_at_stage < w.value.stage:
        raise AssertionError("witness reporting stage is undeclared or precedes its value's stage")
    cb = coboundary(action, system, w.preimages)
    common = max(cb.stage, w.positive_at_stage)
    if push(system, cb, common).vector != push(system, w.value, common).vector:
        raise AssertionError("witness value is not the coboundary of its preimages")
    vec = w.value.vector
    if w.value.stage != w.positive_at_stage:
        vec = push(system, w.value, w.positive_at_stage).vector
    if any(x < 0 for x in vec) or not any(vec):
        raise AssertionError("witness value is not positive at its reporting stage")
    if max(abs(x) for x in w.value.vector) != w.height:
        raise AssertionError("witness height mismatch")
    zero = is_zero(system, w.value, max(w.nonzero_stage, w.value.stage))
    if zero.is_yes:
        raise AssertionError("witness value vanishes in the limit")
    if (w.nonzero_mode, w.nonzero_stage) != _nonzero_claim(zero):
        raise AssertionError("witness nonzero claim is not what its zero test gives")


def _build_witness(
    system: InductiveSystem,
    action: K0Action,
    vec: tuple[int, ...],
    source_hint: int,
    target: int,
    params: SearchParams,
) -> Witness | None:
    value = LimitElement(target, vec)
    horizon = max(params.stage_max, target)
    if not system.is_stationary:
        horizon = min(horizon, system.last_declared_stage)  # the last stage there is to walk
    zero = is_zero(system, value, horizon)
    if zero.is_yes:
        return None
    preimages = _recover_preimages(system, action, value, source_hint, params.stage_max)
    if preimages is None:
        return None
    witness = Witness(preimages, value, target, max(map(abs, vec)), *_nonzero_claim(zero))
    verify_witness(system, action, witness)
    return witness


def _last_target(system: InductiveSystem, action: K0Action, stage_max: int) -> int:
    """The last target stage worth searching: ``stage_max``, or on a
    stationary action P + the largest shift, where P is the repeat stage,
    if that comes first (see the module docstring)."""
    repeat = repeat_stage(action, system)
    if repeat is None or action.stationary is None:
        return stage_max
    return min(stage_max, repeat + max(rule.shift for rule in action.stationary))


def find_positive_coboundary(
    system: InductiveSystem, action: K0Action, params: SearchParams
) -> WitnessSearch:
    """Scan the parameter box for a positive coboundary witness.

    Target stages are visited in increasing order. Each resolves its
    letter maps once (``latest_letter_maps``) and first tests the
    counting functional 1 = (1, ..., 1) on the generators of H_t: 1
    pulled back through a letter map (``coboundary_pullback``) is the
    row of that letter's generators' sums. Where every
    generator sums to 0, 1 is strictly positive and vanishes on H_t, so
    H_t meets the cone only at 0 (Stiemke's lemma) and the target is
    decided with no coboundary block, Hermite form or program. Otherwise
    some basis row of H_t sums to nonzero too, as the generators are
    integer combinations of the basis rows; the generators are built
    from the same maps (``coboundary_generators``) and reduced
    (``coboundary_stage_lattice``), the rational relaxation decides
    whether it meets the cone at all, and only then are lattice vectors
    enumerated by increasing height up to the height bound. A None
    result means no witness exists in the box searched (it is not a
    proof that none exists at all). On a stationary action the scan
    stops at ``_last_target``.

    A target whose candidate walk runs out of its node budget is
    exhausted; a candidate whose preimages' coset walk runs out of it
    takes the Hermite-reduced preimages (``_canonical_coset_vector``).
    """
    exhausted: list[int] = []
    for target in range(_last_target(system, action, params.stage_max) + 1):
        if not system.has_stage(target):
            break
        maps = latest_letter_maps(action, system, target)
        ones = (1,) * system.rank_at(target)
        if not any(any(coboundary_pullback(system, sm, target, ones)) for sm in maps):
            continue
        lattice = coboundary_stage_lattice(coboundary_generators(system, maps, target))
        basis_rows = [_dense_row(row, lattice.rows) for row in lattice.transpose().nonzeros]
        if not _span_meets_cone(basis_rows):
            continue
        source_hint = min(sm.from_stage for sm in maps)
        try:
            for cand in _positive_candidates(basis_rows, params.height_bound):
                witness = _build_witness(system, action, cand, source_hint, target, params)
                if witness is not None:
                    return WitnessSearch(witness, tuple(exhausted))
        except WalkBudgetExceeded:
            pass  # the target is exhausted like one whose candidates all failed
        exhausted.append(target)
    return WitnessSearch(None, tuple(exhausted))


def _invariance_differences(
    system: InductiveSystem,
    maps: dict[tuple[int, Word], StageMap],
    elements: Sequence[LimitElement],
    words: Sequence[Word],
    m: int,
) -> IntMatrix:
    """The rows g - w(g) at stage m for each element g and then each word
    w, given ``maps``, the ``word_map`` of each (stage, word). The
    elements of one stage, as sparse rows, go through the transposed
    ``coboundary_block`` of each word in one sparse product."""
    diffs: dict[tuple[int, Word], tuple[tuple[int, int], ...]] = {}
    for k in dict.fromkeys(g.stage for g in elements):
        idx = [i for i, g in enumerate(elements) if g.stage == k]
        stacked = tuple(tuple(compress(enumerate(elements[i].vector), elements[i].vector)) for i in idx)
        stacked_matrix = IntMatrix._of_nonzeros(len(idx), system.rank_at(k), stacked)
        for w in words:
            images = (stacked_matrix @ coboundary_block(system, maps[k, w], m).transpose()).nonzeros
            for j, i in enumerate(idx):
                diffs[i, w] = images[j]
    rows = tuple(diffs[i, w] for i in range(len(elements)) for w in words)
    return IntMatrix._of_nonzeros(len(rows), system.rank_at(m), rows)


def _is_invariant(
    system: InductiveSystem,
    maps: dict[tuple[int, Word], StageMap],
    elements: Sequence[LimitElement],
    beta: Sequence[int],
    m: int,
) -> bool:
    """Whether the functional ``beta`` at stage m vanishes on g - w(g)
    for each element g and word w, given ``maps``, the ``word_map`` of
    each (stage, word): beta is pulled back once per (stage, word)
    (``coboundary_pullback``) and dotted with that stage's elements, with
    no difference built. An element whose vector length is not its
    stage's rank raises ValueError."""
    for (k, _), sm in maps.items():
        pulled = coboundary_pullback(system, sm, m, beta)
        vectors = [g.vector for g in elements if g.stage == k]
        if any(len(v) != len(pulled) for v in vectors):
            raise ValueError("element vector length does not match its stage rank")
        if any(pulled) and any(_dot(pulled, v) for v in vectors):
            return False
    return True


def verify_state_certificate(
    system: InductiveSystem, action: K0Action, cert: StateCertificate
) -> None:
    """Exact re-verification; raises AssertionError on any failure, and
    ValueError on an element whose vector length is not its stage's
    rank. Invariance is read off the functional pulled back once per
    (stage, word) (``_is_invariant``)."""
    beta = cert.functional
    m = cert.stage
    stages = dict.fromkeys(g.stage for g in cert.elements)
    maps = {(k, w): word_map(action, system, w, k) for k in stages for w in cert.words}
    if not _is_invariant(system, maps, cert.elements, beta, m):
        raise AssertionError("certificate functional is not invariant")
    unit_value = _dot(beta, system.unit_at(m))
    if unit_value != cert.unit_value or unit_value <= 0:
        raise AssertionError("certificate functional is not positive on the unit")
    for g, val in zip(cert.elements, cert.element_values):
        gv = push(system, g, m).vector
        if _dot(beta, gv) != val:
            raise AssertionError("certificate element value mismatch")
        if any(gv) and val <= 0:
            raise AssertionError("certificate functional is not faithful on a nonzero element")


def find_invariant_state(
    system: InductiveSystem,
    action: K0Action,
    elements: Sequence[LimitElement],
    words: Sequence[Word],
    stage_max: int,
    faithful: Sequence[LimitElement] = (),
) -> StateCertificate | None:
    """Search stages for an invariant integer functional faithful on S.

    S is ``elements`` and ``faithful``: the functional must vanish on
    g - w(g) for every g in ``elements`` and every word w, and be at
    least 1 on every element of S that is nonzero at its stage. The
    ``faithful`` elements are not moved by the words; the certificate
    records ``elements`` and their values only. A word with no map out
    of an element's stage, or a first stage holding every element and
    word image that is past ``stage_max`` or undeclared, raises
    ``StageRangeError``: no stage could pose the question.

    The functional lives on a full stage lattice; an invariant
    functional defined only on the subgroup the data generates might
    exist without extending to a stage, so a miss at one stage is
    retried at a later stage up to ``stage_max``, but only once a
    requested element has vanished there. None follows a solved stage
    only and is parameter-relative, never a refutation.

    A retry with the same support cannot succeed. Stage m+1's data is
    the push of stage m's by one connecting map T: each invariance
    difference d, the unit and each element g step to Td, T.unit and
    Tg. A rational solution b' at stage m+1 therefore pulls back to
    b = T^t b' at stage m, with b.d = b'.Td = 0, b.unit = b'.(T.unit)
    >= 1 and b.g = b'.Tg >= 1 for every g with Tg nonzero. When every
    element nonzero at a missed stage is still nonzero, b solves the
    missed stage's program, so a stage with the support of the last miss
    is skipped. No element vanishes past ``dimgroup._settled_stage`` of
    the first stage, so the search ends there (at the last declared
    stage without a tail), or at ``stage_max`` if that comes first.

    Each stage the search solves first tries the counting functional
    1 = (1, ..., 1): it is the answer, with no coboundary block, kernel,
    program or walk, when the unit and every element nonzero at the
    stage sum to at least 1 and 1 pulled back once per (stage, word)
    vanishes on the elements (``_is_invariant``, as in the re-check).
    The zero functional fails every ">= 1" row, in the height-1 box only
    1 reaches coordinate sum n, and the kernel lattice is saturated, so
    1 lies in it exactly when the differences vanish on it. Elsewhere
    the stage builds its invariance differences
    (``_invariance_differences``) for ``_canonical_functional``. Only the
    elements are stepped, from the first stage that holds every word
    image through one connecting map per later stage, skipped ones too;
    they give the supports, positivity rows and element values.

    Raises ``WalkBudgetExceeded`` when the walk for the canonical
    functional of a stage runs out of its node budget; a functional
    exists there then, since the walk runs only after the exact program
    found one, but the search returns no certificate. A stage where the
    counting functional is the answer takes no walk, so it cannot raise.
    """
    if not elements:
        raise ValueError("the element set must be nonempty")
    requested = [*elements, *faithful]
    for g in requested:
        horizon = max(stage_max, g.stage)
        if not is_positive(system, g, horizon).is_yes:
            raise ValueError("every requested element must be positive (entrywise nonnegative at some stage)")
    stages = dict.fromkeys(g.stage for g in elements)
    maps = {(k, w): word_map(action, system, w, k) for k in stages for w in words}
    first = max([g.stage for g in requested] + [sm.to_stage for sm in maps.values()])
    if first > stage_max or not system.has_stage(first):
        where = f"past the stage bound {_message_int(stage_max)}" if first > stage_max else "which is not declared"
        raise StageRangeError(f"the elements and their word images meet at stage {_message_int(first)}, {where}")
    settled = _settled_stage(system, first)  # None without a tail
    last = min(stage_max, system.last_declared_stage if settled is None else settled)
    element_vecs: list[tuple[int, ...]] = []
    missed_support: list[bool] | None = None  # nonzero elements at the last stage that missed
    for m in range(first, last + 1):
        if m == first:
            element_vecs = [push(system, g, m).vector for g in requested]
        else:
            step = system.connecting(m - 1)
            element_vecs = [step.apply(v) for v in element_vecs]
        support = [any(gv) for gv in element_vecs]
        if support == missed_support:
            continue  # a solution here would pull back to the missed stage
        unit = system.unit_at(m)
        positives = [tuple(unit)] + [gv for gv, nonzero in zip(element_vecs, support) if nonzero]
        ones = (1,) * len(unit)
        if min(map(sum, positives)) >= 1 and _is_invariant(system, maps, elements, ones, m):
            best: tuple[int, ...] | None = ones
        else:
            best = _canonical_functional(_invariance_differences(system, maps, elements, words, m), positives)
        if best is None:
            missed_support = support
            continue
        cert = StateCertificate(
            stage=m,
            functional=tuple(best),
            elements=tuple(elements),
            words=tuple(words),
            unit_value=_dot(best, unit),
            element_values=tuple(_dot(best, gv) for gv in element_vecs[: len(elements)]),
        )
        verify_state_certificate(system, action, cert)
        return cert
    return None


def exclusion_sets(witness: Witness, generators: int) -> tuple[tuple[LimitElement, ...], tuple[Word, ...]]:
    """Element and word sets realizing the mutual-exclusion test: the
    witness value first, then the entrywise positive and negative parts
    of every preimage, each a cone element at the preimage's stage, in
    that order and without zero parts or repeats, and one word per
    generator.

    Invariance on the parts forces any candidate functional to vanish on
    the witness value, while faithfulness demands it be positive there;
    so ``exclusion_holds`` applies the words to the parts only.
    """
    elements: list[LimitElement] = [witness.value]
    for pre in witness.preimages:
        for sign in (1, -1):
            part = LimitElement(pre.stage, tuple(max(sign * x, 0) for x in pre.vector))
            if any(part.vector) and part not in elements:
                elements.append(part)
    words = tuple(Word.of(j) for j in range(1, generators + 1))
    return tuple(elements), words


def exclusion_holds(
    system: InductiveSystem, action: K0Action, witness: Witness, stage_max: int
) -> bool:
    """True when no functional faithful on the witness's exclusion sets
    and invariant on the preimages' parts exists at any stage up to
    ``stage_max`` or the later stage where the preimages' coboundary
    lands, as in ``verify_witness``. The words act on the parts only,
    as the witness value need not have a map under them.

    A sound witness rules out such a functional at every stage, so the
    first stage that holds the sets misses. Later stages are solved
    again only where an element of the sets has vanished (see
    ``find_invariant_state``); on an injective system none vanishes, and
    one infeasible program decides every stage, and the later ones are
    only stepped through.

    False when no program could be solved (``StageRangeError``), which
    proves nothing, or when a functional exists."""
    (value, *parts), words = exclusion_sets(witness, action.generators)
    try:
        bound = max(stage_max, *(action.letter_map(j + 1, g.stage).to_stage for j, g in enumerate(witness.preimages)))
        return find_invariant_state(system, action, parts, words, bound, (value,)) is None
    except (StageRangeError, WalkBudgetExceeded):
        return False  # no program was solved, or one found a functional
