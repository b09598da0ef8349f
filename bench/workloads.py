"""Seeded document generators and independent answer checks.

Every workload turns (workload name, seed) into a fixed pool of k0mf
JSON documents plus the command-line arguments to decide them with, and
knows each document's answer without running k0mf. Nothing here
imports k0mf: the checks recompute what they need with plain integer
lists, so a defect in the package cannot also hide in its checker.

The size mix of each pool is a fixed schedule and the seed only
randomises the instance inside each slot (which points move, how the
blocks are cut, which directions the shifts go). Throughput then
measures the same amount of work on every seed, while the documents
themselves still differ from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class Doc:
    """One generated document: its canonical bytes, the check-mf
    arguments it is decided with, and what the checker needs to know."""

    name: str
    data: bytes
    args: tuple[str, ...]
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], list[Doc]]
    check: Callable[[Doc, dict], str | None]


def _dumps(payload: dict) -> bytes:
    # compact, because json's indenting encoder is pure Python and would
    # be most of the set-up time of the large shift documents
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash deterministically (not per process)
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Finite permutation systems (perm-sweep, orbit-cliff)
# ---------------------------------------------------------------------------

DEFAULT_BOX = ("--max-stage", "4", "--word-length", "1", "--height", "16")


def _finite_doc(name: str, points: int, perms: list[list[int]]) -> Doc:
    payload = {
        "finite_system": {"points": points, "permutations": perms},
        "metadata": {"name": name},
        "schema_version": 1,
    }
    return Doc(name, _dumps(payload), DEFAULT_BOX, {"permutations": perms})


def _cycle_on(block: list[int], images: list[int]) -> None:
    """Make ``block`` (0-based points, in the order given) one cycle."""
    for a, b in zip(block, block[1:] + block[:1]):
        images[a] = b


def _blocked_perms(rng: random.Random, points: int, orbits: int, generators: int) -> list[list[int]]:
    """Permutations whose group has exactly ``orbits`` orbits.

    Points are shuffled and cut into ``orbits`` blocks; generator 1 is
    one cycle per block (so each block is one orbit), the others permute
    each block at random (so no two blocks merge).
    """
    order = list(range(points))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, points), orbits - 1))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [points])]
    first = list(range(points))
    for block in blocks:
        _cycle_on(block, first)
    perms = [first]
    for _ in range(generators - 1):
        images = list(range(points))
        for block in blocks:
            shuffled = block[:]
            rng.shuffle(shuffled)
            for a, b in zip(block, shuffled):
                images[a] = b
        perms.append(images)
    return [[x + 1 for x in p] for p in perms]


# (points, generators, orbits): the full grid, twice. The cost of one
# cell's document varies by up to a quarter with the labelling the seed
# draws, and the 90th percentile falls among the few largest cells, so
# each cell holds two draws.
PERM_SWEEP_SLOTS = tuple(
    (points, generators, orbits)
    for points in range(8, 21)
    for generators in (1, 2, 3)
    for orbits in (1, 2, 3)
    for _ in range(2)
)


def perm_sweep(seed: int) -> list[Doc]:
    rng = _rng("perm-sweep", seed)
    return [
        _finite_doc(f"perm-sweep-{seed}-{i}", n, _blocked_perms(rng, n, c, r))
        for i, (n, r, c) in enumerate(PERM_SWEEP_SLOTS)
    ]


def _near_identity(rng: random.Random, points: int, orbits: int) -> list[int]:
    """A permutation of ``points`` points with exactly ``orbits`` cycles:
    the identity, one transposition, a 3-cycle or two transpositions."""
    images = list(range(points))
    moved = points - orbits
    if moved == 1:
        _cycle_on(rng.sample(images, 2), images)
    elif moved == 2 and rng.random() < 0.5:
        _cycle_on(rng.sample(images, 3), images)
    elif moved == 2:
        a, b, c, d = rng.sample(images, 4)
        _cycle_on([a, b], images)
        _cycle_on([c, d], images)
    elif moved:
        raise ValueError("at most two points fewer orbits than points")
    return [x + 1 for x in images]


# (points, orbits): the radius-1 ball the canonical functional walks has
# 3**orbits points. Orbit counts stop at 11 to keep one pass a few
# seconds. Each class has one point count, and the counts put the median
# in the middle of the 8-orbit class and the 90th percentile inside the
# 10-orbit class, so neither percentile sits on a boundary between
# classes.
ORBIT_CLIFF_SLOTS = (
    ((11, 11),) * 1
    + ((11, 10),) * 5
    + ((11, 9),) * 4
    + ((9, 8),) * 10
    + ((9, 7),) * 4
    + ((6, 6),) * 3
    + ((6, 5),) * 3
)


def orbit_cliff(seed: int) -> list[Doc]:
    rng = _rng("orbit-cliff", seed)
    return [
        _finite_doc(f"orbit-cliff-{seed}-{i}", n, [_near_identity(rng, n, k)])
        for i, (n, k) in enumerate(ORBIT_CLIFF_SLOTS)
    ]


def check_consistent(doc: Doc, payload: dict) -> str | None:
    """CONSISTENT, no witness, and every certificate is an invariant
    faithful state: positive on every point (the stages are the points
    with the order of Z^n, so positive means faithful) and constant
    along every permutation (so invariant)."""
    if payload.get("verdict") != CONSISTENT:
        return f"verdict {payload.get('verdict')!r}, expected {CONSISTENT}"
    if payload.get("witness") is not None:
        return "a CONSISTENT payload carries a witness"
    searches = payload.get("state_searches") or []
    if not searches:
        return "no state searches reported"
    perms = doc.expect["permutations"]
    for i, search in enumerate(searches):
        cert = search.get("certificate")
        if cert is None:
            return f"state search {i} has no certificate"
        f = cert.get("functional")
        if not isinstance(f, list) or len(f) != len(perms[0]):
            return f"state search {i}: functional {f} does not have one value per point"
        if any(not isinstance(x, int) or x <= 0 for x in f):
            return f"state search {i}: functional {f} is not positive on every point"
        if any(f[p] != f[perm[p] - 1] for perm in perms for p in range(len(f))):
            return f"state search {i}: functional {f} is not constant along the permutations"
    return None


# ---------------------------------------------------------------------------
# Compactified shifts of Z (shift-witness, first part)
# ---------------------------------------------------------------------------

INF = 1 << 40  # beyond every coordinate a shift by <= 3 can reach


def _classes(k: int) -> list[tuple[int, int]]:
    """Stage k partition of Z as closed intervals, in document order:
    stage 0 is the whole line; stage k >= 1 is [k, inf), the singletons
    k-1 down to -(k-1), then (-inf, -k]."""
    if k == 0:
        return [(-INF, INF)]
    return [(k, INF)] + [(n, n) for n in range(k - 1, -k, -1)] + [(-INF, -k)]


def _inclusion(src: int, dst: int, shift: int) -> list[list[int]]:
    """0/1 matrix of class-of-stage-dst inside (class-of-stage-src + shift)."""
    def moved(x: int) -> int:
        return x if abs(x) == INF else x + shift

    rows = []
    for lo, hi in _classes(dst):
        row = [1 if moved(a) <= lo and hi <= moved(b) else 0 for a, b in _classes(src)]
        if sum(row) != 1:
            raise AssertionError("stage partitions do not refine the shifted partition")
        rows.append(row)
    return rows


def _stage_maps(stages: int, shift: int) -> list[dict]:
    step = abs(shift)
    return [
        {"from_stage": k, "to_stage": k + step, "matrix": _inclusion(k, k + step, shift)}
        for k in range(stages - step)
    ]


# (declared stages, speeds): each stage count from 7 to 21 with every
# single speed 1..3 and every pair of them. The seed draws the direction
# of a single speed. The directions of a pair change the cost by up to
# half (+2, +3 against -2, -3 at 12 stages), so a seeded draw of them
# would change the mix, and the median with it, from seed to seed.
# Instead each pair takes the four direction patterns in turn over the
# stage counts, so every pool holds the same mix.
PAIR_DIRECTIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SHIFT_WITNESS_SLOTS = tuple(
    (stages, sizes)
    for stages in range(7, 22)
    for sizes in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 3))
)


def _shift_doc(name: str, stages: int, speeds: list[int]) -> Doc:
    payload = {
        "action": {
            "forward": [_stage_maps(stages, s) for s in speeds],
            "generators": len(speeds),
            "inverse": [_stage_maps(stages, -s) for s in speeds],
        },
        "metadata": {
            "description": f"Compactified shift of Z with {stages} stages and speeds {speeds}.",
            "name": name,
        },
        "schema_version": 1,
        "system": {
            "connecting_maps": [_inclusion(k, k + 1, 0) for k in range(stages - 1)],
            "stage_ranks": [len(_classes(k)) for k in range(stages)],
            "unit": [1],
        },
    }
    args = ("--max-stage", str(stages - 1), "--word-length", "1", "--height", "4")
    return Doc(name, _dumps(payload), args, {"source": payload})


def compactified_shifts(seed: int) -> list[Doc]:
    rng = _rng("shift-witness", seed)
    docs = []
    pairs = 0
    for i, (stages, sizes) in enumerate(SHIFT_WITNESS_SLOTS):
        if len(sizes) == 1:
            speeds = [sizes[0] * rng.choice((1, -1))]
        else:
            speeds = [size * sign for size, sign in zip(sizes, PAIR_DIRECTIONS[pairs % 4])]
            pairs += 1
        docs.append(_shift_doc(f"shift-witness-{seed}-{i}", stages, speeds))
    return docs


# ---------------------------------------------------------------------------
# Stationary unipotent shifts (shift-witness, second part)
# ---------------------------------------------------------------------------


STATIONARY_BOX = ("--max-stage", "4", "--word-length", "1", "--height", "4")


def _unitriangular(sources: int, block: list[list[int]]) -> list[list[int]]:
    """[[I, 0], [block, I]]: each source vertex keeps its mass and feeds
    the sink vertices with the multiplicities in ``block`` (sinks x
    sources); each sink keeps its own mass."""
    size = sources + len(block)
    top = [[int(i == j) for j in range(size)] for i in range(sources)]
    return top + [row + [int(i == j) for j in range(len(block))] for i, row in enumerate(block)]


def _twist(rng: random.Random, sources: int, sinks: int) -> list[list[int]]:
    """A sinks x sources matrix Y of entries -1, 0, 1 whose rows sum to 0
    and one of whose columns is a unit vector."""
    column, hit = rng.randrange(sources), rng.randrange(sinks)
    twist = [[0] * sources for _ in range(sinks)]
    for r, row in enumerate(twist):
        others = [c for c in range(sources) if c != column]
        rng.shuffle(others)
        if r == hit:
            row[column] = 1
            row[others.pop()] = -1
        while len(others) >= 2 and rng.random() < 0.6:
            row[others.pop()] += 1
            row[others.pop()] -= 1
    return twist


def _stationary_doc(name: str, rng: random.Random, sources: int, sinks: int,
                    generators: int, stages: int) -> Doc:
    """A stationary system with tail A = [[I, 0], [M, I]] and a unit
    preserving action whose positive coboundary is known.

    A is unimodular, so the limit is Z^p and every map is injective; an
    element is positive when its source part a is >= 0 and every sink
    that M.a does not feed is >= 0. Generator j maps stage k to k + s by
    [[I, 0], [s.M + Y, I]] (inverse [[I, 0], [s.M - Y, I]]), which is
    A^s followed by the automorphism [[I, 0], [Y, I]] of the limit. The
    rows of Y sum to 0, so the unit (all ones) is fixed, and if column t
    of Y is the unit vector e_i, then g = -e_t at stage 0 has coboundary
    g - a_j(g) = e_i on the sinks: positive and nonzero in the limit.
    """
    block = [[rng.randint(1, 3) for _ in range(sources)] for _ in range(sinks)]
    tail = _unitriangular(sources, block)
    forward, inverse, rules = [], [], []
    for _ in range(generators):
        shift = rng.choice((1, 2))
        twist = _twist(rng, sources, sinks)
        fwd, inv = (
            _unitriangular(sources, [[shift * m + sign * y for m, y in zip(mr, yr)]
                                     for mr, yr in zip(block, twist)])
            for sign in (1, -1)
        )
        forward.append([{"from_stage": k, "matrix": fwd, "to_stage": k + shift} for k in range(stages - 1)])
        inverse.append([{"from_stage": k, "matrix": inv, "to_stage": k + shift} for k in range(stages - 1)])
        rules.append({"forward": fwd, "inverse": inv, "shift": shift})
    rank = sources + sinks
    payload = {
        "action": {"forward": forward, "generators": generators, "inverse": inverse, "stationary": rules},
        "metadata": {
            "description": f"Stationary unipotent tail, {sources} sources into {sinks} sinks, "
                           f"{generators} generator(s), {stages} declared stage(s).",
            "name": name,
        },
        "schema_version": 1,
        "system": {
            "connecting_maps": [tail] * (stages - 1),
            "stage_ranks": [rank] * stages,
            "stationary": tail,
            "unit": [1] * rank,
        },
    }
    return Doc(name, _dumps(payload), STATIONARY_BOX, {"source": payload})


# (sources, sinks, generators, declared stages): one generator on every
# size of 2-5 sources into 1-3 sinks, then two generators on the three
# smallest sizes only, because their exclusion search grows steeply with
# the rank. Declared stages alternate between 1 and 4.
STATIONARY_SLOTS = tuple(
    [(a, b, 1, 1 + 3 * ((a + b) % 2)) for a in range(2, 6) for b in range(1, 4)]
    + [(a, b, 2, 1 + 3 * ((a + b) % 2)) for a, b in ((2, 1), (2, 2), (3, 1))]
)


def stationary_shifts(seed: int) -> list[Doc]:
    rng = _rng("stationary-shift", seed)
    return [
        _stationary_doc(f"stationary-shift-{seed}-{i}", rng, *slot)
        for i, slot in enumerate(STATIONARY_SLOTS)
    ]


def shift_witness(seed: int) -> list[Doc]:
    """The compactified shifts, then the stationary ones."""
    return compactified_shifts(seed) + stationary_shifts(seed)


# ---------------------------------------------------------------------------
# Independent check of a VIOLATION (shift-witness)
# ---------------------------------------------------------------------------


def _apply(matrix: list[list[int]], vec: list[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def _rank_at(system: dict, k: int) -> int:
    ranks = system["stage_ranks"]
    if k >= len(ranks) and "stationary" not in system:
        raise IndexError(f"stage {k} is past the declared stages")
    return ranks[min(k, len(ranks) - 1)]


def _push(system: dict, vec: list[int], k: int, m: int) -> list[int]:
    maps = system["connecting_maps"]
    for t in range(k, m):
        vec = _apply(maps[t] if t < len(maps) else system["stationary"], vec)
    return vec


def _forward_map(action: dict, j: int, k: int) -> tuple[int, list[list[int]]]:
    """(target stage, matrix) of generator j at stage k."""
    family = action["forward"][j]
    if k < len(family):
        return family[k]["to_stage"], family[k]["matrix"]
    rule = action["stationary"][j]
    return k + rule["shift"], rule["forward"]


def check_violation(doc: Doc, payload: dict) -> str | None:
    """VIOLATION with mutual exclusion, and a witness whose value is the
    coboundary sum_j (g_j - a_j(g_j)) of its preimages, recomputed here
    from the document's own matrices, entrywise >= 0 and nonzero at its
    reporting stage. Every connecting map of both families is injective
    (a shift's stages refine each other; a unitriangular tail is
    invertible), so nonzero there means nonzero in the limit."""
    if payload.get("verdict") != VIOLATION:
        return f"verdict {payload.get('verdict')!r}, expected {VIOLATION}"
    if payload.get("mutual_exclusion_ok") is not True:
        return "mutual_exclusion_ok is not true"
    source = doc.expect["source"]
    system, action = source["system"], source["action"]
    witness = payload["witness"]
    preimages = witness["preimages"]
    if len(preimages) != action["generators"]:
        return "one preimage per generator expected"
    value = witness["value"]
    if value["stage"] != witness["positive_at_stage"]:
        return "witness value is not given at its reporting stage"
    terms = []
    for j, pre in enumerate(preimages):
        k, g = pre["stage"], list(pre["vector"])
        to_stage, matrix = _forward_map(action, j, k)
        terms.append((k, g, 1))
        terms.append((to_stage, _apply(matrix, g), -1))
    try:
        if len(value["vector"]) != _rank_at(system, value["stage"]) or any(
            len(vec) != _rank_at(system, stage) for stage, vec, _ in terms
        ):
            return "a vector's length does not match its stage"
        common = max([value["stage"]] + [stage for stage, _, _ in terms])
        _rank_at(system, common)
    except IndexError:
        return "coboundary lands past the declared stages"
    total = [0] * _rank_at(system, common)
    for stage, vec, sign in terms:
        for t, x in enumerate(_push(system, vec, stage, common)):
            total[t] += sign * x
    if total != _push(system, list(value["vector"]), value["stage"], common):
        return "witness value is not the coboundary of its preimages"
    if any(x < 0 for x in value["vector"]) or not any(value["vector"]):
        return "witness value is not positive and nonzero at its stage"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "perm-sweep",
            "finite permutation systems with 1-3 orbits: the CONSISTENT path, "
            "dominated by coboundary-lattice construction and HNF",
            perm_sweep,
            check_consistent,
        ),
        Workload(
            "orbit-cliff",
            "identity and near-identity permutations with 5-11 orbits: the 3**orbits "
            "lattice-point enumeration cliff",
            orbit_cliff,
            check_consistent,
        ),
        Workload(
            "shift-witness",
            "compactified shifts of Z and stationary unipotent shifts: the VIOLATION path "
            "(witness, SNF preimages, rank, re-verification, Farkas exclusion)",
            shift_witness,
            check_violation,
        ),
    )
}
