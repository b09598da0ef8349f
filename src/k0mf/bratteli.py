"""Document ingestion and canonical serialization.

JSON is the single source format. A document carries exactly one of

* ``system``: an explicit inductive system (stage ranks, connecting
  maps, order unit, optional stationary tail matrix),
* ``diagram``: a Bratteli diagram (vertex counts per level, edge
  multiplicity matrices, optional stationary flag), or
* ``finite_system``: a finite point set with permutation generators,

plus an ``action`` block for the first two kinds (a finite system
induces its own action by dualization). Integers may be written as JSON
numbers or as ASCII decimal strings (``-?[0-9]+``), either of any
length: past the interpreter's integer-string digit limit they are
converted in chunks. Floats, NaN and infinities are rejected with the
JSON path of the field.

The exact-integer rule: a field read as an integer holds a plain int (a
JSON integer literal; never ``true`` or ``false``) or a decimal string.
A matrix that holds only plain ints is checked in C-level passes: one
``compress`` for its nonzero positions (which also give its sparse
rows, ``exactlinalg._sparse_rows``), a type check of the nonzero
entries, and ``list.count(0)`` for the rest. Of the values JSON decodes
to, only 0, ``False``, 0.0 and -0.0 equal 0, so the count is exact when
the decoder met no float literal (``parse`` notes each one through the
decoder's ``parse_float`` hook) and the text does not hold ``false``.
NaN and the infinities are not falsy, so the type check of the nonzero
entries rejects them. When the decoder met a float, or the text holds
``false`` (a literal, or inside a string), or a matrix fails the count,
the matrix is walked row by row and entry by entry instead, which
type-checks every entry and names the first bad field.

Serialization is canonical: sorted keys, two-space indent, plain
integers, trailing newline, so golden files and certificates are
byte-stable.

``parse_request_sets`` reads the other JSON input, the request sets of
``check-mf --sets``, under the same rules; each requested element must
also be positive within the stage bound, else it is invalid input at
its path in the file. Validation errors carry the JSON path of the
offending field, once: every object goes through one field check
(``_fields``), and a constructor's error is reported at its object only
after every argument has been parsed (``_construct``), so no enclosing
object catches and re-wraps an error of its own fields.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Any, Callable, NamedTuple

from .dimgroup import InductiveSystem, LimitElement, is_positive
from .exactlinalg import _CHUNK_DIGITS, IntMatrix, _Checked, _decimal_str, _first_negative, _message_int, _sparse_rows, _zero_column
from .kaction import K0Action, StageMap, StationaryRule, Word

SCHEMA_VERSION = 1

DECIMAL = re.compile(r"-?[0-9]+")  # an integer as text, in documents and command-line flags


def integer(text: str) -> int:
    """The integer of an ASCII decimal string ``-?[0-9]+`` of any length,
    in a document or a command-line flag; ValueError on any other text
    (``int`` alone would also take ``1_0``, ``+2``, `` 2`` and non-ASCII
    digits)."""
    if not DECIMAL.fullmatch(text):
        raise ValueError(text)
    return _decimal_int(text)


def _decimal_int(text: str) -> int:
    """The integer an ASCII decimal string ``-?[0-9]+`` of any length
    denotes (halves converted recursively, then joined)."""
    if text.startswith("-"):
        return -_decimal_int(text[1:])
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    half = len(text) // 2
    return _decimal_int(text[:half]) * 10 ** (len(text) - half) + _decimal_int(text[half:])


def _load_json(data: str, **hooks: Callable[[str], Any]) -> Any:
    """``json.loads`` with the decoder ``hooks``; only when an integer
    literal exceeds the interpreter's digit limit, decode again with
    ``_decimal_int`` (and the same hooks). Text nested too deep for the
    decoder raises RecursionError, which callers report as invalid JSON."""
    try:
        return json.loads(data, **hooks)
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer literal past the digit limit
        return json.loads(data, parse_int=_decimal_int, **hooks)


class DocumentError(ValueError):
    """Schema or invariant violation, with the JSON path that caused it."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class Metadata(NamedTuple):
    name: str | None = None
    description: str | None = None


class BratteliDiagram(_Checked, namedtuple("BratteliDiagram", "vertex_counts edge_matrices stationary")):
    """Vertex counts per level and edge multiplicity matrices.

    ``edge_matrices[k]`` has shape (counts[k+1] x counts[k]); entry
    (w, v) is the number of edges from vertex v at level k to vertex w
    at level k+1. With the stationary flag, one extra square matrix is
    appended and repeats forever. Every vertex must emit at least one
    edge (no zero columns).
    """

    __slots__ = ()

    def __new__(
        cls, vertex_counts: tuple[int, ...], edge_matrices: tuple[IntMatrix, ...], stationary: bool = False
    ) -> "BratteliDiagram":
        counts = vertex_counts
        mats = edge_matrices
        if not counts or any(c < 1 for c in counts):
            raise ValueError("vertex counts must be positive")
        expected = len(counts) - 1 + (1 if stationary else 0)
        if len(mats) != expected:
            raise ValueError(
                f"expected {expected} edge matrices for {len(counts)} levels"
                f"{' with a stationary tail' if stationary else ''}, got {len(mats)}"
            )
        shapes = [(counts[k + 1], counts[k]) for k in range(len(counts) - 1)]
        if stationary:
            shapes.append((counts[-1], counts[-1]))
        for k, (m, shape) in enumerate(zip(mats, shapes)):
            if (m.rows, m.cols) != shape:
                raise ValueError(f"edge matrix {k} has shape {m.rows}x{m.cols}, expected {shape[0]}x{shape[1]}")
            if not m.is_nonnegative():
                raise ValueError(f"edge matrix {k} has a negative multiplicity")
            col = _zero_column(m)
            if col is not None:
                raise ValueError(f"edge matrix {k} has a zero column ({col}); every vertex must emit edges")
        return tuple.__new__(cls, (vertex_counts, edge_matrices, stationary))


class FiniteSystem(_Checked, namedtuple("FiniteSystem", "points permutations")):
    """A finite set {1..points} with one permutation per generator."""

    __slots__ = ()

    def __new__(cls, points: int, permutations: tuple[tuple[int, ...], ...]) -> "FiniteSystem":
        if points < 1:
            raise ValueError("need at least one point")
        if not permutations:
            raise ValueError("need at least one generator permutation")
        for i, perm in enumerate(permutations):
            # the length check first: ``points`` may be far too large for a range
            if len(perm) != points or sorted(perm) != list(range(1, points + 1)):
                raise ValueError(f"permutation {i} is not a bijection of 1..{_message_int(points)}")
        return tuple.__new__(cls, (points, permutations))


@dataclass(frozen=True)
class SystemDocument:
    schema_version: int
    metadata: Metadata
    kind: str  # "system" | "diagram" | "finite_system"
    system: InductiveSystem | None = None
    diagram: BratteliDiagram | None = None
    finite_system: FiniteSystem | None = None
    action: K0Action | None = None

    def resolve(self) -> tuple[InductiveSystem, K0Action]:
        """The inductive system and action the document denotes, built on
        the first call and kept on the instance (equality and hashing read
        the fields alone)."""
        return self._resolved

    @cached_property
    def _resolved(self) -> tuple[InductiveSystem, K0Action]:
        if self.kind == "system":
            assert self.system is not None and self.action is not None
            return self.system, self.action
        if self.kind == "diagram":
            assert self.diagram is not None and self.action is not None
            return diagram_to_system(self.diagram), self.action
        assert self.finite_system is not None
        return finite_system_to_k0(self.finite_system)


def diagram_to_system(diagram: BratteliDiagram) -> InductiveSystem:
    """Stage ranks are the vertex counts, connecting maps the edge
    matrices, and the unit is the all-ones vector at level 0 (the
    diagram presents a unital algebra whose top vertices each carry a
    summand of the unit)."""
    counts = diagram.vertex_counts
    mats = diagram.edge_matrices
    tail = None
    prefix = mats
    if diagram.stationary:
        tail = mats[-1]
        prefix = mats[:-1]
    return InductiveSystem(
        stage_ranks=counts,
        connecting_maps=prefix,
        unit=(1,) * counts[0],
        stationary_tail=tail,
    )


def permutation_matrix(perm: tuple[int, ...]) -> IntMatrix:
    """Matrix sending basis vector z to basis vector perm(z).

    This is the stage realization of the dual action f |-> f o s^{-1}
    on integer-valued functions: the indicator of a point moves with
    the point. Raises ValueError unless ``perm`` is a bijection of
    1..len(perm).
    """
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"not a bijection of 1..{len(perm)}")
    rows: list[tuple[tuple[int, int], ...]] = [()] * len(perm)
    for z, image in enumerate(perm):
        rows[image - 1] = ((z, 1),)
    return IntMatrix._of_nonzeros(len(perm), len(perm), tuple(rows))


def finite_system_to_k0(fs: FiniteSystem) -> tuple[InductiveSystem, K0Action]:
    """Dualize a finite transformation system to K0 data.

    The system is the constant one on Z^points with an identity tail
    and all-ones unit; each generator acts by its permutation matrix,
    with the transpose (the inverse permutation's matrix) as inverse.
    """
    n = fs.points
    ident = IntMatrix.identity(n)
    system = InductiveSystem(
        stage_ranks=(n,),
        connecting_maps=(),
        unit=(1,) * n,
        stationary_tail=ident,
    )
    rules = []
    for perm in fs.permutations:
        mat = permutation_matrix(perm)
        rules.append(StationaryRule(0, mat, mat.transpose()))
    action = K0Action(
        generators=len(fs.permutations),
        forward=tuple(() for _ in fs.permutations),
        inverse=tuple(() for _ in fs.permutations),
        stationary=tuple(rules),
    )
    return system, action


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(path, "expected an array")
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool):
        raise DocumentError(path, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise DocumentError(path, "floating-point numbers are not allowed")
    if isinstance(value, str):
        try:
            return integer(value)
        except ValueError:
            raise DocumentError(path, f"not an integer: {value!r}") from None
    raise DocumentError(path, "expected an integer (number or decimal string)")


def _int_vector(value: Any, path: str) -> tuple[int, ...]:
    items = _expect_list(value, path)
    if set(map(type, items)) <= {int}:  # plain ints (not bools) need no check
        return tuple(items)
    return tuple(_expect_int(x, f"{path}[{i}]") for i, x in enumerate(items))


def _int_matrix(value: Any, path: str, ints_only: bool = False) -> IntMatrix:
    """With ``ints_only`` (no float decoded and no ``false`` in the text),
    whole-matrix checks first: every row a list, one width, and the zero
    count of the module docstring. Otherwise, or when one fails, the rows
    are walked one by one, which type-checks every entry and names the
    first bad field and its path."""
    rows = _expect_list(value, path)
    if ints_only and rows and set(map(type, rows)) == {list} and len(widths := set(map(len, rows))) == 1:
        flat: list = []
        for row in rows:
            flat += row  # faster than a tuple of the chained rows
        nonzero = list(compress(range(len(flat)), flat))
        if set(map(type, map(flat.__getitem__, nonzero))) <= {int} and flat.count(0) == len(flat) - len(nonzero):
            width = widths.pop()
            return IntMatrix._of_nonzeros(len(rows), width, _sparse_rows(len(rows), width, flat, nonzero))
    rows = [_int_vector(row, f"{path}[{i}]") for i, row in enumerate(rows)]
    if not rows:
        raise DocumentError(path, "matrix needs at least one row")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DocumentError(f"{path}[{i}]", "ragged matrix row")
    return IntMatrix.from_rows(rows)


def _fields(value: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``value`` as an object whose keys are among ``required`` and
    ``optional``, with every required key present. Checked in this
    order: an object, no unknown key (the first in sorted order), then
    the required keys in the order listed."""
    if not isinstance(value, dict):
        raise DocumentError(path, "expected an object")
    extra = sorted(set(value).difference(required, optional))
    if extra:
        raise DocumentError(f"{path}.{extra[0]}", "unknown field")
    for key in required:
        if key not in value:
            raise DocumentError(f"{path}.{key}", "missing field")
    return value


def _construct(path: str, make: Callable[..., Any], *args: Any) -> Any:
    """``make(*args)``, with a ``ValueError`` it raises reported at
    ``path``. The arguments are parsed before the call, so an error in
    one of them keeps its own path."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_metadata(obj: Any, path: str) -> Metadata:
    if obj is None:
        return Metadata()
    obj = _fields(obj, path, (), ("name", "description"))
    name = obj.get("name")
    description = obj.get("description")
    for key, value in (("name", name), ("description", description)):
        if value is not None and not isinstance(value, str):
            raise DocumentError(f"{path}.{key}", "expected a string")
    return Metadata(name, description)


def _parse_system(obj: Any, path: str, ints_only: bool) -> InductiveSystem:
    obj = _fields(obj, path, ("stage_ranks", "connecting_maps", "unit"), ("stationary",))
    ranks = _int_vector(obj["stage_ranks"], f"{path}.stage_ranks")
    maps = tuple(
        _int_matrix(m, f"{path}.connecting_maps[{k}]", ints_only)
        for k, m in enumerate(_expect_list(obj["connecting_maps"], f"{path}.connecting_maps"))
    )
    unit = _int_vector(obj["unit"], f"{path}.unit")
    tail = obj.get("stationary")
    if tail is True:
        # boolean sugar: the last connecting map repeats forever
        if not maps:
            raise DocumentError(f"{path}.stationary", "stationary flag needs a connecting map to repeat")
        tail_matrix: IntMatrix | None = maps[-1]
        maps = maps[:-1]
    elif tail is False or tail is None:
        tail_matrix = None
    else:
        tail_matrix = _int_matrix(tail, f"{path}.stationary", ints_only)
    return _construct(path, InductiveSystem, ranks, maps, unit, tail_matrix)


def _parse_diagram(obj: Any, path: str, ints_only: bool) -> BratteliDiagram:
    obj = _fields(obj, path, ("vertex_counts", "edge_matrices"), ("stationary",))
    counts = _int_vector(obj["vertex_counts"], f"{path}.vertex_counts")
    mats = []
    for k, m in enumerate(_expect_list(obj["edge_matrices"], f"{path}.edge_matrices")):
        mat = _int_matrix(m, f"{path}.edge_matrices[{k}]", ints_only)
        if not mat.is_nonnegative():
            r, c, x = _first_negative(mat)
            raise DocumentError(f"{path}.edge_matrices[{k}][{r}][{c}]", f"negative edge multiplicity {_message_int(x)}")
        mats.append(mat)
    stationary = obj.get("stationary", False)
    if not isinstance(stationary, bool):
        raise DocumentError(f"{path}.stationary", "expected a boolean")
    return _construct(path, BratteliDiagram, counts, tuple(mats), stationary)


def _parse_finite_system(obj: Any, path: str) -> FiniteSystem:
    obj = _fields(obj, path, ("points", "permutations"))
    points = _expect_int(obj["points"], f"{path}.points")
    perms = tuple(
        _int_vector(p, f"{path}.permutations[{i}]")
        for i, p in enumerate(_expect_list(obj["permutations"], f"{path}.permutations"))
    )
    return _construct(path, FiniteSystem, points, perms)


def _parse_stage_map(obj: Any, path: str, ints_only: bool) -> StageMap:
    obj = _fields(obj, path, ("from_stage", "to_stage", "matrix"))
    from_stage = _expect_int(obj["from_stage"], f"{path}.from_stage")
    to_stage = _expect_int(obj["to_stage"], f"{path}.to_stage")
    matrix = _int_matrix(obj["matrix"], f"{path}.matrix", ints_only)
    return _construct(path, StageMap, from_stage, to_stage, matrix)


def _parse_action(obj: Any, path: str, ints_only: bool) -> K0Action:
    obj = _fields(obj, path, ("generators", "forward", "inverse"), ("stationary",))
    generators = _expect_int(obj["generators"], f"{path}.generators")

    def families(key: str) -> tuple[tuple[StageMap, ...], ...]:
        outer = _expect_list(obj[key], f"{path}.{key}")
        return tuple(
            tuple(
                _parse_stage_map(sm, f"{path}.{key}[{j}][{k}]", ints_only)
                for k, sm in enumerate(_expect_list(fam, f"{path}.{key}[{j}]"))
            )
            for j, fam in enumerate(outer)
        )

    stationary = None
    if obj.get("stationary") is not None:
        rules = []
        for j, rule in enumerate(_expect_list(obj["stationary"], f"{path}.stationary")):
            at = f"{path}.stationary[{j}]"
            rule = _fields(rule, at, ("shift", "forward", "inverse"))
            shift = _expect_int(rule["shift"], f"{at}.shift")
            forward = _int_matrix(rule["forward"], f"{at}.forward", ints_only)
            inverse = _int_matrix(rule["inverse"], f"{at}.inverse", ints_only)
            # the rule's only check is the shift's range
            rules.append(_construct(f"{at}.shift", StationaryRule, shift, forward, inverse))
        stationary = tuple(rules)
    return _construct(path, K0Action, generators, families("forward"), families("inverse"), stationary)


def parse(data: bytes | str) -> SystemDocument:
    """Parse and fully validate a document; raises DocumentError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError("$", f"not UTF-8: {exc}") from None
    floats: list[str] = []  # the float literals the decoder met

    def note_float(text: str) -> float:
        floats.append(text)
        return float(text)

    try:
        raw = _load_json(data, parse_float=note_float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError("$", f"invalid JSON: {exc}") from None
    # a decoded False needs the literal ``false`` in the text
    ints_only = not floats and "false" not in data
    raw = _fields(raw, "$", ("schema_version",), ("metadata", "system", "diagram", "finite_system", "action"))
    version = _expect_int(raw["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError("$.schema_version", f"unsupported version {_message_int(version)}")
    metadata = _parse_metadata(raw.get("metadata"), "$.metadata")
    kinds = [k for k in ("system", "diagram", "finite_system") if k in raw]
    if len(kinds) != 1:
        raise DocumentError("$", "document must carry exactly one of system, diagram, finite_system")
    kind = kinds[0]
    system = diagram = finite = action = None
    if kind == "system":
        system = _parse_system(raw["system"], "$.system", ints_only)
    elif kind == "diagram":
        diagram = _parse_diagram(raw["diagram"], "$.diagram", ints_only)
    else:
        finite = _parse_finite_system(raw["finite_system"], "$.finite_system")
    if kind == "finite_system":
        if "action" in raw:
            raise DocumentError("$.action", "finite_system documents induce their own action")
    else:
        if "action" not in raw:
            raise DocumentError("$.action", "missing field")
        action = _parse_action(raw["action"], "$.action", ints_only)
    doc = SystemDocument(version, metadata, kind, system, diagram, finite, action)
    _construct(f"$.{kind}", doc.resolve)
    return doc


def parse_request_sets(
    data: bytes, path: str, system: InductiveSystem, action: K0Action, stage_max: int
) -> list[tuple[tuple[LimitElement, ...], tuple[Word, ...]]]:
    """The (elements, words) pairs of a request-sets file's bytes, which
    must be UTF-8 (with no BOM), as a document's. Each element must name
    a stage of ``system`` and match its rank, and each letter a signed
    generator of ``action``; once the whole file has passed these checks,
    each element must also be positive by stage ``stage_max`` (or its
    own stage, if later). Raises DocumentError with ``path`` and the
    JSON path of the bad field."""
    try:
        raw = _load_json(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(path, f"cannot read request sets: {exc}") from None
    _fields(raw, f"{path}:$", ("requests",))
    out = []
    for i, req in enumerate(_expect_list(raw["requests"], f"{path}:$.requests")):
        where = f"{path}:$.requests[{i}]"
        req = _fields(req, where, (), ("elements", "words"))
        elements = []
        for j, el in enumerate(_expect_list(req.get("elements", []), f"{where}.elements")):
            at = f"{where}.elements[{j}]"
            _fields(el, at, ("stage", "vector"))
            stage = _expect_int(el["stage"], f"{at}.stage")
            if not system.has_stage(stage):
                raise DocumentError(f"{at}.stage", f"stage {_message_int(stage)} is outside the document's stages")
            vector = _int_vector(el["vector"], f"{at}.vector")
            if len(vector) != system.rank_at(stage):
                raise DocumentError(
                    f"{at}.vector", f"length {len(vector)}, stage {stage} has rank {system.rank_at(stage)}"
                )
            elements.append(LimitElement(stage, vector))
        words = []
        for j, w in enumerate(_expect_list(req.get("words", []), f"{where}.words")):
            letters = _int_vector(w, f"{where}.words[{j}]")
            for k, x in enumerate(letters):
                if not 1 <= abs(x) <= action.generators:
                    raise DocumentError(
                        f"{where}.words[{j}][{k}]",
                        f"letter {_message_int(x)} is not a signed generator index 1..{action.generators}",
                    )
            words.append(Word.of(*letters))
        if not elements:
            raise DocumentError(where, "request needs at least one element")
        out.append((tuple(elements), tuple(words)))
    if not out:
        raise DocumentError(f"{path}:$.requests", "no requests given")
    for i, (elements, _) in enumerate(out):
        for j, g in enumerate(elements):
            horizon = max(stage_max, g.stage)
            if not is_positive(system, g, horizon).is_yes:
                raise DocumentError(
                    f"{path}:$.requests[{i}].elements[{j}]",
                    f"not positive (entrywise nonnegative at no stage up to {_message_int(horizon)})",
                )
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _system_payload(system: InductiveSystem) -> dict:
    payload: dict[str, Any] = {
        "stage_ranks": list(system.stage_ranks),
        "connecting_maps": [m.to_rows() for m in system.connecting_maps],
        "unit": list(system.unit),
    }
    if system.stationary_tail is not None:
        payload["stationary"] = system.stationary_tail.to_rows()
    return payload


def _action_payload(action: K0Action) -> dict:
    def families(fams: tuple[tuple[StageMap, ...], ...]) -> list:
        return [
            [
                {"from_stage": sm.from_stage, "to_stage": sm.to_stage, "matrix": sm.matrix.to_rows()}
                for sm in fam
            ]
            for fam in fams
        ]

    payload: dict[str, Any] = {
        "generators": action.generators,
        "forward": families(action.forward),
        "inverse": families(action.inverse),
    }
    if action.stationary is not None:
        payload["stationary"] = [
            {"shift": rule.shift, "forward": rule.forward.to_rows(), "inverse": rule.inverse.to_rows()}
            for rule in action.stationary
        ]
    return payload


def document_payload(doc: SystemDocument) -> dict:
    payload: dict[str, Any] = {"schema_version": doc.schema_version}
    meta: dict[str, str] = {}
    if doc.metadata.name is not None:
        meta["name"] = doc.metadata.name
    if doc.metadata.description is not None:
        meta["description"] = doc.metadata.description
    if meta:
        payload["metadata"] = meta
    if doc.kind == "system":
        assert doc.system is not None
        payload["system"] = _system_payload(doc.system)
    elif doc.kind == "diagram":
        assert doc.diagram is not None
        payload["diagram"] = {
            "vertex_counts": list(doc.diagram.vertex_counts),
            "edge_matrices": [m.to_rows() for m in doc.diagram.edge_matrices],
            "stationary": doc.diagram.stationary,
        }
    else:
        assert doc.finite_system is not None
        payload["finite_system"] = {
            "points": doc.finite_system.points,
            "permutations": [list(p) for p in doc.finite_system.permutations],
        }
    if doc.action is not None:
        payload["action"] = _action_payload(doc.action)
    return payload


# what ``json.dumps`` writes for a ``str`` (ASCII, with escapes)
_quoted = json.encoder.encode_basestring_ascii


def _json_text(value: Any, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for string keys,
    writing integers of any length in chunks. Strings and integers go by
    exact type (a bool is not an int here), containers by ``isinstance``
    (a record is an array); ``json.dumps`` writes only the leftovers:
    floats, bools, None and empty containers."""
    kind = type(value)
    if kind is str:
        return _quoted(value)
    if kind is int:
        return _decimal_str(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        sep = f",\n{inner}"
        if isinstance(value, dict):
            parts = [f"{_quoted(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
            return f"{{\n{inner}{sep.join(parts)}\n{indent}}}"
        if set(map(type, value)) <= {int}:  # plain ints (not bools): one join
            try:
                body = sep.join(map(str, value))
            except ValueError:  # an integer past the digit limit
                body = sep.join(map(_decimal_str, value))
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(value)


def canonical_json_bytes(payload: Any) -> bytes:
    """Canonical encoding: sorted keys, two-space indent, trailing
    newline, the bytes of ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a newline, with integers of any length."""
    return (_json_text(payload) + "\n").encode("utf-8")


def serialize(doc: SystemDocument) -> bytes:
    """Canonical bytes; parse(serialize(doc)) structurally equals doc."""
    return canonical_json_bytes(document_payload(doc))
