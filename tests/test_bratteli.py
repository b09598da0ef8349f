import ast
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN_NAMES, golden_path, load_golden
from identity_action import identity_action

from k0mf.bratteli import (
    BratteliDiagram,
    DocumentError,
    FiniteSystem,
    Metadata,
    SystemDocument,
    _decimal_int,
    _decimal_str,
    _expect_int,
    _int_matrix,
    _int_vector,
    canonical_json_bytes,
    diagram_to_system,
    finite_system_to_k0,
    parse,
    parse_request_sets,
    permutation_matrix,
    serialize,
)
from k0mf.certify import SearchParams
from k0mf.cli import main, run_check, verdict_payload
from k0mf.dimgroup import InductiveSystem, LimitElement
from k0mf.exactlinalg import IntMatrix
from k0mf.kaction import Word, verify_action

M = IntMatrix.from_rows


def test_parse_minimal_golden():
    doc = load_golden("minimal.json")
    system, action = doc.resolve()
    assert system.stage_ranks == (1,)
    assert system.unit == (1,)
    assert action.generators == 1


def test_parse_shift_golden():
    doc = load_golden("compactified_shift.json")
    system, action = doc.resolve()
    assert system.stage_ranks == (1, 3, 5, 7)
    assert len(system.connecting_maps) == 3
    assert system.connecting_maps[1].rows == 5 and system.connecting_maps[1].cols == 3
    assert action.forward[0][1].to_stage == 2


def test_parse_error_names_field():
    payload = {
        "schema_version": 1,
        "diagram": {
            "vertex_counts": [1, 2],
            "edge_matrices": [[[1], [-1]]],
        },
        "action": {"generators": 1, "forward": [[]], "inverse": [[]]},
    }
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(payload))
    assert "edge_matrices[0][1][0]" in str(err.value)


def test_parse_rejects_floats():
    with pytest.raises(DocumentError) as err:
        parse('{"schema_version": 1.0}')
    assert str(err.value) == "$.schema_version: floating-point numbers are not allowed"
    for text, path in (
        ('{"schema_version": 1, "finite_system": {"points": NaN, "permutations": [[1]]}}', "$.finite_system.points"),
        ('{"schema_version": 1, "finite_system": {"points": 1, "permutations": [[1e0]]}}', "$.finite_system.permutations[0][0]"),
        ('{"schema_version": 1, "finite_system": {"points": 1, "permutations": [[-Infinity]]}}', "$.finite_system.permutations[0][0]"),
    ):
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert err.value.path == path and "floating-point" in err.value.reason
    # a float where no integer belongs gets that leaf's type error and path
    with pytest.raises(DocumentError) as err:
        parse('{"schema_version": 1, "metadata": {"name": 2.5}, "finite_system": {"points": 1, "permutations": [[1]]}}')
    assert err.value.path == "$.metadata.name"


@pytest.mark.parametrize(
    "field, path",
    [
        ({"schema_version": "0_1"}, "$.schema_version"),
        ({"points": " 3\n"}, "$.finite_system.points"),
        ({"first": "\u0662"}, "$.finite_system.permutations[0][0]"),
        ({"last": "+1"}, "$.finite_system.permutations[0][2]"),
    ],
    ids=["underscore", "whitespace", "arabic-indic-digit", "plus-sign"],
)
def test_parse_rejects_integer_strings_outside_ascii_decimal(field, path):
    """Only -?[0-9]+ is an integer string; int() alone would accept all four."""
    perm = [field.get("first", 2), 3, field.get("last", 1)]
    doc = {
        "schema_version": field.get("schema_version", 1),
        "finite_system": {"points": field.get("points", 3), "permutations": [perm]},
    }
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(doc))
    assert err.value.path == path and "not an integer" in err.value.reason


def test_parse_keeps_ascii_decimal_strings():
    doc = parse('{"schema_version": "1", "finite_system": {"points": "3", "permutations": [["2", "03", "1"]]}}')
    assert doc.finite_system == FiniteSystem(3, ((2, 3, 1),))
    assert [_expect_int(text, "$") for text in ("-12", "007", "-0")] == [-12, 7, 0]


def test_parse_rejects_unknown_version():
    with pytest.raises(DocumentError) as err:
        parse('{"schema_version": 2}')
    assert "schema_version" in str(err.value)


def test_parse_requires_exactly_one_kind():
    with pytest.raises(DocumentError):
        parse('{"schema_version": 1}')
    payload = {
        "schema_version": 1,
        "system": {"stage_ranks": [1], "connecting_maps": [], "unit": [1]},
        "finite_system": {"points": 1, "permutations": [[1]]},
    }
    with pytest.raises(DocumentError):
        parse(json.dumps(payload))


def test_parse_requires_action_for_system():
    payload = {
        "schema_version": 1,
        "system": {"stage_ranks": [1], "connecting_maps": [], "unit": [1]},
    }
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(payload))
    assert "$.action" in str(err.value)


def test_parse_forbids_action_for_finite_system():
    payload = {
        "schema_version": 1,
        "finite_system": {"points": 2, "permutations": [[2, 1]]},
        "action": {"generators": 1, "forward": [[]], "inverse": [[]]},
    }
    with pytest.raises(DocumentError):
        parse(json.dumps(payload))


def test_parse_accepts_string_integers():
    payload = {
        "schema_version": 1,
        "system": {
            "stage_ranks": [1],
            "connecting_maps": [],
            "unit": ["100000000000000000000000001"],
        },
        "action": {
            "generators": 1,
            "forward": [[{"from_stage": 0, "to_stage": 0, "matrix": [["1"]]}]],
            "inverse": [[{"from_stage": 0, "to_stage": 0, "matrix": [[1]]}]],
        },
    }
    doc = parse(json.dumps(payload))
    system, _ = doc.resolve()
    assert system.unit == (100000000000000000000000001,)


def test_parse_rejects_unknown_field():
    with pytest.raises(DocumentError) as err:
        parse('{"schema_version": 1, "bogus": 3}')
    assert "bogus" in str(err.value)


def test_parse_stationary_boolean_sugar():
    # stationary: true repeats the last connecting map forever
    payload = {
        "schema_version": 1,
        "system": {
            "stage_ranks": [1],
            "connecting_maps": [[[2]]],
            "unit": [1],
            "stationary": True,
        },
        "action": {
            "generators": 1,
            "forward": [[]],
            "inverse": [[]],
            "stationary": [{"shift": 0, "forward": [[1]], "inverse": [[1]]}],
        },
    }
    system, _ = parse(json.dumps(payload)).resolve()
    assert system.stationary_tail == M([[2]])
    assert system.connecting_maps == ()
    with pytest.raises(DocumentError):
        bad = dict(payload)
        bad["system"] = {"stage_ranks": [1], "connecting_maps": [], "unit": [1], "stationary": True}
        parse(json.dumps(bad))


def test_diagram_rejects_zero_column():
    with pytest.raises(ValueError) as err:
        BratteliDiagram((2, 1), (M([[1, 0]]),))
    assert "zero column" in str(err.value)


def test_diagram_to_system_car():
    d = BratteliDiagram((1,), (M([[2]]),), stationary=True)
    system = diagram_to_system(d)
    assert system.stage_ranks == (1,)
    assert system.stationary_tail == M([[2]])
    assert system.unit == (1,)


def test_diagram_to_system_fibonacci():
    d = BratteliDiagram((2,), (M([[1, 1], [1, 0]]),), stationary=True)
    system = diagram_to_system(d)
    assert system.stationary_tail == M([[1, 1], [1, 0]])
    assert system.unit == (1, 1)


def test_diagram_to_system_diamond():
    d = BratteliDiagram((1, 2), (M([[1], [1]]),))
    system = diagram_to_system(d)
    assert system.stage_ranks == (1, 2)
    assert system.unit_at(1) == (1, 1)


def test_finite_system_single_point():
    system, action = finite_system_to_k0(FiniteSystem(1, ((1,), (1,))))
    assert system.stage_ranks == (1,)
    assert action.generators == 2
    for rule in action.stationary:
        assert rule.forward == IntMatrix.identity(1)


def test_finite_system_three_cycle_matrix():
    _, action = finite_system_to_k0(FiniteSystem(3, ((2, 3, 1),)))
    rule = action.stationary[0]
    assert rule.forward == M([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert rule.inverse == rule.forward.transpose()


def test_finite_system_transpositions_are_involutions():
    _, action = finite_system_to_k0(FiniteSystem(4, ((2, 1, 3, 4), (1, 2, 4, 3))))
    for rule in action.stationary:
        assert rule.forward @ rule.forward == IntMatrix.identity(4)
        assert rule.inverse == rule.forward


def test_finite_system_rejects_non_bijection():
    with pytest.raises(ValueError):
        FiniteSystem(3, ((1, 1, 2),))


def test_converted_actions_verify():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(1, 6)
        perms = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        system, action = finite_system_to_k0(FiniteSystem(n, tuple(perms)))
        assert verify_action(action, system, 3).ok


def test_round_trip_goldens_byte_stable():
    for name in GOLDEN_NAMES:
        blob = golden_path(name).read_bytes()
        doc = parse(blob)
        assert serialize(doc) == blob
        assert parse(serialize(doc)) == doc


def random_document(rng: random.Random) -> SystemDocument:
    kind = rng.choice(["system", "diagram", "finite_system"])
    if kind == "finite_system":
        n = rng.randint(1, 5)
        perms = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            perms.append(tuple(p))
        return SystemDocument(
            1, Metadata(name=f"fs{n}"), "finite_system",
            finite_system=FiniteSystem(n, tuple(perms)),
        )
    if kind == "diagram":
        counts = [rng.randint(1, 3)]
        mats = []
        for _ in range(rng.randint(0, 2)):
            nxt = rng.randint(1, 3)
            rows = [[rng.randint(0, 2) for _ in range(counts[-1])] for _ in range(nxt)]
            # ensure no zero column and no zero row
            for c in range(counts[-1]):
                if all(rows[r][c] == 0 for r in range(nxt)):
                    rows[rng.randrange(nxt)][c] = 1
            for r in range(nxt):
                if all(x == 0 for x in rows[r]):
                    rows[r][rng.randrange(counts[-1])] = 1
            mats.append(M(rows))
            counts.append(nxt)
        diagram = BratteliDiagram(tuple(counts), tuple(mats))
        system = diagram_to_system(diagram)
        return SystemDocument(
            1, Metadata(), "diagram", diagram=diagram,
            action=identity_action(system, rng.randint(1, 2)),
        )
    ranks = [rng.randint(1, 3)]
    maps = []
    for _ in range(rng.randint(0, 2)):
        nxt = rng.randint(1, 3)
        rows = [[rng.randint(0, 2) for _ in range(ranks[-1])] for _ in range(nxt)]
        for r in range(nxt):
            if all(x == 0 for x in rows[r]):
                rows[r][rng.randrange(ranks[-1])] = 1
        maps.append(M(rows))
        ranks.append(nxt)
    unit = tuple(rng.randint(1, 3) for _ in range(ranks[0]))
    system = InductiveSystem(tuple(ranks), tuple(maps), unit)
    return SystemDocument(
        1, Metadata(description="random"), "system", system=system,
        action=identity_action(system, rng.randint(1, 2)),
    )


def test_round_trip_random_documents():
    rng = random.Random(31)
    for _ in range(40):
        doc = random_document(rng)
        assert parse(serialize(doc)) == doc


def test_serialize_minimal_matches_committed_bytes():
    doc = load_golden("minimal.json")
    assert serialize(doc) == golden_path("minimal.json").read_bytes()


def test_diagram_conversion_always_valid():
    rng = random.Random(37)
    for _ in range(30):
        doc = random_document(rng)
        system, action = doc.resolve()
        # InductiveSystem invariants were enforced on construction; the
        # action laws hold for the identity and permutation actions used
        assert verify_action(action, system, 2).ok


def test_permutation_matrix_shape():
    m = permutation_matrix((2, 1))
    assert m == M([[0, 1], [1, 0]])


@pytest.mark.parametrize("perm", [(1, 1), (0, 1), (2, 3), (1, 2, 4)], ids=["repeat", "zero", "shifted", "gap"])
def test_permutation_matrix_rejects_a_non_bijection(perm):
    with pytest.raises(ValueError, match=f"not a bijection of 1..{len(perm)}"):
        permutation_matrix(perm)


@pytest.mark.parametrize(
    "bad, reason",
    [("true", "expected an integer"), ("2.0", "floating-point numbers are not allowed"), ('"x"', "not an integer: 'x'")],
    ids=["bool", "float", "string"],
)
def test_int_vector_names_the_bad_entry(bad, reason):
    """A vector that is not all plain ints is checked entry by entry."""
    for text, path in (
        (
            '{"schema_version": 1, "finite_system": {"points": 2, "permutations": [[1, %s]]}}' % bad,
            "$.finite_system.permutations[0][1]",
        ),
        (
            '{"schema_version": 1, "system": {"stage_ranks": [1, %s], "connecting_maps": [], "unit": [1]},'
            ' "action": {"generators": 1, "forward": [[]], "inverse": [[]]}}' % bad,
            "$.system.stage_ranks[1]",
        ),
    ):
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert (err.value.path, err.value.reason) == (path, reason)


_LONG = "9" * 5000


def _diagram_text(matrix: str, shift: str = "0") -> str:
    """A one-map diagram document whose edge matrix is written as
    ``matrix``; its action's stationary shift is written as ``shift``,
    and the action comes first in the text, so the decoder meets the
    shift before the matrix."""
    return (
        '{"schema_version": 1, "action": {"generators": 1, "forward": [[]], "inverse": [[]],'
        ' "stationary": [{"shift": %s, "forward": [[1, 0], [0, 1]], "inverse": [[1, 0], [0, 1]]}]},'
        ' "diagram": {"vertex_counts": [2, 2], "edge_matrices": [%s]}}' % (shift, matrix)
    )


# Every falsy JSON value that is not an integer, with the reason it is
# rejected for. 0.0, -0.0 and false equal 0, as an int 0 does; the others
# do not, and NaN is not falsy at all.
_FALSY_ENTRIES = [
    ("false", "expected an integer"),
    ("0.0", "floating-point numbers are not allowed"),
    ("-0.0", "floating-point numbers are not allowed"),
    ('""', "not an integer: ''"),
    ("null", "expected an integer (number or decimal string)"),
    ("[]", "expected an integer (number or decimal string)"),
    ("{}", "expected an integer (number or decimal string)"),
    ("NaN", "floating-point numbers are not allowed"),
]


@pytest.mark.parametrize(
    "matrix, path, reason",
    [
        ("[[1, true], [0, 1]]", "$.diagram.edge_matrices[0][0][1]", "expected an integer"),
        ("[[1, 1], [1.0, 1]]", "$.diagram.edge_matrices[0][1][0]", "floating-point numbers are not allowed"),
        ("[[1, 1], [0]]", "$.diagram.edge_matrices[0][1]", "ragged matrix row"),
        ("[[1, 1], 5]", "$.diagram.edge_matrices[0][1]", "expected an array"),
        ('[[1, 1], {"a": 1}]', "$.diagram.edge_matrices[0][1]", "expected an array"),
        ("[[1, 2.5], [0]]", "$.diagram.edge_matrices[0][0][1]", "floating-point numbers are not allowed"),
        ("[]", "$.diagram.edge_matrices[0]", "matrix needs at least one row"),
        ("[[]]", "$.diagram", "edge matrix 0 has shape 1x0, expected 2x2"),
        ("[[1, -1], [0, 1]]", "$.diagram.edge_matrices[0][0][1]", "negative edge multiplicity -1"),
    ]
    + [("[[1, 0], [%s, 1]]" % entry, "$.diagram.edge_matrices[0][1][0]", reason) for entry, reason in _FALSY_ENTRIES],
    ids=["bool", "float", "ragged", "non-list-row", "object-row", "float-before-ragged", "no-rows", "empty-row", "negative"]
    + ["falsy-" + (entry.strip('"') or "empty-string") for entry, _ in _FALSY_ENTRIES],
)
def test_matrix_errors_keep_their_path(matrix, path, reason):
    """A matrix that fails a whole-matrix check is walked row by row, so
    the first bad field is named as before; so it is when the document
    also holds an integer literal past the digit limit (the shift, which
    the decoder meets first, and which parse reads after the diagram),
    which the decoder reads a second time."""
    for shift in ("0", _LONG):
        with pytest.raises(DocumentError) as err:
            parse(_diagram_text(matrix, shift))
        assert (err.value.path, err.value.reason) == (path, reason)


@pytest.mark.parametrize(
    "matrix, rows",
    [
        ('[[1, "1"], ["0", 1]]', [[1, 1], [0, 1]]),
        ('[[1, "%s"], [0, 1]]' % _LONG, [[1, _decimal_int(_LONG)], [0, 1]]),
        ("[[1, %s], [0, 1]]" % _LONG, [[1, _decimal_int(_LONG)], [0, 1]]),
        ('[[1, "0"], ["-0", "7"]]', [[1, 0], [0, 7]]),
        ('[[%s, "0"], ["-0", "7"]]' % _LONG, [[_decimal_int(_LONG), 0], [0, 7]]),
    ],
    ids=["decimal-strings", "long-string", "long-literal", "zero-strings", "zero-strings-after-a-long-literal"],
)
def test_matrix_integer_forms_parse_equal(matrix, rows):
    limit = sys.get_int_max_str_digits()
    assert parse(_diagram_text(matrix)).diagram.edge_matrices == (M(rows),)
    assert sys.get_int_max_str_digits() == limit


def test_int_matrix_whole_and_per_row_paths_agree():
    """A well-formed matrix gives the same IntMatrix whether it passes the
    whole-matrix checks or, with one entry as a decimal string, is walked
    row by row; ``[[]]`` is one row of width 0 on both."""
    rng = random.Random(1010)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(0, 6)
        rows = [[rng.randint(-10**rng.randint(0, 30), 10**30) for _ in range(n)] for _ in range(m)]
        whole = _int_matrix(rows, "$", ints_only=True)
        assert whole == M(rows) and (whole.rows, whole.cols) == (m, n)
        if n:
            i, j = rng.randrange(m), rng.randrange(n)
            mixed = [list(r) for r in rows]
            mixed[i][j] = str(rows[i][j])
            assert _int_matrix(mixed, "$") == whole
            assert _int_vector(mixed[i], "$") == _int_vector(rows[i], "$") == tuple(rows[i])


def _action_matrix_text(matrix: list[list[int]], system_flag: str = "") -> str:
    """A one-stage system document whose generator's one forward map is
    ``matrix`` (parse reads any shape there); ``system_flag`` is added to
    the system object."""
    return (
        '{"schema_version": 1, "system": {"stage_ranks": [1], "connecting_maps": [], "unit": [1]%s},'
        ' "action": {"generators": 1, "forward": [[{"from_stage": 0, "to_stage": 0, "matrix": %s}]],'
        ' "inverse": [[]]}}' % (system_flag, json.dumps(matrix))
    )


def test_seeded_matrices_read_alike_on_both_reader_paths():
    """Seeded dense matrices, with zero rows, zero entries, negatives and
    integers past 2**63, one row or one column, read as
    ``IntMatrix.from_rows`` by the count check (no float and no ``false``
    in the text) and by the per-entry type check (a ``"stationary":
    false`` flag in the text)."""
    rng = random.Random(2163)
    shapes = [(1, rng.randint(1, 9)) for _ in range(10)] + [(rng.randint(1, 9), 1) for _ in range(10)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(60)]
    big = 0
    for m, n in shapes:
        pick = (0, 0, 0, rng.randint(-9, 9), rng.randint(-(2**80), 2**80), 2**63, -(2**63) - 1)
        rows = [[rng.choice(pick) for _ in range(n)] for _ in range(m)]
        if m > 1:
            rows[rng.randrange(m)] = [0] * n
        big += any(abs(x) >= 2**63 for row in rows for x in row)
        want = M(rows)
        for flag in ("", ', "stationary": false'):
            assert parse(_action_matrix_text(rows, flag)).action.forward[0][0].matrix == want
        assert _int_matrix(rows, "$", ints_only=True) == _int_matrix(rows, "$") == want
    assert big > 20


@pytest.mark.parametrize("name", ["compactified_shift.json", "diamond.json"])
def test_a_false_literal_changes_neither_the_document_nor_the_verdict(name, tmp_path):
    """A document read by the count check and the same document with a
    ``false`` literal (a stationary flag that says what its absence says)
    parse to equal objects and give the same check-mf bytes."""
    raw = json.loads(golden_path(name).read_bytes())
    kind = "system" if "system" in raw else "diagram"
    raw[kind].pop("stationary", None)
    plain = json.dumps(raw)
    raw[kind]["stationary"] = False
    flagged = json.dumps(raw)
    assert "false" not in plain and "false" in flagged
    assert parse(plain) == parse(flagged)
    outputs = []
    for i, text in enumerate((plain, flagged)):
        doc, out = tmp_path / f"doc{i}.json", tmp_path / f"out{i}.json"
        doc.write_text(text)
        assert main(["check-mf", str(doc), "--json-out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_finite_system_huge_points_is_no_bijection():
    """The length check comes first, so no range of 10**30 points is built."""
    with pytest.raises(ValueError) as err:
        FiniteSystem(10**30, ((1,),))
    assert str(err.value) == f"permutation 0 is not a bijection of 1..{10**30}"


def test_decimal_conversions_of_any_length():
    rng = random.Random(4300)
    limit = sys.get_int_max_str_digits()
    for digits in (1, 639, 640, 641, 1281, 4300, 4301, 5000, 9001):
        text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
        n = _decimal_int(text)
        assert _decimal_int("-" + text) == -n
        assert _decimal_int("00" + text) == n
        assert _decimal_str(n) == text and _decimal_str(-n) == "-" + text
        head = min(digits, 600)  # each end of n, read below any digit limit
        assert n // 10 ** (digits - head) == int(text[:head])
        assert n % 10**head == int(text[-head:])
    assert _decimal_str(0) == "0" and _decimal_str(10**700) == "1" + "0" * 700
    assert sys.get_int_max_str_digits() == limit


def test_parse_long_integer_literal_keeps_its_path():
    limit = sys.get_int_max_str_digits()
    big = "7" * 5000
    for points in (big, f'"{big}"'):
        text = '{"schema_version": 1, "finite_system": {"points": %s, "permutations": [[1]]}}' % points
        with pytest.raises(DocumentError) as err:
            parse(text)
        assert err.value.path == "$.finite_system"
        assert err.value.reason == f"permutation 0 is not a bijection of 1..<integer of {_decimal_int(big).bit_length()} bits>"
        assert sys.get_int_max_str_digits() == limit
    with pytest.raises(DocumentError) as err:
        parse('{"schema_version": -%s, "finite_system": {"points": 1, "permutations": [[1]]}}' % big)
    assert str(err.value) == f"$.schema_version: unsupported version -<integer of {_decimal_int(big).bit_length()} bits>"
    assert sys.get_int_max_str_digits() == limit


def test_long_integer_writer_matches_json_dumps():
    """The one writer gives json's bytes on every payload json can write:
    every bundled document, every check-mf payload of one, and edge cases."""
    payloads = [json.loads(golden_path(name).read_bytes()) for name in GOLDEN_NAMES]
    for name in GOLDEN_NAMES:
        system, action = load_golden(name).resolve()
        payloads.append(verdict_payload("check-mf", name, run_check(system, action, SearchParams())))
    payloads.append(
        {"b": [True, False, None, -3, 0, 2.5], "a": {}, "c": [[], {}, [[]]], "\u00e9\n": "caf\u00e9 \"x\"\t"}
    )
    payloads += [[], {}, (), (1, [2, ()]), [1, -2, 10**40], [1, True], 7, "s", None]
    for payload in payloads:
        oracle = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert canonical_json_bytes(payload) == oracle.encode()


def test_canonical_bytes_write_integers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = "-" + "8" * 5000
    blob = canonical_json_bytes({"z": [_decimal_int(big), 1], "a": "x"})
    assert blob == ('{\n  "a": "x",\n  "z": [\n    %s,\n    1\n  ]\n}\n' % big).encode()
    assert sys.get_int_max_str_digits() == limit


def _leaves(value, path="$"):
    """(path, container, key) for every number, string and boolean."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        at = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        if isinstance(item, (dict, list)):
            yield from _leaves(item, at)
        else:
            yield at, value, key


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_every_leaf_error_names_its_own_path_once(name):
    """A float in place of any leaf is reported at that leaf, and the
    message names the path once: no enclosing object re-wraps the error."""
    blob = json.loads(golden_path(name).read_text())
    mismatches = []
    for path, container, key in list(_leaves(blob)):
        original, container[key] = container[key], 1.5
        try:
            parse(json.dumps(blob))
            mismatches.append((path, "parsed"))
        except DocumentError as exc:
            if exc.path != path or str(exc).count(path) != 1:
                mismatches.append((path, str(exc)))
        container[key] = original
    assert mismatches == []


def test_stage_map_constructor_error_is_reported_at_the_stage_map():
    blob = json.loads(golden_path("minimal.json").read_text())
    blob["action"]["inverse"][0][0]["from_stage"] = -1
    with pytest.raises(DocumentError) as err:
        parse(json.dumps(blob))
    assert str(err.value) == "$.action.inverse[0][0]: stage maps must go forward (to_stage >= from_stage >= 0)"


def test_parse_request_sets_returns_element_and_word_pairs(cycle3_pair):
    system, action = cycle3_pair
    data = b'{"requests": [{"elements": [{"stage": 0, "vector": [1, "0", 0]}], "words": [[1, -1], [-1]]}]}'
    assert parse_request_sets(data, "sets.json", system, action, 4) == [
        ((LimitElement(0, (1, 0, 0)),), (Word(()), Word((-1,)))),
    ]
    with pytest.raises(DocumentError) as err:
        parse_request_sets(b'{"requests": [[]]}', "sets.json", system, action, 4)
    assert str(err.value) == "sets.json:$.requests[0]: expected an object"


def test_no_module_but_bratteli_imports_its_private_names():
    """The input formats stay behind one module: nothing else in the
    package imports an underscore name from ``bratteli``."""
    package = Path(sys.modules["k0mf"].__file__).parent
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "bratteli.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "bratteli":
                found += [(source.name, a.name) for a in node.names if a.name.startswith("_")]
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bratteli":
                if node.attr.startswith("_"):
                    found.append((source.name, node.attr))
    assert found == []
