"""Records are immutable named tuples: no dataclass but the two stateful
classes, no attribute assignment, the constructors' checks and their
messages, and ``_replace`` for a changed copy. Matrices, actions and
systems pickle and copy."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import k0mf
from conftest import load_golden
from k0mf.bratteli import BratteliDiagram, FiniteSystem, Metadata
from k0mf.certify import (
    SearchParams,
    StateCertificate,
    Witness,
    WitnessSearch,
    find_invariant_state,
    find_positive_coboundary,
)
from k0mf.cli import Verdict, run_check
from k0mf.dimgroup import InjectivityReport, LimitElement, Tristate
from k0mf.exactlinalg import Feasible, Infeasible, IntMatrix, LinearProgram
from k0mf.kaction import MAX_STATIONARY_SHIFT, ActionReport, CheckItem, K0Action, StageMap, StationaryRule, Word

# the classes that keep per-instance caches, and so stay dataclasses
STATEFUL = {"InductiveSystem", "SystemDocument"}

I1 = IntMatrix.identity(1)
RULE = StationaryRule(0, I1, I1)
POINT = LimitElement(0, (1,))
PARAMS = SearchParams()

# one instance of every record class
SAMPLES = [
    Metadata("name", None),
    BratteliDiagram((1,), ()),
    FiniteSystem(1, ((1,),)),
    StageMap(0, 0, I1),
    RULE,
    K0Action(1, ((),), ((),), (RULE,)),
    Word.of(1, 2),
    CheckItem("shape", 1, 0, True),
    ActionReport(()),
    POINT,
    Tristate.yes(0, 1),
    InjectivityReport((), None),
    PARAMS,
    Witness((POINT,), POINT, 0, 1, "limit", 0),
    StateCertificate(0, (1,), (POINT,), (Word.of(1),), 1, (1,)),
    WitnessSearch(None, ()),
    LinearProgram.build(1, [((1,), 0)]),
    Feasible((0,)),
    Infeasible((1,)),
    Verdict("CONSISTENT", PARAMS, None, (), (), (), 0.0),
]


def _package_classes():
    """Every class defined in a module of the package, from the modules
    as they are already loaded."""
    for info in pkgutil.iter_modules(k0mf.__path__):
        module = importlib.import_module(f"k0mf.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_no_record_is_a_dataclass():
    classes = list(_package_classes())
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == STATEFUL
    records = {cls for cls in classes if issubclass(cls, tuple)}
    assert records == {type(sample) for sample in SAMPLES}


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: StageMap(2, 1, I1), "stage maps must go forward (to_stage >= from_stage >= 0)"),
        (lambda: StationaryRule(-1, I1, I1), "stationary shift must be >= 0"),
        (
            lambda: StationaryRule(MAX_STATIONARY_SHIFT + 1, I1, I1),
            f"stationary shift {MAX_STATIONARY_SHIFT + 1} exceeds the bound {MAX_STATIONARY_SHIFT}",
        ),
        (lambda: Word((1, -1)), "word is not reduced"),
        (lambda: Tristate("maybe", None, 3), "bad verdict"),
        (lambda: Tristate("yes", 4, 3), "witness stage beyond horizon"),
        (lambda: SearchParams(stage_max=-1), "bad search parameters"),
        (lambda: SearchParams(height_bound=0), "bad search parameters"),
        (lambda: K0Action(1, ((StageMap(1, 1, I1),),), ((),)), "stage maps must be contiguous from stage 0"),
        (lambda: FiniteSystem(2, ((1, 1),)), "permutation 0 is not a bijection of 1..2"),
        (lambda: BratteliDiagram((1, 1), ()), "expected 1 edge matrices for 2 levels, got 0"),
    ],
)
def test_checked_records_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_replace_checks_a_checked_record():
    """``_replace`` builds through the checking constructor."""
    with pytest.raises(ValueError, match=r"^stage maps must go forward"):
        StageMap(0, 1, I1)._replace(to_stage=-1)
    with pytest.raises(ValueError, match="^bad search parameters$"):
        PARAMS._replace(height_bound=0)
    word = Word.of(1, 2, 3)
    assert len(word) == 3
    assert word._replace(letters=(3, 2)) == Word.of(3, 2)


def test_replace_derives_changed_copies(cycle3_pair):
    """README's library example, then a changed copy of a witness, a state
    certificate and a verdict: one field differs, the original stands."""
    system, action = load_golden("compactified_shift.json").resolve()
    witness = find_positive_coboundary(system, action, SearchParams(stage_max=3, height_bound=2)).witness
    assert repr(witness.value) == str(witness.value) == "LimitElement(stage=2, vector=(0, 1, 0, 0, 0))"
    moved = witness._replace(height=5)
    assert (type(moved), moved.height, witness.height) == (Witness, 5, 1)
    assert moved[:3] + moved[4:] == witness[:3] + witness[4:]

    system, action = cycle3_pair
    cert = find_invariant_state(system, action, [LimitElement(0, (1, 0, 0))], [Word.of(1)], 4)
    scaled = cert._replace(unit_value=7)
    assert (type(scaled), scaled.unit_value, cert.unit_value) == (StateCertificate, 7, 3)
    assert scaled._asdict() == dict(cert._asdict(), unit_value=7)

    verdict = run_check(system, action, SearchParams())
    renamed = verdict._replace(kind="NONE_FOUND")
    assert (type(renamed), renamed.kind, verdict.kind) == (Verdict, "NONE_FOUND", "CONSISTENT")
    assert renamed._asdict() == dict(verdict._asdict(), kind="NONE_FOUND")


def test_matrices_and_stateful_systems_round_trip(shift_pair):
    """``IntMatrix`` pickles and copies through ``_of_nonzeros``, so a
    stage map, an action and a resolved system (its transfer cache
    filled) do too, and each copy is equal to its original."""
    system, action = shift_pair
    system.transfer(0, 2)
    matrix = system.transfer(0, 2)
    for original in (IntMatrix.identity(2), IntMatrix.zeros(0, 3), matrix, action.letter_map(1, 0), action, system):
        for clone in (pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
            assert type(clone) is type(original) and clone == original
    clone = pickle.loads(pickle.dumps(system))
    assert clone.transfer(0, 2) == matrix and clone.unit_at(2) == system.unit_at(2)
    with pytest.raises(AttributeError, match="^IntMatrix is immutable$"):
        copy.deepcopy(matrix).rows = 1
