from importlib import resources
from pathlib import Path

import pytest

from k0mf.bratteli import SystemDocument, parse
from k0mf.kaction import coboundary_generators, latest_letter_maps


GOLDEN_NAMES = [
    "minimal.json",
    "compactified_shift.json",
    "fibonacci_identity.json",
    "car_identity.json",
    "cycle3.json",
    "two_transpositions.json",
    "diamond.json",
]


def stage_generators(action, system, target):
    """The generators of H_t, from the target's ``latest_letter_maps``."""
    return coboundary_generators(system, latest_letter_maps(action, system, target), target)


def golden_path(name: str) -> Path:
    return Path(str(resources.files("k0mf").joinpath("data", name)))


def load_golden(name: str) -> SystemDocument:
    return parse(golden_path(name).read_bytes())


@pytest.fixture
def shift_doc() -> SystemDocument:
    return load_golden("compactified_shift.json")


@pytest.fixture
def shift_pair(shift_doc):
    return shift_doc.resolve()


@pytest.fixture
def cycle3_pair():
    return load_golden("cycle3.json").resolve()
