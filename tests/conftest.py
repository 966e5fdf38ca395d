import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# pyproject's pythonpath reaches this process only; child interpreters that run
# `python -m skewlie` find the package through PYTHONPATH.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

from skewlie import Involution, build_group, character_table


@pytest.fixture(scope="session")
def q8():
    return build_group("dicyclic:2")


@pytest.fixture(scope="session")
def s3():
    return build_group("symmetric:3")


@pytest.fixture(scope="session")
def c3():
    return build_group("cyclic:3")


@pytest.fixture(scope="session")
def q8_table(q8):
    return character_table(q8)


@pytest.fixture(scope="session")
def s3_table(s3):
    return character_table(s3)


@pytest.fixture(scope="session")
def c3_table(c3):
    return character_table(c3)


@pytest.fixture()
def canonical(request):
    def make(group):
        return Involution.canonical(group).validate()
    return make
