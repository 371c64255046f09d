import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Under CI (GitHub Actions sets CI), a failing draw also prints the blob
# that `@reproduce_failure` replays locally.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from defcalc.parser import parse_or_raise  # noqa: E402

PROGRAMS = ROOT / "programs"
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="session")
def programs_dir():
    return PROGRAMS


@pytest.fixture(scope="session")
def scripts_dir():
    return SCRIPTS


def load_program(name):
    return parse_or_raise((PROGRAMS / name).read_text(), str(PROGRAMS / name))


@pytest.fixture(scope="session")
def fig5():
    return load_program("fig5.dfc")


@pytest.fixture(scope="session")
def income_tax():
    return load_program("income_tax.dfc")


@pytest.fixture(scope="session")
def geo_match():
    return load_program("geo_match.dfc")


@pytest.fixture(scope="session")
def trivial_just():
    return load_program("trivial_just.dfc")


@pytest.fixture(scope="session")
def soft_money():
    return load_program("soft_money.dfc")


@pytest.fixture(scope="session")
def benefits_medium():
    return load_program("benefits_medium.dfc")
