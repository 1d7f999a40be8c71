import math
from pathlib import Path

import pytest
from hypothesis import settings

from rzspec import zeta as zeta_mod

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def zero_db():
    # every zero below 240 (102 of them), computed once for the whole suite
    return zeta_mod.extend_database(None, 240.0)


@pytest.fixture(scope="session")
def ref_db():
    # first 1000 published ordinates (ingestion path)
    return zeta_mod.ingest_zeros(DATA / "zeros_1000.txt")


@pytest.fixture(scope="session")
def t1(zero_db):
    return zero_db.records[0].t


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def approx_mod(value: float, target: float, period: float) -> float:
    """Distance between value and target modulo the period."""
    d = math.remainder(value - target, period)
    return abs(d)
