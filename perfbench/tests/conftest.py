import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from workloads import load_lipbound  # noqa: E402


@pytest.fixture(scope="session")
def lb():
    return load_lipbound(BENCH.parent)
