import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from parorbits import verify  # noqa: E402
from parorbits.fixtures import sweep_fixtures  # noqa: E402

from caches import clear_caches  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def sweep_reports():
    """Full-battery reports for every classical fixture up to rank 5."""
    return {fix.label: verify.verify_fixture(fix) for fix in sweep_fixtures(5, 5, 5, 5)}


@pytest.fixture
def cold():
    """Every library cache empty when the test starts, and again when it
    ends, so that nothing a patched helper computed outlives the test."""
    clear_caches()
    yield
    clear_caches()
