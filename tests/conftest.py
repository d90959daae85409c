"""Fixtures shared by the test modules."""

import pytest

from qzeta.store import Store


@pytest.fixture(scope="session")
def store():
    """One memory-only form store for the whole run, so each form is built once."""
    return Store()
