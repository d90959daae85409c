"""Fixtures shared by the test modules."""

import pytest

from qzeta.store import Store


@pytest.fixture(scope="session")
def store():
    """One memory-only form store for the whole run, so each form is built once."""
    return Store()


@pytest.fixture(scope="session", autouse=True)
def golden_trace(request, tmp_path_factory):
    """test_hygiene's traced run of the golden cases, a child process started
    with the session when its test is selected, so that it runs beside the
    other tests instead of before that one."""
    reader = "test_every_statement_runs_under_a_golden_case"
    if not any(item.name == reader for item in request.session.items):
        yield None
        return
    from test_hygiene import start_golden_trace

    with start_golden_trace(tmp_path_factory.mktemp("golden-trace")) as child:
        yield child
