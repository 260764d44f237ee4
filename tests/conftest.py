import pytest

from pivotminors import PivotMinorCache


@pytest.fixture(scope="session")
def cache():
    """One containment cache shared by the whole run.  Every entry is a
    pure function of its key and of containment.ORBIT_LIMIT (a spent
    budget stores nothing inexact), so sharing across tests is safe as
    long as a test that patches a limit or a budget uses a fresh cache,
    never this one or containment.DEFAULT_CACHE."""
    return PivotMinorCache()
