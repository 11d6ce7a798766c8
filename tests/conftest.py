import pathlib
from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from understory import load_corpus, load_schema_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Filled by the acceptance tests; echoed after the run so the verdicts
# survive output capture.
ACCEPTANCE_VERDICTS: list[str] = []


@settings(max_examples=1, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(st.text(min_size=1))
def _draw_text_once(_):
    pass


@pytest.fixture(scope="session", autouse=True)
def warm_text_draws():
    # Hypothesis builds its table of Unicode characters on the first text
    # draw and caches it under .hypothesis/.  With no cache that first draw
    # takes about 2 s, which the drawing test's health check counts as slow
    # input generation; drawing once before any test keeps it out of them.
    _draw_text_once()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


class CallCounter:
    """Calls of wrapped functions and methods, counted per name.

    `watch(owner, *names)` replaces each named attribute of `owner` (a
    module or a class) through monkeypatch with a wrapper that counts its
    calls under the attribute's name; `counts` starts every watched name
    at 0, and the originals come back when the test ends.  When `limit` is
    set, a call that takes the total over all watched names past it fails
    the test, so a run gone exponential stops at once.
    """

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch
        self.counts: dict[str, int] = {}
        self.limit: Optional[int] = None
        self._total = 0

    def watch(self, owner, *names: str) -> None:
        for name in names:
            self.counts[name] = 0
            self._monkeypatch.setattr(owner, name, self._counted(name, getattr(owner, name)))

    def _counted(self, name, original):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            self._total += 1
            if self.limit is not None and self._total > self.limit:
                raise AssertionError("more than %d watched calls" % self.limit)
            return original(*args, **kwargs)
        return counted

    def __getitem__(self, name: str) -> int:
        return self.counts[name]


@pytest.fixture
def calls(monkeypatch):
    return CallCounter(monkeypatch)


@pytest.fixture
def day_corpus():
    return load_corpus(fixture_path("day.events"))


@pytest.fixture
def morning_doc():
    return load_schema_file(fixture_path("morning.mps"))


@pytest.fixture
def pair_doc():
    return load_schema_file(fixture_path("pair.mps"))


@pytest.fixture
def pair_nolink_doc():
    return load_schema_file(fixture_path("pair_nolink.mps"))
