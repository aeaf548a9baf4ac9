import collections

import pytest

from finmarkov import rep as R


class WindowLog(list):
    """(decider, arguments after the representation), one per decided window."""

    def counts(self) -> dict:
        """Calls per decider, after asserting that no window was decided twice."""
        assert len(set(self)) == len(self), self
        return dict(collections.Counter(name for name, _ in self))


@pytest.fixture
def window_decisions(monkeypatch):
    """Log every window a representation decides: each
    PointRep.relation_check call and each call of the rep functions that
    decide a tower intersection or an intertwining pair on its window."""
    log = WindowLog()

    def logged(name, orig):
        def wrapper(rep, *args):
            log.append((name, args))
            return orig(rep, *args)

        return wrapper

    monkeypatch.setattr(R.PointRep, "relation_check", logged("relation_check", R.PointRep.relation_check))
    for name in ("_tower_intersection", "_intertwining_failure"):
        monkeypatch.setattr(R, name, logged(name, getattr(R, name)))
    return log
