"""Makes the shared test helpers next to this file (``scan_reference``)
importable from every test directory, however pytest was invoked, and
provides the ``engine_roster`` fixture."""

import os
import sys

import pytest

_HERE = os.path.dirname(__file__)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)


@pytest.fixture
def engine_roster(monkeypatch):
    """Swap the process-wide engine roster for the rest of the test.

    ``engine_roster(specs)`` makes an
    :class:`~repro.matching.registry.EngineRegistry` of ``specs`` the one
    :func:`~repro.matching.registry.default_registry` returns and returns
    it; teardown restores the previous roster.  An engine reads the
    roster at construction and at every re-optimisation check, so build
    and drive each engine under the roster it should run on.
    """
    from repro.matching import registry

    def install(specs):
        roster = registry.EngineRegistry(specs)
        monkeypatch.setattr(registry, "_DEFAULT", roster)
        return roster

    return install
