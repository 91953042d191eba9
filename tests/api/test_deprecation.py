"""The legacy entry points keep working behind warn-once shims."""

import warnings

from repro.core.deprecation import reset_warnings, warn_once, warned_keys
from repro.service.broker import Broker
from repro.workloads import environmental_schema


def collect_deprecations(callable_, *, repeat: int = 2) -> list[warnings.WarningMessage]:
    """Run ``callable_`` ``repeat`` times recording every DeprecationWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(repeat):
            callable_()
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestWarnOnce:
    def test_second_call_is_silent(self):
        reset_warnings("test.key")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert warn_once("test.key", "gone soon")
            assert not warn_once("test.key", "gone soon")
        assert len(caught) == 1
        assert "test.key" in warned_keys()
        reset_warnings("test.key")


class TestBrokerEngineKwargShim:
    def test_engine_kwarg_works_and_warns_exactly_once(self):
        reset_warnings("repro.service.broker.Broker.engine")
        schema = environmental_schema()

        def construct():
            broker = Broker(schema, engine="index")
            assert broker.adaptation_policy.engine == "index"

        emitted = collect_deprecations(construct)
        assert len(emitted) == 1
        assert "FilterService" in str(emitted[0].message)

    def test_policy_route_never_warns(self):
        from repro.api import AdaptationPolicy

        reset_warnings("repro.service.broker.Broker.engine")
        emitted = collect_deprecations(
            lambda: Broker(
                environmental_schema(),
                adaptation_policy=AdaptationPolicy(engine="index"),
            )
        )
        assert emitted == []
