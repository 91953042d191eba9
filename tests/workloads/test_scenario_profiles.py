"""Tests of the declarative scenario corpus.

Covers the loader (validation with key-path errors, inheritance,
round-trips), the registry (caching, name vs path discipline), the mix
groups, the pinned workloads of the paper's scenarios and
``FilterService.from_profile``.
"""

import hashlib
import textwrap
from dataclasses import replace

import pytest

from repro.core.errors import WorkloadError, WorkloadSpecError
from repro.workloads import build_workload
from repro.workloads.profiles import (
    PROFILES_DIR,
    dump_profile,
    get_profile,
    list_profiles,
    load_profile,
)
from repro.workloads.spec import MixGroup, WorkloadSpec

#: Pinned workload fingerprints (40 profiles / 80 events) per ported
#: scenario.  These freeze the *semantics* of the committed TOML files:
#: an edit that changes what the declarative corpus generates fails here.
WORKLOAD_FINGERPRINTS = {
    "stock-ticker": "56475fa785d66051",
    "environmental": "ae08d095eacb3c3a",
    "facility": "02f35e2204e02245",
    "single-attribute": "8ed1cf6181cfc176",
    "wide-range": "d5c6abc411433a5a",
    "mixed-structure": "e7cad156c3230cdb",
}


def _fingerprint(spec) -> str:
    workload = build_workload(spec)
    payload = "\n".join(
        [str(profile) for profile in workload.profiles]
        + [repr(sorted(event.values.items())) for event in workload.events]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _write(tmp_path, body, name="bad.toml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


_MINIMAL = """
    name = "bad"
    profile_count = 10
    event_count = 10
    seed = 1

    [schema.x]
    domain = "integer"
    low = 0
    high = 9

    [attributes.x]
"""


class TestRegistry:
    def test_corpus_spans_at_least_eight_profiles(self):
        names = list_profiles()
        assert len(names) >= 8
        assert set(WORKLOAD_FINGERPRINTS) <= set(names)

    def test_get_profile_is_cached(self):
        assert get_profile("stock-ticker") is get_profile("stock-ticker")

    def test_get_profile_rejects_unknown_names_and_paths(self):
        with pytest.raises(WorkloadSpecError) as excinfo:
            get_profile("no-such-profile")
        assert excinfo.value.key == "profile"
        assert "no-such-profile" in str(excinfo.value)
        with pytest.raises(WorkloadSpecError) as excinfo:
            get_profile("some/where.toml")
        assert "registry name, not a path" in str(excinfo.value)

    def test_load_profile_by_path_matches_registry(self):
        by_path = load_profile(PROFILES_DIR / "stock-ticker.toml")
        assert by_path == get_profile("stock-ticker")

    def test_missing_file_names_the_reference(self, tmp_path):
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(tmp_path / "nope.toml")
        assert "no such profile file" in str(excinfo.value)


class TestValidation:
    def test_unknown_top_level_key(self, tmp_path):
        path = _write(tmp_path, 'bogus = 1\n' + _MINIMAL)
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "bogus"
        assert "unknown key" in str(excinfo.value)

    def test_unknown_attribute_key(self, tmp_path):
        path = _write(tmp_path, _MINIMAL + "typo = 1\n")
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "attributes.x.typo"

    def test_unknown_distribution_names_the_key_path(self, tmp_path):
        path = _write(tmp_path, _MINIMAL + 'event_distribution = "zipf"\n')
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "attributes.x.event_distribution"
        assert "zipf" in str(excinfo.value)

    def test_attribute_missing_from_schema(self, tmp_path):
        path = _write(tmp_path, _MINIMAL + "\n[attributes.y]\n")
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "attributes.y"

    def test_range_predicate_on_discrete_domain(self, tmp_path):
        path = _write(
            tmp_path,
            """
            name = "bad"

            [schema.c]
            domain = "discrete"
            values = ["a", "b"]

            [attributes.c]
            predicate = "range"
            """,
        )
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "attributes.c.predicate"

    @pytest.mark.parametrize(
        ("engine_table", "key", "message"),
        [
            ("shard_count = 4", "engine.shard_count", "unknown key"),
            ('families = ["sharded"]', "engine.families", "unknown engine 'sharded'"),
            ('families = ["index", "hybrid"]', "engine.families", "unknown engine 'hybrid'"),
            ('engine = "hybrid"', "engine.engine", "unknown engine 'hybrid'"),
            ('families = ["tree", "indx"]', "engine.families", "unknown engine 'indx'"),
            ('engine = "sharded"', "engine.engine", "unknown engine 'sharded'"),
            ("min_columnar_batch = 4", "engine.min_columnar_batch", "unknown key"),
            ("reoptimize_interval = 0", "engine.reoptimize_interval", "must be positive"),
            (
                "improvement_threshold = 1.5",
                "engine.improvement_threshold",
                "must lie in [0, 1)",
            ),
            ("warmup_events = -3", "engine.warmup_events", "must be non-negative"),
        ],
        ids=[
            "leftover-knob",
            "retired-family",
            "retired-hybrid-family",
            "retired-hybrid-engine",
            "typo-family",
            "retired-engine",
            "retired-knob",
            "zero-interval",
            "threshold-above-one",
            "negative-warmup",
        ],
    )
    def test_stale_engine_hints_are_rejected_at_load(self, tmp_path, engine_table, key, message):
        path = _write(tmp_path, _MINIMAL + f"\n[engine]\n{engine_table}\n")
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == key
        assert message in str(excinfo.value)

    @pytest.mark.parametrize(
        ("engine_table", "engine", "families"),
        [
            ('engine = "naive"\nfamilies = ["naive"]', "naive", ("naive",)),
            ('families = ["tree", "naive", "auto"]', "auto", ("tree", "naive", "auto")),
        ],
        ids=["baseline-family", "auto-in-families"],
    )
    def test_every_registered_engine_name_loads(self, tmp_path, engine_table, engine, families):
        """The check is the registry's roster, not the default families."""
        path = _write(tmp_path, _MINIMAL + f"\n[engine]\n{engine_table}\n")
        hints = load_profile(path).engine
        assert (hints.engine, hints.families) == (engine, families)

    @pytest.mark.parametrize("mode", ["pigeon", "asyncio"], ids=["typo", "retired"])
    def test_unknown_delivery_mode(self, tmp_path, mode):
        path = _write(tmp_path, _MINIMAL + f'\n[run]\ndelivery = "{mode}"\n')
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "run.delivery"
        assert "['inline', 'threadpool']" in str(excinfo.value)

    def test_type_errors_name_the_key(self, tmp_path):
        path = _write(tmp_path, _MINIMAL.replace("profile_count = 10", 'profile_count = "ten"'))
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "profile_count"
        # Booleans are not integers even though bool subclasses int.
        path = _write(
            tmp_path,
            _MINIMAL.replace("profile_count = 10", "profile_count = true"),
            name="bool.toml",
        )
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(path)
        assert excinfo.value.key == "profile_count"

    def test_cyclic_extends_is_reported_with_the_chain(self, tmp_path):
        _write(tmp_path, 'name = "a"\nextends = "b.toml"\n', name="a.toml")
        _write(tmp_path, 'name = "b"\nextends = "a.toml"\n', name="b.toml")
        with pytest.raises(WorkloadSpecError) as excinfo:
            load_profile(tmp_path / "a.toml")
        assert excinfo.value.key == "extends"
        assert "cyclic extends chain" in str(excinfo.value)


class TestInheritance:
    def test_flash_crowd_extends_stock_ticker(self):
        child = get_profile("flash-crowd")
        parent = get_profile("stock-ticker")
        assert child.extends == "stock-ticker"
        # Identity and the swept knobs are the child's own...
        assert child.name == "flash-crowd"
        assert child.spec.profile_count != parent.spec.profile_count
        assert child.run.churn_rate > 0.0 and parent.run.churn_rate == 0.0
        # ...while the scenario structure is inherited verbatim.
        assert child.spec.schema == parent.spec.schema
        assert child.spec.attributes == parent.spec.attributes

    def test_child_keys_win_and_unset_keys_inherit(self, tmp_path):
        _write(
            tmp_path,
            _MINIMAL + "\n[run]\nbatch_size = 7\nchurn_rate = 0.25\n",
            name="base.toml",
        )
        child = load_profile(
            _write(
                tmp_path,
                'extends = "base.toml"\nseed = 99\n\n[run]\nchurn_rate = 0.5\n',
                name="child.toml",
            )
        )
        assert child.spec.seed == 99
        assert child.spec.profile_count == 10  # inherited
        assert child.run.batch_size == 7  # inherited table key
        assert child.run.churn_rate == 0.5  # overridden table key
        # A name is never inherited: the child falls back to its file stem.
        assert child.name == "child"


class TestRoundTrip:
    @pytest.mark.parametrize("name", list_profiles())
    def test_dump_then_load_is_identity(self, name, tmp_path):
        original = get_profile(name)
        path = tmp_path / f"{name}.toml"
        dump_profile(original, path)
        assert load_profile(path) == original


class TestMixGroups:
    def test_social_fanout_declares_two_groups(self):
        spec = get_profile("social-fanout").spec
        groups = {group.name: group for group in spec.mix}
        assert set(groups) == {"firehose", "alerts"}
        assert groups["firehose"].weight == pytest.approx(0.8)

    def test_mixed_generation_is_deterministic(self):
        spec = get_profile("social-fanout").spec.with_counts(
            profile_count=50, event_count=20
        )
        first = build_workload(spec)
        second = build_workload(spec)
        assert [str(p) for p in first.profiles] == [str(p) for p in second.profiles]

    def test_mix_group_validation(self):
        with pytest.raises(WorkloadError):
            MixGroup(name="bad", weight=0.0)
        base = get_profile("single-attribute").spec
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name=base.name,
                schema=base.schema,
                attributes=base.attributes,
                mix=(MixGroup(name="g"), MixGroup(name="g")),
            )


@pytest.mark.parametrize("name", sorted(WORKLOAD_FINGERPRINTS))
def test_generated_workloads_are_pinned(name):
    spec = get_profile(name).spec.with_counts(profile_count=40, event_count=80)
    assert _fingerprint(spec) == WORKLOAD_FINGERPRINTS[name], (
        f"the committed {name!r} profile no longer generates its pinned "
        "workload; if the change is deliberate, update the pinned fingerprint"
    )


class TestSpecChain:
    """``get_profile(name).spec.with_*`` is the one way to size and
    reseed a scenario: each step changes its own knob and nothing else."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_FINGERPRINTS))
    def test_with_counts_changes_only_the_counts(self, name):
        declared = get_profile(name).spec
        sized = declared.with_counts(profile_count=7, event_count=11)
        assert (sized.profile_count, sized.event_count) == (7, 11)
        assert replace(
            sized, profile_count=declared.profile_count, event_count=declared.event_count
        ) == declared
        assert declared.with_counts(event_count=11).profile_count == declared.profile_count

    @pytest.mark.parametrize("name", sorted(WORKLOAD_FINGERPRINTS))
    def test_reseeding_moves_only_the_generated_values(self, name):
        spec = get_profile(name).spec.with_counts(profile_count=40, event_count=80)
        assert spec.with_seed(spec.seed) == spec
        assert _fingerprint(spec.with_seed(spec.seed)) == WORKLOAD_FINGERPRINTS[name]
        reseeded = spec.with_seed(spec.seed + 1)
        assert replace(reseeded, seed=spec.seed) == spec
        assert _fingerprint(reseeded) != WORKLOAD_FINGERPRINTS[name]


class TestFromProfile:
    def test_engine_hints_and_delivery_are_applied(self):
        from repro.api import FilterService

        with FilterService.from_profile("smart-building") as service:
            assert service.stats().engine == "tree"
        with FilterService.from_profile("social-fanout") as service:
            assert service.stats().delivery.mode == "threadpool"

    def test_engine_override_and_profile_instance(self):
        from repro.api import FilterService

        profile = get_profile("smart-building")
        with FilterService.from_profile(profile, engine="index") as service:
            assert service.stats().engine == "index"

    def test_pinned_policy_knobs_reach_the_policy(self):
        from repro.api import FilterService

        hints = get_profile("aml-transactions").engine
        with FilterService.from_profile("aml-transactions") as service:
            assert service.stats().engine == "index"
            policy = service.policy
            assert policy.reoptimize_interval == hints.reoptimize_interval
            assert policy.warmup_events == hints.warmup_events
            assert policy.improvement_threshold == hints.improvement_threshold
