"""Loading, validating and dumping declarative scenario profiles.

Profiles are TOML (or YAML, when PyYAML is importable) documents::

    name = "stock-ticker"
    description = "Peaked prices against narrow-band subscriptions"
    profile_count = 500
    event_count = 2000
    seed = 11

    [schema.price]
    domain = "integer"
    low = 0
    high = 199

    [attributes.price]
    event_distribution = "gauss"
    profile_distribution = "95% high"

    [run]
    batch_size = 250

    [engine]
    engine = "index"
    families = ["tree", "index"]

Every key is validated on load and failures raise
:class:`~repro.core.errors.WorkloadSpecError` carrying the dotted path of
the offending key (``attributes.price.event_distribution: unknown
distribution ...``), so a malformed corpus file points at itself.

``extends = "base"`` resolves another profile (by registry name or by
path relative to the extending file) and deep-merges the child over it:
child scalars and lists win, tables merge key-by-key, and ``name`` /
``description`` are identity rather than inheritance — they never flow
from the base.  Cycles are detected and rejected.

The registry is the directory of this package: every committed
``*.toml`` (not underscore-prefixed) is a named corpus profile,
discoverable via :func:`list_profiles` and loadable via
:func:`get_profile`; :func:`load_profile` additionally accepts
filesystem paths for out-of-tree profiles.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Any, Mapping

try:  # Python 3.11+
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - py3.10 fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

try:
    import yaml as _yaml
except ModuleNotFoundError:  # pragma: no cover - PyYAML is optional
    _yaml = None

from repro.core.domains import ContinuousDomain, DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import (
    DistributionError,
    DomainError,
    MatchingError,
    SchemaError,
    ServiceError,
    WorkloadError,
    WorkloadSpecError,
)
from repro.core.schema import Attribute, Schema
from repro.distributions.library import make_distribution
from repro.matching.registry import engine_family
from repro.workloads.profiles.model import (
    DEFAULT_FAMILIES,
    EngineHints,
    RunShape,
    ScenarioProfile,
)
from repro.workloads.spec import AttributeSpec, MixGroup, WorkloadSpec

__all__ = [
    "PROFILES_DIR",
    "dump_profile",
    "get_profile",
    "list_profiles",
    "load_profile",
]

#: Directory holding the committed corpus (this package's own directory).
PROFILES_DIR = Path(__file__).resolve().parent

_SUFFIXES = (".toml", ".yaml", ".yml")

_TOP_LEVEL_KEYS = {
    "name",
    "description",
    "extends",
    "profile_count",
    "event_count",
    "seed",
    "schema",
    "attributes",
    "mix",
    "run",
    "engine",
}
_SCHEMA_KEYS = {"domain", "low", "high", "values", "pattern", "count", "unit", "description"}
_ATTRIBUTE_KEYS = {field.name for field in dataclass_fields(AttributeSpec)}
_MIX_KEYS = {"weight", "attributes"}
_RUN_KEYS = {field.name for field in dataclass_fields(RunShape)}
_ENGINE_KEYS = {field.name for field in dataclass_fields(EngineHints)}

_CACHE: dict[str, ScenarioProfile] = {}


# -- typed accessors ----------------------------------------------------------


def _check_table(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise WorkloadSpecError(path, f"expected a table, got {type(value).__name__}")
    return dict(value)


def _check_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise WorkloadSpecError(path, f"expected a string, got {value!r}")
    return value


def _check_engine_name(value: Any, path: str) -> str:
    name = _check_string(value, path)
    try:
        engine_family(name)
    except MatchingError as exc:
        raise WorkloadSpecError(path, str(exc)) from exc
    return name


def _check_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkloadSpecError(path, f"expected an integer, got {value!r}")
    return value


def _check_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadSpecError(path, f"expected a number, got {value!r}")
    return float(value)


def _reject_unknown_keys(table: Mapping, allowed: set[str], path: str) -> None:
    for key in table:
        if key not in allowed:
            raise WorkloadSpecError(
                f"{path}.{key}" if path else str(key),
                f"unknown key (expected one of {sorted(allowed)})",
            )


# -- document reading and inheritance -----------------------------------------


def _read_document(path: Path) -> dict:
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if _toml is None:  # pragma: no cover - py3.10 without tomli
            raise WorkloadSpecError(
                str(path),
                "reading TOML profiles needs tomllib (Python 3.11+) or the "
                "tomli package; install tomli or use a YAML profile",
            )
        try:
            with open(path, "rb") as handle:
                document = _toml.load(handle)
        except _toml.TOMLDecodeError as exc:
            raise WorkloadSpecError(str(path), f"invalid TOML: {exc}") from exc
    elif suffix in (".yaml", ".yml"):
        if _yaml is None:
            raise WorkloadSpecError(
                str(path),
                "reading YAML profiles needs the PyYAML package; install "
                "pyyaml or use a TOML profile",
            )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = _yaml.safe_load(handle)
        except _yaml.YAMLError as exc:
            raise WorkloadSpecError(str(path), f"invalid YAML: {exc}") from exc
    else:
        raise WorkloadSpecError(
            str(path), f"unsupported profile suffix {suffix!r} (expected {list(_SUFFIXES)})"
        )
    return _check_table(document, str(path))


def _looks_like_path(reference: str) -> bool:
    if os.sep in reference or "/" in reference:
        return True
    return reference.lower().endswith(_SUFFIXES)


def _locate(reference: str, *, relative_to: Path | None, key: str) -> Path:
    """Resolve a profile reference (registry name or file path) to a path."""
    if _looks_like_path(reference):
        path = Path(reference)
        if not path.is_absolute() and relative_to is not None:
            path = relative_to / path
        if not path.is_file():
            raise WorkloadSpecError(key, f"no such profile file: {reference}")
        return path
    for suffix in _SUFFIXES:
        candidate = PROFILES_DIR / f"{reference}{suffix}"
        if candidate.is_file():
            return candidate
    raise WorkloadSpecError(
        key,
        f"unknown profile {reference!r}; available: {', '.join(list_profiles())}",
    )


def _merge(base: Mapping, child: Mapping) -> dict:
    """Deep-merge ``child`` over ``base``: tables merge, scalars/lists win."""
    merged = dict(base)
    for key, value in child.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _resolve_document(path: Path, seen: tuple[Path, ...]) -> dict:
    resolved = path.resolve()
    if resolved in seen:
        chain = " -> ".join(p.stem for p in (*seen, resolved))
        raise WorkloadSpecError("extends", f"cyclic extends chain: {chain}")
    document = _read_document(path)
    extends = document.get("extends")
    if extends is None:
        return document
    base_path = _locate(_check_string(extends, "extends"), relative_to=path.parent, key="extends")
    base = _resolve_document(base_path, (*seen, resolved))
    # Identity never flows from the base: an extending profile is a new
    # scenario, not an alias, so it states its own name and description.
    base.pop("name", None)
    base.pop("description", None)
    child = {key: value for key, value in document.items() if key != "extends"}
    return _merge(base, child)


# -- section builders ---------------------------------------------------------


def _build_domain(table: Mapping, path: str) -> Domain:
    table = _check_table(table, path)
    _reject_unknown_keys(table, _SCHEMA_KEYS, path)
    kind = _check_string(table.get("domain"), f"{path}.domain") if "domain" in table else None
    if kind is None:
        raise WorkloadSpecError(f"{path}.domain", "required (integer, continuous or discrete)")
    try:
        if kind == "integer":
            for bound in ("low", "high"):
                if bound not in table:
                    raise WorkloadSpecError(f"{path}.{bound}", "required for integer domains")
            return IntegerDomain(
                _check_int(table["low"], f"{path}.low"),
                _check_int(table["high"], f"{path}.high"),
            )
        if kind == "continuous":
            for bound in ("low", "high"):
                if bound not in table:
                    raise WorkloadSpecError(f"{path}.{bound}", "required for continuous domains")
            return ContinuousDomain(
                _check_number(table["low"], f"{path}.low"),
                _check_number(table["high"], f"{path}.high"),
            )
        if kind == "discrete":
            values = table.get("values")
            pattern = table.get("pattern")
            if (values is None) == (pattern is None):
                raise WorkloadSpecError(
                    f"{path}.values",
                    "discrete domains take either 'values' or 'pattern' + 'count'",
                )
            if pattern is not None:
                pattern = _check_string(pattern, f"{path}.pattern")
                if "count" not in table:
                    raise WorkloadSpecError(f"{path}.count", "required alongside 'pattern'")
                count = _check_int(table["count"], f"{path}.count")
                if count < 1:
                    raise WorkloadSpecError(f"{path}.count", "must be at least 1")
                values = [pattern.format(i=i) for i in range(count)]
            elif not isinstance(values, list) or not values:
                raise WorkloadSpecError(f"{path}.values", "expected a non-empty list")
            return DiscreteDomain(values)
    except DomainError as exc:
        raise WorkloadSpecError(path, str(exc)) from exc
    raise WorkloadSpecError(
        f"{path}.domain",
        f"unknown domain kind {kind!r} (expected 'integer', 'continuous' or 'discrete')",
    )


def _build_schema(table: Mapping, path: str) -> Schema:
    table = _check_table(table, path)
    if not table:
        raise WorkloadSpecError(path, "a profile needs at least one schema attribute")
    attributes = []
    for name, entry in table.items():
        entry_path = f"{path}.{name}"
        entry = _check_table(entry, entry_path)
        domain = _build_domain(entry, entry_path)
        unit = entry.get("unit")
        description = entry.get("description")
        if unit is not None:
            unit = _check_string(unit, f"{entry_path}.unit")
        if description is not None:
            description = _check_string(description, f"{entry_path}.description")
        try:
            attributes.append(Attribute(name, domain, unit=unit, description=description))
        except SchemaError as exc:
            raise WorkloadSpecError(entry_path, str(exc)) from exc
    try:
        return Schema(attributes)
    except SchemaError as exc:
        raise WorkloadSpecError(path, str(exc)) from exc


def _build_attribute_spec(table: Mapping, path: str, schema: Schema, name: str) -> AttributeSpec:
    if name not in schema:
        raise WorkloadSpecError(
            path,
            f"not declared in [schema] (schema attributes: {list(schema.names)})",
        )
    table = _check_table(table, path)
    _reject_unknown_keys(table, _ATTRIBUTE_KEYS, path)
    kwargs: dict[str, Any] = {}
    for key, value in table.items():
        if key in ("event_distribution", "profile_distribution", "predicate"):
            kwargs[key] = _check_string(value, f"{path}.{key}")
        else:
            kwargs[key] = _check_number(value, f"{path}.{key}")
    try:
        spec = AttributeSpec(**kwargs)
    except WorkloadError as exc:
        raise WorkloadSpecError(path, str(exc)) from exc
    domain = schema.attribute(name).domain
    for side in ("event_distribution", "profile_distribution"):
        try:
            make_distribution(getattr(spec, side), domain)
        except DistributionError as exc:
            raise WorkloadSpecError(f"{path}.{side}", str(exc)) from exc
    if spec.predicate in ("range", "mixed") and isinstance(domain, DiscreteDomain):
        raise WorkloadSpecError(
            f"{path}.predicate",
            f"{spec.predicate!r} predicates need an ordered domain, but "
            f"schema.{name} is discrete",
        )
    return spec


def _build_mix(table: Mapping, path: str, schema: Schema) -> tuple[MixGroup, ...]:
    table = _check_table(table, path)
    groups = []
    for group_name, entry in table.items():
        group_path = f"{path}.{group_name}"
        entry = _check_table(entry, group_path)
        _reject_unknown_keys(entry, _MIX_KEYS, group_path)
        weight = _check_number(entry.get("weight", 1.0), f"{group_path}.weight")
        overrides = {
            attr: _build_attribute_spec(spec, f"{group_path}.attributes.{attr}", schema, attr)
            for attr, spec in _check_table(
                entry.get("attributes", {}), f"{group_path}.attributes"
            ).items()
        }
        try:
            groups.append(MixGroup(name=group_name, weight=weight, attributes=overrides))
        except WorkloadError as exc:
            raise WorkloadSpecError(group_path, str(exc)) from exc
    return tuple(groups)


def _build_run(table: Mapping, path: str) -> RunShape:
    table = _check_table(table, path)
    _reject_unknown_keys(table, _RUN_KEYS, path)
    kwargs: dict[str, Any] = {}
    if "batch_size" in table:
        kwargs["batch_size"] = _check_int(table["batch_size"], f"{path}.batch_size")
    if "delivery" in table:
        kwargs["delivery"] = _check_string(table["delivery"], f"{path}.delivery")
    if "churn_rate" in table:
        kwargs["churn_rate"] = _check_number(table["churn_rate"], f"{path}.churn_rate")
    return RunShape(**kwargs)


def _build_engine(table: Mapping, path: str) -> EngineHints:
    table = _check_table(table, path)
    _reject_unknown_keys(table, _ENGINE_KEYS, path)
    kwargs: dict[str, Any] = {}
    if "engine" in table:
        kwargs["engine"] = _check_engine_name(table["engine"], f"{path}.engine")
    if "families" in table:
        families = table["families"]
        if not isinstance(families, list):
            raise WorkloadSpecError(f"{path}.families", "expected a list of family names")
        kwargs["families"] = tuple(
            _check_engine_name(family, f"{path}.families") for family in families
        )
    for knob in ("reoptimize_interval", "warmup_events"):
        if knob in table:
            kwargs[knob] = _check_int(table[knob], f"{path}.{knob}")
    if "improvement_threshold" in table:
        kwargs["improvement_threshold"] = _check_number(
            table["improvement_threshold"], f"{path}.improvement_threshold"
        )
    hints = EngineHints(**kwargs)
    # The policy owns the range rules: build the one each pinned knob
    # describes, so a bad value fails here, at its key.  Imported here:
    # the service layer imports this package.
    from repro.service.adaptive import AdaptationPolicy

    for knob, value in hints.policy_overrides().items():
        try:
            AdaptationPolicy(**{knob: value})
        except ServiceError as exc:
            raise WorkloadSpecError(f"{path}.{knob}", str(exc)) from exc
    return hints


def _build_profile(document: Mapping, *, default_name: str, source: Path | None) -> ScenarioProfile:
    _reject_unknown_keys(document, _TOP_LEVEL_KEYS, "")
    if "schema" not in document:
        raise WorkloadSpecError("schema", "required: a profile declares its schema")
    schema = _build_schema(document["schema"], "schema")
    attributes = {
        name: _build_attribute_spec(table, f"attributes.{name}", schema, name)
        for name, table in _check_table(
            document.get("attributes", {}), "attributes"
        ).items()
    }
    mix = _build_mix(document.get("mix", {}), "mix", schema)
    name = _check_string(document.get("name", default_name), "name")
    kwargs: dict[str, Any] = {}
    for count_key in ("profile_count", "event_count", "seed"):
        if count_key in document:
            kwargs[count_key] = _check_int(document[count_key], count_key)
    try:
        spec = WorkloadSpec(name=name, schema=schema, attributes=attributes, mix=mix, **kwargs)
    except WorkloadError as exc:
        raise WorkloadSpecError("profile", str(exc)) from exc
    description = _check_string(document.get("description", ""), "description")
    extends = document.get("extends")
    return ScenarioProfile(
        name=name,
        spec=spec,
        run=_build_run(document.get("run", {}), "run"),
        engine=_build_engine(document.get("engine", {}), "engine"),
        description=description,
        extends=extends if isinstance(extends, str) else None,
        source=source,
    )


# -- public API ---------------------------------------------------------------


def list_profiles() -> tuple[str, ...]:
    """Return the names of the committed corpus profiles, sorted.

    Underscore-prefixed files are bases for ``extends`` chains, not
    runnable scenarios, and stay out of the listing.
    """
    names = {
        path.stem
        for suffix in _SUFFIXES
        for path in PROFILES_DIR.glob(f"*{suffix}")
        if not path.stem.startswith("_")
    }
    return tuple(sorted(names))


def load_profile(name_or_path: str | os.PathLike) -> ScenarioProfile:
    """Load and validate one scenario profile.

    ``name_or_path`` is either the name of a committed corpus profile
    (see :func:`list_profiles`) or a filesystem path to a profile file
    anywhere.  Inheritance (``extends``) is resolved, every key is
    validated, and failures raise
    :class:`~repro.core.errors.WorkloadSpecError` naming the offending
    key path.
    """
    reference = os.fspath(name_or_path)
    if isinstance(name_or_path, os.PathLike) or _looks_like_path(reference):
        path = Path(reference)
        if not path.is_file():
            raise WorkloadSpecError("profile", f"no such profile file: {reference}")
    else:
        path = _locate(reference, relative_to=None, key="profile")
    extends = _read_document(path).get("extends")
    document = _resolve_document(path, ())
    profile = _build_profile(document, default_name=path.stem, source=path)
    if isinstance(extends, str):
        profile = ScenarioProfile(
            name=profile.name,
            spec=profile.spec,
            run=profile.run,
            engine=profile.engine,
            description=profile.description,
            extends=extends,
            source=path,
        )
    return profile


def get_profile(name: str) -> ScenarioProfile:
    """Return a committed corpus profile by name (cached per process)."""
    if _looks_like_path(name):
        raise WorkloadSpecError(
            "profile", f"get_profile takes a registry name, not a path: {name!r}"
        )
    if name not in _CACHE:
        _CACHE[name] = load_profile(name)
    return _CACHE[name]


# -- dumping ------------------------------------------------------------------


def _toml_value(value: object) -> str:
    if isinstance(value, str):
        return json.dumps(value)  # JSON string escapes are valid TOML
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise WorkloadSpecError("dump", f"cannot serialise {value!r} to TOML")


def _domain_lines(domain: Domain) -> list[str]:
    if isinstance(domain, IntegerDomain):
        return ['domain = "integer"', f"low = {domain.low}", f"high = {domain.high}"]
    if isinstance(domain, ContinuousDomain):
        return [
            'domain = "continuous"',
            f"low = {_toml_value(domain.low)}",
            f"high = {_toml_value(domain.high)}",
        ]
    if isinstance(domain, DiscreteDomain):
        return ['domain = "discrete"', f"values = {_toml_value(list(domain.ordered_values))}"]
    raise WorkloadSpecError("dump", f"cannot serialise domain {domain!r}")


def _attribute_spec_lines(spec: AttributeSpec) -> list[str]:
    return [
        f"{field.name} = {_toml_value(getattr(spec, field.name))}"
        for field in dataclass_fields(AttributeSpec)
    ]


def dump_profile(profile: ScenarioProfile, path: str | os.PathLike) -> Path:
    """Write ``profile`` as a fully-resolved TOML document.

    Inheritance is flattened on write (the output carries no
    ``extends``), and loading the written file yields a profile equal to
    ``profile`` — the round-trip contract the loader tests pin.
    """
    spec = profile.spec
    lines = [f"name = {_toml_value(profile.name)}"]
    if profile.description:
        lines.append(f"description = {_toml_value(profile.description)}")
    lines += [
        f"profile_count = {spec.profile_count}",
        f"event_count = {spec.event_count}",
        f"seed = {spec.seed}",
    ]
    for attribute in spec.schema:
        lines += ["", f"[schema.{attribute.name}]", *_domain_lines(attribute.domain)]
        if attribute.unit is not None:
            lines.append(f"unit = {_toml_value(attribute.unit)}")
        if attribute.description is not None:
            lines.append(f"description = {_toml_value(attribute.description)}")
    for name, attribute_spec in spec.attributes.items():
        lines += ["", f"[attributes.{name}]", *_attribute_spec_lines(attribute_spec)]
    for group in spec.mix:
        lines += ["", f"[mix.{group.name}]", f"weight = {_toml_value(group.weight)}"]
        for name, attribute_spec in group.attributes.items():
            lines += [
                "",
                f"[mix.{group.name}.attributes.{name}]",
                *_attribute_spec_lines(attribute_spec),
            ]
    run = profile.run
    lines += [
        "",
        "[run]",
        f"batch_size = {run.batch_size}",
        f"delivery = {_toml_value(run.delivery)}",
        f"churn_rate = {_toml_value(run.churn_rate)}",
    ]
    hints = profile.engine
    lines += [
        "",
        "[engine]",
        f"engine = {_toml_value(hints.engine)}",
        f"families = {_toml_value(hints.families)}",
    ]
    for knob, value in hints.policy_overrides().items():
        lines.append(f"{knob} = {_toml_value(value)}")
    target = Path(path)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target
