"""One job description: config fields as the schema of every surface.

A config dataclass field declared with :func:`option` states once what
every surface needs to know about it: its JSON spec key, value type,
CLI flag, choices and help.  One codec drives each layer from that:

* :func:`decode` turns a JSON spec (a ``repro serve`` job, a shard
  task) into a validated config.  Unknown keys, wrong types (a bool is
  never an int, nor an int a bool), a string where a list belongs and
  values outside a field's choices raise :class:`~repro.errors.ReproError`
  naming the key; the config's ``validate()`` runs last.
* :func:`encode` writes the spec-keyed fields back: the
  result-determining part of a job, from which shard tasks (and so
  their store keys) are built.
* :func:`add_arguments` generates a subcommand's argparse block, with
  per-command overrides, and :func:`from_args` reads the config back.

The same codec reads and writes the payloads that cross process, store
and journal boundaries: fuzz case specs and outcomes with their recorded
violations (:mod:`repro.fuzz.campaign`), fault plans
(:mod:`repro.inject.plan`), corpus repro cases (:mod:`repro.fuzz.corpus`),
serve job records (:mod:`repro.serve.jobs`), and model-check violations
and stats (:mod:`repro.check`).  A field's type may be a described
dataclass (a nested JSON object), ``many`` may nest lists two deep (a
nested-crash schedule), and ``keyed`` makes it a JSON object of values
(counters, a job's spec and summary).  Each caller maps the codec's
:class:`~repro.errors.ReproError` to its own error type.

Job-level keys that belong to no engine config (a check job's
``threads``, a fuzz job's ``batch``) are :class:`Option` maps bound by
:func:`options_of` and parsed by :func:`decode_keys`.  A field marked
``shardable=False`` shapes one exploration in a way prefix shards cannot
honour, so it has no spec key.  A field marked ``settable=False`` has
no spec key and no flag either, but :func:`encode` still writes it
under its name, so the tasks built from a config (and their store keys)
record it; ``decode(..., task=True)`` reads it back.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ReproError

if TYPE_CHECKING:  # engines import this module; only the CLI needs argparse
    import argparse

_TYPE_NAMES = {
    str: "string", int: "integer", float: "number", bool: "boolean",
    object: "value",
}


@dataclass(frozen=True)
class Option:
    """The description of one job field.

    ``type`` is the value type: a JSON scalar type, ``object`` (any
    JSON value) or a described dataclass (a JSON object decoded through
    its own options).  ``many`` is the list depth (True: a tuple on the
    config, a JSON list in a spec; 2: a tuple of tuples); ``keyed``
    makes the value a dict of ``type`` values, a JSON object in a spec;
    ``optional`` admits None.  ``key``/``flag`` default (``""``) to the
    field name and its dashed flag; None keeps the field out of specs /
    off the CLI.  ``settable=False`` does both, yet keeps the field in
    encoded tasks (see the module docstring).  ``sparse`` leaves the
    field out of an encoding while it holds its default.  ``noun`` names
    a choice in errors; ``cli`` holds extra argparse keywords.  ``name``
    and ``default`` are bound from the field.
    """

    type: type = str
    many: int = False
    keyed: bool = False
    optional: bool = False
    choices: Optional[tuple] = None
    noun: str = "value"
    help: Optional[str] = None
    key: Optional[str] = ""
    flag: Optional[str] = ""
    shardable: bool = True
    settable: bool = True
    sparse: bool = False
    cli: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""
    default: Any = field(default_factory=lambda: MISSING)

    def parse(self, value: object) -> object:
        """The config value of a spec value; raises on a malformed one."""
        if value is None and self.optional:
            return None
        return self._parse(value, int(self.many))

    def unparse(self, value: object) -> object:
        """The spec value of a config value (the inverse of :meth:`parse`)."""
        if value is None:
            return None
        if self.keyed:
            return dict(value)
        return self._unparse(value, int(self.many))

    def _parse(self, value: object, depth: int) -> object:
        name = _TYPE_NAMES.get(self.type, "object")  # else a dataclass
        if depth:
            if not isinstance(value, list):
                raise ReproError(
                    f"{self.key!r} must be a list of {name}s, got {value!r}"
                )
            if depth == 1:
                return tuple(map(self._scalar, value))
            return tuple(self._parse(item, depth - 1) for item in value)
        if self.keyed:
            if not isinstance(value, dict):
                raise ReproError(
                    f"{self.key!r} must be an object of {name}s, "
                    f"got {value!r}"
                )
            return {key: self._scalar(item) for key, item in value.items()}
        return self._scalar(value)

    def _unparse(self, value: object, depth: int) -> object:
        nested = self.type not in _TYPE_NAMES
        if depth > 1 or (depth and nested):
            return [self._unparse(item, depth - 1) for item in value]
        if depth:
            return list(value)
        return encode(value) if nested else value

    def _scalar(self, value: object) -> object:
        if self.type not in _TYPE_NAMES:
            if not isinstance(value, dict):
                raise ReproError(
                    f"{self.key!r} must be an object, got {value!r}"
                )
            return self.type(**decode_keys(options(self.type), value))
        accepted = (int, float) if self.type is float else self.type
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and self.type in (int, float)
        ):
            name = _TYPE_NAMES[self.type]
            article = "an" if name[0] in "aeiou" else "a"
            raise ReproError(
                f"{self.key!r} must be {article} {name}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise ReproError(
                f"unknown {self.noun} {value!r} for {self.key!r}; "
                f"expected one of {list(self.choices)}"
            )
        return float(value) if self.type is float else value

    def argument(self, overrides: Mapping[str, Any]) -> tuple:
        """``(flag, add_argument keywords)`` of the field's CLI flag."""
        kwargs: Dict[str, Any] = {"help": self.help}
        if self.choices is not None:
            kwargs["choices"] = self.choices
        if self.type is bool:
            kwargs["action"] = "store_true"
        elif self.many:
            kwargs.update(nargs="+", default=None)
        elif self.default is not MISSING:
            kwargs["default"] = self.default
        if self.type not in (str, bool):
            kwargs["type"] = self.type
        kwargs.update(self.cli)
        kwargs.update(overrides)
        kwargs.setdefault("required", not {"default", "action"} & set(kwargs))
        flag = kwargs.pop("flag", self.flag)
        kwargs.setdefault("dest", flag.lstrip("-").replace("-", "_"))
        return flag, kwargs


def option(
    default: Any = MISSING, default_factory: Any = MISSING, **meta: Any
) -> Any:
    """A dataclass field described by an :class:`Option` (``meta``)."""
    return field(
        default=default,
        default_factory=default_factory,
        metadata={"option": Option(**meta)},
    )


def _bind(name: str, opt: Option, default: Any) -> Option:
    key = name if opt.key == "" else opt.key
    flag = "--" + name.replace("_", "-") if opt.flag == "" else opt.flag
    return replace(
        opt,
        name=name,
        default=default,
        key=key if opt.shardable and opt.settable else None,
        flag=flag if opt.settable else None,
    )


def options_of(**opts: Option) -> Dict[str, Option]:
    """Bind job-level options to their names (a MISSING default makes
    the key required)."""
    return {name: _bind(name, opt, opt.default) for name, opt in opts.items()}


@lru_cache(maxsize=None)
def _bound(cls: type) -> Tuple[Tuple[Option, Any], ...]:
    """``cls``'s described fields, bound, each with its default factory."""
    return tuple(
        (_bind(f.name, f.metadata["option"], f.default), f.default_factory)
        for f in fields(cls)
        if "option" in f.metadata
    )


def options(cls: type) -> Dict[str, Option]:
    """A config class's described fields, by field name, in order.

    A field with a default factory is bound to a fresh default on each
    call, so no two configs decoded from one binding share a mutable
    default.
    """
    return {
        opt.name: opt if factory is MISSING else replace(opt, default=factory())
        for opt, factory in _bound(cls)
    }


def decode_keys(
    opts: Mapping[str, Option], spec: Mapping[str, object]
) -> Dict[str, object]:
    """Parse the ``opts`` keys of ``spec``, by field name; absent keys
    take their defaults, and a missing required key raises."""
    values = {}
    for opt in opts.values():
        if opt.key in spec:
            values[opt.name] = opt.parse(spec[opt.key])
        elif opt.default is MISSING:
            raise ReproError(f"missing {opt.key!r}")
        else:
            values[opt.name] = opt.default
    return values


def decode(
    cls: type,
    spec: Mapping[str, object],
    extra: Iterable[str] = (),
    task: bool = False,
    **fixed,
) -> Any:
    """The validated ``cls`` config a JSON spec describes.

    ``extra`` names keys that belong to the caller (job-level keys, a
    shard task's coordinates); any other key that is not a spec key of
    ``cls`` is an error.  A ``task`` (what :func:`encode` wrote) also
    carries the fields that are not ``settable``.  ``fixed`` sets fields
    that have no spec key.
    """
    opts = {}
    for name, opt in options(cls).items():
        if task and not opt.settable:
            opt = replace(opt, key=name)
        if opt.key is not None:
            opts[name] = opt
    known = {opt.key for opt in opts.values()}.union(extra)
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ReproError(f"unknown key(s): {', '.join(unknown)}")
    config = cls(**decode_keys(opts, spec), **fixed)
    config.validate()
    return config


def encode(config: object) -> Dict[str, object]:
    """The JSON spec of a config: every spec-keyed field, and every
    field that is not settable (under its name), in order; a ``sparse``
    field only when it differs from its default."""
    spec = {}
    for opt in options(type(config)).values():
        key = opt.key if opt.settable else opt.name
        value = getattr(config, opt.name)
        if key is not None and not (opt.sparse and value == opt.default):
            spec[key] = opt.unparse(value)
    return spec


def add_arguments(
    parser: argparse.ArgumentParser,
    cls: type,
    extra: Mapping[str, Option] = {},
    **overrides: Mapping[str, Any],
) -> None:
    """Add the flags of the job-level ``extra`` options and of ``cls``'s
    fields; ``overrides`` maps a field name to the argparse keywords
    (``flag``, ``default``, ``choices``, ...) this command changes."""
    dests = {}
    for opt in [*extra.values(), *options(cls).values()]:
        if opt.flag is not None:
            flag, kwargs = opt.argument(overrides.get(opt.name, {}))
            parser.add_argument(flag, **kwargs)
            dests[opt.name] = kwargs["dest"]
    parser.set_defaults(schema_config=(cls, dests))


def from_args(args: argparse.Namespace, **fixed: object) -> Any:
    """The validated config of a command built by :func:`add_arguments`.

    ``fixed`` overrides parsed fields (presets such as ``--all-models``).
    An unset list flag keeps the field's default; a single-valued flag
    fills a one-item tuple.
    """
    cls, dests = args.schema_config
    opts = options(cls)
    values: Dict[str, object] = {}
    for name, dest in dests.items():
        value = getattr(args, dest)
        if value is None or name not in opts:
            continue
        if opts[name].many:
            value = (value,) if isinstance(value, str) else tuple(value)
        values[name] = value
    config = cls(**{**values, **fixed})
    config.validate()
    return config
