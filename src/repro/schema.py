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

Job-level keys that belong to no engine config (a check job's
``threads``, a fuzz job's ``batch``) are :class:`Option` maps bound by
:func:`options_of` and parsed by :func:`decode_keys`.  A field marked
``shardable=False`` shapes one exploration in a way prefix shards cannot
honour, so it has no spec key.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional

from repro.errors import ReproError

if TYPE_CHECKING:  # engines import this module; only the CLI needs argparse
    import argparse

_TYPE_NAMES = {str: "string", int: "integer", float: "number", bool: "boolean"}


@dataclass(frozen=True)
class Option:
    """The description of one job field.

    ``type`` is the value type (of each element when ``many``: a tuple
    on the config, a JSON list in a spec); ``optional`` admits None.
    ``key``/``flag`` default (``""``) to the field name and its dashed
    flag; None keeps the field out of specs / off the CLI.  ``noun``
    names a choice in errors; ``cli`` holds extra argparse keywords.
    ``name`` and ``default`` are bound from the field.
    """

    type: type = str
    many: bool = False
    optional: bool = False
    choices: Optional[tuple] = None
    noun: str = "value"
    help: Optional[str] = None
    key: Optional[str] = ""
    flag: Optional[str] = ""
    shardable: bool = True
    cli: Mapping[str, Any] = field(default_factory=dict)
    name: str = ""
    default: Any = field(default_factory=lambda: MISSING)

    def parse(self, value: object) -> object:
        """The config value of a spec value; raises on a malformed one."""
        if value is None and self.optional:
            return None
        if not self.many:
            return self._scalar(value)
        if not isinstance(value, list):
            raise ReproError(
                f"{self.key!r} must be a list of {_TYPE_NAMES[self.type]}s, "
                f"got {value!r}"
            )
        return tuple(self._scalar(item) for item in value)

    def _scalar(self, value: object) -> object:
        accepted = (int, float) if self.type is float else self.type
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and self.type is not bool
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
        return value

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


def option(default: Any = MISSING, **meta: Any) -> Any:
    """A dataclass field described by an :class:`Option` (``meta``)."""
    return field(default=default, metadata={"option": Option(**meta)})


def _bind(name: str, opt: Option, default: Any) -> Option:
    key = name if opt.key == "" else opt.key
    return replace(
        opt,
        name=name,
        default=default,
        key=key if opt.shardable else None,
        flag="--" + name.replace("_", "-") if opt.flag == "" else opt.flag,
    )


def options_of(**opts: Option) -> Dict[str, Option]:
    """Bind job-level options to their names (a MISSING default makes
    the key required)."""
    return {name: _bind(name, opt, opt.default) for name, opt in opts.items()}


def options(cls: type) -> Dict[str, Option]:
    """A config class's described fields, by field name, in order."""
    return {
        f.name: _bind(f.name, f.metadata["option"], f.default)
        for f in fields(cls)
        if "option" in f.metadata
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
    cls: type, spec: Mapping[str, object], extra: Iterable[str] = (), **fixed
) -> Any:
    """The validated ``cls`` config a JSON spec describes.

    ``extra`` names keys that belong to the caller (job-level keys, a
    shard task's coordinates); any other key that is not a spec key of
    ``cls`` is an error.  ``fixed`` sets fields that have no spec key.
    """
    opts = {n: o for n, o in options(cls).items() if o.key is not None}
    known = {opt.key for opt in opts.values()}.union(extra)
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ReproError(f"unknown key(s): {', '.join(unknown)}")
    config = cls(**decode_keys(opts, spec), **fixed)
    config.validate()
    return config


def encode(config: object) -> Dict[str, object]:
    """The JSON spec of a config: every spec-keyed field, in order."""
    spec = {}
    for opt in options(type(config)).values():
        if opt.key is not None:
            value = getattr(config, opt.name)
            spec[opt.key] = list(value) if opt.many else value
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
