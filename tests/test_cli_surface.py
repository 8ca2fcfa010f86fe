"""Pin the CLI's argument surface.

One sha256 over every ``build_parser()`` action of every (nested)
subcommand: option strings, dest, default, type, choices, nargs,
required and action class.  Help text is deliberately excluded — it may
be reworded or shared between commands without changing what the CLI
accepts.  Positionals are kept in order (their order is part of the
surface); optionals are sorted (their order is only cosmetic).

When a change adds, removes or alters a flag on purpose, re-derive the
digest with ``surface_digest()`` and say why in the change log.
"""

import argparse
import hashlib
import json

from repro.cli import build_parser

CLI_SURFACE_SHA256 = (
    "fb511ab8916cfde0cac7c74998f0283395e3dc1a63037136c529b3ae671e3582"
)


def _describe(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "type": None if kind is None else getattr(kind, "__name__", repr(kind)),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
    }


def surface(parser: argparse.ArgumentParser, path=()) -> list:
    """Per-subcommand action records, depth first, subcommands sorted."""
    positionals, optionals, nested = [], [], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name in sorted(action.choices):
                nested += surface(action.choices[name], path + (name,))
            positionals.append({"subcommands": sorted(action.choices)})
        elif action.option_strings:
            optionals.append(_describe(action))
        else:
            positionals.append(_describe(action))
    optionals.sort(key=lambda row: (row["option_strings"], row["dest"]))
    return [{"command": list(path), "positionals": positionals,
             "optionals": optionals}] + nested


def surface_digest() -> str:
    canonical = json.dumps(surface(build_parser()), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_cli_surface_is_pinned():
    assert surface_digest() == CLI_SURFACE_SHA256


def test_surface_covers_every_subcommand():
    commands = {tuple(row["command"]) for row in surface(build_parser())}
    for path in [("check",), ("crashrec",), ("fuzz", "run"),
                 ("litmus", "run"), ("serve",), ("submit",)]:
        assert path in commands
