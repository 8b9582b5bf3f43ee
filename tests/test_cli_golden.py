"""Golden-output tests for the ``repro`` command line.

Every covered subcommand runs at a tiny scale and its exit code, stdout,
stderr and CSV are compared byte-for-byte against a committed golden
file under ``tests/golden/``.  Only temporary paths are normalised (to
``<tmp>``) and sweep timings (to ``<t>``); everything else must match
exactly.  A second golden snapshots the parser surface: every
subcommand's option strings, defaults, choices and types, so a flag
that changes or disappears fails here.

The goldens are the contract, not a convenience: a missing golden is
written from the current output and its test fails, so regenerating
means deleting a golden, rerunning, and reviewing the diff.  Do that
only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.sim.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: The flags every sweep-capable subcommand takes for a fast, hermetic run.
TINY = ["--scale", "0.000125", "--max-instances", "2", "--no-cache",
        "--no-daemon", "--quiet"]

#: name -> (argv, CSV file name or None).  ``{tmp}`` expands to a
#: per-test temporary directory.
CASES: dict[str, tuple[list[str], str | None]] = {
    "fig2": (["fig2", *TINY, "--csv", "{tmp}/fig2.csv"], "fig2.csv"),
    "fig3": (["fig3", *TINY, "--csv", "{tmp}/fig3.csv"], "fig3.csv"),
    "speedup": (["speedup", *TINY, "--csv", "{tmp}/speedup.csv"],
                "speedup.csv"),
    "run": (["run", "alpha", "2", *TINY], None),
    "run_options": (["run", "alpha", "3", *TINY, "--quantum-ms", "1",
                     "--policy", "random", "--soft", "--architecture",
                     "prisc", "--verify"], None),
    "checkpoint_past_end": (["checkpoint", "alpha", "1", "{tmp}/ck.json",
                             *TINY, "--at-quanta", "100000"], None),
    "trace": (["trace", "alpha", "2", *TINY, "--events", "4",
               "--jsonl", "{tmp}/events.jsonl"], None),
    "trace_prefetch": (["trace", "phases", "3", *TINY, "--quantum-ms", "1",
                        "--prefetch", "--events", "0"], None),
    "inject": (["inject", *TINY, "--csv", "{tmp}/inject.csv"], "inject.csv"),
    "synth": (["synth", *TINY, "--verify"], None),
    "synth_sweep": (["synth", "--sweep", *TINY, "--csv", "{tmp}/synth.csv"],
                    "synth.csv"),
    "prefetch": (["prefetch", *TINY, "--verify"], None),
    "prefetch_sweep": (["prefetch", "--sweep", *TINY, "--csv",
                        "{tmp}/prefetch.csv"], "prefetch.csv"),
    "cache_stats": (["cache", "stats"], None),
}

_TIMING = re.compile(r"\b\d+\.\d+s\b")


def _normalise(text: str, tmp: Path) -> str:
    return _TIMING.sub("<t>", text.replace(str(tmp), "<tmp>"))


def _invoke(argv: list[str], tmp: Path, capsys) -> str:
    """Run one command line and render its result as golden text."""
    argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    return _normalise(
        f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}", tmp
    )


def _render_case(name: str, tmp: Path, capsys) -> str:
    argv, csv_name = CASES[name]
    text = _invoke(argv, tmp, capsys)
    if csv_name is not None:
        text += "--- csv\n" + (tmp / csv_name).read_text()
    return text


def _render_checkpoint_resume(tmp: Path, capsys) -> str:
    ckpt = ["checkpoint", "alpha", "2", "{tmp}/ck.json", *TINY,
            "--quantum-ms", "1", "--at-quanta", "8"]
    return (
        _invoke(ckpt, tmp, capsys)
        + _invoke(["resume", "{tmp}/ck.json", "--verify"], tmp, capsys)
    )


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _surface(parser: argparse.ArgumentParser, command: str = "repro"):
    """One JSON line per argument of ``parser`` (positionals in parse
    order, then options in help order), then its subcommands'."""
    subcommands = {}
    actions = sorted(parser._actions, key=lambda a: bool(a.option_strings))
    for action in actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            subcommands = action.choices
            yield json.dumps({
                "command": command,
                "subcommands": list(subcommands),
                "required": action.required,
            })
            continue
        yield json.dumps({
            "command": command,
            "flags": list(action.option_strings) or action.dest,
            "action": type(action).__name__,
            "nargs": _jsonable(action.nargs),
            "default": _jsonable(action.default),
            "choices": _jsonable(action.choices),
            "type": getattr(action.type, "__name__", None),
            "required": action.required,
        })
    for name, sub in subcommands.items():
        yield from _surface(sub, f"{command} {name}")


def _check(name: str, actual: str) -> None:
    path = GOLDEN / f"{name}.txt"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(actual)
        pytest.fail(f"wrote missing golden {path}; review it and rerun")
    assert actual == path.read_text(), (
        f"output of `{name}` drifted from its golden"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    _check(name, _render_case(name, tmp_path, capsys))


def test_checkpoint_then_resume(tmp_path, capsys):
    _check("checkpoint_resume", _render_checkpoint_resume(tmp_path, capsys))


class _Captured(Exception):
    """Raised in place of parsing, carrying the parser ``main`` built."""


def test_parser_surface(monkeypatch):
    def capture(parser, *args, **kwargs):
        raise _Captured(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Captured) as caught:
        main([])
    parser = caught.value.args[0]
    _check("parser_surface", "".join(f"{line}\n" for line in _surface(parser)))
