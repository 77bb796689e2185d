"""The package's public names and the library examples and CLI text in README.md."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import endpoint_rt
from endpoint_rt import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in endpoint_rt.__all__ if not hasattr(endpoint_rt, name)]
    assert missing == []
    assert len(set(endpoint_rt.__all__)) == len(endpoint_rt.__all__)


def test_readme_library_examples_run():
    # the blocks share one namespace and run in order, as a reader would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 4
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"{README}: python block {k + 1}", "exec"), namespace)


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_shell_commands_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("endpoint-rt ")
    ]
    assert {argv[1] for argv in commands} == set(_subcommands())
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_names_only_flags_its_commands_take():
    text = README.read_text()
    subcommands = _subcommands()
    named = re.findall(r"`([a-z-]+) (--[a-z-]+)", text)
    assert len(named) >= 3
    for command, flag in named:
        assert command in subcommands, f"`{command} {flag}`: no such command"
        assert flag in subcommands[command]._option_string_actions, (
            f"`{command} {flag}`: {command} takes no {flag}"
        )
