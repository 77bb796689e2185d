"""The package's public names and the library examples and CLI text in README.md."""

import argparse
import builtins
import dataclasses
import importlib
import pkgutil
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


def test_the_package_reads_no_environment_variable():
    # every setting is a flag or a config key: no os.environ, no getenv
    reads = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(Path(endpoint_rt.__file__).parent.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"environ|getenv", line)
    ]
    assert reads == []


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


def test_readme_names_only_what_the_package_has():
    # a backticked call such as `run_sweep(` or `vadnet.posteriors(`, every
    # name a README line imports from endpoint_rt or its modules, and every
    # backticked attribute of a call such as `call.frames`
    modules = {
        info.name: importlib.import_module(f"endpoint_rt.{info.name}")
        for info in pkgutil.iter_modules(endpoint_rt.__path__)
    }
    text = README.read_text()
    called = re.findall(r"`([A-Za-z_][\w.]*)\(", text)
    assert len(called) >= 8
    for dotted in called:
        head, *rest = dotted.split(".")
        owners = [endpoint_rt, *modules.values(), builtins]
        found = modules.get(head) or next(
            (getattr(m, head) for m in owners if hasattr(m, head)), None
        )
        for attr in rest:
            found = getattr(found, attr, None)
        assert found is not None, f"README calls `{dotted}(`, which endpoint_rt does not have"
    imports = re.findall(r"^from endpoint_rt(?:\.(\w+))? import (\([^)]*\)|.*)$", text, re.M)
    assert len(imports) >= 4
    for module, names in imports:
        owner = modules[module] if module else endpoint_rt
        for name in re.findall(r"\w+", names):
            assert hasattr(owner, name), f"README imports {name} from {owner.__name__}"
    attrs = re.findall(r"`call\.(\w+)", text)
    assert len(attrs) >= 6
    record = {f.name for f in dataclasses.fields(endpoint_rt.CallRecord)}
    for attr in attrs:
        assert attr in record or hasattr(endpoint_rt.CallRecord, attr), (
            f"README names `call.{attr}`, which CallRecord does not have"
        )
