"""The package's public names and the library examples in README.md."""

import re
from pathlib import Path

import endpoint_rt

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
