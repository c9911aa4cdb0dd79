"""Every fenced ``python`` block of README.md runs, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert BLOCKS, "README.md has no python blocks"
    namespace: dict = {}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"{README.name} python block {i + 1}", "exec"), namespace)
