"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block(heading: str) -> str:
    """The first ```python block under the README heading `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_runs():
    namespace = {}
    exec(first_python_block("Library usage"), namespace)
    ids = namespace["split"].test_records.ids
    cluster_ids = namespace["cluster_ids"]
    assert len(cluster_ids) == len(ids)
    assert set(cluster_ids) <= set(ids)
    assert len(set(cluster_ids)) < len(ids)


def test_every_python_block_runs():
    """Every ```python block of the README, the snowball experiment's too,
    runs against the current API."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(block, {})
