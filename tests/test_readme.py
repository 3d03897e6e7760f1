"""The README's library example runs as written."""

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
    records = namespace["split"].test_records
    clustering = namespace["clustering"]
    assert clustering.ids == {r.record_id for r in records}
    assert len(clustering.clusters) < len(records)
