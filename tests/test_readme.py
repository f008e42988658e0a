from __future__ import annotations

import re
from pathlib import Path

from contextstream.labels import check_consistency

ROOT = Path(__file__).parent.parent


def test_readme_library_quick_start_runs(monkeypatch):
    """The fenced Python block under "Library quick start" runs from the
    repo root, with the import path it documents, and labels consistently."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    h, y = namespace["h"], namespace["y"]
    assert y.any()
    assert check_consistency(h, y) == []
