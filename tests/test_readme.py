"""README.md's "Library sketch" runs as written, so it cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_written():
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```",
                       README.read_text(encoding="utf-8"), re.S)
    assert sketch, "README.md has no Library sketch block"
    exec(compile(sketch.group(1), "README.md (Library sketch)", "exec"), {})
