"""The README's library sketch runs as written and does what its comments say."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_sketch_runs_as_documented():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(sketch, "README.md: Library sketch", "exec"), scope)
    # "star-type, generators recovered exactly"
    assert scope["cls"].case == "star"
    # "rigid, with a unique projective extension"
    assert scope["report"].is_rigid
    assert scope["report"].unique_pgl_extension
