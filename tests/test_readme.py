"""The python examples in README.md run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(
        r"^```python\n(.*?)^```", README.read_text("utf-8"), re.M | re.S
    )
    assert len(blocks) >= 2
    # The blocks build on each other (the norms example reuses A), so they
    # share one namespace, in document order.
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {index}", "exec"), namespace)
