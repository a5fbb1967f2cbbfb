"""Every ```python block in README.md runs, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    # later blocks reuse the names earlier ones define, as a reader would
    assert len(BLOCKS) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert abs(namespace["rep"].residual_exact) < 1e-6
