import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # every python fence of README.md, in order, in one namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) >= 2, f"expected the README's python examples, found {len(blocks)}"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
