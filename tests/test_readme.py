"""README's library example runs as written, so a name it lists cannot vanish unseen."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
