"""README's library section runs as written and names the whole package API."""

import re
from pathlib import Path
from types import ModuleType

import pimshort

README = Path(__file__).parents[1] / "README.md"


def _library_section() -> str:
    return README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_block_runs():
    block = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_names_the_whole_package_api():
    section = _library_section()
    imported = re.search(r"from pimshort import \((.*?)\)", section, re.S).group(1)
    types = re.search(r"These names and the types they return or raise \((.*?)\)",
                      section, re.S).group(1)
    listed = set(re.findall(r"\w+", imported)) | set(re.findall(r"`(\w+)`", types))
    public = {name for name, value in vars(pimshort).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == listed
