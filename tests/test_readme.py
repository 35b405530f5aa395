"""README's library section runs as written and names the whole package API;
its command-line section names the flags the parser takes."""

import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import pytest

import pimshort
from pimshort.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _help(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--help"])
    return out.getvalue()


def test_readme_library_block_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_names_the_whole_package_api():
    section = _section("Library")
    imported = re.search(r"from pimshort import \((.*?)\)", section, re.S).group(1)
    types = re.search(r"These names and the types they return or raise \((.*?)\)",
                      section, re.S).group(1)
    listed = set(re.findall(r"\w+", imported)) | set(re.findall(r"`(\w+)`", types))
    public = {name for name, value in vars(pimshort).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == listed


def test_readme_names_the_parser_flags():
    flag = re.compile(r"--[A-Za-z][\w-]*")
    named = set(flag.findall(_section("Command line")))
    commands = re.search(r"\{([\w,-]+)\}", _help()).group(1).split(",")
    parsed = {f for command in commands for f in flag.findall(_help(command))}
    assert named == parsed - {"--help"}
