"""README's `fbm` command examples still parse with the CLI's flags (they
are parsed, not run), and its Layout names every module."""

import re
import shlex
from pathlib import Path

import pytest

from fbm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fbm_examples(markdown):
    """argv (without the program name) of every `fbm ...` line in the sh
    blocks, with backslash continuations joined and # comments dropped."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", markdown, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fbm"]:
                examples.append(argv[1:])
    return examples


EXAMPLES = fbm_examples(README.read_text(encoding="utf-8"))


def test_extraction_joins_continuations_and_drops_comments():
    text = "```sh\nfbm synth --case 2 \\\n    --out a.csv   # a comment\npip install x\n```\n"
    assert fbm_examples(text) == [["synth", "--case", "2", "--out", "a.csv"]]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in EXAMPLES} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_parses(argv):
    # a renamed flag or a value its type rejects exits through the parser
    args = cli.build_parser().parse_args(argv)
    assert args.cmd == argv[0]


def layout(markdown):
    """{directory: the file names listed under it} of the code block under ## Layout."""
    block = re.search(r"## Layout\n+```\n(.*?)```", markdown, flags=re.S)[1]
    listed = {}
    for line in block.splitlines():
        if line.endswith("/"):
            names = listed.setdefault(line, set())
        elif line[:2] == "  " and line[2] != " ":
            names.add(line.split()[0])
    return listed


def test_readme_layout_names_every_module_and_the_oracles():
    listed = layout(README.read_text(encoding="utf-8"))
    modules = {p.name for p in (README.parent / "src" / "fbm").glob("*.py")} - {"__init__.py"}
    assert modules <= listed["src/fbm/"] and "oracles.py" in listed["tests/"]
