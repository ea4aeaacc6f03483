"""The README's examples run as written: its ```python blocks as doctests, and
every `$ cndescent ...` line through `cli.main`, compared line by line with
the output printed under it (`| head -N` and `| tail -N` are honoured)."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from cndescent.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def cli_examples():
    """(command line, expected output lines) for each `$ cndescent` line."""
    examples = []
    for lang, body in BLOCKS:
        if lang:
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ cndescent "):
                command, *output = chunk.rstrip("\n").split("\n")
                while output and not output[-1]:
                    output.pop()
                examples.append((command[2:], output))
    return examples


def test_readme_has_examples():
    assert any(lang == "python" for lang, _ in BLOCKS)
    assert len(cli_examples()) >= 5


def test_python_blocks_run_as_doctests():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for i, (lang, body) in enumerate(BLOCKS):
        if lang == "python":
            runner.run(parser.get_doctest(body, {}, f"README[{i}]", "README.md", 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


@pytest.mark.parametrize("line,expected", cli_examples())
def test_cli_example(line, expected, capsys):
    command, *pipe = line.split(" | ")
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.rstrip("\n").split("\n")
    for stage in pipe:
        tool, count = re.fullmatch(r"(head|tail) -(\d+)", stage).groups()
        n = int(count)
        printed = printed[:n] if tool == "head" else printed[-n:]
    assert printed == expected
