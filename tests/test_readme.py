"""README's examples run as written, and its module table names every module."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from revalu.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `heading` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _stated_outputs() -> dict[str, str]:
    """CLI-tour arguments by the output their comment states: `prints X`, or JSON up to `...`."""
    stated = {}
    for line in _block("## CLI tour", "sh").splitlines():
        found = re.match(r"revalu (.+?)\s+# (?:prints (\S+).*|(\{.*))$", line)
        if found:
            args, value, json_start = found.groups()
            stated[args] = value if value is not None else json_start
    return stated


STATED = _stated_outputs()


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), namespace)
    assert namespace["datapath"].last_run.product == 1  # also checked under python -O
    cost, samples = map(ast.literal_eval, capsys.readouterr().out.splitlines())
    assert list(cost) == ["gate_count", "garbage_count", "unit_delay", "constant_input_count"]
    assert len(samples) == 3 and all(isinstance(s, float) for s in samples)  # n = 3 for m = 7


def test_tour_states_the_outputs_it_is_known_for():
    assert {"build fa", "montmul --x 3 --y 5 --m 7 --n 3",
            "montexp --a 5 --b 3 --mod 7"} <= STATED.keys()


def test_module_table_names_every_module():
    section = README.split("\n## What's inside\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `revalu\.(\w+)` \|", section, re.M))
    modules = {p.stem for p in (ROOT / "src" / "revalu").glob("*.py")} - {"__init__", "__main__"}
    assert listed == modules


@pytest.mark.parametrize("args", STATED)
def test_tour_line_prints_what_it_states(args, capsys):
    assert main(shlex.split(args)) == 0
    out = capsys.readouterr().out
    expected = STATED[args]
    if expected.endswith("...}"):
        assert out.startswith(expected[:-len("...}")])
    else:
        assert out == expected + "\n"
