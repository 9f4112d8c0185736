"""CLI output pinned byte for byte: `cli_golden.json` maps a command line to
its exit code and stdout.  A bundled file is named as `f2_5.json` and found
with `tools.bundled_instance_path`.  `bench` is left out: its output is timed.

After an intended change of output, rewrite the file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from curvemul import cli, tools

GOLDEN = Path(__file__).with_name("cli_golden.json")
MUL = {
    "f16_13": ("1,2,3,4,5,6,7,8,9,10,11,12,13", "15,0,14,1,13,2,12,3,11,4,10,5,9"),
    "f4_5": ("2,1,0,0,0", "1,2,2,0,0"),
    "f2_5": ("1,0,1,1,0", "0,1,1,0,1"),
}


def command_lines():
    for name, (x, y) in MUL.items():
        path = f"{name}.json"
        yield f"verify {path}"
        yield f"counts {path}"
        yield f"selftest {path} --trials 50"
        yield f"mul {path} --x {x} --y {y}"
        yield f"split-search {path} --degree 2"


def run(line: str):
    command, name, *rest = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, str(tools.bundled_instance_path(name)), *rest])
    return {"exit": code, "stdout": out.getvalue()}


def test_golden_covers_every_command_line():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == list(command_lines())


@pytest.mark.parametrize("line", list(command_lines()))
def test_cli_output_matches_golden(line):
    assert run(line) == json.loads(GOLDEN.read_text(encoding="utf-8"))[line]


if __name__ == "__main__":
    golden = {line: run(line) for line in command_lines()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
