"""CLI output pinned byte for byte: `cli_golden.json` maps a command line to
its exit code and stdout.  A bundled file is named as `f2_5.json` and found
with `tools.bundled_instance_path`.  `bench` is left out: its output is timed.

After an intended change of output, rewrite the file with
`PYTHONPATH=src python tests/test_cli_golden.py` and review its diff.

`test_cli_as_a_process` runs `python -m curvemul.cli` as a child process,
as a shell does, and checks exit codes and the streams around the output.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvemul import cli, tools

GOLDEN = Path(__file__).with_name("cli_golden.json")
ROOT = Path(__file__).resolve().parents[1]
HIDDEN_POLE = ROOT / "tests" / "data" / "f4_5_hidden_pole.json"  # f4_5, a pole hidden in f_11
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


def cli_process(*args):
    """`python -m curvemul.cli args` in a child process, with src/ as its PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "curvemul.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def unit(n, i):
    """t^i among n coordinates, as the CLI reads it."""
    return ",".join(str(int(j == i)) for j in range(n))


def test_cli_as_a_process():
    # each bundled file verifies, selftests at its default 1000 trials and
    # multiplies t * t^2 = t^3; an --x one coordinate short on each, a missing
    # path and a coordinate of 16 on f16_13 exit 2 with a one-line error; the
    # hidden-pole file is refused by mul with no product and fails verify at compile
    f16_13 = tools.bundled_instance_path("f16_13")
    refused = [("no-such-file.json", "--x", "1", "--y", "1"),
               (f16_13, "--x", "16" + unit(13, 0)[1:], "--y", unit(13, 0))]
    for name in ("f16_13", "f4_5", "f2_5"):
        path = tools.bundled_instance_path(name)
        n = json.loads(path.read_text(encoding="utf-8"))["n"]
        assert cli_process("verify", path).returncode == 0, name
        selftest = cli_process("selftest", path)
        assert selftest.returncode == 0 and " 1000/1000 " in selftest.stdout, name
        product = cli_process("mul", path, "--x", unit(n, 1), "--y", unit(n, 2))
        assert (product.returncode, product.stdout) == (0, unit(n, 3) + "\n"), name
        refused.append((path, "--x", unit(n, 1).split(",", 1)[1], "--y", unit(n, 2)))
    refused.append((HIDDEN_POLE, "--x", unit(5, 1), "--y", unit(5, 2)))
    for args in refused:
        child = cli_process("mul", *args)
        assert (child.returncode, child.stdout) == (2, ""), args
        assert child.stderr.startswith("error:") and "Traceback" not in child.stderr, args
    child = cli_process("verify", HIDDEN_POLE)
    assert child.returncode == 1
    assert any(line.startswith("[FAIL] compile") for line in child.stdout.splitlines())


if __name__ == "__main__":
    golden = {line: run(line) for line in command_lines()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
