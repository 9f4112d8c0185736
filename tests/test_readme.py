"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs_and_prints_what_it_says():
    # the python block under "Library quick start": its own assert must hold,
    # and each print must output the text its trailing comment starts with
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    said = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    printed = []
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert said and len(printed) == len(said)
    for out, comment in zip(printed, said):
        assert out and comment.startswith(out), (out, comment)
