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


def test_line_count_sentence_matches_the_source():
    # the package's size, the measure the README keeps for each change
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"`src/curvemul/\*\.py` is (\d+) lines\.", text)
    sources = (README.parent / "src" / "curvemul").glob("*.py")
    actual = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    assert stated and int(stated[1]) == actual
