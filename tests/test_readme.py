"""The README's library quick start runs as written and gives the
results its "# ->" comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _shown(*args):
    """The line print(*args) writes."""
    return " ".join(map(str, args))


def test_readme_quick_start_gives_its_stated_results():
    # Each "code  # -> text" line becomes a check: text is what a print
    # on that line writes, or the repr of the expression there.
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    lines = []
    for line in block.splitlines():
        code, arrow, want = line.partition("# ->")
        if arrow:
            code = code.strip()
            code = ("_shown(" + code[len("print("):]
                    if code.startswith("print(") else "repr(%s)" % code)
            line = "_results.append((%s, %r))" % (code, want.strip())
        lines.append(line)
    results = []
    exec("\n".join(lines), {"_results": results, "_shown": _shown})
    assert [want for _, want in results] == ["2 direct", "{(2, 'direct')}"]
    for got, want in results:
        assert got == want
