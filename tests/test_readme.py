"""README's Python examples run as written, and each ``print`` with a
comment prints what the comment says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        printed = capsys.readouterr().out.splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(prints)
        for line, out in zip(prints, printed):
            if "#" in line:
                assert out == line.rsplit("#", 1)[1].strip()
