import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_in_one_minute_block_runs_as_documented():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library in one minute"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed_comment = re.search(r"^# (\(.*?\) \(.*?\))", code, re.M).group(1)

    namespace = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), namespace)

    assert stdout.getvalue().strip() == printed_comment
    assert printed_comment == ("(1.0, 0.030000000000000023) "
                               "(1.0, 0.12988, 0.00241749)")
    report = namespace["report"]
    assert report.K == pytest.approx(39.1, abs=0.05)
    assert report.Kc == pytest.approx(3.40, abs=0.005)
