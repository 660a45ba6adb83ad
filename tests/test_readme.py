import contextlib
import io
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from mordrive.cli import main

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


def _cli_walkthrough() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI walkthrough"):]
    return re.search(r"```sh\n(.*?)```", section, re.S).group(1)


def test_cli_walkthrough_block_runs_as_documented(tmp_path, monkeypatch):
    """Each ``mordrive`` line of the walkthrough goes through ``cli.main``
    in a scratch directory, with its redirect and the heredoc honoured; a
    command exits with the code its comment gives, or 0."""
    monkeypatch.chdir(tmp_path)
    script = _cli_walkthrough().replace("\\\n", " ")
    heredoc = re.compile(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", re.S)
    for name, body in heredoc.findall(script):
        Path(name).write_text(body + "\n", encoding="utf-8")
    lines = heredoc.sub("", script).splitlines()

    exits = []
    for i, line in enumerate(lines):
        if not line.startswith("mordrive "):
            continue
        argv = shlex.split(line)[1:]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        comments = itertools.takewhile(lambda c: c.startswith("#"),
                                       lines[i + 1:])
        codes = re.findall(r"exit code (\d+)", " ".join(comments))
        expected = int(codes[0]) if codes else 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == expected, line
        if target is not None:
            Path(target).write_text(stdout.getvalue(), encoding="utf-8")
        exits.append((" ".join(argv[:5]), expected))
    assert len(exits) == 9
    assert [e for e in exits if e[1]] == [
        ("design --motor motor.json --method mor", 3)]

    figures = re.search(r"# -> K = ([\d.]+), Kc = ([\d.]+)", script).groups()
    assert figures == ("39.05", "3.396")
    conv = json.loads(Path("conv.json").read_text())
    assert (f"{conv['K']:.2f}", f"{conv['Kc']:.3f}") == figures
    for name in ("mor.json", "reduced.json", "full_step.csv", "red_step.csv",
                 "full_bode.csv", "red_bode.csv", "sweep.csv"):
        assert Path(name).stat().st_size > 0, name
