"""README examples against what the package prints: each shown output line
is a `# ` line after the code that prints it."""

import contextlib
import io
import itertools
import pathlib
import re

import ptqes.cli

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def test_readme_table_example_matches_the_cli(capsys):
    command = "ptqes spectrum --M 4 --zeta2 0.1 --format table"
    after = README.split(f"\n{command}\n", 1)[1].splitlines()
    shown = [line[2:] for line in itertools.takewhile(lambda line: line.startswith("# "), after)]
    assert ptqes.cli.main(command.split()[1:]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_python_quick_start_matches_the_library():
    code = re.search(r"```python\n(.*?)```", README, re.S)[1]
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == shown
