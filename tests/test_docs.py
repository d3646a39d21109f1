"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The python block of README's `## Library` section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = library_example()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert not namespace["failures"]
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 1 + 41
    # a line `expression  # number ...` states the expression's value
    stated = re.findall(r"^(\S+) +# (-?\d+\.\d+)\b", code, re.M)
    assert len(stated) == 2
    for expression, value in stated:
        assert eval(expression, namespace) == float(value), expression
