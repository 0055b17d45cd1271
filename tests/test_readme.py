"""README's quick starts run and give what README says they give."""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

from orbitstat.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_library_quick_start_states_its_values():
    (code,) = blocks("python")
    namespace, values = {}, {}
    for statement in ast.parse(code).body:
        if isinstance(statement, ast.Expr):
            expression = ast.Expression(statement.value)
            values[ast.unparse(statement.value)] = eval(compile(expression, "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert len(str(values["cen.count_orbits(60)"])) == 36
    assert values["cons.B"] == Fraction(5, 8)
    assert values["cons.provenance['B']"] == "exact-closed-form"
    report = values["ob.lambda1_analysis([1, 3])"]
    assert (report.B, report.leading) == (2, Fraction(1, 4))


def test_cli_quick_start_exits_as_stated(tmp_path, monkeypatch, capsys):
    (script,) = [block for block in blocks("sh") if "orbitstat validate" in block]
    commands = [shlex.split(line, comments=True) for line in script.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["orbitstat", sub] for sub in ("census", "constants", "wdist", "ldp", "sample", "validate")
    ]
    monkeypatch.chdir(tmp_path)
    codes = [main(argv[1:]) for argv in commands]
    capsys.readouterr()
    # validate refuses the table [1, 1, 2]: exit code 2
    assert codes == [0, 0, 0, 0, 0, 2]
    assert (tmp_path / "s.csv").read_text(encoding="utf-8").count("\n") == 1001
