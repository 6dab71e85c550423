"""The README's examples run as shown: its Python quick start executes and
its example config passes the schema; the budgets it states are the code's."""

import json
import re
from pathlib import Path

from localsvm import kernels, solver
from localsvm.config import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_readme_python_quick_start_runs():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


def test_readme_example_config_validates():
    (text,) = _blocks("json")
    validate_config(json.loads(text))


def test_readme_budgets_are_the_kernels_budgets():
    # each "`_NAME` = 65 536" in the README names a kernels constant
    stated = re.findall(r"`(_[A-Z_]+_BUDGET)` = ([\d ]+\d)", README.read_text())
    # one budget: the RBF row block and the chunk of Kernel.apply
    assert [name for name, _ in stated] == ["_BLOCK_BUDGET", "_BLOCK_BUDGET"]
    for name, value in stated:
        assert int(value.replace(" ", "")) == getattr(kernels, name), name


def test_readme_cg_constants_are_the_solvers():
    # the CG notes state each stopping constant as "`_NAME` = value"
    text = README.read_text()
    for name in ("_CG_RTOL", "_FORCING_MAX", "_CLOSING_FACTOR"):
        (value,) = re.findall(rf"`{name}` = ([\d.e+-]*\d)", text)
        assert float(value) == getattr(solver, name), name


def test_readme_gram_rows_is_the_kernels():
    (value,) = re.findall(r"`_GRAM_ROWS` = (\d+)", README.read_text())
    assert int(value) == kernels._GRAM_ROWS
