"""The README's examples run as shown: its Python quick start executes and
its example config passes the schema."""

import json
import re
from pathlib import Path

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
