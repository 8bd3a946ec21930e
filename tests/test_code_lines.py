"""The line counter that the change log and the roadmap quote."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_counter():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,

over three lines."""
import os  # a trailing comment makes no comment-only line

# a comment-only line


def f(x):
    """One line."""
    text = """a string
    that is not a docstring"""
    return (x,
            text)
'''


def test_kinds_of_line():
    counts = _load_counter().count(SOURCE)
    assert counts == {"lines": 14, "code": 6, "docstring": 4, "comment": 1,
                      "blank": 3}


def test_kinds_add_up_over_the_package():
    counter = _load_counter()
    for path in (ROOT / "src" / "aobs").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        counts = counter.count(text)
        assert counts["lines"] == text.count("\n")
        assert counts["lines"] == sum(counts[k] for k in counter.KINDS[1:])
