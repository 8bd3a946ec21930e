"""The report of statements that no traced run executes."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "traffic_lines", ROOT / "tools" / "traffic_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''X = 1  # module level, not in a function body


def f(x):
    """A docstring is not a statement."""
    if x:
        return (x,
                2)
    for i in range(2):
        x += i
    with open(__file__) as fh:
        y = [fh
             for i in range(x)]
    if x < 0:
        raise ValueError
    def g():
        return 3
    return y
'''


def test_statements_that_never_ran(tmp_path):
    tool = _load_tool()
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("sample", path)
    sample = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sample)
    before = sys.gettrace()
    with tool.tracing(str(tmp_path)) as ran:
        sample.f(0)
    assert sys.gettrace() is before
    never, count = tool.never_ran(SOURCE, str(path), ran[str(path)])
    # the first return, the raise and g's body; a statement counts as run
    # when any line of its own ran, a compound one's of its header
    assert never == [7, 15, 17]
    assert count == 11
