"""The per-workload digests of everything the program computes."""
import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "result_hash", ROOT / "tools" / "result_hash.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digests(tool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    return [line.split() for line in out.getvalue().splitlines()]


def test_one_digest_per_workload_the_same_on_every_run():
    tool = _load_tool()
    tool.SEEDS = (1,)  # one seed keeps the test short
    first = _digests(tool)
    assert [name for name, _ in first] == ["deep", "optimized", "cli"]
    assert all(len(digest) == 32 and int(digest, 16) >= 0
               for _, digest in first)
    assert len({digest for _, digest in first}) == 3
    assert _digests(tool) == first
