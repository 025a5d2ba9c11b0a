"""What the README and the benchmark harness call of the package."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    """README's "Library use" block, run as a script against `src/`,
    prints the figures its comments give: an uncompensated area CV of
    about 6 % first and a transmon frequency of about 5.89 GHz last."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert round(float(lines[0])) == 6
    assert round(float(lines[-1]), 2) == 5.89


def test_bench_patches_resolve(monkeypatch):
    """Each (owner, attribute) that `bench/inproc.py` wraps for its
    per-layer spans names a callable, so a refactor cannot silently
    break the traced benchmark run."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # inproc adds bench/ to it
    spec = importlib.util.spec_from_file_location("inproc", ROOT / "bench" / "inproc.py")
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    assert len(inproc.PATCHES) == 17
    for owner, attribute, *_ in inproc.PATCHES:
        assert callable(getattr(owner, attribute, None)), f"{owner.__name__}.{attribute}"
