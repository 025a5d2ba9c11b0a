"""What the README and the benchmark harness call of the package."""

import ast
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


def package_reads(source):
    """The dotted names a module's source reads of the package: each name
    it imports from a `shadowevap` module, and each attribute it reads of
    a `shadowevap` module it imported, once each, in order."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shadowevap":
                    # `import a.b` binds a; `import a.b as c` binds c to a.b.
                    modules[alias.asname or "shadowevap"] = (
                        alias.name if alias.asname else "shadowevap"
                    )
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "shadowevap":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                modules[alias.asname or alias.name] = name
                reads.append(name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return list(dict.fromkeys(reads))


def resolves(dotted):
    """Whether a dotted name of the package names a module or an
    attribute of one."""
    owner, _, name = dotted.rpartition(".")
    try:
        return hasattr(importlib.import_module(owner), name) or bool(
            importlib.util.find_spec(dotted)
        )
    except ImportError:
        return False


def test_bench_package_reads_resolve():
    """Every function, class and module `bench/*.py` takes from the
    package, such as `geometry.bottom_width` or `wafer.simulate_wafer`,
    exists, so a deletion cannot silently break a benchmark script."""
    reads = [
        (path.name, dotted)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for dotted in package_reads(path.read_text(encoding="utf-8"))
    ]
    assert ("inproc.py", "shadowevap.cli.main") in reads
    assert ("stages.py", "shadowevap.wafer.simulate_wafer") in reads
    assert [read for read in reads if not resolves(read[1])] == []
