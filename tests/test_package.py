"""The package's public names and what importing it costs."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import contentdense


def test_every_export_resolves_and_appears_once():
    names = contentdense.__all__
    repeated = sorted(n for n, k in Counter(names).items() if k > 1)
    assert not repeated, f"__all__ lists these more than once: {repeated}"
    missing = [n for n in names if not hasattr(contentdense, n)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"


def run_python(code, *, first_on_path=None):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package, with ``first_on_path`` ahead of everything else."""
    env = dict(os.environ)
    package_root = str(Path(contentdense.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [first_on_path, package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_leaves_out_the_process_pool_modules():
    """Only `evaluate`'s fold dispatch needs them, and it imports them
    itself, so that every other command starts without their cost."""
    proc = run_python(
        "import sys, contentdense.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_imports_no_scipy_module():
    """The kernels load scipy's compiled ``_sparsetools`` extension from
    its file; ``import scipy`` would cost memory and hundreds of modules."""
    proc = run_python(
        "import sys, contentdense.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_scipy_without_sparsetools_fails_the_import_naming_it(tmp_path):
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = run_python(
        "import contentdense.kernels", first_on_path=str(tmp_path))
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    looked_for = os.path.join(str(tmp_path), "scipy", "sparse", "_sparsetools")
    assert looked_for in proc.stderr
