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


def test_importing_the_cli_leaves_out_the_process_pool_modules():
    """Only `evaluate`'s fold dispatch needs them, and it imports them
    itself, so that every other command starts without their cost."""
    env = dict(os.environ)
    package_root = str(Path(contentdense.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root + os.pathsep + inherited
                         if inherited else package_root)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, contentdense.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
