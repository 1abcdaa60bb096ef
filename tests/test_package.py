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


POOL_MODULES = ("sorted(m for m in sys.modules"
                " if m.split('.')[0] in ('multiprocessing', 'concurrent'))")

# label, predict and combine over two line ranges each, and evaluate over
# two fold children, output discarded.
FORKING_COMMANDS = """
import contextlib, io
from contentdense import combine, evaluation
evaluation._usable_cpus = lambda: 2
out = {out!r}
corpus = contentdense.synthetic.generate_corpus(40, 'standard', 1)
leads = corpus.leads
contentdense.corpus.save_corpus(leads, out + '/corpus.jsonl')
with open(out + '/true.tsv', 'w') as fh:
    fh.writelines(f'{{k}}\\t{{v}}\\n' for k, v in corpus.true_labels.items())
combine.save_pairs([combine.SummaryPair(f'a{{k}}', leads[2 * k],
                                        leads[2 * k + 1], 'tie')
                    for k in range(20)], out + '/pairs.jsonl')
argvs = [['label', '--corpus', out + '/corpus.jsonl', '--out', out],
         ['train', '--corpus', out + '/corpus.jsonl', '--mode', 'mrc',
          '--c-grid', '1', '--percentiles', '40,60', '--out', out],
         ['predict', '--corpus', out + '/corpus.jsonl',
          '--model', out + '/model.json', '--out', out],
         ['combine', '--pairs', out + '/pairs.jsonl',
          '--model', out + '/model.json', '--out', out],
         ['evaluate', '--corpus', out + '/corpus.jsonl',
          '--labels', out + '/true.tsv', '--mode', 'mrc', '--c-grid', '1',
          '--sizes', '20', '--out', out + '/evaluate']]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [contentdense.cli.main(argv) for argv in argvs]
assert codes == [0, 0, 0, 0, 0], codes
"""


def test_importing_the_cli_leaves_out_the_process_pool_modules(tmp_path):
    """No command needs them: `label`, `predict` and `combine` fork their
    range children, and `evaluate` its fold children, with ``os.fork``,
    so every command starts and runs without their cost."""
    proc = run_python(
        "import sys, contentdense.cli; print(" + POOL_MODULES + ")\n"
        + FORKING_COMMANDS.format(out=str(tmp_path))
        + "print(" + POOL_MODULES + ")")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


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
