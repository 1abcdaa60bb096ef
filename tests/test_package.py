"""The package's public names."""

from collections import Counter

import contentdense


def test_every_export_resolves_and_appears_once():
    names = contentdense.__all__
    repeated = sorted(n for n, k in Counter(names).items() if k > 1)
    assert not repeated, f"__all__ lists these more than once: {repeated}"
    missing = [n for n in names if not hasattr(contentdense, n)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"
