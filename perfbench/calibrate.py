"""Host-speed calibration: a fixed piece of work timed next to the program.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, and the drift slows the program and this
loop alike. ``worker.py`` times the loop after every set-up and before and
after every CLI stage, and ``run.py`` scales a run's time medians by
``REFERENCE_S`` over the median loop time: the times the run would have
taken on a host where the loop takes ``REFERENCE_S``.

The loop mixes the kinds of work the program does: tokenizing bracketed
trees, dict counting, a JSON round trip, and elementwise numpy arithmetic
on an array a few hundred KiB large. It never touches the package under
test, so a change to the program cannot change the loop's time, and the
collector is off while it runs, so the program's live objects cannot
either.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

# The loop's median time on the 2-vCPU host the baseline was measured on;
# it only sets the scale, so corrected times read as seconds on that host.
REFERENCE_S = 0.17

_TREE = ("(ROOT (S (NP (DT The) (JJ federal) (NN court)) (VP (VBD ruled) "
         "(PP (IN on) (NP (NNP Monday))) (SBAR (IN that) (S (NP (PRP it)) "
         "(VP (MD would) (VP (VB hear) (NP (DT the) (NN case))))))) (. .)))")
_ROUNDS = 1400


def _work() -> float:
    counts: dict[str, int] = {}
    x = np.linspace(0.0, 1.0, 40_000)
    for _ in range(_ROUNDS):
        depth = 0
        for tok in _TREE.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            else:
                counts[tok] = counts.get(tok, 0) + depth
        counts = json.loads(json.dumps(counts))
        x = np.sqrt(x * 0.5 + 0.25)
    return float(x[-1]) + sum(counts.values())


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
