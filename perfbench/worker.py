"""One set-up or one timed repetition of a workload, in its own process.

``run.py`` starts this script once per set-up and once per repetition, so
each repetition's peak RSS is its own and every import is cold. It writes
one JSON document to ``--result``.

    python3 perfbench/worker.py setup --workload cv-1k --seed 7 \
        --inputs DIR --result FILE
    python3 perfbench/worker.py run --workload cv-1k --seed 7 \
        --inputs DIR --out DIR --result FILE [--spans FILE]

``run --spans FILE`` traces the repetition and writes its spans to FILE.

Untraced, the calibration loop of ``calibrate.py`` runs before and after
every stage, outside the stage's timing; a set-up runs it once after it
finishes. The result lists the loop's times.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts the package import

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys

from calibrate import calibrate
from workloads import WORKLOADS, setup_argv, stage_argv


def _environment() -> dict:
    import numpy

    from contentdense.kernels import backend

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpu_count": os.cpu_count(),
        "backend": backend(),
    }


def _call_cli(main, argv: list[str]) -> dict:
    """Run one CLI stage with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - start
    return {"stage": argv[0], "code": code, "seconds": seconds,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def do_setup(args) -> dict:
    workload = WORKLOADS[args.workload]
    from contentdense.cli import main

    if workload.n_pairs:
        from contentdense.combine import (PREF_LEAD, PREF_SYSTEM, PREF_TIE,
                                          SummaryPair, save_pairs)
        from contentdense.synthetic import generate_corpus

        # Pairs of consecutive leads with cycling human preferences, as in
        # the CLI tests' pair fixture.
        leads = generate_corpus(workload.n_leads, "standard", args.seed).leads
        prefs = (PREF_SYSTEM, PREF_LEAD, PREF_TIE)
        pairs = [SummaryPair(article_id=f"art{k:04d}",
                             lead_summary=leads[2 * k],
                             system_summary=leads[2 * k + 1],
                             human_preference=prefs[k % 3])
                 for k in range(workload.n_pairs)]
        os.makedirs(args.inputs, exist_ok=True)
        save_pairs(pairs, os.path.join(args.inputs, "pairs.jsonl"))
    else:
        stage = _call_cli(main, setup_argv(workload, args.seed, args.inputs))
        if stage["code"] != 0:
            return {"error": f"set-up generate exited {stage['code']}: "
                             f"{stage['stderr'].strip()}"}
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "calibration_s": [calibrate()],
            "env": _environment()}


def do_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    from contentdense.cli import main

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}/seed{args.seed}")
        tracer.install()
    stages = []
    calibration_s = [] if tracer is not None else [calibrate()]
    start = time.perf_counter()
    try:
        for stage in workload.stages:
            argv = stage_argv(stage, args.seed, args.inputs, args.out)
            call = main if tracer is None else tracer.wrap(f"cli.{argv[0]}", main)
            stages.append(_call_cli(call, argv))
            if tracer is None:
                calibration_s.append(calibrate())
            if stages[-1]["code"] != 0:
                break
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "stages": stages,
        # Untraced, the span also holds the calibration loops.
        "wall_s": (wall_s if tracer is not None
                   else sum(s["seconds"] for s in stages)),
        "calibration_s": calibration_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "env": _environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall_s)
        tracer.write_spans(args.spans, start)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = do_setup(args) if args.action == "setup" else do_run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
