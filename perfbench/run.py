"""Benchmark of the contentdense command-line pipeline.

    python3 perfbench/run.py --workload curve-4k --seed 7 --seconds 40 --trace 0

Run from the repository root. Set-up (import plus writing the workload's
inputs from ``--seed``) runs at least three times and for at least five
seconds, each time in a fresh process; then whole repetitions of the
workload's CLI stages run, each in a fresh process, as many as fill
``--seconds`` most nearly but at least two. Every stage's output files are
checked, and every repetition must reproduce the first byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians of set-up time, wall time and peak RSS, and the accuracy the run
prints. The two times are corrected to a reference host speed, because
the shared host's own speed drifts by more than the benchmark's bounds
from one run to the next: the calibration loop of ``calibrate.py`` is
timed after every set-up and around every stage, and both medians are
scaled by ``REFERENCE_S`` over the median of those loop times. The
uncorrected medians are printed above the result line and kept in the
result file. With ``--trace 1`` it reports per-layer metrics instead,
from one untraced and one traced repetition: self times and counts per
module (see ``tracer.py``), stage times, and the tracing overhead.
Metric names and units come from BENCHMARK.json; workloads are in
``workloads.py``.

Scratch files go under ``.bench_work/`` in the repository root; the result
(with the environment record) and any span table stay there afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from checks import check_stage, fingerprint
from tracer import TIME_METRICS
from workloads import DEFAULT_SEED, WORKLOADS, stage_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 5.0  # short set-ups repeat more, so their median is steadier
BUDGET_S = 170.0  # every run must end within 180 s
STAGES = ("generate", "label", "train", "predict", "combine", "evaluate")
SELF_TIME_TOLERANCE_S = 1e-6


class WorkerError(Exception):
    pass


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Bench:
    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.env: dict = {}
        self.uncorrected: dict[str, float] = {}

    def worker(self, action: str, name: str, **paths) -> dict:
        result_file = self.dir / f"{name}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), action,
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--result", str(result_file)]
        for key, value in paths.items():
            if value is not None:
                cmd += [f"--{key}", str(value)]
        src = str(ROOT / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{name}: worker ran past the time budget")
        if proc.returncode != 0:
            raise WorkerError(f"{name}: worker exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_file.read_text(encoding="utf-8"))
        self.env = result.get("env", self.env)
        return result

    def setup(self, min_repeats: int, min_s: float) -> tuple[Path, list[dict]]:
        """Write the inputs at least ``min_repeats`` times and for at least
        ``min_s`` seconds; every copy must match the first byte for byte.
        Returns the inputs and each set-up's times."""
        times, first = [], None
        start = time.monotonic()
        while len(times) < min_repeats or time.monotonic() - start < min_s:
            k = len(times)
            inputs = self.dir / f"inputs{k}"
            result = self.worker("setup", f"setup{k}", inputs=inputs)
            if "error" in result:
                raise WorkerError(result["error"])
            times.append({key: result[key]
                          for key in ("setup_s", "calibration_s")})
            prints = fingerprint(inputs)
            if first is None:
                first = prints
            else:
                if prints != first:
                    self.errors.append(f"set-up {k} inputs differ from set-up 0")
                shutil.rmtree(inputs)
        return self.dir / "inputs0", times

    def repetition(self, inputs: Path, k: int, reference: dict,
                   spans: Path | None = None) -> dict | None:
        """One checked repetition; None if it did not finish in the budget."""
        out = self.dir / f"rep{k}"
        n_stages = len(self.workload.stages)
        try:
            result = self.worker("run", f"rep{k}", inputs=inputs, out=out,
                                 spans=spans)
        except WorkerError as err:
            self.errors.append(str(err))
            self.attempted += n_stages
            self.failed += n_stages
            return None
        result["accuracy"] = None
        for stage, argv in zip(result["stages"], self.workload.stages):
            self.attempted += 1
            error, accuracy = check_stage(stage, out, self.workload)
            if accuracy is not None:
                result["accuracy"] = accuracy
            stage_out = Path(stage_argv(argv, self.seed, str(inputs), str(out))[
                argv.index("--out") + 1])
            prints = fingerprint(stage_out) if stage_out.exists() else {}
            reference.setdefault(stage["stage"], prints)
            if error is None and prints != reference[stage["stage"]]:
                error = f"{stage['stage']}: output differs from repetition 0"
            if error is not None:
                self.failed += 1
                self.errors.append(f"rep{k} {error}")
        missing = n_stages - len(result["stages"])
        if missing:
            self.attempted += missing
            self.failed += missing
        result["ok"] = missing == 0 and result["accuracy"] is not None
        shutil.rmtree(out, ignore_errors=True)
        return result

    def measure(self) -> tuple[dict, dict]:
        inputs, setup_times = self.setup(SETUP_MIN_REPEATS, SETUP_MIN_S)
        reps, reference = [], {}
        start = time.monotonic()
        while True:
            rep = self.repetition(inputs, len(reps), reference)
            if rep is None:
                break
            reps.append(rep)
            # At least two, for the rerun check; then stop at the count whose
            # total is nearest --seconds, or before the time budget overruns.
            now = time.monotonic()
            per_rep = (now - start) / len(reps)
            if ((len(reps) >= 2 and now - start + per_rep / 2 >= self.seconds)
                    or now + 1.25 * per_rep > self.deadline):
                break
        good = [r for r in reps if r["ok"]] or reps
        if not good:
            raise WorkerError("no repetition finished")
        accuracies = {r["accuracy"] for r in good}
        if len(accuracies) != 1:
            self.errors.append(f"repetitions printed accuracies {accuracies}")
        self.uncorrected = {
            "setup_s": statistics.median(t["setup_s"] for t in setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in good),
        }
        # One factor for the whole run: single loop times are too noisy to
        # correct one stage each, and a long stage outlasts the host's state.
        calibration_s = statistics.median(
            c for t in setup_times + reps for c in t["calibration_s"])
        host = REFERENCE_S / calibration_s
        return {
            "setup_s": self.uncorrected["setup_s"] * host,
            "wall_s": self.uncorrected["wall_s"] * host,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "accuracy": good[0]["accuracy"] or 0.0,
        }, {"setups": setup_times, "uncorrected": self.uncorrected,
            "calibration_s": calibration_s, "repetitions": reps}

    def trace(self) -> tuple[dict, dict]:
        inputs, _ = self.setup(1, 0.0)
        reference: dict = {}
        plain = self.repetition(inputs, 0, reference)
        traced = self.repetition(inputs, 1, reference,
                                 spans=self.dir / "spans.tsv")
        if plain is None or traced is None:
            raise WorkerError("a repetition did not finish")
        layers = traced["layers"]
        covered = sum(layers[m] for m in TIME_METRICS)
        if abs(covered - traced["wall_s"]) > SELF_TIME_TOLERANCE_S:
            self.errors.append(f"self times add to {covered}, traced wall "
                               f"is {traced['wall_s']}")
        negative = [m for m, v in layers.items() if v < -SELF_TIME_TOLERANCE_S]
        if negative:
            self.errors.append(f"negative self time in {negative}")
        stage_s = {s["stage"]: s["seconds"] for s in plain["stages"]}
        metrics = dict(layers)
        for stage in STAGES:
            metrics[f"{stage}_s"] = stage_s.get(stage, 0.0)
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics["failed_frac"] = self.failed / self.attempted
        return metrics, {"repetitions": [plain, traced]}


def _declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "contentdense" / "__init__.py").is_file():
        print(f"error: no contentdense package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = _declared_units(bool(args.trace))

    bench = Bench(args)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    try:
        metrics, detail = bench.trace() if args.trace else bench.measure()
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for path in bench.dir.glob("inputs*"):
            shutil.rmtree(path, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    env = dict(bench.env, git_sha=_git_sha())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "n_leads": bench.workload.n_leads,
              "argv": bench.workload.stages, "env": env,
              "errors": bench.errors,
              "metrics": metrics, **detail}
    (bench.dir / "result.json").write_text(json.dumps(record, indent=1),
                                           encoding="utf-8")
    for message in bench.errors:
        print(f"check failed: {message}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in bench.uncorrected.items():
        print(f"{'uncorrected ' + name:28s} {value:.6g} {units[name]}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
