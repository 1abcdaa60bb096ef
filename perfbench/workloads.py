"""The benchmark's workloads: how inputs are made, the CLI argv of each
stage, and which printed accuracy a run reports.

Argv templates name three places: ``{inputs}`` (files made during set-up
from the workload seed), ``{out}`` (the directory one timed repetition
writes into) and ``{seed}`` (the workload seed). The train and evaluate
seeds are fixed at 0 as in the README walkthrough; the workload seed
drives only the synthetic generator, so the program sees nothing of the
benchmark beyond its input files.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7  # the README's `generate --seed 7`


@dataclass(frozen=True)
class Workload:
    name: str
    n_leads: int
    stages: tuple[tuple[str, ...], ...]
    # Evaluate workloads report this mode's overall accuracy from
    # summary.tsv; the others report the dev accuracy train prints.
    accuracy_mode: str = ""
    # Evaluate workloads: modes summary.tsv must hold, learning-curve sizes.
    modes: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    # Set-up writes {inputs}/pairs.jsonl with this many pairs when it is
    # non-zero, and otherwise runs the CLI's generate into {inputs}/data.
    n_pairs: int = 0


_CORPUS = "{inputs}/data/corpus.jsonl"
_LABELS = "{inputs}/data/labels.tsv"

WORKLOADS = {
    w.name: w for w in (
        # README walkthrough, evaluate --mode all: solver-bound (340 small
        # fits); the no-change control for corpus work. Not in
        # BENCHMARK.json: its wall time spreads too much across seeds.
        Workload(
            name="cv-1k",
            n_leads=1000,
            stages=(("evaluate", "--corpus", _CORPUS, "--labels", _LABELS,
                     "--seed", "0", "--out", "{out}/report"),),
            accuracy_mode="decision_fusion",
            modes=("mrc", "mi", "pr", "feature_fusion", "decision_fusion"),
        ),
        # Every stage at n=5000: parsing and file I/O dominate (27 fits);
        # the control for solver and kernel work.
        Workload(
            name="pipeline-5k",
            n_leads=5000,
            stages=(
                ("generate", "--n", "5000", "--profile", "standard",
                 "--seed", "{seed}", "--out", "{out}/data"),
                ("label", "--corpus", "{out}/data/corpus.jsonl",
                 "--out", "{out}/labeled"),
                ("train", "--corpus", "{out}/data/corpus.jsonl",
                 "--seed", "0", "--out", "{out}/model"),
                ("predict", "--corpus", "{out}/data/corpus.jsonl",
                 "--model", "{out}/model/model.json", "--out", "{out}/preds"),
                ("combine", "--pairs", "{inputs}/pairs.jsonl",
                 "--model", "{out}/model/model.json", "--out", "{out}/comb"),
            ),
            n_pairs=2500,
        ),
        # Feature-fusion learning curve at n=4000: few large ill-conditioned
        # fits, features rebuilt per size, the largest peak memory; the
        # control for parser work.
        Workload(
            name="curve-4k",
            n_leads=4000,
            stages=(("evaluate", "--corpus", _CORPUS, "--labels", _LABELS,
                     "--mode", "feature-fusion", "--c-grid", "16",
                     "--sizes", "100,1000,3500", "--seed", "0",
                     "--out", "{out}/report"),),
            accuracy_mode="feature_fusion",
            modes=("feature_fusion",),
            sizes=(100, 1000, 3500),
        ),
    )
}


def setup_argv(workload: Workload, seed: int, inputs: str) -> list[str]:
    """CLI argv that writes the inputs of a workload without pairs."""
    return ["generate", "--n", str(workload.n_leads), "--profile", "standard",
            "--seed", str(seed), "--out", f"{inputs}/data"]


def stage_argv(stage: tuple[str, ...], seed: int, inputs: str,
               out: str) -> list[str]:
    return [a.format(inputs=inputs, out=out, seed=seed) for a in stage]
