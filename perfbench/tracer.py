"""Span tracing from outside the program.

The package's modules import each other's functions by name
(``from .kernels import objective_and_grad``), so a call is traced by
replacing the name where the *caller* looks it up, not where the function
is defined. ``_targets`` lists those lookup sites with the span each
call opens. Spans (name, start, end, parent) stay in memory until the run
ends; a layer's self time is its spans' durations minus the parts their
child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter

# Span name -> per-layer self-time metric.
SELF_TIME_METRIC = {
    "corpus.load": "corpus.load_s",
    "corpus.parse": "corpus.parse_s",
    "corpus.save": "corpus.save_s",
    "synthetic.generate": "synthetic.generate_s",
    "labeling.score": "labeling.score_s",
    "features.bundle": "features.bundle_s",
    "features.mi_select": "features.mi_select_s",
    "features.extract_single": "features.extract_s",
    "features.extract_combined": "features.extract_s",
    "kernels.objective": "kernels.objective_s",
    "kernels.build_csr": "kernels.build_csr_s",
    "kernels.margins": "kernels.margins_s",
    "optimize.lbfgs": "optimize.lbfgs_s",
    "optimize.platt": "optimize.platt_s",
    "learn.train": "learn.train_s",
    "learn.score": "learn.score_s",
    "learn.model_io": "learn.model_io_s",
    "evaluation.cv": "evaluation.cv_s",
    "evaluation.curve": "evaluation.curve_s",
    "combine.load_pairs": "combine.load_pairs_s",
    "combine.sweep": "combine.sweep_s",
    "combine.baseline": "combine.baseline_s",
}
CLI_SPAN_PREFIX = "cli."  # one root span per CLI stage, e.g. "cli.train"
CLI_SELF_METRIC = "cli.self_s"
UNATTRIBUTED_METRIC = "unattributed_s"
# These add up to the traced wall time.
TIME_METRICS = (set(SELF_TIME_METRIC.values())
                | {CLI_SELF_METRIC, UNATTRIBUTED_METRIC})

# Count metric -> span name whose calls it counts.
CALL_COUNT_METRIC = {
    "corpus.parse_calls": "corpus.parse",
    "features.bundles": "features.bundle",
    "features.extract_calls": "features.extract_single",
    "kernels.objective_calls": "kernels.objective",
    "learn.score_calls": "learn.score",
    "optimize.fits": "optimize.lbfgs",
}


def _targets():
    """(object the caller looks the name up on, attribute, span name)."""
    from contentdense import (cli, corpus, evaluation, features, learn,
                              synthetic)

    sites = [
        (cli, "generate_corpus", "synthetic.generate"),
        (cli, "save_corpus", "corpus.save"),
        (cli, "load_corpus", "corpus.load"),
        (cli, "load_lexicon", "corpus.load"),
        (corpus, "parse_ptb_tree", "corpus.parse"),
        (synthetic, "parse_ptb_tree", "corpus.parse"),
        (cli, "score_leads", "labeling.score"),
        (cli, "percentile_label", "labeling.score"),
        (cli, "build_feature_bundle", "features.bundle"),
        (evaluation, "build_feature_bundle", "features.bundle"),
        (features, "select_mi_vocabulary", "features.mi_select"),
        (features.FeatureBundle, "extract_single", "features.extract_single"),
        (features.FeatureBundle, "extract_combined",
         "features.extract_combined"),
        (learn, "objective_and_grad", "kernels.objective"),
        (learn, "build_csr", "kernels.build_csr"),
        (learn, "margins", "kernels.margins"),
        (learn, "minimize_lbfgs", "optimize.lbfgs"),
        (learn, "fit_platt_sigmoid", "optimize.platt"),
        (learn.LeadClassifier, "predict_proba", "learn.score"),
        (learn.LeadClassifier, "predict_label", "learn.score"),
        (cli, "save_classifier", "learn.model_io"),
        (cli, "load_classifier", "learn.model_io"),
        (cli, "cross_validate", "evaluation.cv"),
        (cli, "learning_curve", "evaluation.curve"),
        (cli, "load_pairs", "combine.load_pairs"),
        (cli, "sweep_cutoffs", "combine.sweep"),
        (cli, "baseline_article_length", "combine.baseline"),
    ]
    for owner in (cli, evaluation):
        for name in ("train_single", "train_feature_fusion",
                     "train_decision_fusion"):
            sites.append((owner, name, "learn.train"))
    return sites


class Tracer:
    """Records nested spans and result-derived counts for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1); a slot is reserved
        # when the span opens so a parent's index precedes its children.
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func, on_result=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def _on_csr(self, csr) -> None:
        self.counts["kernels.csr_nnz"] += len(csr.data)

    def _on_fit(self, res) -> None:
        self.counts["optimize.iterations"] += res.iterations
        self.counts["optimize.unconverged_fits"] += not res.converged

    def install(self) -> None:
        hooks = {"kernels.build_csr": self._on_csr,
                 "optimize.lbfgs": self._on_fit}
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counts; ``wall_s`` spans every stage."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        out = {m: 0.0 for m in SELF_TIME_METRIC.values()}
        out[CLI_SELF_METRIC] = 0.0
        calls: Counter = Counter()
        root_time = 0.0
        for k, (nid, start, end, parent) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            if parent < 0:
                root_time += end - start
            metric = (CLI_SELF_METRIC if name.startswith(CLI_SPAN_PREFIX)
                      else SELF_TIME_METRIC[name])
            out[metric] += (end - start) - child_time[k]
        out[UNATTRIBUTED_METRIC] = wall_s - root_time
        for metric, name in CALL_COUNT_METRIC.items():
            out[metric] = calls[name]
        for metric in ("kernels.csr_nnz", "optimize.iterations",
                       "optimize.unconverged_fits"):
            out[metric] = self.counts[metric]
        fits, unconverged = out["optimize.fits"], out["optimize.unconverged_fits"]
        out["optimize.converged_frac"] = (fits - unconverged) / fits if fits else 0.0
        return out

    def write_spans(self, path, origin: float) -> None:
        """One TSV row per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan\tparent\tname\tstart_s\tend_s\n")
            for k, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id}\t{k}\t{parent}\t{self.names[nid]}\t"
                         f"{start - origin:.6f}\t{end - origin:.6f}\n")
