"""BENCH_pipeline.json, the benchmark trajectory at the repository root."""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
FIELDS = {"pr", "sha", "workload", "seed", "seconds", "setup_s", "wall_s",
          "peak_rss_mb", "accuracy", "pairs", "host",
          "children_peak_rss_mb"}
PER_RUN = ("seed", "setup_s", "wall_s", "peak_rss_mb", "accuracy")


def test_the_file_parses_and_every_row_has_every_field():
    doc = json.loads(BENCH.read_text(encoding="utf-8"))
    assert set(doc["fields"]) == FIELDS
    assert doc["rows"]
    for k, row in enumerate(doc["rows"]):
        assert set(row) == FIELDS, f"row {k}"
        runs = {len(row[name]) for name in PER_RUN if row[name] is not None}
        assert len(runs) == 1, f"row {k}: per-run lists differ in length"
