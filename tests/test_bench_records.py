"""Each committed benchmark record in the what/claim/seeds/failed/quartiles/runs layout
re-derives its summary from its own runs: every metric's parent and change quartiles, and
in how many pairs the change ran lower."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {"what", "claim", "seeds", "failed", "quartiles", "runs"}
METHODS = ("exclusive", "inclusive")  # statistics.quantiles' two methods; both are in use
ROUNDING = 1.5e-6  # runs and quartiles are each written to 6 decimals
RECORDS = [path for path in sorted(ROOT.glob("BENCH_*.json"))
           if LAYOUT <= json.loads(path.read_text()).keys()]
# the records in the layout written before a record named its quartile method
UNNAMED = {f"BENCH_{name}.json" for name in ("compile_ahead", "compile_order", "exact_references",
                                              "psd_cholesky", "regular_element", "span_rule")}


def _metrics(record):
    """(workload.metric, runs of the metric, its summary) of each summarized metric."""
    for workload, metrics in record["quartiles"].items():
        for metric, summary in metrics.items():
            yield f"{workload}.{metric}", record["runs"][workload][metric], summary


def _follows(record, method) -> bool:
    """Whether every quartile of the record is statistics.quantiles of its runs by ``method``."""
    return all(abs(got - want) <= ROUNDING
               for _, runs, summary in _metrics(record) for side in ("parent", "change")
               for got, want in zip(statistics.quantiles(runs[side], n=4, method=method),
                                    summary[side], strict=True))


def test_the_layout_is_found_and_a_new_record_names_its_method():
    assert {path.name for path in RECORDS} >= UNNAMED | {
        "BENCH_coherent_off_path.json", "BENCH_no_seed.json", "BENCH_one_matrix.json"}
    for path in RECORDS:
        if path.name not in UNNAMED:
            assert json.loads(path.read_text()).get("quartile_method") in METHODS, path.name


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_quartiles_follow_one_method(path):
    record = json.loads(path.read_text())
    named = record.get("quartile_method")
    assert named in (None, *METHODS)
    assert [m for m in ((named,) if named else METHODS) if _follows(record, m)] != []


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_change_lower_in_pairs_counts_the_pairs(path):
    record = json.loads(path.read_text())
    for name, runs, summary in _metrics(record):
        parent, change = runs["parent"], runs["change"]
        assert len(parent) == len(change), name
        lower = sum(c < p for p, c in zip(parent, change))
        assert summary["change_lower_in_pairs"] == f"{lower}/{len(parent)}", name
