"""The committed BENCH_*.json records against the benchmark they report on.

Each perf change records its parent -> change medians per workload in a
BENCH_<label>.json at the root of the repository; BENCHMARK.json names the
workloads and the end-to-end metrics every record must carry.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_reports_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("label", "claim", "method"):
        assert isinstance(record.get(key), str) and record[key], key
    assert path.name == f"BENCH_{record['label']}.json"
    workloads = record.get("workloads")
    assert workloads and set(workloads) <= WORKLOADS, sorted(workloads or ())
    for name, workload in workloads.items():
        assert workload.get("pairs", 0) >= 10, name
        assert workload.get("correct_all") is True, name
        for metric in END_TO_END:
            values = workload["metrics"].get(metric)
            assert values is not None, (name, metric)
            for field in ("parent_median", "change_median", "parent_iqr"):
                value = values.get(field)
                assert isinstance(value, (int, float)) and math.isfinite(value), \
                    (name, metric, field)
