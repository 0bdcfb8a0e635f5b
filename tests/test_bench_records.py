"""Every committed BENCH_<pr>.json follows the speed-claim protocol of
ROADMAP aim 1: a before/after pair from one machine, with the parent commit,
the CPU count and CVQOC_THREADS=1 recorded, at least 5 pairs per workload,
and both sides' value of every end-to-end metric BENCHMARK.json names.  A
claimed gain names a workload and a metric that BENCHMARK.json defines."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def test_there_are_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_follows_the_speed_claim_protocol(path):
    with open(path) as fh:
        record = json.load(fh)
    assert isinstance(record.get("parent_commit"), str) and record["parent_commit"]
    env = record["env"]
    assert type(env.get("nproc")) is int and env["nproc"] >= 1
    assert env.get("CVQOC_THREADS") == "1"
    assert record["workloads"]
    for name, workload in record["workloads"].items():
        assert len(workload["pairs"]) >= 5, name
        for pair in workload["pairs"]:
            for side in ("parent", "change"):
                missing = [m for m in END_TO_END
                           if type(pair[side].get(m)) not in (int, float)]
                assert not missing, (name, pair.get("seed"), side, missing)
    claims = record.get("claimed") or []
    for claim in [claims] if isinstance(claims, dict) else claims:
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in END_TO_END
