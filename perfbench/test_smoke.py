"""Smoke test of the benchmark: every workload at a few hundred paths.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run emits every metric of ``BENCHMARK.json`` with its
unit and that every check of the workload executed.  Whether the checks
pass at this size is not asserted: it is far below the benchmark's.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Gate ops per iteration: the CLI call plus 18 well-formed Table 2 cells;
#: the CLI plus two oracles; eleven library checks.
OPS_PER_ITERATION = {"table2": 19, "continuum": 3, "exponent": 11}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(workload, trace):
    result, lines = run.measure(workload, run.DEFAULT_SEED, seconds=0, trace=trace,
                                n_paths=300)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    iterations = 2 if trace else 1
    assert result["attempted"] == iterations * OPS_PER_ITERATION[workload]
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    fail_line = next(line for line in lines if line.strip().startswith("fail_frac"))
    assert "gate ops failed" in fail_line and "verdicts missed" in fail_line
    json.dumps(result)
