"""The traced benchmark's counts repeat exactly between two runs.

Run from the root of a checkout (takes a few minutes):

    python3 -m pytest perfbench/test_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = ("count", "bytes")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=300,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["sens_cli", "effects_cli", "replicates"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, seed=7)
    second = traced_counts(workload, seed=7)
    assert first == second
    for name in ("numkernel.bvn_cdf.calls", "probit.fit_probit.calls",
                 "probit.fit_probit.iters_mean", "numkernel.bvn_cdf.rows_b6",
                 "numkernel.bvn_cdf.rows_ext",
                 "biprobit.fit_constrained.iters_mean"):
        assert name in first
    if workload == "effects_cli":
        assert first["numkernel.bvn_cdf.calls"] == 0
    else:
        assert first["numkernel.bvn_cdf.calls"] > 0
