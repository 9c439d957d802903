"""One tiny pass of each benchmark workload must pass the benchmark's own output checks.

The workloads and checks are imported from ``perfbench/`` and used as they
are, so an output the benchmark would call incorrect fails here first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_passes_the_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](tiny=True)
    state = workload.setup(0, str(tmp_path))
    assert workload.check(state, workload.run(state, (0, 0))) == []
