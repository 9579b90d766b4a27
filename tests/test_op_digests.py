"""The benchmark's op outputs, locked: one untimed pass of each workload at
seed 601 gives the op digests recorded in ``data/op_digests.json``.

A speed change must leave every output bit-identical, and the digests are
how the benchmark shows it.  Here the ops of ``bench/workloads.py`` run
outside its timed path (each op's call, then its check), so a change of
output fails a test instead of waiting for a benchmark comparison.

The digests depend on the numpy build and the machine, so the file holds
one entry per ``(numpy version, machine)``.  Where none is recorded the
test is skipped, naming the environment: nothing is compared there, and
the skip says so.  Record an entry with

    PYTHONPATH=src python tests/test_op_digests.py

which runs the same passes and adds or replaces this environment's entry.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "op_digests.json"
SEED = 601
WORKLOADS = ("value", "certify", "repair")

sys.path.insert(0, str(ROOT / "bench"))
import workloads as wl  # noqa: E402


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def digests(workload: str, workdir: Path) -> dict:
    """Every op's digest from one untimed pass at ``SEED``, in op order; an
    op whose check fails raises, naming it and its reason."""
    ctx = wl.prepare(workload, workdir)
    out = {}
    for op in wl.make_ops(ctx, SEED):
        outcome = op.check(op.call())
        if not outcome.ok:
            raise AssertionError(f"{op.name}: {outcome.reason}")
        out[op.name] = outcome.digest
    return out


def recorded() -> dict | None:
    """This environment's digests per workload, or None."""
    for entry in json.loads(DATA.read_text())["environments"]:
        if entry["environment"] == environment():
            return entry["digests"]
    return None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_digests_equal_the_recorded_ones(workload, tmp_path):
    want = recorded()
    if want is None:
        pytest.skip(f"no op digests recorded for {environment()}; "
                    "record them with `python tests/test_op_digests.py`")
    assert digests(workload, tmp_path) == want[workload]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        got = {w: digests(w, Path(tmp) / w) for w in WORKLOADS}
    data = json.loads(DATA.read_text()) if DATA.exists() else {"seed": SEED, "environments": []}
    data["environments"] = [e for e in data["environments"] if e["environment"] != environment()]
    data["environments"].append({"environment": environment(), "digests": got})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, got.values()))} op digests for {environment()} in {DATA}")
