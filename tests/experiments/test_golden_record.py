"""The golden record: every paper artifact, pinned to today's numbers.

``tests/golden/experiments.json`` is the output of
``neurocube-experiments run all --json`` with the host-time fields in
:data:`HOST_FIELDS` removed: they measure the machine, not the model,
and are the only fields two back-to-back runs disagree on.  The test
re-runs every experiment and compares the rest exactly — integers,
strings and floats alike; no field has needed a tolerance.

The per-experiment shape tests in ``test_experiments.py`` state the
paper's claims; this record only pins the numbers, so a change that
moves any output line shows up here and must be explained.  After an
intended change, regenerate from the repository root with::

    PYTHONPATH=src python -m tests.experiments.test_golden_record
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from repro.experiments.runner import main as runner_main

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "experiments.json"

#: Host wall-clock fields, as (experiment id, key path), stripped before
#: the comparison.  An explicit list, not a pattern: a new host field
#: fails the test until it is added here.
HOST_FIELDS = (
    ("ext_stream", ("cold", "host_seconds")),
    ("ext_stream", ("cold_host_seconds",)),
    ("ext_stream", ("warm_host_seconds",)),
)


def golden_record() -> dict:
    """Run every experiment and return the JSON output, host fields
    stripped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert runner_main(["run", "all", "--json"]) == 0
    record = json.loads(out.getvalue())
    for exp_id, path in HOST_FIELDS:
        parent = record[exp_id]
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    return record


def test_every_artifact_matches_the_golden_record():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_record()
    assert sorted(actual) == sorted(expected)
    for exp_id in expected:
        assert actual[exp_id] == expected[exp_id], exp_id


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_record(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
