"""Schema of the committed performance history, BENCH_trajectory.json.

One row per PR: the parent's and the change's neurobench medians for
every workload and every end-to-end metric BENCHMARK.json declares, so
a reader can follow each number across PRs without re-running history.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = json.loads((ROOT / "BENCH_trajectory.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
AGENTS = ("png", "noc.router", "pe", "vault", "engine")
#: Every layer BENCHMARK.json lists a ``<layer>.share`` for.
SHARE_LAYERS = {metric["name"].removesuffix(".share")
                for metric in BENCHMARK["per_layer"]
                if metric["name"].endswith(".share")}


def test_rows_are_ordered_and_unique():
    prs = [row["pr"] for row in TRAJECTORY["rows"]]
    assert prs == sorted(set(prs))
    assert prs[:3] == [11, 12, 13]


def test_rows_form_a_commit_chain():
    """Each row's parent is the previous row's change, so the file is
    one unbroken history; only the newest change may still be
    uncommitted (null)."""
    rows = TRAJECTORY["rows"]
    for previous, row in zip(rows, rows[1:], strict=False):
        assert row["parent_rev"] == previous["change_rev"], row["pr"]
    assert all(row["change_rev"] for row in rows[:-1])


def test_every_row_has_every_workload_and_metric():
    for row in TRAJECTORY["rows"]:
        for side in ("parent", "change"):
            medians = row[side]
            assert sorted(medians) == sorted(WORKLOADS), (row["pr"], side)
            for workload in WORKLOADS:
                values = medians[workload]
                assert sorted(values) == sorted(METRICS), (
                    row["pr"], side, workload)
                for metric in METRICS:
                    value = values[metric]
                    assert isinstance(value, (int, float)), (
                        row["pr"], side, workload, metric)
                    assert math.isfinite(value) and value > 0


def test_trace_shares_cover_the_engine_agents():
    """Each traced workload holds the five engine agents' shares, plus
    any other layer BENCHMARK.json lists as ``<layer>.share`` (such as
    ``nn.forward``, for a row that moved it).  Shares are of disjoint
    self times, so they still sum to at most one."""
    for row in TRAJECTORY["rows"]:
        shares = row.get("trace_shares", {})
        assert set(shares) <= {"parent", "change"}
        for by_workload in shares.values():
            for workload, by_layer in by_workload.items():
                assert workload in WORKLOADS
                assert set(AGENTS) <= set(by_layer) <= SHARE_LAYERS
                assert all(0.0 <= share <= 1.0
                           for share in by_layer.values())
                assert sum(by_layer.values()) <= 1.0 + 1e-9

def test_pr13_row_carries_trace_shares():
    row = next(row for row in TRAJECTORY["rows"] if row["pr"] == 13)
    assert set(row["trace_shares"]) == {"parent", "change"}
    for by_workload in row["trace_shares"].values():
        assert sorted(by_workload) == sorted(WORKLOADS)


def test_newest_row_carries_the_smoke_block_ci_gates_on():
    """CI's throughput step holds its short neurobench smoke against the
    newest row's smoke block: medians of that same smoke (same
    workloads, same seconds) over at least five runs.  The step's rate
    floor must stay above 0.5, where catching a 2x slowdown was a coin
    toss."""
    smoke = TRAJECTORY["rows"][-1]["smoke"]
    assert smoke["seconds"] == {"conv_smoke": 2, "scene_net": 2,
                                "fc_nets": 6, "stream_memo": 6}
    assert smoke["runs"] >= 5
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    floors = re.findall(r"MIN_RATE_FACTOR = ([0-9.]+)", ci)
    assert len(floors) == 1
    assert 0.5 < float(floors[0]) < 1.0
    assert sorted(smoke["medians"]) == sorted(WORKLOADS)
    for values in smoke["medians"].values():
        assert sorted(values) == ["iter_p50_s", "sim_cycles_per_s"]
        assert all(math.isfinite(v) and v > 0 for v in values.values())
