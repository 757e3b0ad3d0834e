"""Tests of the benchmark itself: leak check, repeatable counts, tail rule.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload traced twice and untraced once, which takes about
three minutes on the curve backend without gmpy2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS, PublishUpdate, tail  # noqa: E402


def _written(report: dict, result: dict, out_dir: Path) -> str:
    """Everything the benchmark wrote: both printed lines and any trace file."""
    text = json.dumps(report) + "\n" + json.dumps(result)
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            text += "\n" + path.read_text()
    return text


def _assert_no_leak(text: str, workload) -> None:
    secrets = workload.secrets()
    assert len(secrets) > 10
    leaked = [s for s in secrets if s in text]
    assert not leaked, f"{len(leaked)} generated names or secrets in the output"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_and_leak_nothing(name, tmp_path):
    counts = []
    for i in range(2):
        out_dir = tmp_path / str(i)
        report, result, workload = run.run(WORKLOADS[name], 7, 1, True, out_dir)
        assert result["correct"] and result["failed"] == 0
        assert (out_dir / report["trace_file"]).is_file()
        _assert_no_leak(_written(report, result, out_dir), workload)
        counts.append((report["counts"], report["pairings_per_op"]))
    assert counts[0] == counts[1]
    assert counts[0][0]["pairing.pair"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_leaks_nothing(name, tmp_path):
    report, result, workload = run.run(WORKLOADS[name], 8, 1, False, tmp_path)
    assert result["correct"] and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["metrics"]["failed_op_ratio"]["value"] == 0
    _assert_no_leak(_written(report, result, tmp_path), workload)


def test_publish_counts_match_the_protocol(tmp_path):
    report, _, _ = run.run(PublishUpdate, 9, 1, True, tmp_path)
    per_op = report["pairings_per_op"]
    # two keywords plus the owner tag, the update tag, and 3 uncached e(g, g)
    assert per_op["publish"] == 7
    # the update gate is 2 pairings; rotating keywords adds 4 tags
    assert per_op["update-forged"] == per_op["update-subset"] == 6
    assert per_op["update-policy"] == 2 + 3
    # every stored record is read back from the reopened log and decrypted
    assert report["ops"]["read-back"] == report["ops"]["publish"] + PublishUpdate.corpus


def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90)
    assert tail(values[:20]) == (50, 10)
    assert tail(values[:5]) == (100, 5)
