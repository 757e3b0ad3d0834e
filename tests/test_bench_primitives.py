"""The primitive micro-benchmark runs and writes one JSON line of medians,
and the committed bench file counts the ``src/`` lines of this tree."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_primitives.py"


def test_bench_primitives_smoke(tmp_path):
    out = tmp_path / "BENCH_primitives.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.read_text())
    assert json.loads(done.stdout.splitlines()[-1]) == result
    assert set(result) == {"python", "nproc", "repeat", "median_ms", "src_lines"}
    assert result["repeat"] == 1
    assert isinstance(result["src_lines"], int) and result["src_lines"] > 0
    # a change to src/ re-records BENCH_primitives.json with its line count
    committed = json.loads((ROOT / "BENCH_primitives.json").read_text())
    assert committed["src_lines"] == result["src_lines"]
    assert set(result["median_ms"]) == {
        "pt_mul_q_ms", "pt_mul_h_ms", "pt_mul_160_ms", "g_exp_generator_ms",
        "element_from_bytes_ms", "gt_from_bytes_ms", "hash_to_group_ms",
        "miller_lines_ms", "pair_cached_lines_ms", "keyword_check_ms", "final_exp_ms",
        "record_from_wire_ms", "store_open_ms_per_record", "store_open_untagged_ms_per_record",
        "held_policy_hit_decode_ms", "request_element_decode_ms", "policy_check_ms",
        "kept_token_decode_ms", "subset_term_ms", "response_layer_decode_ms",
        "kept_response_layer_decode_ms", "policy_check_kept_lines_ms", "policy_lines_cold_ms",
        "search_after_open_ms",
    }
    assert all(ms > 0 for ms in result["median_ms"].values())
