import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "perfbench"

spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)


def run(tmp_path, parent, change, *extra):
    out = tmp_path / "BENCH_9.json"
    code = bench_file.main(
        ["--number", "9", "--title", "fixture", "--parent-commit", "abc1234", "--seconds", "30",
         "--parent", *[str(FIXTURES / p) for p in parent],
         "--change", *[str(FIXTURES / c) for c in change], "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_record_layout_medians_quartiles_and_pairs(tmp_path):
    parent = [f"parent.stu.{i}.txt" for i in range(3)] + ["parent.trace.txt"]
    change = [f"change.stu.{i}.txt" for i in range(3)] + ["change.trace.txt"]
    code, record = run(tmp_path, parent, change, "--layers", "spectral.*")
    assert code == 0
    assert record["change"] == "fixture" and record["parent_commit"] == "abc1234"
    assert record["environment"] == {"python": "3.11.7", "numpy": "2.4.6",
                                     "scipy": "1.17.1", "nproc": 2, "cpu": "Test CPU",
                                     "caches": {"L1": "48K"}}
    e2e = record["end_to_end"]
    assert e2e["runs_per_side"] == {"stu-online": {"parent": 3, "change": 3}}
    assert e2e["command"] == ("python3 perfbench/run.py --workload W --seed N "
                              "--seconds 30 --trace 0")
    assert e2e["seeds"] == {"stu-online": [10, 11, 12]}
    tok = e2e["metrics"]["stu-online"]["tok_s.continuous"]
    # parent 90, 100, 110; change 90, 400, 410 (numpy's linear quartiles)
    assert tok["parent"] == 100.0 and tok["parent_quartiles"] == [95.0, 105.0]
    assert tok["change"] == 400.0 and tok["change_quartiles"] == [245.0, 405.0]
    assert tok["unit"] == "tok/s" and tok["change_better_pairs"] == "2/3"
    assert e2e["metrics"]["stu-online"]["ttft_ms"]["change_better_pairs"] == "3/3"
    assert "--workload stu-online" in record["per_layer"]["command"]
    layers = record["per_layer"]["metrics"]
    assert sorted(layers) == ["spectral.pushes_per_step", "spectral.step_us.naive"]
    assert layers["spectral.pushes_per_step"]["parent"] == 128.0
    assert layers["spectral.pushes_per_step"]["change"] == 1.0
    assert "change_better_pairs" not in layers["spectral.pushes_per_step"]


def test_failed_run_is_refused(tmp_path):
    code, record = run(tmp_path, ["parent.stu.0.txt"], ["failed.txt"])
    assert code == 1 and record is None


def test_one_sided_workload_is_refused(tmp_path):
    code, record = run(tmp_path, ["parent.stu.0.txt"], ["change.trace.txt"])
    assert code == 1 and record is None


@pytest.mark.parametrize("values, quartiles", [([5.0], [5.0, 5.0]),
                                               ([1.0, 2.0, 3.0, 4.0], [1.75, 3.25])])
def test_summary_quartiles(values, quartiles):
    assert bench_file.summary(values)["quartiles"] == quartiles
