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
    assert not tok["change_better_every_run"]
    assert "--workload stu-online" in record["per_layer"]["command"]
    layers = record["per_layer"]["metrics"]
    assert sorted(layers) == ["spectral.pushes_per_step", "spectral.step_us.naive"]
    assert layers["spectral.pushes_per_step"]["parent"] == 128.0
    assert layers["spectral.pushes_per_step"]["change"] == 1.0
    assert "change_better_pairs" not in layers["spectral.pushes_per_step"]


def test_host_drift_is_the_ratio_of_floor_medians(tmp_path):
    report = json.loads((FIXTURES / "parent.trace.txt").read_text().splitlines()[0])
    paths = {"parent": [], "change": []}
    floors = {"parent": [150.0, 146.0, 152.0], "change": [197.0, 246.0, 200.0]}
    for side, values in floors.items():
        for i, floor in enumerate(values):
            result = {"correct": True, "attempted": 9, "failed": 0, "metrics": {
                "generate.floor_ns_per_tok": {"value": floor, "unit": "ns"},
                "generate.prefill_ms": {"value": 9.0, "unit": "ms"}}}
            path = tmp_path / f"{side}.trace.{i}.txt"
            path.write_text(json.dumps(report) + "\n" + json.dumps(result) + "\n")
            paths[side].append(path.name)
    out = tmp_path / "BENCH_9.json"
    argv = ["--number", "9", "--title", "drift", "--parent-commit", "abc1234",
            "--seconds", "30", "--out", str(out), "--layers", "generate.prefill_ms",
            "--parent", *[str(tmp_path / p) for p in paths["parent"]],
            "--change", *[str(tmp_path / c) for c in paths["change"]]]
    assert bench_file.main(argv) == 0
    per_layer = json.loads(out.read_text())["per_layer"]
    # medians 150 and 200, read before --layers drops the floor itself
    assert per_layer["host_drift"] == pytest.approx(200.0 / 150.0)
    assert sorted(per_layer["metrics"]) == ["generate.prefill_ms"]


def test_host_drift_without_a_floor_is_none(tmp_path):
    code, record = run(tmp_path, ["parent.trace.txt"], ["change.trace.txt"])
    assert code == 0 and record["per_layer"]["host_drift"] is None


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


# --------------------------------------------------- verdict on synthetic runs

# directions and bounds come from the repo's BENCHMARK.json: tok/s higher
# and ttft lower within 0.25, peak RSS lower within 0.1
UNITS = {"tok_s.continuous": "tok/s", "ttft_ms": "ms", "peak_rss_mb": "MiB"}


def write_runs(tmp_path, side, workload, columns):
    """One saved run per row of ``columns`` ({metric: values}); their paths."""
    report = json.loads((FIXTURES / "parent.stu.0.txt").read_text().splitlines()[0])
    report["workload"] = workload
    paths = []
    for i, values in enumerate(zip(*columns.values())):
        report["environment"]["seed"] = 100 + i
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": v, "unit": UNITS[name]}
                              for name, v in zip(columns, values)}}
        path = tmp_path / f"{side}.{workload}.{i}.txt"
        path.write_text(json.dumps(report) + "\n" + json.dumps(result) + "\n")
        paths.append(str(path))
    return paths


def judge(tmp_path, parent, change, claim="ttft_ms@prompt-long"):
    """Exit code and verdict of a record over {workload: {metric: values}} per side."""
    out = tmp_path / "BENCH_10.json"
    argv = ["--number", "10", "--title", "synthetic", "--parent-commit", "abc1234",
            "--seconds", "30", "--out", str(out), "--parent"]
    for wl, cols in parent.items():
        argv += write_runs(tmp_path, "parent", wl, cols)
    argv.append("--change")
    for wl, cols in change.items():
        argv += write_runs(tmp_path, "change", wl, cols)
    if claim:
        argv += ["--claim", claim]
    code = bench_file.main(argv)
    return code, (json.loads(out.read_text())["verdict"] if out.exists() else None)


PARENT_TTFT = [13.4, 13.6, 13.5, 13.8, 13.3, 13.7, 13.5, 13.6, 10.2, 13.4]
FLAT = {"tok_s.continuous": [200.0] * 10, "peak_rss_mb": [74.0] * 10}


def test_claim_holds_and_nothing_else_moves(tmp_path):
    change_ttft = [9.5, 9.8, 9.2, 10.1, 9.6, 9.4, 9.9, 9.7, 10.4, 9.3]  # pair 9 lost
    code, v = judge(tmp_path, {"prompt-long": {"ttft_ms": PARENT_TTFT, **FLAT}},
                    {"prompt-long": {"ttft_ms": change_ttft, **FLAT}})
    assert code == 0
    claim = v["claim"]
    assert claim["metric"] == "ttft_ms" and claim["workload"] == "prompt-long"
    assert claim["change_better_pairs"] == "9/10" and claim["holds"]
    assert claim["median_gain"] == pytest.approx(13.5 - 9.65)
    assert claim["parent_iqr"] == pytest.approx(13.6 - 13.4)
    assert v["bounds"]["prompt-long"]["tok_s.continuous"]["verdict"] == "within"
    assert v["bounds"]["prompt-long"]["peak_rss_mb"]["worse_by"] == 0.0
    assert "ttft_ms" not in v["bounds"]["prompt-long"]
    assert v["pairs"] == {"prompt-long": 10}
    assert v["passes"]


def test_nine_pairs_hold_no_claim_and_pass_nothing(tmp_path):
    # the holding claim above without its lost pair: 9/9 wins, gain far past the IQR
    parent_ttft = PARENT_TTFT[:8] + PARENT_TTFT[9:]
    change_ttft = [9.5, 9.8, 9.2, 10.1, 9.6, 9.4, 9.9, 9.7, 9.3]
    flat = {name: values[:9] for name, values in FLAT.items()}
    code, v = judge(tmp_path, {"prompt-long": {"ttft_ms": parent_ttft, **flat}},
                    {"prompt-long": {"ttft_ms": change_ttft, **flat}})
    assert code == 0 and v["pairs"] == {"prompt-long": 9}
    assert v["claim"]["change_better_pairs"] == "9/9"
    assert v["claim"]["median_gain"] > v["claim"]["parent_iqr"]
    assert not v["claim"]["holds"] and not v["passes"]
    # nor does a claim-free record pass on nine pairs
    code, v = judge(tmp_path, {"prompt-long": {"ttft_ms": parent_ttft, **flat}},
                    {"prompt-long": {"ttft_ms": parent_ttft, **flat}}, claim=None)
    assert code == 0 and not v["passes"]
    assert all(e["verdict"] == "within" for e in v["bounds"]["prompt-long"].values())


@pytest.mark.parametrize("change_ttft", [
    [9.5, 9.8, 9.2, 10.1, 9.6, 9.4, 9.9, 9.7, 10.4, 13.9],  # 8/10 pairs
    [13.3, 13.5, 13.4, 13.7, 13.2, 13.6, 13.4, 13.5, 10.1, 13.3],  # gain 0.1 < IQR 0.2
])
def test_claim_fails_on_pairs_or_gap(tmp_path, change_ttft):
    code, v = judge(tmp_path, {"prompt-long": {"ttft_ms": PARENT_TTFT, **FLAT}},
                    {"prompt-long": {"ttft_ms": change_ttft, **FLAT}})
    assert code == 0 and not v["claim"]["holds"] and not v["passes"]


def test_bounds_worse_and_unresolved_per_workload(tmp_path):
    noisy = [100.0, 150.0, 200.0, 250.0, 300.0]  # IQR 100 > 0.25 x median 200
    beaten = [310.0, 320.0, 330.0, 340.0, 350.0]  # each above every noisy run
    parent = {"scratch-64k": {"tok_s.continuous": noisy, "peak_rss_mb": [70.0] * 5},
              "stu-online": {"tok_s.continuous": [100.0] * 5, "peak_rss_mb": [70.0] * 5},
              "prompt-long": {"tok_s.continuous": noisy, "peak_rss_mb": [70.0] * 5}}
    change = {"scratch-64k": {"tok_s.continuous": noisy, "peak_rss_mb": [78.0] * 5},
              "stu-online": {"tok_s.continuous": [80.0] * 5, "peak_rss_mb": [70.0] * 5},
              "prompt-long": {"tok_s.continuous": beaten, "peak_rss_mb": [70.0] * 5}}
    code, v = judge(tmp_path, parent, change, claim=None)
    assert code == 0 and v["claim"] is None and not v["passes"]
    scratch, stu = v["bounds"]["scratch-64k"], v["bounds"]["stu-online"]
    assert scratch["tok_s.continuous"]["verdict"] == "unresolved"
    # a noisy parent beaten by every change run is not unresolved
    assert v["bounds"]["prompt-long"]["tok_s.continuous"]["verdict"] == "within"
    assert scratch["peak_rss_mb"]["verdict"] == "worse"
    assert scratch["peak_rss_mb"]["worse_by"] == pytest.approx(8 / 70)
    assert scratch["peak_rss_mb"]["bound"] == 0.1
    # 20% fewer tok/s is inside the 0.25 bound
    assert stu["tok_s.continuous"] == {"worse_by": pytest.approx(0.2), "bound": 0.25,
                                       "verdict": "within"}


def test_claim_of_unknown_metric_or_workload_is_refused(tmp_path):
    runs = {"prompt-long": {"ttft_ms": PARENT_TTFT}}
    assert judge(tmp_path, runs, runs, claim="ttft_ms@stu-online") == (1, None)
    assert judge(tmp_path, runs, runs, claim="tok_s.naive@prompt-long") == (1, None)
