import json
import subprocess
import sys
from pathlib import Path

from streamconv import optimal_epoch_length
from streamconv.engines import default_epoch_length

ROOT = Path(__file__).resolve().parents[1]


def test_epoch_curve_covers_every_k_and_marks_the_default():
    proc = subprocess.run([sys.executable, "tools/epoch_curve.py", "--min-exp", "6",
                           "--max-exp", "9", "--calls", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    curve = json.loads(proc.stdout)["curve"]
    assert list(curve) == ["2^6", "2^7", "2^8", "2^9"]
    for e in range(6, 10):
        length, k0 = 1 << e, optimal_epoch_length(1 << e)
        points = curve[f"2^{e}"]
        epoched = [p["K"] for p in points if p["engine"] == "epoched"]
        assert epoched == [c * k0 for c in (1, 2, 4, 8, 16) if c * k0 < length] + [length]
        assert [p["K"] for p in points if p["default"]] == [default_epoch_length(length)]
        assert points[-1]["engine"] == "continuous"
        for p in points:
            assert p["peak_aux_elems"] == (p["K"] or length)  # K slots; L for continuous
            assert 0 < p["min_ns_per_token"] <= p["median_ns_per_token"]
