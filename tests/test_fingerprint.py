import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_prints_one_digest():
    # the tool compares two checkouts by its one line; anything else on
    # standard output would make two equal runs read as different
    proc = subprocess.run([sys.executable, "tools/fingerprint.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout), proc.stdout[-4000:]
