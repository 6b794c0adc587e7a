"""Helpers shared by the test modules."""

import os
from pathlib import Path

import numpy as np
import pytest

from streamconv import convolution as conv

# ``pythonpath`` in pyproject.toml reaches this process only; child
# processes (``python -m streamconv.cli``) find the package through this
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


class CountingFFT:
    """``numpy.fft`` stand-in that counts the rows each forward transform covers."""

    irfft = staticmethod(np.fft.irfft)

    def __init__(self):
        self.rows = 0

    def rfft(self, x, n, axis=-1, out=None):
        self.rows += int(np.prod(x.shape[:-1]))
        return np.fft.rfft(x, n, axis=axis, out=out)


@pytest.fixture
def forward_rows(monkeypatch):
    """``forward_rows(call, *args)``: the call's result, and the rows its
    forward transforms in :mod:`streamconv.convolution` covered."""
    def run(call, *args):
        fft = CountingFFT()
        with monkeypatch.context() as patch:
            patch.setattr(conv, "_fft", fft)
            out = call(*args)
        return out, fft.rows

    return run


@pytest.fixture
def stale_store_reads(monkeypatch):
    """Call it to have every read from a tap-spectra store return zeros."""
    real = conv._segment_spectra

    def stale(b, store, *geometry):
        before = list(store or ())
        fb = real(b, store, *geometry)
        return fb * 0.0 if any(fb is entry for _, entry in before) else fb

    return lambda: monkeypatch.setattr(conv, "_segment_spectra", stale)


@pytest.fixture
def epoch_default_3(monkeypatch):
    """The epoched engine's default K moved to 3, in every module that reads it."""
    from streamconv import bench, engines, verify

    for module in (engines, bench, verify):
        monkeypatch.setattr(module, "default_epoch_length", lambda horizon: 3)
