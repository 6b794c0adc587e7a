"""Core value types: finite real sequences and convolution filters.

Index convention used throughout the package: all stored arrays are
0-based numpy arrays, while every documented contract states positions
in 1-based convention (position ``s`` lives at array index ``s - 1``).
Reads outside the stored range are defined to be zero.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

ArrayLike = Union["Signal", np.ndarray, Iterable[float]]


class Signal:
    """A finite real-valued sequence (double precision, immutable).

    Out-of-range reads are zero: 1-based position ``j <= 0`` or
    ``j > len(self)`` yields 0.0. All samples must be finite; NaN or
    infinity is rejected at construction.
    """

    __slots__ = ("_values",)

    def __init__(self, samples: ArrayLike):
        if isinstance(samples, Signal):
            self._values = samples._values
            return
        values = finite_samples(samples).copy()
        values.setflags(write=False)
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 array of the samples (0-based)."""
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def at(self, position: int) -> float:
        """Sample at 1-based ``position``; zero outside [1, len]."""
        if 1 <= position <= self._values.size:
            return float(self._values[position - 1])
        return 0.0

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            np.all(self._values == other._values)
        )

    def __repr__(self) -> str:
        if len(self) <= 8:
            body = ", ".join(repr(float(v)) for v in self._values)
        else:
            head = ", ".join(repr(float(v)) for v in self._values[:4])
            body = f"{head}, ... ({len(self)} samples)"
        return f"Signal([{body}])"


def finite_samples(samples: ArrayLike) -> np.ndarray:
    """The samples as a 1-d float64 array, checked as :class:`Signal` checks them.

    Raises ``ValueError`` unless they are one-dimensional (a scalar is
    one sample) and all finite. Unlike :class:`Signal` it does not copy:
    a 1-d float64 array comes back as itself, for a caller that only
    reads it once.
    """
    if isinstance(samples, Signal):
        return samples.values
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim == 0:
        values = values.reshape(1)
    if values.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {values.shape}")
    if values.size and not np.isfinite(values).all():
        raise ValueError("signal samples must be finite (no NaN/Inf)")
    return values


def as_signal(x: ArrayLike) -> Signal:
    """Coerce an array-like to :class:`Signal` (no copy when already one)."""
    return x if isinstance(x, Signal) else Signal(x)


class Filter:
    """A convolution kernel with a declared context length.

    Stored taps may be shorter than the declared context length; reads
    beyond the stored taps return zero (the kernel is implicitly
    zero-padded to any length an operation requires).

    A Filter also keeps a store of its taps' spectra, which prefill and
    the one-row epoched and continuous engines over it pass to
    ``convolution.middle`` (whose docstring states the store rule), so
    that later calls through it do not transform the taps again. They
    are derived from the taps alone and are not part of the value:
    copies and pickles leave them out.
    """

    __slots__ = ("_taps", "_context_length", "_spectra")

    def __init__(self, taps: ArrayLike, context_length: int | None = None):
        self._spectra: list = []
        self._taps = as_signal(taps)
        if context_length is None:
            context_length = max(1, len(self._taps))
        context_length = int(context_length)
        if context_length < 1:
            raise ValueError("context_length must be a positive integer")
        if len(self._taps) > context_length:
            raise ValueError(
                f"{len(self._taps)} taps exceed declared context length {context_length}"
            )
        self._context_length = context_length

    @property
    def taps(self) -> Signal:
        return self._taps

    @property
    def context_length(self) -> int:
        return self._context_length

    def tap(self, position: int) -> float:
        """Tap at 1-based ``position``; zero beyond the stored taps."""
        return self._taps.at(position)

    def taps_array(self) -> np.ndarray:
        """Read-only array of the stored taps."""
        return self._taps.values

    def __len__(self) -> int:
        return len(self._taps)

    def __reduce__(self):
        return Filter, (self._taps, self._context_length)

    def __repr__(self) -> str:
        return f"Filter({self._taps!r}, context_length={self._context_length})"


def as_filter(phi: Union[Filter, ArrayLike], context_length: int | None = None) -> Filter:
    """Coerce taps or a Filter to :class:`Filter`."""
    if isinstance(phi, Filter):
        return phi
    return Filter(phi, context_length)
