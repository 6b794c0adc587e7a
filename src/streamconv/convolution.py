"""Stateless convolution primitives sharing one index convention.

Every convolution in the package goes through one primitive:

* :func:`middle` -- a contiguous window of the full linear convolution
  of two arrays, computed either by direct summation of just that
  window or through real transforms that cover only the window's reach
  (a middle product), never the whole convolution.

On top of it sit the public operations:

* :func:`conv_causal_reference` -- the quadratic direct-summation
  oracle for causal convolution. Never used on a fast path.
* :func:`conv_full` -- full linear convolution: the window that spans
  every output position.
* :func:`futurefill` -- the contribution of an already-seen prefix to
  output positions strictly after it ends: the window that starts
  right after the prefix.

Contracts below use 1-based positions; arrays are 0-based.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy import fft as _fft

from .signal import ArrayLike, Filter, Signal, as_filter, as_signal

# Fast/slow agreement budget for double-precision transforms: the
# elementwise error of the fast path against direct summation is
# bounded by TOLERANCE_SCALE * (1 + max |direct|) for lengths <= 2**14.
TOLERANCE_SCALE = 1e-9

# Cost model choosing between the two paths of :func:`middle` for a
# window without leading axes (one with them always takes a transform).
# The direct path costs one multiply-add per (input, window position)
# pair; the transform path costs real transforms of n points plus a
# fixed per-call overhead of tens of microseconds. Direct summation is
# chosen while macs <= _DIRECT_MACS_PER_POINT * n * log2(n). Fitted with
# numpy 2.4 on a 2-vCPU Xeon: a continuous engine level (m inputs, m
# outputs, n = 2m) is served faster directly up to m = 512 (39 us
# against 66 us) and through the transform from m = 1024 on (92 us
# against 131 us); an epoched rebuild of K = 1024 slots always takes the
# transform, one of K <= 32 slots after up to 2**16 inputs never does.
# The factor is bounded, so the O(n log n) contract of the fast path
# holds.
_DIRECT_MACS_PER_POINT = 24

# A transform whose input holds at least one full block goes through a
# batch of short transforms over blocks of it (see _blocked_transform):
# on the host above one long real transform ran at 10-25 ns per point
# and a batch of short ones at about 7. The short transforms have
# next_pow2(width * count) points, the width measured on each side
# (medians of 9, the widths interleaved, one BLAS thread):
# - one-row windows, width 4: the 63 rebuilds of an epoched engine at
#   L = 2**16, K = 1024 took 51.5 ms against 63.1 ms at width 2, and
#   the 2**18-sample prompt's prefill at K = 4096 9.0 ms against 11.7
#   with every tap segment transformed (array taps, or a Filter's first
#   prefill) and 5.8 against 7.2 ms once a Filter holds their spectra
#   (width 8: 9.5 and 6.1 ms);
# - windows with leading axes, width 2: there is one inverse transform
#   per output row, and those dominate (16 filters over 8 channels are
#   128 inverse transforms against 8 + 16 forward ones per block), so
#   the 10 rebuilds of such an engine at L = 1024, K = 101 took 5.5 ms
#   against 6.1 ms at width 4.
_BLOCKED_POINTS_PER_OUTPUT = 4
_BATCHED_POINTS_PER_OUTPUT = 2

# A spectra store (see middle) holds at most this many geometries: one
# per level a continuous engine transforms up to horizon 2**20 (m = 2**8
# .. 2**19 with leading axes, 2**10 .. 2**19 without) and at most one
# more per level for a window cut short by the horizon, 24 in all; one
# per epoched rebuild transformed before the past holds a full block (at
# most six) and one for the blocked ones; one for prefill. A level of m
# holds 2m + 2 floats, so the levels up to horizon 2**16 take 1 MiB.
_STORE_GEOMETRIES = 32

_fast_conv_calls = 0

_M_TRIM_THRESHOLD = -1  # glibc mallopt parameters
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks() -> None:
    """Have the C library reuse freed blocks of up to 32 MiB (run at import).

    :func:`middle` allocates and frees its transform temporaries on every
    call: a peak of about 6 MiB for the 2**18-sample prompt's prefill at
    K = 4096 with array taps (3.2 MiB through a Filter that holds its
    tap spectra), about 1 MiB for a batched engine's level update or
    rebuild. Under glibc's default, self-adjusting thresholds such a
    block is a fresh mapping until a larger one has been freed, and the
    top of the heap goes back to the system once twice that is free, so
    its pages fault in again on every call: 1,376-1,504 minor faults for
    each later such prefill with array taps in a fresh process, against
    none with the thresholds fixed at the largest value glibc's own
    adjustment reaches (32 MiB, and twice that for trimming).
    Process-wide; a no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_blocks()


def transform_calls() -> int:
    """Total number of :func:`middle` calls made so far.

    Each call counts once, whichever path serves it, so every
    :func:`conv_full` / :func:`futurefill` invocation and every engine
    cache update or prefill counts as one call.
    """
    return _fast_conv_calls


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1 << (n - 1).bit_length()


def middle(a: np.ndarray, b: np.ndarray, start: int, count: int,
           spectra: list | None = None) -> np.ndarray:
    """Window ``start .. start+count-1`` (0-based) of the full convolution.

    Returns ``count`` values, the one at index ``q`` being
    ``sum_i a[i] * b[start+q-i]`` over all valid ``i`` -- zero beyond
    the ``len(a) + len(b) - 1`` positions of the full convolution.
    ``a`` and ``b`` are float64 arrays and ``start >= 0``. The last
    axis is the one convolved; leading axes broadcast as in numpy, so
    the result has shape ``broadcast(a.shape[:-1], b.shape[:-1]) +
    (count,)``: every row of ``a`` against every row of ``b`` it meets.

    Only the inputs that reach the window take part: ``a`` is trimmed
    to the indices that meet a stored tap inside it and ``b`` to the
    taps the window can read. What is left is either summed directly
    (one-row windows only: one multiply-add per input and output) or
    multiplied in one circular transform of ``n >= max(len(a) + len(b)
    - 1 - start, start + count)`` points, the least length at which no
    wrapped term lands in the window -- or, once ``a`` holds one full
    block and the window starts at or after its last input, in the
    blocked path: a batch of short transforms of ``n =
    next_pow2(4 * count)`` points (``next_pow2(2 * count)`` with
    leading axes), ``a`` cut from its end into blocks of ``n - count +
    1`` inputs, block ``j`` (newest first) against tap segment ``j``,
    the ``n`` taps of ``b`` from ``start - len(a) + 1 + j * block``.

    ``spectra`` is a store of tap spectra, a list owned with ``b`` and
    valid for it alone: a :class:`~streamconv.signal.Filter` keeps one
    for its taps, which prefill and every one-row blocked engine over it
    pass, and a blocked engine over array taps or batched rows keeps its
    own. It is keyed by the geometry of the tap operand, ``(taps, first,
    block, n)``: the spectra of the ``n``-point segments of ``b[...,
    :taps]`` from tap ``first`` on, one every ``block`` taps. The
    one-shot transform's operand is one segment, the taps the window can
    read from tap 0 (a level window cut short by a horizon reads fewer
    taps, so it keys a geometry of its own); the blocked path's are its
    tap segments. A call whose geometry is stored with at least as many
    segments reads them; any other transforms all of its segments and
    writes them under its geometry, as the newest entry. Past
    ``_STORE_GEOMETRIES`` geometries the one written longest ago is
    dropped. A blocked entry holds ``(n + 2) / (n - count + 1)`` floats
    per tap the inputs reach (1.33 for a one-row window at a
    power-of-two ``count``), a one-shot one ``n + 2`` floats per row. A
    stored array is never written and an entry is added or dropped in
    one step (the list is replaced whole), so a store may be shared
    between threads: a write lost to another thread's costs one
    transform later, never a wrong result. Without a store every
    transform is computed afresh.
    """
    global _fast_conv_calls
    _fast_conv_calls += 1
    end = start + count
    lb = b.shape[-1]
    lo = max(start - lb + 1, 0)  # first input index that meets a stored tap
    a = a[..., lo:end]
    start -= lo
    end -= lo
    la = a.shape[-1]
    if lb > end:
        lb = end  # taps past the window are never read
    if count <= 0 or la == 0 or lb == 0 or start >= la + lb - 1:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (max(count, 0),))
    n = la + lb - 1 - start
    if n < end:
        n = end
    if a.ndim == 1 and b.ndim == 1:
        macs = la * (count if count < lb else lb)
        if macs <= _DIRECT_MACS_PER_POINT * n * n.bit_length():
            return _direct(a, b[:lb], start, count)
        n_short = next_pow2(_BLOCKED_POINTS_PER_OUTPUT * count)
    else:
        n_short = next_pow2(_BATCHED_POINTS_PER_OUTPUT * count)
    if start >= la - 1 and la >= n_short - count + 1:  # one full block
        return _blocked_transform(a, b, spectra, start, count, n_short)
    n = next_pow2(n)
    fb = _segment_spectra(b[..., :lb], spectra, 0, n, n, 1)[..., 0, :]
    return _fft.irfft(_fft.rfft(a, n) * fb, n)[..., start:end]


def _direct(a: np.ndarray, b: np.ndarray, start: int, count: int) -> np.ndarray:
    """:func:`middle`'s direct path, for one-row windows.

    A valid-mode correlation of the reversed inputs with the
    ``len(a) + count - 1`` taps the window reads, from the one its first
    output meets with the last input; zero where it reads before or
    past the stored taps. ``b`` ends at or before the window's end, as
    :func:`middle` trims it.
    """
    la, lb = a.size, b.size
    lo = start - la + 1
    seg = np.zeros(la + count - 1)
    first = max(lo, 0)
    seg[first - lo:lb - lo] = b[first:]
    return np.correlate(seg, a[::-1])


def _blocked_transform(a: np.ndarray, b: np.ndarray, spectra: list | None, start: int,
                       count: int, n: int) -> np.ndarray:
    """:func:`middle`'s blocked path, for an ``a`` of at least one block.

    Needs ``start >= len(a) - 1``. Each block's share of the window is
    the valid part of an ``n``-point circular product with its tap
    segment; the blocks are views, transformed in one batch per row,
    the segments' spectra come from :func:`_segment_spectra`, and the
    products are summed before the single inverse transform. ``b`` may
    run past the window's end: a tap at or past ``start + count`` meets
    only the zero padding of the oldest, partial block, or lands
    outside the window.
    """
    block = n - count + 1
    la = a.shape[-1]
    n_full, rem = divmod(la, block)
    fb = _segment_spectra(b, spectra, start - la + 1, block, n, n_full + (rem > 0))
    blocks = a[..., rem:].reshape(a.shape[:-1] + (n_full, block))
    fa = _fft.rfft(blocks, n, axis=-1)
    # add the block products one block at a time, oldest first: all of
    # them at once would be n_full times the size of the result
    spec = fa[..., 0, :] * fb[..., n_full - 1, :]
    term = np.empty_like(spec)
    for j in range(1, n_full):
        spec += np.multiply(fa[..., j, :], fb[..., n_full - 1 - j, :], out=term)
    if rem:
        # the oldest, partial block, right-aligned in its zero-padded slot
        part = np.zeros(a.shape[:-1] + (block,))
        part[..., block - rem:] = a[..., :rem]
        spec += _fft.rfft(part, n) * fb[..., n_full, :]
    return _fft.irfft(spec, n)[..., block - 1:block - 1 + count]


def _segment_spectra(b: np.ndarray, store: list | None, first: int, block: int, n: int,
                     count: int) -> np.ndarray:
    """Spectra of tap segments ``0 .. count-1`` (newest block's first).

    Segment ``j`` is the ``n`` taps of ``b`` from ``first + j*block``,
    zero past the end of ``b``; the result has shape ``b.shape[:-1] +
    (count, n // 2 + 1)``, or more segments when read from a ``store``
    (a list of ``(geometry, spectra)`` pairs, the one written longest
    ago first, kept under :func:`middle`'s store rule).
    """
    key = (b.shape[-1], first, block, n)
    if store:
        for geometry, fb in store:
            if geometry == key and fb.shape[-2] >= count:
                return fb
    fb = np.empty(b.shape[:-1] + (count, n // 2 + 1), dtype=complex)
    # two or more segments that end inside b are strided views,
    # transformed in one batch; rfft zero-pads the rest, one at a time.
    # A lone segment is a slice: on the host above its rfft took 12.3 us
    # at n = 2048 against 25.2 us as a batch of one, and a cold 2**18
    # prefill read 5-13% slower with every segment transformed alone or
    # the span zero-padded into one batch
    inside = max(0, min(count, (b.shape[-1] - first - n) // block + 1))
    if inside < 2:
        inside = 0
    else:
        segs = np.lib.stride_tricks.sliding_window_view(
            b[..., first:first + (inside - 1) * block + n], n, axis=-1)
        _fft.rfft(segs[..., ::block, :], n, axis=-1, out=fb[..., :inside, :])
    for j in range(inside, count):
        s = first + j * block
        _fft.rfft(b[..., s:s + n], n, out=fb[..., j, :])
    if store is not None:
        kept = [entry for entry in store if entry[0] != key]
        store[:] = kept[1 - _STORE_GEOMETRIES:] + [(key, fb)]
    return fb


def spectra_floats(store: list | None) -> int:
    """Float elements a spectra store of :func:`middle` holds (0 for none)."""
    return sum(2 * fb.size for _, fb in store) if store else 0


def conv_causal_reference(u: ArrayLike, phi: Filter | ArrayLike) -> Signal:
    """Causal convolution by direct summation (the oracle).

    Output position ``s`` equals ``sum_{i=1}^{s} u_i * phi_{s+1-i}``
    with taps zero-read beyond the stored kernel. Theta(len(u)^2);
    intentionally independent of the transform-based fast path.
    """
    u = as_signal(u)
    phi = as_filter(phi)
    uv = u.values
    taps = phi.taps_array()
    n, m = uv.size, taps.size
    out = np.zeros(n)
    if m:
        # reversed taps so each position is one contiguous dot product
        rtaps = taps[::-1].copy()
        for s in range(1, n + 1):
            w = s if s < m else m
            out[s - 1] = np.dot(uv[s - w:s], rtaps[m - w:])
    return Signal(out)


def conv_full(a: ArrayLike, b: ArrayLike) -> Signal:
    """Full linear convolution, length ``len(a) + len(b) - 1``.

    Position ``s`` equals ``sum_i a_i * b_{s+1-i}`` over all valid
    ``i``. Empty if either operand is empty. Agrees with direct
    summation within ``TOLERANCE_SCALE * (1 + max |direct|)``.
    """
    a = as_signal(a).values
    b = as_signal(b).values
    if a.size == 0 or b.size == 0:
        return Signal(np.zeros(0))
    return Signal(middle(a, b, 0, a.size + b.size - 1))


def futurefill(v: ArrayLike, w: ArrayLike) -> Signal:
    """Contribution of all of ``v`` to positions strictly after it.

    With ``t1 = len(v)`` and ``t2 = len(w)``, the result has length
    ``t2 - 1`` and its position ``s`` equals
    ``sum_{i=1}^{t2-s} v_{t1-i+1} * w_{s+i}`` -- equivalently the
    1-based positions ``t1+1 .. t1+t2-1`` of ``conv_full(v, w)``.
    Computed as one :func:`middle` window of that convolution, with a
    transform of at most ``t1 + t2 - 1`` points,
    O((t1+t2) log (t1+t2)). Empty when ``t2 <= 1``; zeros when
    ``t1 == 0``.
    """
    v = as_signal(v).values
    w = as_signal(w).values
    return Signal(middle(v, w, v.size, w.size - 1))


def _futurefill_direct(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """O(t1*t2) summation of the futurefill definition (test oracle)."""
    t1, t2 = v.size, w.size
    out = np.zeros(max(t2 - 1, 0))
    for s in range(1, t2):
        acc = 0.0
        for i in range(1, t2 - s + 1):
            vi = t1 - i + 1
            if 1 <= vi <= t1:
                acc += v[vi - 1] * w[s + i - 1]
        out[s - 1] = acc
    return out


def split_check(a: ArrayLike, b: ArrayLike, t1: int) -> bool:
    """Check the split identity for the convolution of equal-length vectors.

    For every position ``s <= t1`` the prefix convolution reproduces
    ``[a*b]_s``, and for every ``s > t1`` the suffix convolution plus
    the prefix's futurefill reproduces it. Used as the test-support
    realization of the split proposition; returns True iff both hold
    within the fast/slow tolerance.
    """
    a = as_signal(a)
    b = as_signal(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("split_check requires len(a) == len(b)")
    if not 1 <= t1 <= n:
        raise ValueError(f"split index {t1} outside [1, {n}]")

    whole = conv_causal_reference(a, Filter(b, n)).values
    tol = TOLERANCE_SCALE * (1.0 + float(np.max(np.abs(whole))))

    prefix = conv_causal_reference(a.values[:t1], Filter(b.values[:t1], t1)).values
    if np.max(np.abs(prefix - whole[:t1])) > tol:
        return False

    if t1 == n:
        return True
    suffix = conv_causal_reference(
        a.values[t1:], Filter(b.values[:n - t1], n - t1)
    ).values
    fill = futurefill(a.values[:t1], b).values[:n - t1]
    return bool(np.max(np.abs(suffix + fill - whole[t1:])) <= tol)
