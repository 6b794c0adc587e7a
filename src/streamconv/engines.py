"""Streaming engines for online causal convolution.

Each engine consumes one input sample per step and emits the causal
convolution output for that step: after pushing ``u_1 .. u_t`` the
t-th returned value equals ``conv_causal_reference(u_{1:t}, phi)_t``.
The filter is fully known up front; only the input streams.

Three interchangeable implementations trade compute for memory:

* :class:`NaiveEngine` -- a direct inner product per step. Total
  work is quadratic in the horizon; no auxiliary state at all.
* :class:`EpochedEngine` -- a K-slot cache of precomputed future
  contributions, rebuilt every K steps from one middle product.
* :class:`ContinuousEngine` -- its K = L case: a horizon-sized cache
  filled on a power-of-two schedule, giving quasilinear total work.

The two fast engines keep one cache policy: at an epoch start a
rebuild from all history, otherwise one schedule level at a block
boundary, cut at the epoch's end; a step reads a cached slot plus one
inner product over its block's own inputs. This tiling follows Flash
Inference (Oncescu et al., arXiv 2410.12982).

Every engine carries a :class:`CostMeter` whose counters are exact
integers, deterministic for a given input length and configuration
(they never depend on the sample values). They are derived in closed
form from the step count when ``meter`` is read, so ``push`` never
touches them. Wall-clock measurement is the benchmark CLI's job, not
the meters'.

One engine object runs a whole stack of convolutions: the taps may
carry leading axes (one filter per row) and so may the samples (one
channel per entry), and each output is their numpy broadcast, e.g.
taps (k, 1, L) over samples (d,) give (k, d) outputs, every filter over
every channel. Such a batched engine steps with one small matrix
product and refills its cache with one
:func:`~streamconv.convolution.middle` call for all rows. One filter
over scalar samples keeps the scalar step. Either way the transform
temporaries of those calls are reused heap blocks, not fresh pages:
:mod:`~streamconv.convolution` fixes the C library's thresholds for
freed blocks when it is imported.

Generation is a closed loop, and it runs inside the engine:
``run(x, n, feed)`` pushes ``x``, then ``feed(y)`` of every output
``y`` but the last, n pushes in all. At practical sizes a Python call
per token costs more than the transforms, so the scalar blocked step
lives only in that loop: it binds the engine's attributes to locals
once per block, writes each sample through a ``memoryview`` of the
buffer, reads its cached slot from a list of Python floats and calls
BLAS ``ddot`` directly. ``push`` is that loop run for one sample, and
returns a Python float. The naive engine, batched engines and any
object with a ``push`` alone get the same contract from one generic
loop over ``push`` (:func:`push_loop`); a batched ``push`` returns a
fresh array of the engine's ``shape``.

``push`` and ``run`` reject a NaN or infinite sample (any entry of it,
for a batched engine) with ``ValueError`` before it changes any state,
as :class:`~streamconv.signal.Signal` does, so the engine goes on as if
the sample had never been offered.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from functools import partial
from math import isfinite as _isfinite
from operator import pos

import numpy as np
from numpy import dot as _dot
from scipy.linalg.blas import ddot as _ddot

from .convolution import middle, next_pow2
from .errors import ConfigurationError, HorizonError
from .signal import ArrayLike, Filter, Signal

ENGINE_KINDS = ("naive", "epoched", "continuous")


@dataclass
class CostMeter:
    """Deterministic instrumentation counters.

    The fields below are those of one scalar convolution; a batched
    engine reports ``size`` times them, one share per output cell.

    mac_count
        Scalar multiply-adds charged by direct inner products, at the
        nominal cost of the method (position index per step for the
        naive method, epoch phase per step for the epoched one, one
        per step for the continuous one).
    ff_cost
        Accumulated fast-convolution charge: ``(1 v k) * 2**k`` per
        step for the schedule-driven engine; per cache rebuild
        otherwise, ``n * log2(n)`` with ``n`` the power of two padding
        the full product of the inputs so far and the taps they reach
        (the nominal charge; the middle product actually run is
        shorter).
        Both fast engines report their untiled algorithm's closed
        form: the epoched counters charge rebuilds and phases only, not
        the schedule levels that tile the epoch, and the continuous
        ones the whole schedule, also the levels run as inner products.
        So the epoched ``mac_count`` grows with K although the tiled
        step does not: at 2**16, K = 4,096 (the default) against 1,024
        (the paper's optimum) charges 134M multiply-adds against 33.6M
        and an ``ff_cost`` of 25M against 95M, and runs faster.
    cache_rebuilds
        Number of completed cache rebuilds.
    peak_aux_elems
        Peak count of float elements held between steps beyond the
        inputs and the filter (cache slots). Transient scratch inside
        a single transform call is not auxiliary state and does not
        count.
    """

    mac_count: int = 0
    ff_cost: int = 0
    cache_rebuilds: int = 0
    peak_aux_elems: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def k_of_t(t: int, b: int) -> int:
    """Exponent of the largest power of two dividing ``t``, capped at ``b``.

    Zero for odd ``t``; ``t`` must be >= 1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    trailing = (t & -t).bit_length() - 1
    return trailing if trailing < b else b


def optimal_epoch_length(horizon: int) -> int:
    """The paper's K, minimizing the untiled epoched work: round(sqrt(L log2 L)).

    Requires ``horizon >= 2``.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    return int(math.sqrt(horizon * math.log2(horizon)) + 0.5)


def default_epoch_length(horizon: int) -> int:
    """:class:`EpochedEngine`'s K when none is given, for every caller:
    four times :func:`optimal_epoch_length`, capped at the horizon, and
    1 below horizon 2.

    The paper's optimum balances rebuilds against an O(K) step, but a
    tiled step runs in a block of at most 256 whatever K, so a larger K
    only cuts rebuilds, at K slots of memory, still O(sqrt(L log L)).
    On a 2-vCPU Xeon (warm Filter, one BLAS thread, least ns/token of
    scratch generation, ``tools/epoch_curve.py``) K at 1, 2, 4, 8 and
    16 times the optimum took 763, 684, 617, 596 and 580 ns/token at
    2**16 and 1,618, 1,196, 1,095, 987 and 886 at 2**20: past 4x each
    doubling of the cache buys 3% at 2**16 and 10% at 2**20.
    """
    return min(horizon, 4 * optimal_epoch_length(horizon)) if horizon >= 2 else 1


def push_loop(push, x, n: int, feed) -> list:
    """The closed loop over any ``push``: push ``x``, then ``feed(y)`` of
    every output ``y`` but the last; the ``n`` outputs, in a list."""
    outs: list = []
    append = outs.append
    for _ in range(n - 1):
        y = push(x)
        append(y)
        x = feed(y)
    if n > 0:
        append(push(x))
    return outs


def _taps_of(phi: Filter | ArrayLike) -> np.ndarray:
    """Read-only float64 taps (one row on the last axis, or rows of them)."""
    if isinstance(phi, Filter):
        return phi.taps_array()
    taps = np.array(phi.values if isinstance(phi, Signal) else phi, dtype=np.float64)
    if taps.ndim == 0:
        taps = taps.reshape(1)
    if 0 in taps.shape[:-1]:
        raise ConfigurationError(f"taps have an empty leading axis: shape {taps.shape}")
    if not np.isfinite(taps).all():
        raise ValueError("filter taps must be finite (no NaN/Inf)")
    taps.setflags(write=False)
    return taps


def _layout(lead: tuple, sample: tuple) -> tuple:
    """Broadcast the taps' leading shape with the sample shape.

    Returns the output ``shape``, its axes ordered as (shared,
    taps-only, sample-only) (``perm``), and the three group sizes ``(S,
    F, G)``: an axis along which both the taps and the samples vary is
    shared, and so is one along which neither does. Taps then lay out as
    S x F rows and samples as S x G, so one step is S matrix products
    of (F, n) by (n, G).
    """
    n = max(len(lead), len(sample))
    lt = (1,) * (n - len(lead)) + lead
    ls = (1,) * (n - len(sample)) + sample
    groups = ([], [], [])
    for i in range(n):
        if min(lt[i], ls[i]) < 1 or lt[i] != ls[i] and min(lt[i], ls[i]) > 1:
            raise ConfigurationError(
                f"taps {lead} x L do not broadcast with samples {sample}")
        taps_vary, samples_vary = lt[i] > 1, ls[i] > 1
        groups[0 if taps_vary == samples_vary else 1 if taps_vary else 2].append(i)
    shape = tuple(max(lt[i], ls[i]) for i in range(n))
    perm = tuple(groups[0] + groups[1] + groups[2])
    sizes = tuple(math.prod(shape[i] for i in g) for g in groups)
    return shape, perm, sizes


class OnlineConvEngine:
    """Common state and contract for the streaming engines.

    ``phi`` holds the taps on its last axis: a :class:`Filter` or a 1-d
    array for one filter, or an array of shape ``(*lead, L)`` for a
    stack of filters. Each pushed sample has shape ``sample_shape``
    (the taps' leading shape by default), and each output the numpy
    broadcast of the two: taps ``(k, 1, L)`` over samples ``(d,)`` give
    ``(k, d)`` outputs, every filter over every channel; taps ``(d, L)``
    over samples ``(d,)`` give ``(d,)``, filter j over channel j.

    One filter over scalar samples is the scalar engine: ``push``
    returns a Python float, and the blocked step is one BLAS ``ddot``.
    Any other shape is a batched engine: ``push`` takes an array of
    ``sample_shape`` and returns a fresh array of ``shape``, and a step
    is one small matrix product. That choice is made once, at
    construction, from ``shape == ()``; it also sets the layout of the
    buffer and of the cached slots. The meter counts every output
    cell: ``size`` times the scalar engine's counters.

    ``run(x, n, feed)`` is the closed loop of generation: it pushes
    ``x``, then ``feed(y)`` of each output ``y`` but the last (n pushes,
    n - 1 feeds) and returns the n outputs in a list. It checks that n
    pushes fit the horizon before it makes any; a rejected sample, or a
    ``feed`` that raises, leaves the pushes made before it, as many
    ``push`` calls would.

    A single instance is single-owner mutable state: never push to one
    instance from two threads. Distinct instances are independent.
    """

    __slots__ = ("horizon", "shape", "sample_shape", "size", "_taps", "_ntaps",
                 "_buf", "_t", "_perm", "_rows", "_oshape", "_oinv", "_zeros",
                 "push", "run", "_in")

    kind = "abstract"
    # attributes that alias the buffers or the instance; a pickled or
    # copied state leaves them out, and _bind rebuilds them
    _aliases: tuple = ("push", "run", "_in")

    def __init__(self, phi: Filter | ArrayLike, horizon: int, sample_shape=None):
        horizon = int(horizon)
        if horizon < 1:
            raise ConfigurationError("horizon must be a positive integer")
        taps = _taps_of(phi)
        self.horizon = horizon
        self._ntaps = taps.shape[-1]
        self._t = 0
        lead = taps.shape[:-1]
        sample_shape = lead if sample_shape is None else tuple(int(n) for n in sample_shape)
        if not (lead or sample_shape):
            # the scalar engine: 1-d taps and buffer, nothing to lay out
            self.shape = self.sample_shape = self._rows = self._perm = ()
            self._oshape = self._oinv = ()
            self.size = 1
            self._zeros = None
            self._taps = taps
            self._buf = np.zeros(horizon)
            return
        shape, perm, rows = _layout(lead, sample_shape)
        self.shape = shape
        self.sample_shape = sample_shape
        self.size = math.prod(shape)
        self._rows = rows
        self._perm = perm
        # rows (S, F, G) -> shape: a reshape to the output axes in
        # layout order, then their inverse permutation
        self._oshape = tuple(shape[i] for i in perm)
        self._oinv = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        self._zeros = np.zeros(math.prod(sample_shape))
        # taps (S, F, 1, L) and a buffer (S, 1, G, horizon): the layout
        # middle broadcasts, every row of taps against every channel
        lt = (1,) * (len(shape) - len(lead)) + lead
        full = taps.reshape(lt + (self._ntaps,)).transpose(perm + (len(shape),))
        self._taps = full.reshape(rows[:2] + (1, self._ntaps)).copy()
        self._buf = np.zeros((rows[0], 1, rows[2], horizon))

    @property
    def steps(self) -> int:
        """Number of samples pushed so far."""
        return self._t

    @property
    def meter(self) -> CostMeter:
        """Counters after the pushes so far (see :class:`CostMeter`)."""
        return CostMeter(*(self.size * v for v in astuple(self._meter_one())))

    def _meter_one(self) -> CostMeter:
        """One scalar engine's counters after the same pushes."""
        raise NotImplementedError

    def push_many(self, samples) -> np.ndarray:
        """The outputs of pushing ``samples`` in order, on a new first axis."""
        xs = list(samples)
        if not xs:
            return np.empty((0,) + self.shape)
        # next(rest, y): the next sample (y is the default, never reached)
        feed = partial(next, iter(xs[1:]))
        return np.array(self.run(xs[0], len(xs), feed), dtype=np.float64)

    def reset(self) -> None:
        self._buf[...] = 0.0
        self._t = 0

    def _room(self, n: int) -> None:
        """Check that ``n`` more pushes fit the horizon, before any is made."""
        if n < 0:
            raise ValueError(f"a run makes n >= 0 pushes, got {n}")
        if n > self.horizon - self._t:
            raise HorizonError(f"push {self.horizon + 1} exceeds declared horizon {self.horizon}")

    def _run_pushes(self, x, n: int, feed) -> list:
        self._room(n)
        return push_loop(self.push, x, n, feed)

    def _bind(self) -> None:
        """(Re)build the attributes named in ``_aliases``.

        ``push`` is the scalar step on Python floats or the batched step
        on (S, F, G) rows, as ``shape`` decided at construction, and
        ``run`` the generic loop over it (a blocked scalar engine binds
        its own loop instead). ``_in`` is the batched buffer's (horizon,
        *sample_shape) view that a sample is written through. The buffer
        and the taps themselves are already in the layout
        :func:`~streamconv.convolution.middle` reads.
        """
        self.run = self._run_pushes
        if not self.shape:
            self.push = self._push_scalar
            return
        self.push = self._push_batched
        n, sample = len(self.shape), self.sample_shape
        ls = (1,) * (n - len(sample)) + sample
        view = self._buf.reshape(tuple(ls[i] for i in self._perm) + (self.horizon,))
        view = view.transpose(self._oinv + (n,))[(0,) * (n - len(sample))]
        self._in = np.moveaxis(view, -1, 0)

    def _accept(self, sample) -> int:
        """Check a batched sample and write it into slot t; return t."""
        self._room(1)
        t = self._t
        x = np.asarray(sample, dtype=np.float64)
        if x.shape != self.sample_shape:
            raise ValueError(f"sample must have shape {self.sample_shape}, got {x.shape}")
        # x . 0 is NaN iff some entry of x is NaN or infinite
        if not _isfinite(_ddot(x.ravel(), self._zeros)):
            raise ValueError(f"sample must be finite (no NaN/Inf), got {sample!r}")
        self._in[t] = x
        return t

    def _to_user(self, rows: np.ndarray) -> np.ndarray:
        """Rows (*lead, S, F, G) as an array of shape ``lead + shape``."""
        k = rows.ndim - len(self._rows)
        inv = tuple(range(k)) + tuple(k + i for i in self._oinv)
        return rows.reshape(rows.shape[:k] + self._oshape).transpose(inv)

    def __getstate__(self) -> dict:
        names = (n for cls in type(self).__mro__ for n in getattr(cls, "__slots__", ()))
        return {n: getattr(self, n) for n in names if n not in self._aliases}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._bind()


class NaiveEngine(OnlineConvEngine):
    """Direct inner product at each step.

    No auxiliary memory beyond the inputs and the filter; total work
    over a full horizon of L pushes is L(L+1)/2 multiply-adds per
    output cell.
    """

    __slots__ = ("_rtaps",)

    kind = "naive"

    def __init__(self, phi: Filter | ArrayLike, horizon: int, sample_shape=None):
        super().__init__(phi, horizon, sample_shape)
        self._rtaps = self._taps.reshape(self._rows[:2] + (-1,))[..., ::-1].copy()
        self._bind()

    def _meter_one(self) -> CostMeter:
        t = self._t
        return CostMeter(t * (t + 1) // 2, 0, 0, 0)

    def _push_scalar(self, sample: float) -> float:
        self._room(1)
        t = self._t
        if not _isfinite(sample):
            raise ValueError(f"sample must be finite (no NaN/Inf), got {sample!r}")
        buf = self._buf
        buf[t] = sample
        t += 1
        self._t = t
        m = self._ntaps
        w = t if t < m else m
        return float(_dot(buf[t - w:t], self._rtaps[m - w:]))

    def _push_batched(self, sample) -> np.ndarray:
        t = self._accept(sample) + 1
        self._t = t
        m = self._ntaps
        w = t if t < m else m
        # reversed taps (S, F, w) against the last w inputs (S, w, G)
        acc = self._rtaps[..., m - w:] @ self._buf[:, 0, :, t - w:t].mT
        return acc.reshape(self._oshape).transpose(self._oinv)


# the largest block B of the fast engines; see _BlockedEngine for the choice
_BLOCK = 256


class _BlockedEngine(OnlineConvEngine):
    """The one cache policy of the epoched and continuous engines.

    The cache keeps K slots on its last axis, as ``middle`` writes them:
    slot s of the current epoch (its s-th output) at index s - 1. Pushes
    run in blocks of B = min(256, K) steps inside the epoch, its last
    block short when B does not divide K. At phase tau of a block the
    output is the cached slot plus the block's first tau inputs against
    the first tau taps, reversed: one buffer write, one slot read and
    one inner product (scalar, in ``run``'s loop) or matrix product
    (batched, in ``push``). After a block's last step,
    ``_next_block(t)`` fills the next block's slots and returns them.

    At an epoch start every slot is rebuilt from all history. Otherwise,
    at each phase s that is a multiple of B, one level of FutureFill's
    continuous schedule adds the last m = s & -s inputs' contribution to
    the next m outputs, cut at the epoch's end and the horizon; m >= B.
    An (input i, output j) pair of one block is served by the step's
    inner product; any other pair of one epoch by exactly one level, the
    one at the multiple of B in [i, j) with the most trailing zeros; a
    pair across epochs by the rebuild. Each runs at or before the
    boundary that opens j's block, so every slot is complete when its
    block starts and no update touches a consumed slot. The continuous
    engine is the case K = L, one epoch.

    B is a constant: the step's BLAS ``ddot`` costs about 200 ns whether
    it sums 1 term or 256. On a 2-vCPU Xeon (one BLAS thread, warm
    Filter, medians of 12 interleaved in-process rounds), a continuous
    generation call at 2**16 took 40.3 ms at B = 64, 36.2 at 128, 34.8
    at 256 and 34.4 at 512; in two such sets 256 was 10-14% faster than
    64 at every horizon from 2**12 to 2**18 and 512 within 2% of 256, so
    B is the smaller of the two.

    Every middle product passes a store of tap spectra, owned with the
    taps under ``middle``'s store rule: a one-row engine over a
    :class:`~streamconv.signal.Filter` passes the Filter's store, so
    later engines and prefills over that Filter read what it
    transformed, and an engine over array taps or batched rows keeps its
    own, which ``reset`` keeps. The spectra are a function of the
    filter, not of the stream: ``peak_aux_elems`` leaves them out, and
    copies and pickles of the engine carry none.
    """

    __slots__ = ("_last", "_cache", "_epoch", "_slots", "_e0", "_blk", "_blkv", "_rtaps_b",
                 "_spectra")

    _aliases = OnlineConvEngine._aliases + ("_blk", "_blkv")

    def __init__(self, phi: Filter | ArrayLike, horizon: int, epoch_len: int,
                 sample_shape=None):
        super().__init__(phi, horizon, sample_shape)
        # a Filter's store holds one row's spectra; batched rows would write another shape
        self._spectra = phi._spectra if isinstance(phi, Filter) and not self.shape else []
        block = min(_BLOCK, epoch_len)
        self._last = block - 1
        # r[x] = phi_{B-x} (1-based, zero past the stored taps): the
        # first tau inputs of the block against r[B-tau:] are the
        # within-block sum at phase tau
        taps = self._taps.reshape(self._rows[:2] + (-1,))
        r = np.zeros(taps.shape[:-1] + (block,))
        n = min(block, self._ntaps)
        r[..., block - n:] = taps[..., :n][..., ::-1]
        self._rtaps_b = r
        self._cache = np.zeros(self._rows + (epoch_len,))
        self._epoch = 0
        self._start(0, self._cache[..., :block])
        self._bind()

    @property
    def cache(self) -> np.ndarray:
        """Copy of the current cache (slot s at index s-1), each slot of ``shape``."""
        return self._to_user(np.moveaxis(self._cache, -1, 0)).copy()

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_spectra"] = []  # a copy carries no store
        return state

    def reset(self) -> None:
        super().reset()
        self._cache[...] = 0.0
        self._epoch = 0
        self._start(0, self._cache[..., :self._last + 1])

    def _push_scalar(self, sample: float) -> float:
        return self.run(sample, 1, None)[0]

    def _run_scalar(self, x, n: int, feed) -> list:
        """``run`` on a scalar engine: the one scalar blocked step."""
        self._room(n)
        t0 = t = self._t
        end = t + n
        outs: list = []
        append = outs.append
        r, last, ddot, isfinite = self._rtaps_b, self._last, _ddot, _isfinite
        y, f = x, pos  # the first push takes x itself: +x is x
        try:
            while t < end:
                e0, slots, blk, blkv = self._e0, self._slots, self._blk, self._blkv
                # phases p .. q-1 of this block; the first push runs alone
                p = t - e0
                q = p + 1 if t == t0 else min(len(slots), end - e0)
                for p in range(p, q):
                    x = f(y)
                    if not isfinite(x):
                        raise ValueError(f"sample must be finite (no NaN/Inf), got {x!r}")
                    blkv[p] = x
                    # ddot(x, y, n, offx): r[B-tau:] . block[:tau] at phase tau = p + 1
                    y = slots[p] + ddot(r, blk, p + 1, last - p)
                    append(y)
                t, f = e0 + q, feed
                if q == len(slots):
                    self._start(t, self._next_block(t))
        finally:
            self._t = t0 + len(outs)
        return outs

    def _push_batched(self, sample) -> np.ndarray:
        t = self._accept(sample)
        p = t - self._e0
        # (S, F, tau) @ (S, tau, G): r[B-tau:] against the block's first tau inputs
        acc = self._rtaps_b[..., self._last - p:] @ self._blk[..., :p + 1].mT
        acc += self._slots[p]
        t += 1
        self._t = t
        if p + 1 == len(self._slots):
            self._start(t, self._next_block(t))
        return acc.reshape(self._oshape).transpose(self._oinv)

    def _next_block(self, t: int) -> np.ndarray:
        """Fill the cached slots of the block after the t-th push; return them."""
        cache, k = self._cache, self._cache.shape[-1]
        s = t - self._epoch
        if t == self.horizon:
            pass  # no later push reads a slot
        elif s == k:
            # a new epoch: the future contribution of all history
            self._epoch, s = t, 0
            n = min(k, self.horizon - t)
            cache[..., :n] = middle(self._buf[..., :t], self._taps, t, n, self._spectra)
            cache[..., n:] = 0.0
        else:
            # one schedule level: the last m inputs against taps 2..2m,
            # positions m..2m-1 of their m x 2m product, cut at the
            # epoch's end and the horizon
            m = s & -s
            n = min(m, k - s, self.horizon - t)
            ahead = cache[..., s:s + n]
            ahead += middle(self._buf[..., t - m:t], self._taps, m, n, self._spectra)
        return cache[..., s:s + self._last + 1]

    def _start(self, t: int, slots: np.ndarray) -> None:
        # each step reads its own copy of the block: floats, or (B, S, F, G) rows
        self._e0 = t
        self._slots = np.moveaxis(slots, -1, 0).copy() if self.shape else slots.tolist()
        self._bind_block()

    def _bind_block(self) -> None:
        # the block's inputs: (S, G, B) rows for the batched step, or read
        # by the scalar step's ddot and written through a memoryview
        blk = self._buf[..., self._e0:self._e0 + self._last + 1]
        if self.shape:
            self._blk = blk[:, 0]
        else:
            self._blk = blk
            self._blkv = memoryview(blk)

    def _bind(self) -> None:
        super()._bind()
        if not self.shape:
            self.run = self._run_scalar
        self._bind_block()


class EpochedEngine(_BlockedEngine):
    """Cache the next K future contributions, rebuilding every K steps.

    K is :func:`default_epoch_length` of the horizon unless given,
    four times the paper's untiled optimum: the cache holds O(sqrt(L
    log L)) slots, and a call at 2**16 counts 16 rebuilds where the
    optimum's K = 1,024 counts 64. A rebuild is one
    :func:`~streamconv.convolution.middle` window, whose paths never
    span the 2t + K points of the full product, filling only the slots
    a later push can read: none at the horizon, where it is still
    counted and charged. Within the epoch the cache follows
    :class:`_BlockedEngine`'s schedule.
    """

    __slots__ = ("epoch_len",)

    kind = "epoched"

    def __init__(self, phi: Filter | ArrayLike, horizon: int, epoch_len: int | None = None,
                 sample_shape=None):
        if epoch_len is None:
            epoch_len = default_epoch_length(int(horizon))
        epoch_len = int(epoch_len)
        if epoch_len < 1:
            raise ConfigurationError("epoch length must be >= 1")
        self.epoch_len = epoch_len
        super().__init__(phi, horizon, epoch_len, sample_shape)

    def _meter_one(self) -> CostMeter:
        t, k = self._t, self.epoch_len
        q, r = divmod(t, k)
        ff = 0
        for i in range(1, q + 1):
            s = i * k
            n_fft = next_pow2(max(1, s + min(s + k, self._ntaps) - 1))
            ff += n_fft * (n_fft.bit_length() - 1)  # n * log2(n)
        mac = q * (k * (k + 1) // 2) + r * (r + 1) // 2  # sum of phases
        return CostMeter(mac, ff, q, k)


class ContinuousEngine(_BlockedEngine):
    """Schedule-driven cache covering the whole horizon.

    FutureFill's continuous schedule: after step t, the contribution of
    the last ``m = 2**k(t)`` inputs to the next m outputs is added to
    the cache, where k(t) is the number of trailing zero bits of t
    (capped at floor(log2 horizon)). Writes past the horizon are
    truncated: :class:`_BlockedEngine`'s policy with one epoch, K = L.
    """

    __slots__ = ("b",)

    kind = "continuous"

    def __init__(self, phi: Filter | ArrayLike, horizon: int, sample_shape=None):
        super().__init__(phi, horizon, int(horizon), sample_shape)
        self.b = self.horizon.bit_length() - 1  # floor(log2 horizon)

    def _meter_one(self) -> CostMeter:
        # the untiled schedule's nominal charge. ff_cost: sum over steps
        # s of (1 v k) * 2**k with k = k_of_t(s, b); t // 2**k -
        # t // 2**(k+1) steps have exactly k trailing zero bits
        t, b = self._t, self.b
        ff = (t >> b) * (max(1, b) << b)
        for k in range(b):
            ff += ((t >> k) - (t >> (k + 1))) * (max(1, k) << k)
        return CostMeter(t, ff, 0, self.horizon)


def make_engine(
    kind: str,
    phi: Filter | ArrayLike,
    horizon: int,
    epoch_len: int | None = None,
    sample_shape=None,
) -> OnlineConvEngine:
    """Build an engine by kind name ("naive", "epoched", "continuous").

    ``phi`` and ``sample_shape`` are as for :class:`OnlineConvEngine`.
    """
    if kind == "naive":
        return NaiveEngine(phi, horizon, sample_shape)
    if kind == "epoched":
        return EpochedEngine(phi, horizon, epoch_len, sample_shape)
    if kind == "continuous":
        return ContinuousEngine(phi, horizon, sample_shape)
    raise ConfigurationError(
        f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
    )
