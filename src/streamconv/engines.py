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
* :class:`ContinuousEngine` -- a horizon-sized cache updated on a
  power-of-two schedule; each slot is complete by the time it is
  read, giving quasilinear total work.

The two fast engines share one blocked step (a cached slot plus one
inner product over the block's own inputs) and differ only in how they
fill the next block's slots: a rebuild from all history, or the one
schedule level on the boundary. This tiling is how Flash Inference
(Oncescu et al., arXiv 2410.12982) composes the two algorithms.

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
        The continuous engine's two counters are the untiled
        schedule's nominal charge, also for the levels it runs as the
        block's inner products.
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
    """Epoch length minimizing total epoched work: round(sqrt(L log2 L)).

    Requires ``horizon >= 2``.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    return int(math.sqrt(horizon * math.log2(horizon)) + 0.5)


def default_epoch_length(horizon: int) -> int:
    """:class:`EpochedEngine`'s K when none is given, for every caller:
    :func:`optimal_epoch_length`, and 1 below horizon 2."""
    return optimal_epoch_length(horizon) if horizon >= 2 else 1


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
                 "push", "run", "_past", "_mtaps", "_in")

    kind = "abstract"
    # attributes that alias the buffers or the instance; a pickled or
    # copied state leaves them out, and _bind rebuilds them
    _aliases: tuple = ("push", "run", "_past", "_mtaps", "_in")

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
        # taps (S, F, L) and a buffer (S, G, horizon), whose (S, 1, G, t)
        # view middle broadcasts against the taps' (S, F, 1, L) view
        lt = (1,) * (len(shape) - len(lead)) + lead
        full = taps.reshape(lt + (self._ntaps,)).transpose(perm + (len(shape),))
        self._taps = full.reshape(rows[:2] + (self._ntaps,)).copy()
        self._buf = np.zeros((rows[0], rows[2], horizon))

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
        its own loop instead).
        ``_past`` and ``_mtaps`` are the buffer and the taps as
        :func:`~streamconv.convolution.middle` reads them, and ``_in``
        the buffer's (horizon, *sample_shape) view that a batched sample
        is written through.
        """
        self.run = self._run_pushes
        if not self.shape:
            self.push = self._push_scalar
            self._past, self._mtaps = self._buf, self._taps
            return
        self.push = self._push_batched
        self._past, self._mtaps = self._buf[:, None], self._taps[:, :, None]
        n, sample = len(self.shape), self.sample_shape
        ls = (1,) * (n - len(sample)) + sample
        view = self._buf.reshape(tuple(ls[i] for i in self._perm) + (self.horizon,))
        view = view.transpose(self._oinv + (n,))[(0,) * (n - len(sample))]
        self._in = np.moveaxis(view, -1, 0)

    def _accept(self, sample) -> int:
        """Check a batched sample and write it into slot t; return t."""
        t = self._t
        if t >= self.horizon:
            raise HorizonError(f"push {t + 1} exceeds declared horizon {self.horizon}")
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
        self._rtaps = self._taps[..., ::-1].copy()
        self._bind()

    def _meter_one(self) -> CostMeter:
        t = self._t
        return CostMeter(t * (t + 1) // 2, 0, 0, 0)

    def _push_scalar(self, sample: float) -> float:
        t = self._t
        if t >= self.horizon:
            raise HorizonError(f"push {t + 1} exceeds declared horizon {self.horizon}")
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
        acc = self._rtaps[..., m - w:] @ self._buf[..., t - w:t].mT
        return acc.reshape(self._oshape).transpose(self._oinv)


class _BlockedEngine(OnlineConvEngine):
    """The step shared by the epoched and continuous engines.

    Pushes run in blocks of B steps. At phase tau of a block (its tau-th
    step) the output is the cached slot, which holds the contribution of
    every input before the block, plus the within-block sum: the block's
    first tau inputs against the first tau taps, reversed. That is one
    buffer write, one slot read and one inner product (scalar, in
    ``run``'s loop) or one matrix product (batched, in ``push``). After
    the block's last step, ``_next_block(t)`` returns the cached slots
    t+1 .. t+B of the next one. The cache keeps its slots on the last
    axis, as ``middle`` writes them.
    """

    __slots__ = ("_last", "_cache", "_slots", "_e0", "_blk", "_blkv", "_rtaps_b")

    _aliases = OnlineConvEngine._aliases + ("_blk", "_blkv")

    def __init__(self, phi: Filter | ArrayLike, horizon: int, block: int, cache_len: int,
                 sample_shape=None):
        super().__init__(phi, horizon, sample_shape)
        self._last = block - 1
        # r[x] = phi_{B-x} (1-based, zero past the stored taps): the
        # first tau inputs of the block against r[B-tau:] are the
        # within-block sum at phase tau
        taps = self._taps
        r = np.zeros(taps.shape[:-1] + (block,))
        n = min(block, self._ntaps)
        r[..., block - n:] = taps[..., :n][..., ::-1]
        self._rtaps_b = r
        # slot s of the cache at index s - 1 of the last axis, after the (S, F, G) rows
        self._cache = np.zeros(self._rows + (cache_len,))
        # the batched step's own (B, S, F, G) copy of its block, refilled by _start
        self._slots = np.zeros((block,) + self._rows) if self.shape else None
        self._start(0, self._cache[..., :block])
        self._bind()

    @property
    def cache(self) -> np.ndarray:
        """Copy of the current cache (slot s at index s-1), each slot of ``shape``."""
        return self._to_user(np.moveaxis(self._cache, -1, 0)).copy()

    def reset(self) -> None:
        super().reset()
        self._cache[...] = 0.0
        self._start(0, self._cache[..., :self._last + 1])

    def _push_scalar(self, sample: float) -> float:
        return self.run(sample, 1, None)[0]

    def _run_scalar(self, x, n: int, feed) -> list:
        """``run`` on a scalar engine: the one scalar blocked step."""
        t0 = t = self._t
        end = t + n
        if not t <= end <= self.horizon:
            self._room(n)
        outs: list = []
        append = outs.append
        r, last, ddot, isfinite = self._rtaps_b, self._last, _ddot, _isfinite
        y, f = x, pos  # the first push takes x itself: +x is x
        try:
            while t < end:
                e0, slots, blk, blkv = self._e0, self._slots, self._blk, self._blkv
                # phases p .. q-1 of this block; the first push runs alone
                p = t - e0
                q = p + 1 if t == t0 else min(last + 1, end - e0)
                for p in range(p, q):
                    x = f(y)
                    if not isfinite(x):
                        raise ValueError(f"sample must be finite (no NaN/Inf), got {x!r}")
                    blkv[p] = x
                    # ddot(x, y, n, offx): r[B-tau:] . block[:tau] at phase tau = p + 1
                    y = slots[p] + ddot(r, blk, p + 1, last - p)
                    append(y)
                t, f = e0 + q, feed
                if q > last:
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
        if p == self._last:
            self._start(t, self._next_block(t))
        return acc.reshape(self._oshape).transpose(self._oinv)

    def _next_block(self, t: int) -> np.ndarray:
        """Cached slots t+1 .. t+B on the last axis, after the t-th push."""
        raise NotImplementedError

    def _start(self, t: int, slots: np.ndarray) -> None:
        # each step reads its own copy of the block: floats, or (B, S, F, G) rows
        self._e0 = t
        if self.shape:
            self._slots[:slots.shape[-1]] = np.moveaxis(slots, -1, 0)
        else:
            self._slots = slots.tolist()
        self._bind_block()

    def _bind_block(self) -> None:
        # the block's inputs: read by the step's ddot, written through a memoryview
        self._blk = self._buf[..., self._e0:self._e0 + self._last + 1]
        if not self.shape:
            self._blkv = memoryview(self._blk)

    def _bind(self) -> None:
        super()._bind()
        if not self.shape:
            self.run = self._run_scalar
        self._bind_block()


class EpochedEngine(_BlockedEngine):
    """Cache the next K future contributions, rebuilding every K steps.

    The block is the epoch (B = K), K being
    :func:`default_epoch_length` of the horizon unless given. When the
    phase wraps, the cache is repopulated with the future contribution
    of everything seen so far: one :func:`~streamconv.convolution.middle`
    window, whose paths never span the 2t + K points of the full
    product. Only the slots a later push can read are filled: none at
    all for the rebuild at the horizon, which is still counted and
    charged.

    The one engine that reads a :class:`~streamconv.signal.Filter`'s
    tap-spectra store: over one Filter and scalar samples it passes the
    store to every rebuild, under ``middle``'s store rule. The store is
    the Filter's, not the stream's: ``peak_aux_elems`` leaves it out,
    and copies and pickles of the engine do not share it.
    """

    __slots__ = ("epoch_len", "_spectra")

    kind = "epoched"

    def __init__(self, phi: Filter | ArrayLike, horizon: int, epoch_len: int | None = None,
                 sample_shape=None):
        if epoch_len is None:
            epoch_len = default_epoch_length(int(horizon))
        epoch_len = int(epoch_len)
        if epoch_len < 1:
            raise ConfigurationError("epoch length must be >= 1")
        self.epoch_len = epoch_len
        super().__init__(phi, horizon, epoch_len, epoch_len, sample_shape)
        # a Filter's store holds one row's spectra; batched rows would write another shape
        self._spectra = phi._spectra if isinstance(phi, Filter) and not self.shape else None

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_spectra"] = None  # a copy shares no Filter's store
        return state

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

    def _next_block(self, t: int) -> np.ndarray:
        """Refill the cache with future positions t+1 .. t+K of [u*phi]."""
        cache = self._cache
        n = max(0, min(self.epoch_len, self.horizon - t))  # the slots a later push reads
        if n > 0:
            cache[..., :n] = middle(self._past[..., :t], self._mtaps, t, n, self._spectra)
        cache[..., n:] = 0.0
        return cache


# the continuous engine's block B; see ContinuousEngine for the choice
_BLOCK = 64


class ContinuousEngine(_BlockedEngine):
    """Schedule-driven cache covering the whole horizon.

    FutureFill's continuous schedule: after step t, the contribution of
    the last ``m = 2**k(t)`` inputs to the next m outputs is added to
    the cache, where k(t) is the number of trailing zero bits of t
    (capped at floor(log2 horizon)). Writes past the horizon are
    truncated.

    The schedule is tiled into the shared blocked step with a fixed
    block B = 64: an (input i, output s) pair inside one block is
    served by the step's inner product, and the schedule runs only at
    multiples of B, where m >= B. Any other pair is covered by exactly
    one of those updates, the one at the multiple of B in [i, s) with
    the most trailing zeros. It runs at or before the boundary that
    opens s's block, so every slot is complete when its block starts,
    and no update touches an already-consumed slot. The cache therefore
    holds the contributions of earlier blocks only.

    B is a constant, not a parameter. The levels below it (m = 1 .. 32,
    on 63 steps in 64) become the step's inner product of at most 64
    terms, which costs little more than the BLAS call itself, and each
    level from 64 up is one middle product per boundary. On a 2-vCPU
    Xeon, 32 ran 10-15% slower than 64 in bare push loops at horizons
    2**10, 2**12 and 2**16, and 128 ran 1-4% faster on the generation
    benchmark, inside the spread of its runs at 64.
    """

    __slots__ = ("b",)

    kind = "continuous"

    def __init__(self, phi: Filter | ArrayLike, horizon: int, sample_shape=None):
        super().__init__(phi, horizon, _BLOCK, int(horizon), sample_shape)
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

    def _next_block(self, t: int) -> np.ndarray:
        # below the horizon t < 2**(b+1), so k(t) is not capped and m is
        # the lowest set bit of t. The last m inputs against taps
        # 2..2m: positions m..2m-1 of their m x 2m product, cut to the
        # horizon.
        m = t & -t
        n = min(m, self.horizon - t)
        if n > 0:
            ahead = self._cache[..., t:t + n]
            ahead += middle(self._past[..., t - m:t], self._mtaps, m, n)
        return self._cache[..., t:t + _BLOCK]


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
