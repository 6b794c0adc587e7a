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

Every engine carries a :class:`CostMeter` whose counters are exact
integers, deterministic for a given input length and configuration
(they never depend on the sample values). They are derived in closed
form from the step count when ``meter`` is read, so ``push`` never
touches them. Wall-clock measurement is the benchmark CLI's job, not
the meters'.

The push methods are deliberately flat: they run once per generated
token, so attribute traffic and tiny-array dispatch dominate the
wall-clock of the sub-quadratic engines at practical sizes. Scalar
reads and writes therefore go through ``memoryview``s of the buffers
(a Python float in and out, without numpy's item dispatch), and the
epoched step's inner product through BLAS ``ddot`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import dot as _dot
from scipy.linalg.blas import ddot as _ddot

from .convolution import middle, next_pow2
from .errors import ConfigurationError, HorizonError
from .signal import ArrayLike, Filter, as_filter

ENGINE_KINDS = ("naive", "epoched", "continuous")


@dataclass
class CostMeter:
    """Deterministic instrumentation counters.

    mac_count
        Scalar multiply-adds charged by direct inner products, at the
        nominal cost of the method (position index per step for the
        naive method, epoch phase per step for the epoched one).
    ff_cost
        Accumulated fast-convolution charge: ``(1 v k) * 2**k`` per
        step for the schedule-driven engine; per cache rebuild
        otherwise, ``n * log2(n)`` with ``n`` the power of two padding
        the full product of the inputs so far and the taps they reach
        (the nominal charge; the middle product actually run is
        shorter).
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
        return {
            "mac_count": self.mac_count,
            "ff_cost": self.ff_cost,
            "cache_rebuilds": self.cache_rebuilds,
            "peak_aux_elems": self.peak_aux_elems,
        }


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


class OnlineConvEngine:
    """Common state and contract for the streaming engines.

    A single instance is single-owner mutable state: never push to one
    instance from two threads. Distinct instances are independent.
    """

    __slots__ = ("filter", "horizon", "_taps", "_ntaps", "_buf", "_t")

    kind = "abstract"
    # attributes that alias the buffers; a pickled or copied state
    # leaves them out, and _bind rebuilds them on the restored buffers
    _aliases: tuple = ()

    def __init__(self, phi: Filter | ArrayLike, horizon: int):
        horizon = int(horizon)
        if horizon < 1:
            raise ConfigurationError("horizon must be a positive integer")
        self.filter = as_filter(phi)
        self.horizon = horizon
        taps = self.filter.taps_array()
        self._taps = taps
        self._ntaps = taps.size
        self._buf = np.zeros(horizon)
        self._t = 0

    @property
    def steps(self) -> int:
        """Number of samples pushed so far."""
        return self._t

    @property
    def meter(self) -> CostMeter:
        """Counters after the pushes so far (see :class:`CostMeter`)."""
        raise NotImplementedError

    def push(self, sample: float) -> float:
        raise NotImplementedError

    def push_many(self, samples) -> np.ndarray:
        out = np.empty(len(samples))
        push = self.push
        for i, x in enumerate(samples):
            out[i] = push(x)
        return out

    def reset(self) -> None:
        self._buf[:] = 0.0
        self._t = 0

    def _bind(self) -> None:
        """(Re)build the attributes named in ``_aliases``."""

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
    over a full horizon of L pushes is L(L+1)/2 multiply-adds.
    """

    __slots__ = ("_rtaps",)

    kind = "naive"

    def __init__(self, phi: Filter | ArrayLike, horizon: int):
        super().__init__(phi, horizon)
        self._rtaps = self._taps[::-1].copy()

    @property
    def meter(self) -> CostMeter:
        t = self._t
        return CostMeter(t * (t + 1) // 2, 0, 0, 0)

    def push(self, sample: float) -> float:
        t = self._t
        if t >= self.horizon:
            raise HorizonError(f"push {t + 1} exceeds declared horizon {self.horizon}")
        buf = self._buf
        buf[t] = sample
        t += 1
        self._t = t
        m = self._ntaps
        if m == 0:
            return 0.0
        if t <= m:
            return _dot(buf[:t], self._rtaps[m - t:])
        return _dot(buf[t - m:t], self._rtaps)


class EpochedEngine(OnlineConvEngine):
    """Cache the next K future contributions, rebuilding every K steps.

    A step is one buffer write, one cached read and one inner product:
    the first tau inputs of the current epoch (tau is the phase) against
    the first tau taps, reversed. When the phase wraps, the cache is
    repopulated with the future contribution of everything seen so far,
    obtained from one :func:`~streamconv.convolution.middle` product
    whose transforms span about t + K points, not the 2t + K of the full
    product. Only the slots a later push can read are filled: none at
    all for the rebuild at the horizon, which is still counted and
    charged.
    """

    __slots__ = ("epoch_len", "_last", "_cache", "_slots", "_e0", "_blk", "_bufv",
                 "_rtaps_k")

    kind = "epoched"
    _aliases = ("_bufv", "_blk", "_slots")

    def __init__(self, phi: Filter | ArrayLike, horizon: int, epoch_len: int | None = None):
        super().__init__(phi, horizon)
        if epoch_len is None:
            epoch_len = optimal_epoch_length(horizon) if horizon >= 2 else 1
        epoch_len = int(epoch_len)
        if epoch_len < 1:
            raise ConfigurationError("epoch length must be >= 1")
        k = epoch_len
        self.epoch_len = k
        self._last = k - 1
        self._cache = np.zeros(k)
        # r[x] = phi_{K-x} (1-based, zero past the stored taps): the
        # first tau inputs of the epoch against r[K-tau:] are the
        # within-epoch sum at phase tau
        r = np.zeros(k)
        n = min(k, self._ntaps)
        r[k - n:] = self._taps[:n][::-1]
        self._rtaps_k = r
        self._start_epoch(0)

    @property
    def cache(self) -> np.ndarray:
        """Copy of the current cache (slot s at index s-1)."""
        return self._cache.copy()

    @property
    def meter(self) -> CostMeter:
        t, k = self._t, self.epoch_len
        q, r = divmod(t, k)
        ff = 0
        for i in range(1, q + 1):
            s = i * k
            n_fft = next_pow2(max(1, s + min(s + k, self._ntaps) - 1))
            ff += n_fft * (n_fft.bit_length() - 1)  # n * log2(n)
        mac = q * (k * (k + 1) // 2) + r * (r + 1) // 2  # sum of phases
        return CostMeter(mac, ff, q, k)

    def reset(self) -> None:
        super().reset()
        self._cache[:] = 0.0
        self._start_epoch(0)

    def push(self, sample: float) -> float:
        t = self._t
        if t >= self.horizon:
            raise HorizonError(f"push {t + 1} exceeds declared horizon {self.horizon}")
        self._bufv[t] = sample
        p = t - self._e0  # phase tau - 1
        # ddot(x, y, n, offx): r[K-tau:] . block[:tau]
        acc = self._slots[p] + _ddot(self._rtaps_k, self._blk, p + 1, self._last - p)
        t += 1
        self._t = t
        if p == self._last:
            self._rebuild(t)
        return acc

    def _rebuild(self, t: int) -> None:
        """Refill the cache with future positions t+1 .. t+K of [u*phi]."""
        k = self.epoch_len
        cache = self._cache
        cache[:] = 0.0
        # slots a later push reads and a stored tap reaches
        n = min(k, self.horizon - t, min(t + k, self._ntaps) - 1)
        if n > 0:
            cache[:n] = middle(self._buf[:t], self._taps, t, n)
        self._start_epoch(t)

    def _start_epoch(self, t: int) -> None:
        self._e0 = t
        self._bind()

    def _bind(self) -> None:
        self._bufv = memoryview(self._buf)
        self._blk = self._buf[self._e0:self._e0 + self.epoch_len]
        self._slots = self._cache.tolist()


class ContinuousEngine(OnlineConvEngine):
    """Schedule-driven cache covering the whole horizon.

    Step t outputs ``C_t + u_t * phi_1``, then pre-computes the
    contribution of the last ``2**k(t)`` inputs to the next ``2**k(t)``
    outputs, where k(t) is the number of trailing zero bits of t
    (capped at floor(log2 horizon)). Writes past the horizon are
    truncated. Each cache slot is complete before the step that reads
    it, and no update touches an already-consumed slot.

    The three smallest update sizes (seven steps in eight) are evaluated
    with scalar arithmetic: at m = 1, 2, 4 inputs the update is at most
    16 multiply-adds, which cost less than one numpy call. They write
    the same values as the general path at offsets t+1 .. t+m, all
    strictly ahead of the consumed watermark; every larger update, and
    an m = 4 update cut short by the horizon, goes through
    :func:`~streamconv.convolution.middle`.
    """

    __slots__ = ("b", "_cache", "_bufv", "_cachev", "_tap0", "_tap1", "_tap2", "_tap3",
                 "_taps4")

    kind = "continuous"
    _aliases = ("_bufv", "_cachev")

    def __init__(self, phi: Filter | ArrayLike, horizon: int):
        super().__init__(phi, horizon)
        self.b = horizon.bit_length() - 1  # floor(log2 horizon)
        self._cache = np.zeros(horizon)
        self._bind()
        taps = self._taps
        pad = [float(taps[i]) if i < taps.size else 0.0 for i in range(8)]
        self._tap0, self._tap1, self._tap2, self._tap3 = pad[:4]
        self._taps4 = tuple(pad[1:])  # taps 2..8 of the m = 4 update

    @property
    def cache(self) -> np.ndarray:
        """Copy of the current cache (slot s at index s-1)."""
        return self._cache.copy()

    @property
    def meter(self) -> CostMeter:
        # ff_cost: sum over steps s of (1 v k) * 2**k with k = k_of_t(s, b);
        # t // 2**k - t // 2**(k+1) steps have exactly k trailing zero bits
        t, b = self._t, self.b
        ff = (t >> b) * (max(1, b) << b)
        for k in range(b):
            ff += ((t >> k) - (t >> (k + 1))) * (max(1, k) << k)
        return CostMeter(t, ff, 0, self.horizon)

    def reset(self) -> None:
        super().reset()
        self._cache[:] = 0.0

    def _bind(self) -> None:
        self._bufv = memoryview(self._buf)
        self._cachev = memoryview(self._cache)

    def push(self, sample: float) -> float:
        t = self._t
        horizon = self.horizon
        if t >= horizon:
            raise HorizonError(f"push {t + 1} exceeds declared horizon {horizon}")
        self._bufv[t] = sample
        cv = self._cachev
        out = cv[t] + sample * self._tap0
        t += 1
        self._t = t

        if t < horizon:
            # slots 1..t are consumed; every write below starts at slot
            # t+1. Here t < horizon < 2**(b+1), so k(t) is never capped:
            # 2**k(t) is the lowest set bit of t.
            if t & 1:
                # k = 0: future slice of [u_t] against taps 2..2: one term
                cv[t] += sample * self._tap1
            elif t & 2:
                # k = 1: last two inputs against taps 2..4: two slots ahead
                prev = self._bufv[t - 2]
                cv[t] += sample * self._tap1 + prev * self._tap2
                if t + 1 < horizon:
                    cv[t + 1] += sample * self._tap2 + prev * self._tap3
            elif t & 4 and t + 3 < horizon:
                # k = 2: last four inputs against taps 2..8: four slots ahead
                bv = self._bufv
                u2, u1, u0 = bv[t - 2], bv[t - 3], bv[t - 4]
                c1, c2, c3, c4, c5, c6, c7 = self._taps4
                cv[t] += sample * c1 + u2 * c2 + u1 * c3 + u0 * c4
                cv[t + 1] += sample * c2 + u2 * c3 + u1 * c4 + u0 * c5
                cv[t + 2] += sample * c3 + u2 * c4 + u1 * c5 + u0 * c6
                cv[t + 3] += sample * c4 + u2 * c5 + u1 * c6 + u0 * c7
            else:
                # last m >= 4 inputs against taps 2..2m: positions
                # m..2m-1 of their m x 2m product, cut to the horizon and
                # to the stored taps
                m = t & -t
                n_write = min(m, horizon - t, self._ntaps - 1)
                if n_write > 0:
                    ahead = self._cache[t:t + n_write]
                    ahead += middle(self._buf[t - m:t], self._taps, m, n_write)
        return out


def make_engine(
    kind: str,
    phi: Filter | ArrayLike,
    horizon: int,
    epoch_len: int | None = None,
) -> OnlineConvEngine:
    """Build an engine by kind name ("naive", "epoched", "continuous")."""
    if kind == "naive":
        return NaiveEngine(phi, horizon)
    if kind == "epoched":
        return EpochedEngine(phi, horizon, epoch_len)
    if kind == "continuous":
        return ContinuousEngine(phi, horizon)
    raise ConfigurationError(
        f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
    )
