"""Auto-regressive generation drivers: from scratch and from a prompt.

Prompted generation runs in two phases. Prefill digests the whole
prompt into a cache with exactly one slot per token to be generated
(never one per prompt token), using a single middle product.
Decode then walks the cache, feeding each emitted value back through
an online engine that only ever sees the generated tokens, so the
auxiliary memory during decode is bounded by the generation budget
alone, independent of the prompt length.

The defining recurrence for prompted generation is

    yhat_t = sum_{j=1}^{t-1} x_{t-j} * phi_j
           + sum_{j=t}^{t+L-1} p_{t+L-j} * phi_j

with x the fed-back tokens and p the length-L prompt. Slot t of the
prefill cache holds the second sum, which is position L+t-1 (1-based)
of the full convolution of p with phi. (A naive reading of the cache
as the strict "future" slice would start one position later, at L+t,
and drop tap phi_t for the last prompt token; the recurrence above is
normative.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import convolution as conv
from .engines import CostMeter, OnlineConvEngine, make_engine, push_loop
from .errors import ConfigurationError
from .signal import ArrayLike, Filter, Signal, as_filter, as_signal, finite_samples

TokenMap = Callable[[float], float]


def identity_token(value: float) -> float:
    """Default token map: feed the prediction back verbatim."""
    return value


def clamp_token(lo: float = -1.0, hi: float = 1.0) -> TokenMap:
    """Token map clipping predictions to [lo, hi].

    Keeps feedback streams bounded in long benchmark runs; outputs are
    only ever compared across engines under identical maps.
    """
    if not lo < hi:
        raise ConfigurationError("clamp bounds must satisfy lo < hi")

    def clamp(value: float) -> float:
        return lo if value < lo else hi if value > hi else value

    return clamp


@dataclass
class PrefillCache:
    """Prompt contributions to the next ``K`` outputs.

    Slot s (1-based) is the prompt's contribution to generated
    position s. The cache has exactly as many slots as tokens to be
    generated, regardless of prompt length.
    """

    contributions: Signal
    transform_calls: int
    filter_spectra_elems: int = 0  # floats the Filter's spectra store holds after it

    def __len__(self) -> int:
        return len(self.contributions)


@dataclass
class GenerationResult:
    """Generated sequence plus the instrumentation of the run."""

    outputs: Signal
    meter: CostMeter
    prefill_transform_calls: int = 0
    decode_peak_aux_elems: int = 0
    filter_spectra_elems: int = 0  # floats the Filter's spectra store holds after the call

    def __len__(self) -> int:
        return len(self.outputs)


def generate_scratch(
    phi: Filter | ArrayLike,
    length: int,
    engine_kind: str = "continuous",
    seed_token: float = 1.0,
    token_map: TokenMap | None = None,
    epoch_len: int | None = None,
    engine: OnlineConvEngine | None = None,
) -> GenerationResult:
    """Generate ``length`` outputs starting from a single seed token.

    u_1 is the seed; thereafter u_{t+1} = token_map(y_t) where
    y_t = [u*phi]_t is the engine's step output. ``length`` must not
    exceed the filter's declared context length. The engine runs the
    loop (its ``run``, or :func:`~streamconv.engines.push_loop` over the
    ``push`` of an ``engine`` that has no ``run``), so ``token_map`` is
    called ``length - 1`` times: the last output feeds nothing. An
    epoched or continuous engine built here over a :class:`Filter` reads
    and fills the Filter's tap-spectra store, under
    :func:`~streamconv.convolution.middle`'s store rule;
    ``filter_spectra_elems`` is that store's size after the call. One
    over array taps keeps its own store, which lives for the call alone
    and is not reported (0). With ``length`` 0 and no ``engine`` given,
    no engine is built and the meter is ``CostMeter()``.
    """
    if isinstance(phi, Filter):
        context, store = phi.context_length, phi._spectra
    else:
        phi = finite_samples(phi)
        context, store = max(1, phi.size), None
    length = int(length)
    if length < 0:
        raise ConfigurationError("generation length must be >= 0")
    if length > context:
        raise ConfigurationError(
            f"generation length {length} exceeds filter context length {context}")
    tmap = token_map or identity_token
    if engine is None:
        if length == 0:
            return GenerationResult(Signal(np.zeros(0)), CostMeter(), 0, 0,
                                    conv.spectra_floats(store))
        engine = make_engine(engine_kind, phi, length, epoch_len)
    token = float(seed_token)
    if hasattr(engine, "run"):
        outs = engine.run(token, length, tmap)
    else:
        outs = push_loop(engine.push, token, length, tmap)
    meter = engine.meter
    return GenerationResult(
        outputs=Signal(np.array(outs, dtype=float)),
        meter=meter,
        prefill_transform_calls=0,
        decode_peak_aux_elems=meter.peak_aux_elems,
        filter_spectra_elems=conv.spectra_floats(store),
    )


def _read_taps(phi: Filter | ArrayLike) -> tuple[np.ndarray, list | None]:
    """The stored taps of a :class:`Filter` and its spectra store, or plain
    taps checked, not copied, and no store."""
    if isinstance(phi, Filter):
        return phi.taps_array(), phi._spectra
    return finite_samples(phi), None


def prefill(
    prompt: ArrayLike,
    phi: Filter | ArrayLike,
    gen_budget: int,
) -> PrefillCache:
    """Digest the prompt into a cache of ``gen_budget`` slots.

    Slot s equals ``sum_{j=s}^{s+L-1} p_{s+L-j} * phi_j`` -- 1-based
    positions L .. L+K-1 of ``conv_full(p, phi)`` -- computed as one
    :func:`~streamconv.convolution.middle` window of that convolution:
    summed directly while that is cheap, otherwise through transforms,
    never of the 2L + K points of the full product. A :class:`Filter`
    passes its tap-spectra store, so a later prefill that ``middle``'s
    store rule lets read it transforms only the prompt's blocks; plain
    array taps are transformed on every call. A ``gen_budget`` of zero
    yields a valid empty cache.
    """
    return _prefill(finite_samples(prompt), *_read_taps(phi), int(gen_budget))


def _prefill(prompt: np.ndarray, taps: np.ndarray, spectra: list | None,
             k: int) -> PrefillCache:
    """:func:`prefill` of a checked prompt and taps, each read once."""
    if k < 0:
        raise ConfigurationError("generation budget must be >= 0")
    if k == 0 or prompt.size == 0 or taps.size == 0:
        slots, calls = np.zeros(k), 0
    else:
        slots, calls = conv.middle(prompt, taps, prompt.size - 1, k, spectra), 1
    return PrefillCache(Signal(slots), calls, conv.spectra_floats(spectra))


def generate_prompted(
    prompt: ArrayLike,
    phi: Filter | ArrayLike,
    gen_budget: int,
    engine_kind: str = "continuous",
    token_map: TokenMap | None = None,
    epoch_len: int | None = None,
) -> GenerationResult:
    """Generate ``gen_budget`` outputs from a prompt (prefill + decode).

    Decode runs an online engine over only the fed-back tokens, with
    horizon ``gen_budget`` and the filter truncated to its first
    ``gen_budget`` taps (later taps can never meet a generated token).
    Auxiliary memory during decode is the prefill cache plus the
    engine cache -- O(gen_budget), independent of the prompt length.
    """
    taps, spectra = _read_taps(phi)
    k = int(gen_budget)
    cache = _prefill(finite_samples(prompt), taps, spectra, k)
    if k == 0:
        return GenerationResult(Signal(np.zeros(0)), CostMeter(), 0, 0,
                                cache.filter_spectra_elems)
    tmap = token_map or identity_token
    # array taps: the engine keeps its own tap-spectra store for the call;
    # the store is a function of the filter, so decode_peak_aux_elems leaves it out
    engine = make_engine(engine_kind, taps[:min(k, taps.size)], k, epoch_len)

    # yhat_t = slot_t + fed_t, fed_t being the engine's output before
    # token t (0.0 before the first); Python floats on the per-token path
    slots = cache.contributions.values
    first, *rest = slots.tolist()
    nxt = iter(rest).__next__
    ys = engine.run(tmap(first + 0.0), k, lambda y: tmap(nxt() + y))
    fed = np.zeros(k)
    fed[1:] = ys[:-1]
    meter = engine.meter
    return GenerationResult(
        outputs=Signal(slots + fed),
        meter=meter,
        prefill_transform_calls=cache.transform_calls,
        decode_peak_aux_elems=k + meter.peak_aux_elems,
        filter_spectra_elems=cache.filter_spectra_elems,
    )


def oracle_prompted(
    prompt: ArrayLike,
    phi: Filter | ArrayLike,
    gen_budget: int,
    token_map: TokenMap | None = None,
) -> Signal:
    """Direct-summation evaluation of the prompted recurrence.

    O(K * (K + L)) with feedback x_t = token_map(yhat_t); the ground
    truth for :func:`generate_prompted`.
    """
    prompt = as_signal(prompt)
    phi = as_filter(phi)
    k = int(gen_budget)
    if k < 0:
        raise ConfigurationError("generation budget must be >= 0")
    tmap = token_map or identity_token
    p = prompt.values
    taps = phi.taps_array()
    p_len, m = p.size, taps.size
    rtaps = taps[::-1].copy() if m else taps
    rp = p[::-1].copy() if p_len else p

    xs = np.zeros(k)
    outs = np.empty(k)
    for t in range(1, k + 1):
        # generated-token term: sum_{j=1}^{t-1} x_{t-j} phi_j
        w = min(t - 1, m)
        gen_term = float(np.dot(xs[t - 1 - w:t - 1], rtaps[m - w:])) if w else 0.0
        # prompt term: sum_{i=1}^{L} p_i phi_{t+L-i}; the tap indices
        # span positions t .. t+L-1 (1-based), zero-read beyond m
        prompt_term = 0.0
        if p_len and t - 1 < m:
            seg = taps[t - 1:min(t + p_len - 1, m)]
            prompt_term = float(np.dot(seg, rp[:seg.size]))
        y_hat = gen_term + prompt_term
        outs[t - 1] = y_hat
        xs[t - 1] = tmap(y_hat)
    return Signal(outs)
