"""Benchmark running, CSV records, and log-log slope fitting.

Measurement protocol: each (engine, length) cell runs ``warmup``
untimed trials followed by ``trials`` measured trials, one CSV row
per measured trial. Summaries discard the first measured trial and
average the rest. Counter columns depend only on the configuration,
never on the sampled values, so they are bitwise reproducible across
runs and platforms; wall_ns is the only hardware-dependent column.

Randomness comes from named SplitMix64 streams split per
(engine index, length, trial) -- see :mod:`streamconv.rng` for the
exact derivation, which is reproducible from the base seed alone.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial

import numpy as np

from .engines import ENGINE_KINDS, default_epoch_length
from .errors import ConfigurationError
from .generate import clamp_token, generate_prompted, generate_scratch
from .rng import SplitMix64, stream_seed
from .signal import Filter
from .spectral import spectral_filters

@dataclass
class BenchRecord:
    """One measured trial: a CSV row, columns in field order."""

    engine: str
    mode: str
    L_gen: int
    L_prompt: int
    K_epoch: int
    channels: int
    trial: int
    wall_ns: int
    mac_count: int
    ff_cost: int
    cache_rebuilds: int
    peak_aux_elems: int


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))

_INT_COLUMNS = set(CSV_COLUMNS) - {"engine", "mode"}


def write_records_csv(records, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(astuple(rec))


def read_records_csv(path: str) -> list[BenchRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigurationError(f"CSV missing columns: {sorted(missing)}")
        for row in reader:
            kwargs = {
                name: int(row[name]) if name in _INT_COLUMNS else row[name]
                for name in CSV_COLUMNS
            }
            records.append(BenchRecord(**kwargs))
    return records


def make_taps(filter_source: str, stream: SplitMix64, length: int) -> np.ndarray:
    """Taps for a "random" (unit-norm, drawn from ``stream``) or a
    "spectral" (top Hankel eigenvector) filter source."""
    if filter_source == "random":
        taps = stream.uniforms(length) * 2.0 - 1.0
        norm = float(np.linalg.norm(taps))
        return taps / norm if norm else taps
    if filter_source == "spectral":
        return spectral_filters(length, 1).filter_at(0)
    raise ConfigurationError(f"unknown filter source {filter_source!r}")


def _channel_call(
    engine_kind: str,
    mode: str,
    gen_len: int,
    prompt_len: int,
    epoch_len: int | None,
    filter_source: str,
    channel_seed: int,
) -> partial:
    """One channel's generation call, with its inputs drawn and its
    Filter built."""
    stream = SplitMix64(channel_seed)
    token_map = clamp_token()
    if mode == "scratch":
        taps = make_taps(filter_source, stream, gen_len)
        seed_token = stream.uniform() * 2.0 - 1.0
        return partial(generate_scratch, Filter(taps, gen_len), gen_len, engine_kind,
                       seed_token, token_map, epoch_len)
    taps = make_taps(filter_source, stream, prompt_len + gen_len)
    prompt = stream.uniforms(prompt_len) * 2.0 - 1.0
    return partial(generate_prompted, prompt, Filter(taps, prompt_len + gen_len), gen_len,
                   engine_kind, token_map, epoch_len)


def _one_run(
    engine_kind: str,
    mode: str,
    gen_len: int,
    prompt_len: int,
    epoch_len: int | None,
    channels: int,
    stream_base: int,
    filter_source: str = "random",
) -> tuple[int, dict]:
    """Run one trial across all channels; returns (wall_ns, summed counters).

    Every channel's inputs and Filter are made before the clock starts,
    so ``wall_ns`` times the generation calls alone. Counters are summed
    over channels; each channel draws from its own derived stream, so
    the totals are order-independent.
    """
    args = (engine_kind, mode, gen_len, prompt_len, epoch_len, filter_source)
    calls = [_channel_call(*args, stream_seed(stream_base, c)) for c in range(channels)]
    start = time.perf_counter_ns()
    meters = [call().meter for call in calls]
    wall = time.perf_counter_ns() - start
    totals = {key: sum(getattr(m, key) for m in meters)
              for key in ("mac_count", "ff_cost", "cache_rebuilds", "peak_aux_elems")}
    return max(wall, 1), totals


def run_bench(
    engine_kinds,
    lengths,
    mode: str = "scratch",
    epoch_len: int | None = None,
    channels: int = 1,
    trials: int = 3,
    warmup: int = 1,
    seed: int = 0,
    prompt_len: int = 0,
    filter_source: str = "random",
) -> list[BenchRecord]:
    """Benchmark each (engine, length) cell; one record per measured trial."""
    if mode not in ("scratch", "prompt"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "prompt" and prompt_len < 0:
        raise ConfigurationError(f"--prompt-len must be >= 0, got {prompt_len}")
    if trials < 1:
        raise ConfigurationError(f"--trials must be >= 1, got {trials}")
    if warmup < 0:
        raise ConfigurationError(f"--warmup must be >= 0, got {warmup}")
    if channels < 1:
        raise ConfigurationError(f"--channels must be >= 1, got {channels}")
    lengths = [int(x) for x in lengths]
    if lengths and min(lengths) < 1:
        raise ConfigurationError(f"--lengths must be >= 1, got {min(lengths)}")
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        raise ConfigurationError(f"--lengths must be strictly ascending, got {lengths}")
    for kind in engine_kinds:
        if kind not in ENGINE_KINDS:
            raise ConfigurationError(f"unknown engine kind {kind!r}")

    records = []
    for kind_idx, kind in enumerate(engine_kinds):
        for length in lengths:
            k_epoch = (epoch_len or default_epoch_length(length)) if kind == "epoched" else 0
            for trial in range(1 - warmup, trials + 1):
                base = stream_seed(seed, kind_idx, length, max(trial, 0))
                wall, totals = _one_run(kind, mode, length, prompt_len, epoch_len or None,
                                        channels, base, filter_source)
                if trial < 1:
                    continue  # warmup, not recorded
                records.append(
                    BenchRecord(
                        engine=kind,
                        mode=mode,
                        L_gen=length,
                        L_prompt=prompt_len if mode == "prompt" else 0,
                        K_epoch=k_epoch,
                        channels=channels,
                        trial=trial,
                        wall_ns=wall,
                        **totals,
                    )
                )
    return records


def _cells(records, key) -> list[tuple]:
    """``(key, trials, kept)`` per cell of records with equal ``key(rec)``,
    in key order: the cell's number of measured trials and its records
    in trial order, less the first when there is more than one."""
    cells: dict = {}
    for rec in records:
        cells.setdefault(key(rec), []).append(rec)
    out = []
    for k, recs in sorted(cells.items()):
        recs = sorted(recs, key=lambda r: r.trial)
        out.append((k, len(recs), recs[1:] if len(recs) > 1 else recs))
    return out


def summarize(records) -> list[dict]:
    """Per (engine, mode, L_gen) summary: discard the first measured
    trial and average the remaining wall times (all trials when only
    one exists). Counter columns are constant across trials."""
    out = []
    for (engine, mode, length), trials, kept in _cells(
        records, lambda r: (r.engine, r.mode, r.L_gen)
    ):
        last = kept[-1]
        out.append(
            {
                "engine": engine,
                "mode": mode,
                "L_gen": length,
                "trials": trials,
                "wall_ns_mean": sum(r.wall_ns for r in kept) / len(kept),
                "mac_count": last.mac_count,
                "ff_cost": last.ff_cost,
                "cache_rebuilds": last.cache_rebuilds,
                "peak_aux_elems": last.peak_aux_elems,
                "K_epoch": last.K_epoch,
            }
        )
    return out


@dataclass
class SlopeFit:
    """Least-squares line through (log2 L, log2 metric) points."""

    engine: str
    metric: str
    slope: float
    intercept: float
    residual_rms: float
    n_points: int

    def as_dict(self) -> dict:
        return asdict(self)


def metric_value(record: BenchRecord, metric: str) -> float:
    """Metric column or '+'-joined sum of columns."""
    total = 0.0
    for name in metric.split("+"):
        name = name.strip()
        if name not in CSV_COLUMNS or name in ("engine", "mode"):
            raise ConfigurationError(f"unknown metric column {name!r}")
        total += getattr(record, name)
    return total


def fit_slope(records, metric: str, engine: str) -> SlopeFit:
    """Fit log2(metric) vs log2(L_gen) for one engine's records.

    Uses per-length means with the first measured trial discarded
    (when more than one trial exists); needs >= 4 distinct lengths.
    """
    by_length = _cells((r for r in records if r.engine == engine), lambda r: r.L_gen)
    if len(by_length) < 4:
        raise ConfigurationError(
            f"need >= 4 distinct lengths for {engine!r}, got {len(by_length)}"
        )
    xs, ys = [], []
    for length, _, kept in by_length:
        mean = sum(metric_value(r, metric) for r in kept) / len(kept)
        if mean <= 0 or length <= 0:
            raise ConfigurationError("metric and length must be positive for log fit")
        xs.append(np.log2(length))
        ys.append(np.log2(mean))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return SlopeFit(
        engine=engine,
        metric=metric,
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=len(xs),
    )
