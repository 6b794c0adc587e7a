import time

import pytest

from streamconv import ConfigurationError, bench, optimal_epoch_length
from streamconv.bench import (
    CSV_COLUMNS,
    fit_slope,
    metric_value,
    read_records_csv,
    run_bench,
    summarize,
    write_records_csv,
)

LENGTHS = [64, 128, 256, 512]


@pytest.fixture(scope="module")
def records():
    return run_bench(["naive", "epoched", "continuous"], LENGTHS,
                     trials=2, warmup=0, seed=3)


class TestRecords:
    def test_row_count(self, records):
        assert len(records) == 3 * len(LENGTHS) * 2

    def test_naive_mac_closed_form(self, records):
        for rec in records:
            if rec.engine == "naive":
                assert rec.mac_count == rec.L_gen * (rec.L_gen + 1) // 2

    def test_epoched_default_k_is_optimal(self, records):
        for rec in records:
            if rec.engine == "epoched":
                assert rec.K_epoch == optimal_epoch_length(rec.L_gen)
            else:
                assert rec.K_epoch == 0

    @pytest.mark.parametrize("mode", ["scratch", "prompt"])
    def test_moved_default_k_is_recorded_and_run(self, epoch_default_3, mode):
        rec, = run_bench(["epoched"], [64], mode=mode, prompt_len=10, trials=1, warmup=0)
        assert rec.K_epoch == 3
        assert (rec.cache_rebuilds, rec.peak_aux_elems) == (64 // 3, 3)

    @pytest.mark.parametrize("mode", ["scratch", "prompt"])
    def test_wall_excludes_set_up(self, monkeypatch, mode):
        def slow_taps(*args):
            time.sleep(0.2)
            return real(*args)

        real = bench.make_taps
        monkeypatch.setattr(bench, "make_taps", slow_taps)
        recs = run_bench(["naive"], [8], mode=mode, prompt_len=4, channels=2,
                         trials=1, warmup=0)
        assert recs[0].wall_ns < 0.2e9

    def test_wall_positive(self, records):
        assert all(rec.wall_ns > 0 for rec in records)

    def test_counters_reproducible(self, records):
        again = run_bench(["naive", "epoched", "continuous"], LENGTHS,
                          trials=2, warmup=0, seed=3)
        for a, b in zip(records, again):
            assert (a.engine, a.L_gen, a.trial) == (b.engine, b.L_gen, b.trial)
            assert a.mac_count == b.mac_count
            assert a.ff_cost == b.ff_cost
            assert a.cache_rebuilds == b.cache_rebuilds
            assert a.peak_aux_elems == b.peak_aux_elems

    def test_prompt_mode_records_prompt_length(self):
        recs = run_bench(["continuous"], [32], mode="prompt", prompt_len=100,
                         trials=1, warmup=0, seed=1)
        assert all(r.L_prompt == 100 and r.mode == "prompt" for r in recs)

    def test_rejects_unsorted_lengths(self):
        with pytest.raises(ConfigurationError):
            run_bench(["naive"], [128, 64], trials=1, warmup=0)

    def test_rejects_repeated_lengths(self):
        # a repeated length would give one cell two first trials, and
        # summarize would keep one of them
        with pytest.raises(ConfigurationError, match="--lengths must be strictly ascending"):
            run_bench(["continuous"], [64, 64], trials=2, warmup=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            run_bench(["fourier"], [64], trials=1, warmup=0)

    @pytest.mark.parametrize("channels", [0, -3])
    def test_rejects_channels_below_one(self, channels):
        with pytest.raises(ConfigurationError):
            run_bench(["naive"], [16, 32], trials=1, warmup=0, channels=channels)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError):
            run_bench(["naive"], [16, 32], trials=1, warmup=-1)

    def test_zero_warmup_records_every_trial(self):
        recs = run_bench(["naive", "continuous"], [16, 32], trials=2, warmup=0, seed=2)
        assert [(r.engine, r.L_gen, r.trial) for r in recs] == [
            (kind, length, trial) for kind in ("naive", "continuous")
            for length in (16, 32) for trial in (1, 2)]

    def test_spectral_filter_source_respects_cap(self):
        recs = run_bench(["continuous"], [64], trials=1, warmup=0,
                         filter_source="spectral")
        assert len(recs) == 1
        with pytest.raises(ConfigurationError):
            run_bench(["continuous"], [8192], trials=1, warmup=0,
                      filter_source="spectral")

    def test_channel_counters_are_summed(self):
        one = run_bench(["continuous"], [64], trials=1, warmup=0,
                        channels=1, seed=5)[0]
        four = run_bench(["continuous"], [64], trials=1, warmup=0,
                         channels=4, seed=5)[0]
        assert four.channels == 4
        for name in ("mac_count", "ff_cost", "cache_rebuilds", "peak_aux_elems"):
            assert getattr(four, name) == 4 * getattr(one, name)


class TestCsv:
    def test_schema_and_round_trip(self, records, tmp_path):
        path = str(tmp_path / "bench.csv")
        write_records_csv(records, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw  # LF line endings
        header = raw.split(b"\n", 1)[0].decode()
        assert header == ",".join(CSV_COLUMNS)
        loaded = read_records_csv(path)
        assert loaded == records

    def test_missing_columns_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("engine,mode\nnaive,scratch\n")
        with pytest.raises(ConfigurationError):
            read_records_csv(path)


class TestSummary:
    def test_discards_first_trial(self, records):
        rows = summarize(records)
        cell = next(r for r in rows if r["engine"] == "naive" and r["L_gen"] == 64)
        recs = [r for r in records if r.engine == "naive" and r.L_gen == 64]
        assert cell["wall_ns_mean"] == pytest.approx(recs[1].wall_ns)

    def test_single_trial_kept(self):
        recs = run_bench(["naive"], [64], trials=1, warmup=0, seed=0)
        rows = summarize(recs)
        assert rows[0]["wall_ns_mean"] == recs[0].wall_ns


class TestSlope:
    def test_naive_counter_slope_is_quadratic(self, records):
        fit = fit_slope(records, "mac_count", "naive")
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert fit.n_points == len(LENGTHS)

    def test_metric_expression_sums_columns(self, records):
        rec = next(r for r in records if r.engine == "epoched")
        assert metric_value(rec, "mac_count+ff_cost") == rec.mac_count + rec.ff_cost

    def test_unknown_metric_rejected(self, records):
        with pytest.raises(ConfigurationError):
            metric_value(records[0], "flops")

    def test_requires_four_lengths(self):
        recs = run_bench(["naive"], [64, 128, 256], trials=1, warmup=0)
        with pytest.raises(ConfigurationError):
            fit_slope(recs, "mac_count", "naive")

    def test_residual_small_for_exact_power_law(self, records):
        fit = fit_slope(records, "mac_count", "naive")
        assert fit.residual_rms < 0.02
