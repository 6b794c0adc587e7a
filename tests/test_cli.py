import json
import re

import numpy as np
import pytest

from streamconv.cli import main
from streamconv.seqfile import read_sequence, write_sequence
from streamconv.spectral import load_filter_bank


def strip_wall(text: str) -> str:
    return re.sub(r'"wall_ns": \d+', '"wall_ns": 0', text)


class TestSeqFile:
    def test_round_trip_with_comments(self, tmp_path):
        path = str(tmp_path / "seq.txt")
        write_sequence([1.5, -2.25, 3e-9], path, header="demo file")
        values = read_sequence(path)
        np.testing.assert_array_equal(values, [1.5, -2.25, 3e-9])

    def test_parse_error_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as fh:
            fh.write("1.0\n\n# comment\nnot-a-number\n")
        from streamconv.errors import SequenceFormatError
        with pytest.raises(SequenceFormatError) as err:
            read_sequence(path)
        assert err.value.line == 4


class TestGen:
    def test_scratch_copy_kernel(self, tmp_path):
        # taps file holding a single 1.0: the copy kernel
        taps = tmp_path / "taps.txt"
        taps.write_text("1.0\n")
        out = tmp_path / "seq.txt"
        rc = main(["gen", "--mode", "scratch", "--length", "16",
                   "--filter-source", "file", "--filter-file", str(taps),
                   "--seed-token", "3", "--output", str(out)])
        assert rc == 0
        np.testing.assert_array_equal(read_sequence(str(out)), np.full(16, 3.0))
        meta = json.loads((tmp_path / "seq.txt.meta.json").read_text())
        assert meta["L_gen"] == 16

    def test_prompted_place_value(self, tmp_path):
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("1\n2\n")
        taps = tmp_path / "taps.txt"
        taps.write_text("1\n10\n100\n1000\n")
        out = tmp_path / "gen.txt"
        rc = main(["gen", "--mode", "prompt", "--prompt", str(prompt),
                   "--length", "2", "--filter-source", "file",
                   "--filter-file", str(taps), "--output", str(out)])
        assert rc == 0
        np.testing.assert_allclose(read_sequence(str(out)), [12.0, 132.0],
                                   rtol=1e-12)
        meta = json.loads((tmp_path / "gen.txt.meta.json").read_text())
        assert meta["prefill_transform_calls"] == 1
        assert meta["filter_spectra_elems"] == 0  # summed directly

    def test_prompted_sidecar_counts_filter_spectra(self, tmp_path):
        # 7000 prompt samples at K = 512: five blocks of 1537, each
        # against a 2048-tap segment whose spectrum is 1025 complex values
        prompt = tmp_path / "prompt.txt"
        rng = np.random.default_rng(8)
        prompt.write_text("".join(f"{v!r}\n" for v in rng.uniform(-1, 1, 7000).tolist()))
        out = tmp_path / "gen.txt"
        rc = main(["gen", "--mode", "prompt", "--prompt", str(prompt), "--length", "512",
                   "--engine", "continuous", "--output", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "gen.txt.meta.json").read_text())
        assert meta["filter_spectra_elems"] == 2 * 5 * 1025

    @pytest.mark.parametrize("engine, elems", [
        # K = 512 over 4096 steps: the rebuilds at t = 1024 and 1536 take
        # one 2048-point transform of 1536 and 2048 taps, and those from
        # t = 2048 blocks of 1537 inputs, the last full one (t = 3584)
        # against three 2048-tap segments; each spectrum is 1025 complex
        # values
        ("epoched", 2 * (1 + 1 + 3) * 1025),
        # levels 1024 and 2048: the first 2m taps in one 2m-point transform
        ("continuous", 2 * (1025 + 2049)),
    ])
    def test_scratch_sidecar_counts_filter_spectra(self, tmp_path, engine, elems):
        out = tmp_path / "gen.txt"
        rc = main(["gen", "--mode", "scratch", "--length", "4096", "--engine", engine,
                   "--epoch-len", "512", "--output", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "gen.txt.meta.json").read_text())
        assert meta["filter_spectra_elems"] == elems

    @pytest.mark.parametrize("mode", ["scratch", "prompt"])
    @pytest.mark.parametrize("engine, flags, k", [
        ("epoched", [], 120),  # min(128, 4 round(sqrt(128 * 7)))
        ("epoched", ["--epoch-len", "7"], 7),
        ("naive", [], 0),
        ("continuous", [], 0),
    ])
    def test_sidecar_records_the_epoch_length_run(self, tmp_path, mode, engine, flags, k):
        out = tmp_path / "gen.txt"
        rc = main(["gen", "--mode", mode, "--length", "128", "--engine", engine,
                   "--output", str(out)] + flags)
        assert rc == 0
        meta = json.loads((tmp_path / "gen.txt.meta.json").read_text())
        assert meta["K_epoch"] == k
        if k:  # the K the engine ran: its cache holds K slots
            assert meta["meter"]["peak_aux_elems"] == k

    def test_same_seed_bitwise_identical(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = main(["gen", "--mode", "scratch", "--length", "64",
                       "--filter-source", "random", "--seed", "9",
                       "--token-map", "clamp", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_prompt_is_usage_error(self, tmp_path, capsys):
        prompt = tmp_path / "bad.txt"
        prompt.write_text("1.0\nhello\n")
        rc = main(["gen", "--mode", "prompt", "--prompt", str(prompt),
                   "--length", "2", "--output", str(tmp_path / "o.txt")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err  # line number surfaces

    def test_missing_prompt_file_is_io_error(self, tmp_path):
        rc = main(["gen", "--mode", "prompt", "--prompt",
                   str(tmp_path / "nope.txt"), "--length", "2",
                   "--output", str(tmp_path / "o.txt")])
        assert rc == 3


class TestFilters:
    def test_order_one_bank_file(self, tmp_path):
        out = tmp_path / "bank.csv"
        rc = main(["filters", "--length", "1", "--count", "1",
                   "--output", str(out)])
        assert rc == 0
        assert out.read_text() == "1,1\n1.0\n"

    def test_round_trip_orthonormal(self, tmp_path):
        out = tmp_path / "bank64.csv"
        assert main(["filters", "--length", "64", "--count", "8",
                     "--output", str(out)]) == 0
        bank = load_filter_bank(str(out))
        gram = bank.filters.T @ bank.filters
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    def test_count_above_length_rejected(self, tmp_path):
        rc = main(["filters", "--length", "4", "--count", "5",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_cap_enforced(self, tmp_path):
        rc = main(["filters", "--length", "5000", "--count", "1",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2


class TestBenchAndSlope:
    def test_end_to_end(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        rc = main(["bench", "--engines", "naive,continuous",
                   "--lengths", "64,128,256,512", "--trials", "1",
                   "--warmup", "0", "--output", str(csv_path)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["slope", "--input", str(csv_path),
                   "--metric", "mac_count", "--engine", "naive", "--json"])
        assert rc == 0
        fits = json.loads(capsys.readouterr().out)["fits"]
        assert abs(fits[0]["slope"] - 2.0) < 0.05

    @pytest.mark.parametrize("flags", [["--channels", "0"], ["--channels", "-3"],
                                       ["--warmup", "-1"], ["--lengths", "0"],
                                       ["--trials", "0"],
                                       ["--mode", "prompt", "--prompt-len", "-1"]])
    def test_no_channel_or_negative_warmup_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--lengths", "16,32", "--trials", "1", *flags,
                   "--output", str(out)])
        assert rc == 2
        assert f"error: {flags[-2]} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_length_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = main(["bench", "--engines", "continuous", "--lengths", "64,64",
                   "--trials", "2", "--warmup", "0", "--output", str(out)])
        assert rc == 2
        assert "error: --lengths must be strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        rc = main(["bench", "--engines", "naive", "--lengths", "64",
                   "--trials", "1", "--warmup", "0",
                   "--output", str(tmp_path / "missing" / "b.csv")])
        assert rc == 3


class TestSizes:
    @pytest.mark.parametrize("argv", [["verify", "--max-L", "0"], ["verify", "--max-L", "1"],
                                      ["gen", "--length", "0"], ["gen", "--length", "-3"]])
    def test_bad_size_is_usage_error_naming_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "out.txt"
        assert main([*argv, "--output", str(out)]) == 2
        assert f"error: {argv[1]} must be >= " in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_deterministic_report_and_exit_zero(self, tmp_path, capsys):
        reports = []
        for _ in range(2):
            rc = main(["verify", "--seed", "7", "--max-L", "256", "--json"])
            assert rc == 0
            reports.append(strip_wall(capsys.readouterr().out))
        assert reports[0] == reports[1]

    def test_injected_fault_caught_by_futurefill_suite(self, monkeypatch, capsys):
        # an off-by-one slice must be flagged by that suite specifically
        from streamconv import convolution as conv
        from streamconv.signal import Signal, as_signal
        real = conv.futurefill

        def off_by_one(v, w):
            v = as_signal(v); w = as_signal(w)
            t1, t2 = len(v), len(w)
            if t2 <= 1 or t1 == 0:
                return real(v, w)
            # the window one position early: full[t1 - 1:t1 + t2 - 2]
            return Signal(conv.middle(v.values, w.values, t1 - 1, t2 - 1))

        monkeypatch.setattr(conv, "futurefill", off_by_one)
        rc = main(["verify", "--seed", "7", "--max-L", "128", "--json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        failing = {s["name"] for s in report["suites"] if not s["passed"]}
        assert "futurefill" in failing
