"""Command-line front end.

Subcommands::

    streamconv verify   souped-up self-checks; exit 0 iff all pass
    streamconv bench    timed generation runs -> CSV records
    streamconv slope    log-log slope fit over a bench CSV
    streamconv gen      generate a sequence to a file (+ meter sidecar)
    streamconv filters  export a spectral filter bank as CSV

Global flags accepted by every subcommand: ``--seed``, ``--output``,
``--json``. Exit codes: 0 success, 1 verification/assertion failure,
2 usage or configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from . import verify as verify_mod
from .engines import ENGINE_KINDS
from .errors import ConfigurationError, SequenceFormatError
from .generate import clamp_token, generate_prompted, generate_scratch, identity_token
from .rng import SplitMix64, stream_seed
from .seqfile import read_sequence, write_sequence
from .signal import Filter
from .spectral import save_filter_bank, spectral_filters

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="base seed for all randomness (default 0)")
    parser.add_argument("--output", default="", metavar="PATH",
                        help="output file (default: command-specific or stdout)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON where applicable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamconv",
        description="Exact online convolution engines and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--max-L", type=int, default=verify_mod.DEFAULT_MAX_L,
                   dest="max_l", help="largest instance size exercised")
    _common_flags(p)

    p = sub.add_parser("bench", help="run generation benchmarks to CSV")
    p.add_argument("--engines", default="all",
                   help="comma list of naive,epoched,continuous or 'all'")
    p.add_argument("--lengths", required=True,
                   help="comma list of strictly ascending generation lengths")
    p.add_argument("--mode", choices=("scratch", "prompt"), default="scratch")
    p.add_argument("--prompt-len", type=int, default=0)
    p.add_argument("--epoch-len", type=int, default=0,
                   help="override epoch length K (0 = optimal per length)")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--filter-source", choices=("random", "spectral"),
                   default="random")
    _common_flags(p)

    p = sub.add_parser("slope", help="fit log2(metric) vs log2(L) from a CSV")
    p.add_argument("--input", required=True, help="bench CSV path")
    p.add_argument("--metric", default="mac_count+ff_cost",
                   help="counter column or '+'-joined sum")
    p.add_argument("--engine", default="",
                   help="engine filter (default: every engine in the CSV)")
    _common_flags(p)

    p = sub.add_parser("gen", help="generate a sequence to a file")
    p.add_argument("--mode", choices=("scratch", "prompt"), default="scratch")
    p.add_argument("--prompt", default="", help="prompt file (one float per line)")
    p.add_argument("--length", type=int, required=True,
                   help="number of tokens to generate")
    p.add_argument("--engine", choices=ENGINE_KINDS, default="continuous")
    p.add_argument("--epoch-len", type=int, default=0)
    p.add_argument("--filter-source", choices=("random", "spectral", "file"),
                   default="random")
    p.add_argument("--filter-file", default="",
                   help="taps file when --filter-source=file")
    p.add_argument("--seed-token", type=float, default=1.0)
    p.add_argument("--token-map", choices=("identity", "clamp"), default="identity")
    _common_flags(p)

    p = sub.add_parser("filters", help="export a spectral filter bank CSV")
    p.add_argument("--length", type=int, required=True, help="filter length L")
    p.add_argument("--count", type=int, required=True, help="number of filters k")
    _common_flags(p)

    return parser


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed, max_l=args.max_l)
    payload = verify_mod.report_json(results, args.seed, args.max_l)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    if args.json:
        print(payload)
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.instances} instances, "
                  f"max error {r.max_error:.3e}")
    all_passed = all(r.passed for r in results)
    if not all_passed and not args.json:
        print("verification FAILED; failing instances are in the JSON report")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_bench(args) -> int:
    kinds = list(ENGINE_KINDS) if args.engines == "all" else [
        k.strip() for k in args.engines.split(",") if k.strip()
    ]
    lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
    records = bench_mod.run_bench(
        kinds,
        lengths,
        mode=args.mode,
        epoch_len=args.epoch_len or None,
        channels=args.channels,
        trials=args.trials,
        warmup=args.warmup,
        seed=args.seed,
        prompt_len=args.prompt_len,
        filter_source=args.filter_source,
    )
    out = args.output or "bench.csv"
    bench_mod.write_records_csv(records, out)
    summary = bench_mod.summarize(records)
    if args.json:
        print(json.dumps({"csv": out, "summary": summary}, sort_keys=True, indent=2))
    else:
        print(f"wrote {len(records)} records to {out}")
        for row in summary:
            print(f"  {row['engine']:11s} L={row['L_gen']:>8d} "
                  f"wall={row['wall_ns_mean'] / 1e6:10.2f} ms "
                  f"mac={row['mac_count']} ff={row['ff_cost']}")
    return EXIT_OK


def _cmd_slope(args) -> int:
    records = bench_mod.read_records_csv(args.input)
    engines = [args.engine] if args.engine else sorted({r.engine for r in records})
    fits = [bench_mod.fit_slope(records, args.metric, engine) for engine in engines]
    payload = json.dumps({"fits": [f.as_dict() for f in fits]},
                         sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload + "\n")
    if args.json or not args.output:
        print(payload)
    return EXIT_OK


def _gen_filter(args, total_len: int) -> Filter:
    if args.filter_source != "file":
        stream = SplitMix64(stream_seed(args.seed, 97))
        return Filter(bench_mod.make_taps(args.filter_source, stream, total_len), total_len)
    if not args.filter_file:
        raise ConfigurationError("--filter-source=file requires --filter-file")
    taps = read_sequence(args.filter_file)
    return Filter(taps, max(total_len, taps.size))


def _cmd_gen(args) -> int:
    if args.length < 1:
        raise ConfigurationError(f"--length must be >= 1, got {args.length}")
    token_map = identity_token if args.token_map == "identity" else clamp_token()
    out = args.output or "generated.txt"
    epoch_len = args.epoch_len or None
    if args.mode == "scratch":
        phi = _gen_filter(args, args.length)
        result = generate_scratch(phi, args.length, args.engine,
                                  args.seed_token, token_map, epoch_len)
        prompt_len = 0
    else:
        prompt = read_sequence(args.prompt) if args.prompt else np.zeros(0)
        prompt_len = prompt.size
        phi = _gen_filter(args, prompt_len + args.length)
        result = generate_prompted(prompt, phi, args.length, args.engine,
                                   token_map, epoch_len)
    write_sequence(result.outputs.values, out)
    meta = {
        "mode": args.mode,
        "engine": args.engine,
        "L_gen": args.length,
        "L_prompt": prompt_len,
        "seed": args.seed,
        "prefill_transform_calls": result.prefill_transform_calls,
        "decode_peak_aux_elems": result.decode_peak_aux_elems,
        "filter_spectra_elems": result.filter_spectra_elems,
        "meter": result.meter.as_dict(),
    }
    with open(out + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    if args.json:
        print(json.dumps(meta, sort_keys=True))
    else:
        print(f"wrote {len(result.outputs)} samples to {out}")
    return EXIT_OK


def _cmd_filters(args) -> int:
    bank = spectral_filters(args.length, args.count)
    out = args.output or f"filters_{args.length}x{args.count}.csv"
    save_filter_bank(bank, out)
    if args.json:
        print(json.dumps({"path": out, "L": bank.length, "k": bank.count},
                         sort_keys=True))
    else:
        print(f"wrote {bank.length}x{bank.count} filter bank to {out}")
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "slope": _cmd_slope,
    "gen": _cmd_gen,
    "filters": _cmd_filters,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, SequenceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
