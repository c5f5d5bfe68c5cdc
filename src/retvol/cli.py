"""Command-line interface: `retvol analyze` and `retvol synth`."""

import argparse
import sys

from .crosscorr import power_grid
from .errors import ConfigInvalid, RetvolError
from .ingest import serialize_tick_csv
from .pipeline import AnalysisConfig, run_analysis
from .sampling import CARRY_FORWARD, DROP_INTERVAL
from .synth import GarchSpec, gen_asym_garch, gen_iid_gaussian, ticks_from_returns


def _span(n_fields, make):
    """Argument type: `make` applied to n colon-separated floats."""
    def parse(text):
        parts = text.split(":")
        if len(parts) != n_fields:
            raise argparse.ArgumentTypeError(
                f"expected {n_fields} colon-separated fields, got {text!r}")
        try:
            return make(*map(float, parts))
        except (ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"bad span {text!r}: {exc}") from None
    return parse


def _int_span(lo, hi):
    return int(lo), int(hi)


def _int_at_least(text, least=1):
    if not text.isdigit() or int(text) < least:
        raise argparse.ArgumentTypeError(f"need an integer >= {least}, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retvol",
        description="Return-volatility cross-correlation analysis for "
                    "high-frequency price data")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run the full analysis on a tick CSV")
    an.add_argument("--input", required=True,
                    help="tick CSV (unixtime,price,amount), .gz accepted")
    an.add_argument("--delta-t", type=int, default=120,
                    help="sampling interval in seconds (86400 = daily)")
    an.add_argument("--gap-policy", choices=[CARRY_FORWARD, DROP_INTERVAL],
                    default=CARRY_FORWARD)
    an.add_argument("--d-grid", type=_span(3, power_grid), default="0.1:3.0:0.1",
                    metavar="LO:HI:STEP",
                    help="power grid for |r|^d (default 0.1:3.0:0.1)")
    an.add_argument("--lags", type=_span(2, _int_span), default="-200:200",
                    metavar="LO:HI",
                    help="signed lag grid (default -200:200; write "
                         "--lags=-200:200 for negative bounds)")
    an.add_argument("--fit-range", type=_span(2, _int_span), default="1:200",
                    metavar="LO:HI",
                    help="positive-lag fit window (default 1:200)")
    an.add_argument("--jk-blocks", type=lambda t: _int_at_least(t, 2), default=100,
                    help="jackknife block count (default 100)")
    an.add_argument("--fit-filter", type=float, default=None, metavar="S",
                    help="also drop |cc| <= S*sigma points from fits")
    an.add_argument("--workers", type=int, default=1,
                    help="threads for the CC and jackknife pass over "
                         "powers; results are identical for any value, and "
                         "each thread adds one power's series-length arrays "
                         "and lag sums to peak memory")
    an.add_argument("--out-dir", required=True)
    an.set_defaults(usage_error=an.error)

    sy = sub.add_parser("synth", help="emit a synthetic tick CSV")
    sy.add_argument("--kind", choices=["iid", "garch"], default="garch")
    sy.add_argument("--n", type=_int_at_least, default=100000,
                    help="number of returns")
    sy.add_argument("--seed", type=int, default=1)
    sy.add_argument("--scale", type=float, default=0.002,
                    help="return scale applied to the generated series")
    sy.add_argument("--delta-t", type=_int_at_least, default=120,
                    help="tick spacing in seconds")
    sy.add_argument("--p0", type=float, default=100.0, help="starting price")
    sy.add_argument("--omega", type=float, default=0.05)
    sy.add_argument("--a-arch", type=float, default=0.05)
    sy.add_argument("--b-garch", type=float, default=0.85)
    sy.add_argument("--leverage", type=float, default=0.10)
    sy.add_argument("--out", required=True, help="output CSV path")
    return parser


def cmd_analyze(args):
    try:
        cfg = AnalysisConfig(
            delta_t=args.delta_t,
            gap_policy=args.gap_policy,
            d_grid=args.d_grid,
            lag_min=args.lags[0], lag_max=args.lags[1],
            fit_lo=args.fit_range[0], fit_hi=args.fit_range[1],
            jk_blocks=args.jk_blocks,
            fit_filter=args.fit_filter,
            workers=args.workers,
        )
    except ConfigInvalid as exc:  # before the input is read
        args.usage_error(str(exc))
    manifest = run_analysis(args.input, cfg, args.out_dir)
    print(f"wrote {len(manifest['files'])} files to {manifest['out_dir']}")
    if manifest["argmax_kappa_d"] is not None:
        print(f"argmax_d kappa(d) = {manifest['argmax_kappa_d']:g}")
    print(f"body sha256: {manifest['body_sha256']}")
    return 0


def cmd_synth(args):
    if args.kind == "iid":
        rets = gen_iid_gaussian(args.n, args.seed, delta_t=args.delta_t)
    else:
        spec = GarchSpec(omega=args.omega, a_arch=args.a_arch,
                         b_garch=args.b_garch, leverage=args.leverage,
                         n=args.n, seed=args.seed)
        rets = gen_asym_garch(spec, delta_t=args.delta_t)
    rets.values *= args.scale
    ticks = ticks_from_returns(rets, spacing=args.delta_t, p0=args.p0)
    with open(args.out, "w") as fh:
        serialize_tick_csv(ticks, fh)
    print(f"wrote {len(ticks)} ticks to {args.out} "
          f"(kind={args.kind}, n={args.n}, seed={args.seed})")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_synth(args)
    except RetvolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
