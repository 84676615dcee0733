"""Command-line surface.

Subcommands: materials, trace, cir, emulate, kpi, check-ofdm, report, bench.
stdout carries only data; human-readable context goes to stderr.  Exit
codes: 0 success, 2 parse/format errors, malformed flag or environment
values and a path or connection that cannot be opened, 3 precondition
violations, 4 end of scenario.
"""

import argparse
import contextlib
import dataclasses
import math
import os
import sys

from . import __version__
from .bench import bench
from .cir import DEFAULT_MAX_DELAY_SPREAD, DEFAULT_TAP_BUDGET, CirConfig
from .emulator import (CARRY, NOISE_OFF_DB, ZERO, EmulatorState,
                       calibrate_signal_gain, run_scenario)
from .errors import (ChanemError, EndOfScenario, FormatError,
                     ScenarioParseError)
from .iqstream import STREAM_VERSION, frame_streams
from .kpi import (FEASIBILITY_MARGIN, NO_DELAY_SPREAD, REFERENCE_CARRIER as REF,
                  REFERENCE_PATTERN, REFERENCE_SPECIAL, TddPattern, effective_throughput,
                  max_bitrate, mcs_lookup, ofdm_feasibility, tdd_occupancy)
from .materials import evaluate_material, get_material
from .propagation import MAX_REFLECTION_DEPTH
from .scenefile import build_scenario, load_profile
from .timeline import (DEFAULT_T_INT, TIMELINE_VERSION, read_timeline, report,
                       timeline_from_profiles, write_path_gain_csv,
                       write_pdp_csv, write_report_rows_csv, write_timeline)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_END_OF_SCENARIO = 4

SEED_ENV_VAR = "OWDT_SEED"

NOISE_DB_HELP = ("noise power in dB, default -inf (no noise); give -inf "
                 "as --noise-db=-inf, since a spaced -inf reads as an option")


def _checked(parse, ok, expected):
    """An argparse type: ``parse`` the text, then require ``ok(value)``.

    A ``ValueError`` from ``parse`` fails the check too; either way the
    flag's error reads "expected <expected>, got <text>".
    """
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _host_port(text):
    """``HOST:PORT`` -> (host, port); the host defaults to 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not port.isdecimal():
        raise ValueError(f"port {port!r} is not all digits")
    return host or "127.0.0.1", int(port)


_listen_address = _checked(_host_port, lambda addr: addr[1] <= 65535,
                           "HOST:PORT with a port in 0..65535")
_signal_gain = _checked(lambda text: text if text == "auto" else float(text),
                        lambda gain: gain == "auto" or math.isfinite(gain),
                        "'auto' or a finite number")
_positive_finite = _checked(float, lambda value: 0.0 < value < math.inf,
                            "a finite positive number")
_fft_size = _checked(int, lambda size: size >= 1, "an integer >= 1")
_reflection_depth = _checked(int, lambda depth: 0 <= depth <= MAX_REFLECTION_DEPTH,
                             f"an integer in 0..{MAX_REFLECTION_DEPTH}")
_noise_power = _checked(float, lambda power: power < math.inf,  # NaN fails too
                        "a finite number or -inf")


def _cmd_materials(args):
    props = evaluate_material(get_material(args.material), args.freq_hz)
    print(f"eps_r={props.eps_r:.10g}")
    print(f"sigma_c={props.sigma_c:.10g}")
    return EXIT_OK


def _cmd_trace(args):
    cfg = CirConfig(f_samp=args.fsamp, max_delay_spread=args.max_delay)
    timeline = build_scenario(args.scene, args.trace, cfg, max_depth=args.max_depth)
    write_timeline(timeline, args.out)
    print(f"snapshots={len(timeline)}", file=sys.stderr)
    return EXIT_OK


def _cmd_cir(args):
    profile = load_profile(args.profile)
    cfg = CirConfig(f_samp=args.fsamp, max_delay_spread=args.max_delay)
    timeline = timeline_from_profiles([profile], cfg, t_int=args.t_int)
    write_timeline(timeline, args.out)
    return EXIT_OK


def _cmd_kpi(args):
    tdd = TddPattern.parse(args.pattern, args.special)
    cfg = dataclasses.replace(REF, numerology_mu=args.mu, n_prb=args.nprb,
                              overhead_dl=args.oh_dl, overhead_ul=args.oh_ul, tdd=tdd)
    mcs = mcs_lookup(args.mcs)
    alpha_dl, alpha_ul = tdd_occupancy(tdd)
    alpha = alpha_dl if args.dir == "dl" else alpha_ul
    r_b = max_bitrate(cfg, mcs, args.dir)
    t_eff = effective_throughput(cfg, mcs, args.bler, args.dir)
    print(f"r_b_mbps={r_b:.6f}")
    print(f"alpha={alpha:.6f}")
    print(f"t_eff_mbps={t_eff:.6f}")
    return EXIT_OK


def _cmd_check_ofdm(args):
    cfg = dataclasses.replace(REF, numerology_mu=args.mu, fft_size=args.fft,
                              f_samp=args.fsamp, carrier_freq=args.freq_hz)
    verdict = ofdm_feasibility(cfg, args.sigma_tau, args.speed, margin=args.margin)
    print(f"sigma_tau_s={verdict.rms_delay_spread:.9g}")
    print(f"t_gi_s={verdict.guard_interval:.9g}")
    print(f"t_ofdm_s={verdict.symbol_duration:.9g}")
    print(f"t_f_s={verdict.fading_period:.9g}")
    print(f"f_d_hz={verdict.doppler_freq:.6f}")
    print(f"isi_ok={verdict.isi_ok}")
    print(f"guard_ok={verdict.guard_ok}")
    print(f"coherence_ok={verdict.coherence_ok}")
    return EXIT_OK


def _cmd_report(args):
    timeline = read_timeline(args.timeline)
    rows = report(timeline, args.taps)
    if args.rows:
        with open(args.rows, "w", encoding="utf-8") as fh:
            write_report_rows_csv(rows, fh)
    else:
        write_report_rows_csv(rows, sys.stdout)
    for path, write in ((args.pdp, write_pdp_csv), (args.gain, write_path_gain_csv)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                write(timeline, fh)
    return EXIT_OK


def _cmd_bench(args):
    stats = bench(args.slots, args.taps, args.fft, args.fsamp, seed=args.seed,
                  noise_power_db=args.noise_db)
    print(f"slots={stats.slot_count}")
    print(f"taps={stats.l_sel}")
    print(f"samples_per_slot={stats.samples_per_slot}")
    print(f"min_s={stats.min_s:.9f}")
    print(f"median_s={stats.median_s:.9f}")
    print(f"p99_s={stats.p99_s:.9f}")
    print(f"max_s={stats.max_s:.9f}")
    print(f"budget_s={stats.budget_s:.9f}")
    print(f"passed={stats.passed}")
    return EXIT_OK


def _cmd_emulate(args):
    timeline = read_timeline(args.timeline)
    if args.signal_gain_db == "auto":
        gain_db = calibrate_signal_gain(timeline.taps)
        print(f"auto signal gain: {gain_db:.3f} dB", file=sys.stderr)
    else:
        gain_db = args.signal_gain_db

    # before --listen opens, so no slot pays for the set-up
    state = EmulatorState(
        timeline, args.taps, args.fft,
        signal_gain_db=gain_db,
        noise_power_db=args.noise_db,
        rng_seed=args.seed,
        history_mode=args.history_mode,
    )

    with contextlib.ExitStack() as stack:
        # --stats opens first: a bad path exits before --listen takes a port
        stats = (stack.enter_context(open(args.stats, "w", encoding="utf-8"))
                 if args.stats else None)
        if stats:
            stats.write("slot_index,latency_s,clipped_samples\n")
        rf, wf = stack.enter_context(frame_streams(args.input, args.out, args.listen))
        for slot_index, seconds, clipped in run_scenario(state, rf, wf):
            if stats:
                stats.write(f"{slot_index},{seconds:.9f},{clipped}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chanem",
        description="Site-specific channel emulation: trace scenes into CIR "
                    "timelines, convolve IQ streams, evaluate NR link KPIs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"chanem {__version__} "
                                f"(timeline format v{TIMELINE_VERSION}, "
                                f"iq frame format v{STREAM_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materials", help="evaluate material properties")
    p.add_argument("--material", required=True)
    p.add_argument("--freq-hz", type=_positive_finite, required=True)
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("trace", help="trace a scene along a mobility trace into a CIR timeline")
    p.add_argument("--scene", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-depth", type=_reflection_depth, default=None)
    p.add_argument("--fsamp", type=_positive_finite, default=REF.f_samp)
    p.add_argument("--max-delay", type=_positive_finite, default=DEFAULT_MAX_DELAY_SPREAD)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("cir", help="discretize a delay-profile CSV into a timeline")
    p.add_argument("--profile", required=True)
    p.add_argument("--fsamp", type=_positive_finite, required=True)
    p.add_argument("--max-delay", type=_positive_finite, default=DEFAULT_MAX_DELAY_SPREAD)
    p.add_argument("--t-int", type=_positive_finite, default=DEFAULT_T_INT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cir)

    p = sub.add_parser("emulate", help="convolve an IQ frame stream with a timeline")
    p.add_argument("--timeline", required=True)
    p.add_argument("--taps", type=int, default=DEFAULT_TAP_BUDGET)
    p.add_argument("--signal-gain-db", type=_signal_gain, default="auto")
    p.add_argument("--noise-db", type=_noise_power, default=NOISE_OFF_DB,
                   help=NOISE_DB_HELP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history", dest="history_mode", choices=[CARRY, ZERO],
                   default=CARRY)
    p.add_argument("--fft", type=_fft_size, default=REF.fft_size)
    p.add_argument("--in", dest="input", default="-")
    p.add_argument("--out", default="-")
    p.add_argument("--listen", type=_listen_address, default=None,
                   metavar="HOST:PORT")
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_emulate)

    p = sub.add_parser("kpi", help="bitrate / occupancy / effective throughput")
    p.add_argument("--mcs", type=int, required=True)
    p.add_argument("--bler", type=float, required=True)
    p.add_argument("--dir", choices=["dl", "ul"], required=True)
    p.add_argument("--pattern", default=REFERENCE_PATTERN)
    p.add_argument("--special", default=REFERENCE_SPECIAL)
    p.add_argument("--nprb", type=int, default=REF.n_prb)
    p.add_argument("--mu", type=int, default=REF.numerology_mu)
    p.add_argument("--oh-dl", type=float, default=REF.overhead_dl)
    p.add_argument("--oh-ul", type=float, default=REF.overhead_ul)
    p.set_defaults(func=_cmd_kpi)

    p = sub.add_parser("check-ofdm", help="evaluate the OFDM timing feasibility chain")
    p.add_argument("--speed", type=float, required=True)
    p.add_argument("--freq-hz", type=_positive_finite, default=REF.carrier_freq)
    p.add_argument("--mu", type=int, default=REF.numerology_mu)
    p.add_argument("--fft", type=_fft_size, default=REF.fft_size)
    p.add_argument("--fsamp", type=_positive_finite, default=REF.f_samp)
    p.add_argument("--sigma-tau", type=float, default=NO_DELAY_SPREAD)
    p.add_argument("--margin", type=float, default=FEASIBILITY_MARGIN)
    p.set_defaults(func=_cmd_check_ofdm)

    p = sub.add_parser("report", help="per-snapshot report rows, PDP matrix, path gain")
    p.add_argument("--timeline", required=True)
    p.add_argument("--taps", type=int, default=DEFAULT_TAP_BUDGET)
    p.add_argument("--rows", default=None)
    p.add_argument("--pdp", default=None)
    p.add_argument("--gain", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bench", help="measure per-slot convolution latency")
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--taps", type=int, required=True)
    p.add_argument("--fft", type=_fft_size, default=REF.fft_size)
    p.add_argument("--fsamp", type=_positive_finite, default=REF.f_samp)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise-db", type=_noise_power, default=NOISE_OFF_DB,
                   help=NOISE_DB_HELP)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        text = os.environ.get(SEED_ENV_VAR, "0")
        try:
            args.seed = int(text)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {text!r}")
    try:
        return args.func(args)
    except (ChanemError, OSError) as exc:  # OSError: a path or socket that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, EndOfScenario):
            return EXIT_END_OF_SCENARIO
        if isinstance(exc, (ScenarioParseError, FormatError, OSError)):
            return EXIT_PARSE
        return EXIT_PRECONDITION


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
