"""Command-line front end.

Subcommands map one-to-one onto the library surface: `encode-msr` and
`decode-msr` wrap the mailbox codec, `scan` the pattern scanner, `probe`
the phase 1+2 search, `campaign` the full three-phase workflow, and
`report` renders probe data as CSV tables.

All output is deterministic for a given seed and flag set: JSON is dumped
with sorted keys, and CSV cells come from integers or pre-rounded floats.
Campaign runs execute serially; `campaign --jobs N` is still accepted for
old command lines and ignored.

Each command imports the modules it runs when it runs, so the codec
commands and `scan` start without the simulator.  Each command's
parser is built on its first call and reused for every later one in the
process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import AbortedByCrash, FormatError, ParseError, VoltlabError
from .msr import (
    MailboxCommand,
    MailboxOp,
    VoltageDomain,
    VoltageMode,
    decode_mailbox,
    encode_mailbox,
    pstate_frequency_mhz,
    PState,
)

_DOMAINS = {d.name.lower(): d for d in VoltageDomain}
_OPS = {"read": MailboxOp.READ_VOLTAGE, "write": MailboxOp.WRITE_VOLTAGE}


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _word_json(word: int, cmd: MailboxCommand) -> dict:
    out = {
        "msr": f"{word:#018x}",
        "domain": cmd.domain.name.lower(),
        "command": f"{int(cmd.op):#x}",
        "mode": cmd.mode.name.lower(),
    }
    if cmd.mode is VoltageMode.OFFSET:
        out["offset_mv"] = cmd.offset_mv
    else:
        out["static_units"] = cmd.static_units
    return out


def _word_breakdown(word: int, cmd: MailboxCommand) -> str:
    lines = [
        f"word     {word:#018x}",
        f"domain   {int(cmd.domain):#x} ({cmd.domain.name.lower()})",
        f"command  {int(cmd.op):#04x} ({cmd.op.name.lower()})",
        f"mode     {cmd.mode.name.lower()}",
    ]
    if cmd.mode is VoltageMode.OFFSET:
        lines.append(f"offset   {cmd.offset_mv:+d} mV")
    else:
        lines.append(
            f"static   {cmd.static_units}/1024 V = {cmd.static_volts():.4f} V"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_encode(args) -> int:
    mode = VoltageMode.STATIC if args.static_units is not None else VoltageMode.OFFSET
    cmd = MailboxCommand(
        domain=_DOMAINS[args.domain],
        op=_OPS[args.op],
        mode=mode,
        offset_mv=args.offset_mv or 0,
        static_units=args.static_units or 0,
    )
    word = encode_mailbox(cmd)
    if args.json:
        _emit(_word_json(word, cmd))
    else:
        print(_word_breakdown(word, cmd))
    return 0


def _cmd_decode(args) -> int:
    try:
        word = int(args.word, 16)
    except ValueError:
        raise FormatError(f"{args.word!r} is not a hexadecimal word") from None
    cmd = decode_mailbox(word)
    if args.json:
        _emit(_word_json(word, cmd))
    else:
        print(_word_breakdown(word, cmd))
    return 0


def _load_program(spec: str):
    from .isa import bundled_program, parse_program

    if spec.endswith(".s") or "/" in spec:
        with open(spec, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as bad:
            raise ParseError(f"{spec}: not UTF-8 text (byte {bad.start})") from None
        return parse_program(text, source_name=spec)
    return bundled_program(spec)


def _cmd_scan(args) -> int:
    from .scanner import hits_to_json, scan

    print(hits_to_json(scan(_load_program(args.program))))
    return 0


def _probe(args):
    from .orchestrator import phase1_find_window, phase2_probe_cores, setup_system
    from .processor import load_profile, normalize_pstate

    profile = load_profile(args.profile)
    pstate = profile.default_attack_pstate if args.pstate is None else normalize_pstate(args.pstate)
    state, _, _ = setup_system(profile, pstate, 0, args.stressor, seed=args.seed)
    plan = phase1_find_window(profile, pstate=pstate, seed=args.seed)
    report = phase2_probe_cores(state, plan, tries_per_core=args.tries)
    return profile, plan, report


def _cmd_probe(args) -> int:
    profile, plan, report = _probe(args)
    _emit(
        {
            "model": profile.name,
            "plan": plan.to_json(),
            "probe": report.to_json(),
        }
    )
    return 0


def _cmd_campaign(args) -> int:
    from .orchestrator import run_campaign
    from .processor import load_profile

    profile = load_profile(args.profile)
    result, ctx = run_campaign(
        profile,
        args.victim,
        args.core,
        args.stressor,
        seed=args.seed,
        runs=args.runs,
        tries_per_run=args.tries,
        pstate=args.pstate,
    )
    if args.csv:  # first, so a failed write prints no result
        _write_campaign_csv(args.csv, profile, result, ctx, args)
    _emit({"context": ctx, "result": result.to_json()})
    return 0


def _write_campaign_csv(path: str, profile, result, ctx, args) -> None:
    point = profile.pstate_point(ctx["pstate"])
    freq = pstate_frequency_mhz(PState(point.ratio, profile.base_clock_mhz))
    header = (
        "model,core,pstate,frequency_mhz,base_voltage_v,attack_voltage_v,"
        "offset_mv,stressor,runs,tries_per_run,successes_per_10k,sigma"
    )
    row = ",".join(map(str, [
        ctx["model"], result.target_core, ctx["pstate"], freq,
        round(point.base_voltage_mv / 1000.0, 4), ctx["attack_voltage_v"], ctx["offset_mv"],
        ctx["stressor"], len(result.per_run), args.tries,
        round(result.mean_per_10k, 4), round(result.sigma, 4),
    ]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + row + "\n")


def _cmd_report(args) -> int:
    _, _, report = _probe(args)
    lines = []
    if args.what == "heatmap":
        lines.append("core," + ",".join(f"byte_{i}" for i in range(16)))
        for stat in report.stats:
            lines.append(f"{stat.core}," + ",".join(str(n) for n in stat.byte_histogram))
    else:  # multiplicity
        lines.append("core,faults,single,double,three_plus,single_pct,double_pct,three_plus_pct")
        for stat in report.stats:
            buckets = stat.bucketed()
            total = sum(stat.multiplicity_histogram.values()) or 1
            pcts = [round(100.0 * n / total, 2) for n in buckets]
            lines.append(",".join(map(str, [stat.core, stat.faults, *buckets, *pcts])))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


_STRESSOR_CHOICES = ("listing2", "twofish", "none", "shift_loop", "twofish_avx")


# Upper bounds on the count flags, which come from outside the program.  A
# campaign run costs the same at any `--tries`; runs execute one by one.
MAX_TRIES = 10_000_000
MAX_RUNS = 10_000


def count_flag(limit: int):
    """Argument type for count flags: an integer in 1..=`limit`."""

    def count(text: str) -> int:
        value = int(text)
        if not 1 <= value <= limit:
            raise argparse.ArgumentTypeError(f"must be in 1..={limit}, not {value}")
        return value

    return count


def _add_probe_flags(sub) -> None:
    sub.add_argument("--profile", required=True, help="bundled name or JSON path")
    sub.add_argument("--pstate", default=None, help="hex ratio, e.g. 0x1b")
    sub.add_argument("--tries", type=count_flag(MAX_TRIES), default=10_000, help=f"1..={MAX_TRIES}")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--stressor", default="listing2", choices=_STRESSOR_CHOICES)


def _encode_arguments(enc) -> None:
    enc.add_argument("--domain", default="cores", choices=sorted(_DOMAINS))
    enc.add_argument("--op", default="write", choices=sorted(_OPS))
    value = enc.add_mutually_exclusive_group(required=True)
    value.add_argument("--offset-mv", type=int, help="signed offset, 1 mV steps")
    value.add_argument("--static-units", type=int, help="absolute target, 1/1024 V units")
    enc.add_argument("--json", action="store_true")
    enc.set_defaults(run=_cmd_encode)


def _decode_arguments(dec) -> None:
    dec.add_argument("word", help="hexadecimal 64-bit word")
    dec.add_argument("--json", action="store_true")
    dec.set_defaults(run=_cmd_decode)


def _scan_arguments(sc) -> None:
    sc.add_argument("program", help="bundled program name or .s path")
    sc.set_defaults(run=_cmd_scan)


def _probe_arguments(pr) -> None:
    _add_probe_flags(pr)
    pr.set_defaults(run=_cmd_probe)


def _campaign_arguments(ca) -> None:
    ca.add_argument("--profile", required=True)
    ca.add_argument("--victim", required=True, choices=["poc", "hmac32", "hmac1k"])
    ca.add_argument("--core", type=int, required=True)
    ca.add_argument("--stressor", default="listing2", choices=_STRESSOR_CHOICES)
    ca.add_argument("--seed", type=int, default=0)
    ca.add_argument("--runs", type=count_flag(MAX_RUNS), default=5, help=f"1..={MAX_RUNS}")
    ca.add_argument("--tries", type=count_flag(MAX_TRIES), default=10_000, help=f"1..={MAX_TRIES}")
    ca.add_argument(
        "--jobs", type=count_flag(MAX_RUNS), default=1,
        help="accepted and ignored: campaign runs execute serially",
    )
    ca.add_argument("--pstate", default=None)
    ca.add_argument("--csv", default=None, help="also write a one-row summary table")
    ca.set_defaults(run=_cmd_campaign)


def _report_arguments(rep) -> None:
    what = rep.add_subparsers(dest="what", required=True)
    heat = what.add_parser("heatmap", help="fault counts per byte lane, one row per core")
    _add_probe_flags(heat)
    heat.set_defaults(run=_cmd_report)
    mult = what.add_parser("multiplicity", help="flipped-bit counts per fault, per core")
    _add_probe_flags(mult)
    mult.set_defaults(run=_cmd_report)


# Subcommand name -> (help line, function adding its arguments), in the
# order `--help` lists them.
_COMMANDS = {
    "encode-msr": ("assemble a voltage mailbox word", _encode_arguments),
    "decode-msr": ("break a mailbox word into fields", _decode_arguments),
    "scan": ("find susceptible op/store patterns", _scan_arguments),
    "probe": ("find the window, then probe each core", _probe_arguments),
    "campaign": ("run the three-phase attack", _campaign_arguments),
    "report": ("render probe data as CSV", _report_arguments),
}


@functools.cache
def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """Every subcommand with its help line; arguments for `command` only,
    or for all of them when `command` is None.

    Built once per process for each `command`: a parser keeps no state
    from one `parse_args` to the next, and help is wrapped to the terminal
    width when it is printed, not when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="voltlab",
        description="Deterministic undervolting-fault laboratory",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A leading command name sends every later word to that command's
    # parser alone, so the others need no arguments; any other first word
    # (none, `--help`, an unknown name) gets the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.run(args)
    except AbortedByCrash as abort:
        partial = abort.partial.to_json() if abort.partial is not None else None
        _emit({"aborted": str(abort), "partial": partial})
        return 3
    except (VoltlabError, OSError) as exc:
        print(f"voltlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
