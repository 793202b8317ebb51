"""End-to-end checks of the command-line surface, via main(argv)."""

import argparse
import importlib
import json
import subprocess
import sys
from importlib import resources

import pytest

import voltlab.cli as cli
import voltlab.orchestrator as orchestrator
import voltlab.processor as processor
import voltlab.victims as victims
from voltlab.errors import AbortedByCrash, InvariantError, SchemaError
from voltlab.processor import ProcessorProfile, load_profile
from voltlab.victims import CampaignResult

from helpers import fresh_cache


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# Codec subcommands


def test_encode_json_fields(capsys):
    rc, out, _ = run_cli(
        capsys, "encode-msr", "--domain", "cores", "--op", "write",
        "--offset-mv", "-250", "--json",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob == {
        "msr": "0x80000011e0c00000",
        "domain": "cores",
        "command": "0x11",
        "mode": "offset",
        "offset_mv": -250,
    }


def test_decode_worked_example(capsys):
    rc, out, _ = run_cli(capsys, "decode-msr", "0x80000011F3800000", "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["offset_mv"] == -100
    assert blob["command"] == "0x11"
    assert blob["mode"] == "offset"


def test_encode_decode_round_trip_static(capsys):
    rc, out, _ = run_cli(
        capsys, "encode-msr", "--op", "read", "--static-units", "1152", "--json"
    )
    assert rc == 0
    word = json.loads(out)["msr"]
    rc, out, _ = run_cli(capsys, "decode-msr", word, "--json")
    assert rc == 0
    blob = json.loads(out)
    assert blob["static_units"] == 1152
    assert blob["mode"] == "static"
    assert blob["command"] == "0x10"


def test_decode_human_breakdown(capsys):
    rc, out, _ = run_cli(capsys, "decode-msr", "80000011e0c00000")
    assert rc == 0
    assert "offset   -250 mV" in out
    assert "write_voltage" in out


def test_decode_rejects_word_without_busy_bit(capsys):
    rc, out, err = run_cli(capsys, "decode-msr", "0x11f3800000")
    assert rc == 2
    assert out == ""
    assert "bit 63" in err


def test_encode_rejects_out_of_range_offset(capsys):
    rc, _, err = run_cli(capsys, "encode-msr", "--offset-mv", "-2000")
    assert rc == 2
    assert "voltlab:" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_bundled_program(capsys):
    rc, out, _ = run_cli(capsys, "scan", "vp1_xor_kernel")
    assert rc == 0
    hits = json.loads(out)
    assert len(hits) == 1
    assert hits[0]["kind"] == "VP1"
    assert hits[0]["store_index"] > hits[0]["op_index"]


def test_scan_source_file(capsys, tmp_path):
    src = tmp_path / "own.s"
    src.write_text(
        "vpaddq %xmm1, %xmm2, %xmm3\nvmovdqu %xmm3, 0x40\nhalt\n",
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "scan", str(src))
    assert rc == 0
    hits = json.loads(out)
    assert [h["kind"] for h in hits] == ["VP2"]


def test_scan_unknown_program(capsys):
    rc, _, err = run_cli(capsys, "scan", "no_such_kernel")
    assert rc == 2
    assert "no_such_kernel" in err


# ---------------------------------------------------------------------------
# probe / report


def test_probe_emits_plan_and_stats(capsys):
    rc, out, _ = run_cli(
        capsys, "probe", "--profile", "i7-7700k", "--pstate", "0x1b", "--tries", "800"
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["model"] == "i7-7700K"
    assert blob["plan"]["chosen_offset_mv"] == [-260, -250, -255, -255]
    assert blob["probe"]["best_core"] == 1
    assert len(blob["probe"]["stats"]) == 4


def test_report_heatmap_shape(capsys):
    rc, out, _ = run_cli(
        capsys, "report", "heatmap", "--profile", "i7-7700k", "--tries", "600"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("core,byte_0,")
    assert len(lines) == 5
    assert all(len(line.split(",")) == 17 for line in lines)


def test_report_multiplicity_buckets_add_up(capsys):
    rc, out, _ = run_cli(
        capsys, "report", "multiplicity", "--profile", "i7-8700k", "--tries", "600"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        faults, single, double, more = map(int, cells[1:5])
        assert single + double + more == faults


# ---------------------------------------------------------------------------
# campaign


CAMPAIGN_FLAGS = [
    "campaign", "--profile", "i7-7700k", "--victim", "hmac32", "--core", "1",
    "--stressor", "listing2", "--seed", "11", "--runs", "2", "--tries", "400",
]


def test_campaign_output_is_byte_identical_between_runs(capsys):
    rc1, out1, _ = run_cli(capsys, *CAMPAIGN_FLAGS)
    rc2, out2, _ = run_cli(capsys, *CAMPAIGN_FLAGS)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_campaign_output_does_not_depend_on_jobs(capsys):
    _, serial, _ = run_cli(capsys, *CAMPAIGN_FLAGS, "--jobs", "1")
    _, threaded, _ = run_cli(capsys, *CAMPAIGN_FLAGS, "--jobs", "4")
    assert serial == threaded


def test_campaign_starts_no_threads():
    # A fresh interpreter, so nothing pytest or another test imported or
    # started can hide a thread pool the campaign brings in.
    script = "\n".join([
        "import sys, threading",
        "import voltlab.cli",
        f"assert voltlab.cli.main({CAMPAIGN_FLAGS!r}) == 0",
        "assert 'concurrent.futures' not in sys.modules",
        "assert threading.active_count() == 1, threading.enumerate()",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["tries"] == 800


def test_campaign_json_contents(capsys):
    rc, out, _ = run_cli(capsys, *CAMPAIGN_FLAGS)
    assert rc == 0
    blob = json.loads(out)
    assert blob["context"]["attack_voltage_v"] == pytest.approx(0.7)
    assert blob["result"]["scenario"] == "hmac_32b"
    assert blob["result"]["tries"] == 800
    addresses = [w["address"] for w in blob["context"]["system"]["msr_writes"]]
    assert addresses == ["0x1aa", "0x199", "0x1a0", "0x19b", "0x150"]


def test_campaign_writes_summary_csv(capsys, tmp_path):
    path = tmp_path / "table.csv"
    rc, _, _ = run_cli(capsys, *CAMPAIGN_FLAGS, "--csv", str(path))
    assert rc == 0
    header, row = path.read_text(encoding="utf-8").strip().splitlines()
    assert header.split(",")[:4] == ["model", "core", "pstate", "frequency_mhz"]
    cells = row.split(",")
    assert cells[0] == "i7-7700K"
    assert cells[3] == "2700"  # 0x1b ratio on a 100 MHz base clock


def test_campaign_csv_that_cannot_be_written_prints_no_result(capsys, tmp_path):
    path = tmp_path / "missing" / "table.csv"
    rc, out, err = run_cli(capsys, *CAMPAIGN_FLAGS, "--csv", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ")


def test_campaign_with_csv_loads_the_profile_once(capsys, tmp_path, monkeypatch):
    # Once per process: a second campaign, with or without the table,
    # reads the profile the first one loaded.
    fresh_cache(monkeypatch, processor, "_bundled_profile")
    loads = []
    real = ProcessorProfile.__init__

    def counting(self, raw, origin="<dict>"):
        loads.append(origin)
        real(self, raw, origin)

    monkeypatch.setattr(ProcessorProfile, "__init__", counting)
    rc, _, _ = run_cli(capsys, *CAMPAIGN_FLAGS, "--csv", str(tmp_path / "table.csv"))
    assert rc == 0
    assert loads == ["i7-7700k"]
    rc, _, _ = run_cli(capsys, *CAMPAIGN_FLAGS)
    assert rc == 0
    assert loads == ["i7-7700k"]


def test_campaign_rejects_unknown_core(capsys):
    rc, _, err = run_cli(
        capsys, "campaign", "--profile", "i7-7700k", "--victim", "poc",
        "--core", "9", "--stressor", "none",
    )
    assert rc == 2
    assert "core 9" in err


def _choices(command, flag):
    """The choices `flag` takes on the `command` parser."""
    (subs,) = [a for a in cli._build_parser(command)._actions if a.dest == "command"]
    (action,) = [a for a in subs.choices[command]._actions if flag in a.option_strings]
    return action.choices


def test_choices_restate_the_victims_registries():
    # `cli` keeps its own tuples so that `--help` does not import `victims`.
    for command in ("probe", "campaign"):
        stressors = set(_choices(command, "--stressor"))
        assert stressors == set(victims.STRESSORS) | set(victims.STRESSOR_ALIASES)
    assert set(_choices("campaign", "--victim")) == {"poc"} | set(victims.PAYLOADS)


def test_campaign_abort_reports_partial(capsys, monkeypatch):
    partial = CampaignResult.from_runs(1, "poc", [(3, 50)], crashes=1)

    def boom(*_, **__):
        raise AbortedByCrash("platform died", partial=partial)

    monkeypatch.setattr(orchestrator, "run_campaign", boom)
    rc, out, _ = run_cli(capsys, *CAMPAIGN_FLAGS)
    assert rc == 3
    blob = json.loads(out)
    assert blob["aborted"] == "platform died"
    assert blob["partial"]["crashes"] == 1


HUGE = "100000000000000000000"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param(CAMPAIGN_FLAGS, "--runs", "0", id="--runs-0"),
        pytest.param(CAMPAIGN_FLAGS, "--runs", "-1", id="--runs--1"),
        pytest.param(CAMPAIGN_FLAGS, "--tries", "-5", id="--tries--5"),
        pytest.param(CAMPAIGN_FLAGS, "--tries", "0", id="--tries-0"),
        pytest.param(CAMPAIGN_FLAGS, "--jobs", "0", id="--jobs-0"),
        # Oversized counts are refused before any work, so no huge run starts.
        pytest.param(CAMPAIGN_FLAGS, "--runs", HUGE, id="--runs-huge"),
        pytest.param(CAMPAIGN_FLAGS, "--runs", str(cli.MAX_RUNS + 1), id="--runs-max+1"),
        pytest.param(CAMPAIGN_FLAGS, "--tries", HUGE, id="--tries-huge"),
        pytest.param(["probe", "--profile", "i7-7700k"], "--tries", HUGE, id="probe---tries-huge"),
        pytest.param(
            ["probe", "--profile", "i7-7700k"], "--tries", str(cli.MAX_TRIES + 1),
            id="probe---tries-max+1",
        ),
    ],
)
def test_count_flags_must_be_positive(capsys, command, flag, value):
    limit = cli.MAX_TRIES if flag == "--tries" else cli.MAX_RUNS
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be in 1..={limit}, not {value}" in err


def _exit_and_output(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exit_info:
        code = exit_info.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["report", "heatmap", "--help"],
        ["report", "multiplicity", "--help"],
        [],
        ["no-such-command"],
        ["probe"],
        ["report"],
        ["encode-msr", "--offset-mv", "-5", "--static-units", "9"],
        ["decode-msr", "0x80000011F3800000", "--json", "--stray"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    # `main` adds arguments only to the command it was given; the output
    # and exit code must be those of the parser with every command built.
    ours = _exit_and_output(capsys, argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command: build(None))
    assert ours == _exit_and_output(capsys, argv)


_CAMPAIGN = [
    "campaign", "--profile", "i7-7700k", "--victim", "poc", "--core", "1",
    "--runs", "2", "--tries", "500",
]
_PROBE = ["--profile", "i7-7700k", "--tries", "300", "--seed", "3"]

# (COLUMNS, argv): one in-process sequence of calls, each of which could
# pick up what an earlier call left on a shared parser.
_SEQUENCE = [
    ("80", [*_CAMPAIGN, "--csv", "summary.csv"]),
    ("80", _CAMPAIGN),
    ("80", ["encode-msr", "--offset-mv", "-5"]),
    ("80", ["encode-msr", "--static-units", "9"]),
    ("80", ["encode-msr", "--offset-mv", "-5", "--static-units", "9"]),
    ("80", ["campaign", "--profile", "i7-7700k", "--victim", "poc"]),
    ("80", [*_CAMPAIGN, "--seed", "8"]),
    ("80", ["report", "heatmap", *_PROBE]),
    ("80", ["report", "multiplicity", *_PROBE]),
    ("60", ["campaign", "--help"]),
    ("120", ["campaign", "--help"]),
]


def test_each_command_parser_is_built_once_per_process(capsys, monkeypatch):
    # Seven parsers on the first call (the top level and one per command),
    # none on later calls.
    fresh_cache(monkeypatch, cli, "_build_parser")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for seed in ("7", "8", "7"):
        before = len(built)
        rc, _, _ = run_cli(capsys, *_CAMPAIGN, "--seed", seed)
        assert rc == 0
        counts.append(len(built) - before)
    assert counts == [len(cli._COMMANDS) + 1, 0, 0]


def _run_sequence(capsys, monkeypatch, directory):
    """(exit code, stdout, stderr, files written) of each `_SEQUENCE` call,
    run in `directory`, which is emptied after each call."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    steps = []
    for columns, argv in _SEQUENCE:
        monkeypatch.setenv("COLUMNS", columns)
        outcome = _exit_and_output(capsys, argv)
        written = {path.name: path.read_bytes() for path in directory.iterdir()}
        for path in directory.iterdir():
            path.unlink()
        steps.append((*outcome, written))
    return steps


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, tmp_path):
    fresh_cache(monkeypatch, cli, "_build_parser")
    reused = _run_sequence(capsys, monkeypatch, tmp_path / "reused")
    assert cli._build_parser.cache_info().misses == 3  # campaign, encode-msr, report
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert reused == _run_sequence(capsys, monkeypatch, tmp_path / "fresh")
    # The sequence exercises what it names: a CSV written once, both
    # mutually exclusive flags alone and together, a usage error before a
    # valid call, and help wrapped to each width.
    codes = [code for code, _, _, _ in reused]
    assert codes == [0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0]
    assert list(reused[0][3]) == ["summary.csv"]
    assert not any(written for *_, written in reused[1:])
    assert "offset   -5 mV" in reused[2][1] and "static   9/1024" in reused[3][1]
    assert "not allowed with argument" in reused[4][2]
    assert "--core" in reused[5][2]
    assert reused[7][1].startswith("core,byte_0") and reused[8][1].startswith("core,faults")
    assert reused[9][1] != reused[10][1]


def _one_core_profile(raw):
    raw["physical_cores"] = 1
    raw["byte_affinity"] = raw["byte_affinity"][:1]
    raw["multiplicity"] = raw["multiplicity"][:1]
    for entry in raw["pstates"].values():
        entry["fault_voltage_v"] = entry["fault_voltage_v"][:1]
    for entry in raw["calibration"].values():
        entry["p_event_max"] = entry["p_event_max"][:1]


def _no_smt_profile(raw):
    raw["threads_per_core"] = 1


@pytest.mark.parametrize("edit", [_one_core_profile, _no_smt_profile])
def test_profile_without_room_for_the_partition_is_refused(capsys, tmp_path, edit):
    text = resources.files("voltlab").joinpath("data/profiles/i7-7700k.json").read_text()
    raw = json.loads(text)
    edit(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(InvariantError):
        load_profile(str(path))
    rc, out, err = run_cli(capsys, "probe", "--profile", str(path), "--tries", "10")
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and "attack partition" in err



@pytest.mark.parametrize("value", [float("inf"), float("nan"), 2.5])
@pytest.mark.parametrize(
    "path",
    [
        ("physical_cores",),
        ("threads_per_core",),
        ("base_clock_mhz",),
    ],
    ids=lambda path: "/".join(map(str, path)),
)
def test_profile_with_a_non_whole_count_is_refused(capsys, tmp_path, path, value):
    text = resources.files("voltlab").joinpath("data/profiles/i7-7700k.json").read_text()
    raw = json.loads(text)
    *parents, last = path
    target = raw
    for key in parents:
        target = target[key]
    target[last] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw), encoding="utf-8")
    field = ".".join(path)
    with pytest.raises(InvariantError, match=f"{field} must be a whole number"):
        load_profile(str(edited))
    rc, out, err = run_cli(capsys, "probe", "--profile", str(edited), "--tries", "10")
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and f"{field} must be a whole number" in err


def _edited_profile(tmp_path, key, value):
    """A copy of the bundled i7-7700k profile with one top-level field set."""
    text = resources.files("voltlab").joinpath("data/profiles/i7-7700k.json").read_text()
    raw = json.loads(text)
    raw[key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw), encoding="utf-8")
    return str(edited)


def test_profile_with_an_absurd_thread_count_is_refused(capsys, tmp_path):
    # A whole number, but a campaign would size its role table from it.
    edited = _edited_profile(tmp_path, "threads_per_core", 1e308)
    with pytest.raises(InvariantError, match="threads_per_core must be a whole number in 0..=8"):
        load_profile(edited)
    rc, out, err = run_cli(
        capsys, "campaign", "--profile", edited, "--victim", "poc", "--core", "1", "--tries", "10"
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and "threads_per_core must be a whole number" in err


def test_profile_with_an_infinite_default_pstate_is_refused(capsys, tmp_path):
    edited = _edited_profile(tmp_path, "default_attack_pstate", float("inf"))
    with pytest.raises(SchemaError, match="pstate ratio inf is not a whole number"):
        load_profile(edited)
    rc, out, err = run_cli(capsys, "probe", "--profile", edited, "--tries", "10")
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and "not a whole number" in err


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "path",
    [
        ("byte_affinity", 1, 0),
        ("multiplicity", 1, 0),
        ("noise_mv",),
        ("crash", "rate_per_slice"),
        ("pstates", "0x1b", "fault_voltage_v", 1),
    ],
    ids=lambda path: "/".join(map(str, path)),
)
def test_profile_with_non_finite_numbers_is_refused(capsys, tmp_path, path, value):
    text = resources.files("voltlab").joinpath("data/profiles/i7-7700k.json").read_text()
    raw = json.loads(text)
    *parents, last = path
    target = raw
    for key in parents:
        target = target[key]
    target[last] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(InvariantError, match="finite"):
        load_profile(str(edited))
    rc, out, err = run_cli(
        capsys, "campaign", "--profile", str(edited), "--victim", "poc", "--core", "1", "--tries", "10"
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and "finite" in err


@pytest.mark.parametrize("weight", [5e-324, 1e308])
def test_profile_whose_affinity_does_not_survive_the_spread_over_bits_is_refused(
    capsys, tmp_path, weight
):
    # The per-bit weights underflow to a zero sum, or their sum overflows.
    text = resources.files("voltlab").joinpath("data/profiles/i7-7700k.json").read_text()
    raw = json.loads(text)
    raw["byte_affinity"][1] = [weight] * 16
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, "campaign", "--profile", str(edited), "--victim", "poc", "--core", "1", "--tries", "10"
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ") and "underflow or overflow per bit" in err


def test_lookup_errors_print_without_quotes(capsys):
    rc, out, err = run_cli(
        capsys, "probe", "--profile", "i7-7700k", "--pstate", "0x99", "--tries", "10"
    )
    assert rc == 2
    assert out == ""
    assert err == "voltlab: i7-7700K does not define pstate 0x99\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["campaign", "--victim", "poc", "--core", "1"],
        ["probe"],
        ["report", "heatmap"],
        ["report", "multiplicity"],
    ],
    ids=" ".join,
)
def test_empty_pstate_is_refused_by_every_command(capsys, argv):
    # An empty --pstate is a bad ratio, not a request for the default.
    rc, out, err = run_cli(
        capsys, *argv, "--profile", "i7-7700k", "--pstate", "", "--tries", "10"
    )
    assert rc == 2
    assert out == ""
    assert err == "voltlab: pstate '' is not a hex ratio\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decode-msr", "zz"],
        ["probe", "--profile", "i7-7700k", "--pstate", "zz", "--tries", "10"],
        ["probe", "--profile", "{latin1.json}", "--tries", "10"],
        ["scan", "{latin1.s}"],
        ["probe", "--profile", "i7-7700k", "--pstate", "0x99", "--tries", "10"],
        ["campaign", "--profile", "i7-7700k", "--victim", "poc", "--core", "9", "--tries", "10"],
    ],
    ids=" ".join,
)
def test_bad_input_exits_2_with_a_voltlab_message(capsys, tmp_path, argv):
    for name in ("latin1.json", "latin1.s"):
        (tmp_path / name).write_bytes(b"halt # caf\xe9\n")
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("voltlab: ")
    assert "invalid literal" not in err and "codec" not in err


# ---------------------------------------------------------------------------
# Cold start: what each command imports, checked in a fresh interpreter


def _fresh_modules(*lines: str) -> set:
    """The modules a fresh interpreter holds after running `lines`."""
    script = "\n".join(["import sys", *lines, "print(' '.join(sys.modules))"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _cli_lines(*argv: str) -> tuple[str, str]:
    return "import voltlab.cli", f"assert voltlab.cli.main({list(argv)!r}) == 0"


def _cli_modules(*argv: str) -> set:
    return _fresh_modules(*_cli_lines(*argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("decode-msr", "0x80000011F3800000"),
        ("encode-msr", "--offset-mv", "-100", "--json"),
        ("scan", "vp1_xor_kernel"),
    ],
    ids=lambda argv: argv[0],
)
def test_codec_and_scan_commands_start_without_numpy(argv):
    loaded = _cli_modules(*argv)
    assert "numpy" not in loaded
    assert "voltlab.orchestrator" not in loaded
    assert "dataclasses" not in loaded


def test_sha256sim_imports_without_numpy():
    loaded = _fresh_modules(
        "import hashlib, hmac",
        "from voltlab.sha256sim import hmac_sha256, sha256",
        "for key, msg in ((b'', b''), (b'k' * 100, b'm' * 1000)):",
        "    assert hmac_sha256(key, msg) == hmac.new(key, msg, 'sha256').digest()",
        "    assert sha256(msg) == hashlib.sha256(msg).digest()",
    )
    assert "voltlab.sha256sim" in loaded
    assert "numpy" not in loaded


_CELL = ("--profile", "i7-7700k", "--core", "1", "--runs", "1", "--tries", "100")


@pytest.mark.parametrize(
    "lines",
    [
        *(_cli_lines("campaign", "--victim", victim, *_CELL)
          for victim in ("poc", "hmac32", "hmac1k")),
        _cli_lines("probe", "--profile", "i7-7700k", "--tries", "100"),
        # What the benchmark's start-up time measures: the CLI module, a
        # bundled profile and the bundled programs.
        ("import voltlab.cli", "from voltlab.isa import bundled_program",
         "from voltlab.processor import load_profile", "load_profile('i7-7700k')",
         "bundled_program('vp1_xor_kernel')", "bundled_program('poc_and_branch')"),
    ],
    ids=["campaign-poc", "campaign-hmac32", "campaign-hmac1k", "probe", "setup"],
)
def test_simulator_commands_start_without_numpy(lines):
    loaded = _fresh_modules(*lines)
    assert "voltlab.processor" in loaded
    assert "numpy" not in loaded


def test_poc_campaign_does_not_load_mca():
    loaded = _cli_modules(
        "campaign", "--profile", "i7-7700k", "--victim", "poc", "--core", "1",
        "--runs", "1", "--tries", "100",
    )
    assert "voltlab.orchestrator" in loaded
    assert "voltlab.mca" not in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        *(("campaign", "--victim", victim, *_CELL) for victim in ("poc", "hmac32", "hmac1k")),
        ("probe", "--profile", "i7-7700k", "--tries", "100"),
    ],
    ids=["campaign-poc", "campaign-hmac32", "campaign-hmac1k", "probe"],
)
def test_campaign_and_probe_do_not_load_sha256sim(argv):
    # An HMAC campaign reads its store count from `victims.PAYLOADS`.
    loaded = _cli_modules(*argv)
    assert "voltlab.victims" in loaded
    assert "voltlab.sha256sim" not in loaded


def test_public_hmac_context_loads_sha256sim():
    loaded = _fresh_modules("import voltlab", "assert voltlab.HmacContext.mac_with_faults")
    assert "voltlab.sha256sim" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("campaign", "--profile", "i7-7700k", "--victim", "hmac32", "--core", "1",
         "--runs", "1", "--tries", "100"),
        ("probe", "--profile", "i7-7700k", "--tries", "100"),
    ],
    ids=lambda argv: argv[0],
)
def test_hmac_campaign_and_probe_start_without_dataclasses(argv):
    loaded = _cli_modules(*argv)
    assert "voltlab.orchestrator" in loaded
    assert "dataclasses" not in loaded


def test_import_prepares_nothing():
    # Profiles, victims and command parsers are read, prepared and built
    # on first use, never at import, so a fresh interpreter pays for only
    # what its command runs.
    caches = [
        "voltlab.processor._bundled_profile", "voltlab.processor._crash_kind_cdf",
        "voltlab.isa.bundled_program", "voltlab.victims._bundled_victim",
        "voltlab.cli._build_parser",
    ]
    script = "\n".join([
        "import voltlab.cli, voltlab.isa, voltlab.orchestrator",
        f"for path in {caches!r}:",
        "    module, name = path.rsplit('.', 1)",
        "    info = getattr(sys.modules[module], name).cache_info()",
        "    assert info.currsize == info.hits == info.misses == 0, (path, info)",
    ])
    loaded = _fresh_modules(script)
    assert "voltlab.orchestrator" in loaded


@pytest.mark.parametrize(
    "argv, parsed",
    [
        *((("campaign", "--victim", victim, *_CELL), [])
          for victim in ("poc", "hmac32", "hmac1k")),
        (("probe", "--profile", "i7-7700k", "--tries", "100"), ["vp1_xor_kernel"]),
    ],
    ids=["campaign-poc", "campaign-hmac32", "campaign-hmac1k", "probe"],
)
def test_campaign_and_probe_parse_only_the_comparison_loop(argv, parsed):
    # Phase 1 and both campaign victims read counts, so a campaign parses
    # no program; the probe parses the bundled comparison loop and nothing
    # else.
    loaded = _fresh_modules(
        "import voltlab.isa as isa",
        "parsed, real = [], isa.parse_program",
        "def parse(text, source_name):",
        "    parsed.append(source_name)",
        "    return real(text, source_name)",
        "isa.parse_program = parse",
        *_cli_lines(*argv),
        f"assert parsed == {parsed!r}, parsed",
        f"assert isa.bundled_program.cache_info().currsize == {len(parsed)}",
    )
    assert "voltlab.orchestrator" in loaded


@pytest.mark.parametrize(
    "argv, runs_a_program",
    [
        *((("campaign", "--victim", victim, *_CELL), False)
          for victim in ("poc", "hmac32", "hmac1k")),
        (("probe", "--profile", "i7-7700k", "--tries", "100"), True),
        (("scan", "vp1_xor_kernel"), True),
    ],
    ids=["campaign-poc", "campaign-hmac32", "campaign-hmac1k", "probe", "scan"],
)
def test_only_commands_that_run_a_program_load_isa_and_scanner(argv, runs_a_program):
    # `victims` imports both only when it prepares a victim, which only
    # the probe does; a campaign reads every count it needs.
    loaded = _cli_modules(*argv)
    assert ("voltlab.isa" in loaded) is runs_a_program
    assert ("voltlab.scanner" in loaded) is runs_a_program


def test_package_import_loads_no_submodule_until_a_name_is_touched():
    loaded = _fresh_modules(
        "import voltlab",
        "assert [m for m in sys.modules if m.startswith('voltlab.')] == []",
        "voltlab.encode_offset",
    )
    assert {m for m in loaded if m.startswith("voltlab.")} == {"voltlab.errors", "voltlab.msr"}


def test_every_public_name_resolves_and_is_listed():
    import voltlab

    for name in voltlab.__all__:
        if name != "__version__":
            module = importlib.import_module(f"voltlab.{voltlab._ORIGIN[name]}")
            assert getattr(voltlab, name) is getattr(module, name)
    assert set(voltlab.__all__) <= set(dir(voltlab))
    namespace: dict = {}
    exec("from voltlab import *", namespace)
    assert set(voltlab.__all__) <= set(namespace)


def test_unknown_package_attribute_raises_attribute_error():
    import voltlab

    with pytest.raises(AttributeError, match="no_such_name"):
        voltlab.no_such_name  # noqa: B018
    assert not hasattr(voltlab, "estimate_window")
