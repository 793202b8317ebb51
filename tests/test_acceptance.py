"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with -v for one status line per criterion, or -s to see the AC* PASS
lines with measured runtimes.  Statistical checks pin their seeds; the
tolerances (5 mV grid, 5% relative or 3 sigma of binomial noise, chi^2 at
99%, +/- 2 percentage points) are part of the claims, not fudge factors.
"""

import json
import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy.stats import chi2

from voltlab import rng as vrng
from voltlab.isa import bundled_program, parse_program
from voltlab.mca import MachineCheck, MceKind
from voltlab.msr import (
    MailboxCommand,
    MailboxOp,
    PState,
    VoltageDomain,
    VoltageMode,
    decode_mailbox,
    encode_mailbox,
    pstate_frequency_mhz,
)
from voltlab.orchestrator import (
    VoltagePlan,
    phase1_find_window,
    phase3_attack,
    run_campaign,
    setup_system,
)
from voltlab.processor import (
    CrashKind,
    VoltageRegion,
    classify_voltage,
    draw_flip_pattern,
    load_profile,
)
from voltlab.scanner import PatternHit, PatternKind, scan
from voltlab.sha256sim import EVENTS_PER_BLOCK, HmacContext, hmac_sha256

from helpers import numpy_stream, random_program_text
from slice_reference import scan_brute

KABY = load_profile("i7-7700k")
COFFEE = load_profile("i7-8700k")
PLAIN = load_profile("i7-7700")

# Reference measurements the simulator is calibrated against.
WINDOW_TOPS_V = {
    "0x08": (0.540, 0.545, 0.535, 0.545),
    "0x10": (0.585, 0.585, 0.580, 0.585),
    "0x1b": (0.700, 0.710, 0.705, 0.705),
    "0x20": (0.765, 0.775, 0.770, 0.775),
    "0x24": (0.825, 0.835, 0.835, 0.835),
    "0x2a": (0.930, 0.935, 0.930, 0.935),
}
CAMPAIGN_CELLS = [
    # (profile, core, victim, expected successes per 10k tries)
    ("i7-8700k", 0, "hmac32", 9621.6),
    ("i7-7700k", 1, "hmac32", 1795.6),
    ("i7-7700k", 1, "hmac1k", 1983.8),
    ("i7-8700k", 3, "hmac32", 0.0),
]


def test_ac01_codec_round_trip_is_bit_exact():
    t0 = perf_counter()
    example = MailboxCommand(
        VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET, offset_mv=-100
    )
    word = encode_mailbox(example)
    assert word == 0x80000011F3800000
    assert decode_mailbox(word) == example
    for offset in range(-1024, 1024):
        cmd = MailboxCommand(
            VoltageDomain.CORES, MailboxOp.WRITE_VOLTAGE, VoltageMode.OFFSET,
            offset_mv=offset,
        )
        assert decode_mailbox(encode_mailbox(cmd)) == cmd
    for units in range(2048):
        cmd = MailboxCommand(
            VoltageDomain.CORES, MailboxOp.READ_VOLTAGE, VoltageMode.STATIC,
            static_units=units,
        )
        assert decode_mailbox(encode_mailbox(cmd)) == cmd
    dt = perf_counter() - t0
    assert dt < 1.0, f"codec sweep took {dt:.2f}s, budget 1s"
    print(f"AC1 PASS worked example + 4096 round trips bit-exact in {dt:.3f}s")


def test_ac02_pstate_frequencies_are_exact():
    expected = {0x20: 3200, 0x1B: 2700, 0x08: 800, 0x24: 3600}
    for ratio, mhz in expected.items():
        assert pstate_frequency_mhz(PState(ratio)) == mhz
    print(f"AC2 PASS ratios {sorted(hex(r) for r in expected)} map to exact MHz")


def test_ac03_window_search_recovers_reference_tops():
    t0 = perf_counter()
    for pstate, tops in WINDOW_TOPS_V.items():
        plan = phase1_find_window(KABY, pstate=pstate, seed=3)
        for core, expect_v in enumerate(tops):
            got = plan.window_top_v[core]
            assert abs(got - expect_v) <= 0.005 + 1e-12, (
                f"{pstate} core {core}: {got:.3f} V vs {expect_v:.3f} V"
            )
    dt = perf_counter() - t0
    assert dt < 30.0, f"window search took {dt:.1f}s, budget 30s"
    print(f"AC3 PASS 6 pstates x 4 cores within 5 mV in {dt:.2f}s")


def test_ac04_campaign_means_match_reference_cells():
    t0 = perf_counter()
    lines = []
    for profile_name, core, victim, expected in CAMPAIGN_CELLS:
        result, _ = run_campaign(
            profile_name, victim, core, "listing2", seed=11, runs=5,
            tries_per_run=10_000,
        )
        p = expected / 10_000.0
        sigma_mean = 10_000.0 * np.sqrt(p * (1.0 - p) / 50_000.0)
        tolerance = max(0.05 * expected, 3.0 * sigma_mean)
        diff = abs(result.mean_per_10k - expected)
        assert diff <= tolerance, (
            f"{profile_name} core {core} {victim}: {result.mean_per_10k:.1f} "
            f"vs {expected:.1f} (tolerance {tolerance:.1f})"
        )
        lines.append(f"{profile_name}/core{core}/{victim}={result.mean_per_10k:.1f}")
    dt = perf_counter() - t0
    assert dt < 120.0, f"campaign cells took {dt:.1f}s, budget 120s"
    print(f"AC4 PASS {'; '.join(lines)} in {dt:.1f}s")


def test_ac05_poc_rates_per_core_and_stressor():
    t0 = perf_counter()
    plan = phase1_find_window(KABY, pstate="0x1b", seed=5)
    expected_pct = {1: 99.0, 2: 96.0, 3: 99.0}
    for core, expect in expected_pct.items():
        state, _, _ = setup_system(KABY, "0x1b", core, "listing2", seed=5)
        result = phase3_attack(state, plan, "poc", runs=2, tries_per_run=5000)
        pct = result.mean_per_10k / 100.0
        assert abs(pct - expect) <= 2.0, f"core {core}: {pct:.2f}% vs {expect}%"
    state, _, _ = setup_system(KABY, "0x1b", 1, "twofish", seed=5)
    slow = phase3_attack(state, plan, "poc", runs=2, tries_per_run=5000)
    slow_pct = slow.mean_per_10k / 100.0
    assert slow_pct <= 10.0 and abs(slow_pct - 8.0) <= 2.0, f"twofish: {slow_pct:.2f}%"
    dt = perf_counter() - t0
    assert dt < 60.0, f"rate sweep took {dt:.1f}s, budget 60s"
    print(
        f"AC5 PASS cores 1/2/3 within 2pp of 99/96/99, twofish {slow_pct:.1f}% in {dt:.1f}s"
    )


def test_ac06_flip_patterns_match_profile_distributions():
    t0 = perf_counter()
    n = 10_000
    for profile in (KABY, COFFEE, PLAIN):
        for core in range(profile.physical_cores):
            gen = vrng.stream(17, "acceptance-flips", profile.name, core)
            support = {i for i, w in enumerate(profile.byte_affinity[core]) if w > 0}
            buckets = np.zeros(3, dtype=int)
            for _ in range(n):
                pattern = draw_flip_pattern(profile, core, 0, gen)
                assert set(pattern.byte_positions) <= support
                buckets[min(pattern.multiplicity, 3) - 1] += 1
            probs = np.asarray(profile.multiplicity[core], dtype=float)
            live = probs > 0.0
            assert buckets[~live].sum() == 0, (profile.name, core)
            dof = int(live.sum()) - 1
            if dof > 0:
                expected = n * probs[live]
                stat = float(((buckets[live] - expected) ** 2 / expected).sum())
                limit = float(chi2.ppf(0.99, dof))
                assert stat <= limit, (
                    f"{profile.name} core {core}: chi2 {stat:.2f} > {limit:.2f}"
                )
            if profile.name == "i7-8700K" and core == 3:
                assert buckets[0] / n >= 0.995, "expected near-pure single-bit flips"
    dt = perf_counter() - t0
    print(f"AC6 PASS multiplicity chi2 at 99% and affinity support, 14 cores in {dt:.1f}s")


def test_ac07_region_and_reporting_properties():
    gen = numpy_stream(23, "acceptance-regions")
    pstates = sorted(KABY.pstates)
    for _ in range(10_000):
        core = int(gen.integers(KABY.physical_cores))
        pstate = pstates[int(gen.integers(len(pstates)))]
        temp = float(gen.uniform(25.0, 85.0))
        a, b = gen.uniform(0.3, 1.3, size=2)
        hi, lo = (a, b) if a >= b else (b, a)
        assert classify_voltage(KABY, core, pstate, hi, temp) <= classify_voltage(
            KABY, core, pstate, lo, temp
        )

    reporter = MachineCheck(KABY)
    for i in range(300):
        pattern = draw_flip_pattern(KABY, 1, 0, gen)
        outcome = reporter.observe(
            VoltageRegion.EXPLOIT_WINDOW, fault=pattern, slice_index=i, core=1, rng=gen
        )
        assert outcome is None
    assert len(reporter.log) == 0, "window flips must stay invisible"

    outcome = reporter.observe(
        VoltageRegion.UNSTABLE, crash=CrashKind.KERNEL_EXCEPTION, slice_index=300, core=2
    )
    assert outcome.kind is MceKind.UNCORRECTED_FATAL and outcome.core == 2
    assert reporter.log.count(MceKind.UNCORRECTED_FATAL) == KABY.physical_cores
    for core in range(KABY.physical_cores):
        assert any(
            r.kind is MceKind.UNCORRECTED_FATAL for r in reporter.log.view(core)
        ), f"core {core} missed the broadcast"

    state, _, _ = setup_system(KABY, "0x1b", 1, "listing2", seed=5)
    idle = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (0, 0, 0, 0))
    for victim in ("poc", "hmac32"):
        result = phase3_attack(state, idle, victim, runs=2, tries_per_run=500)
        assert result.successes == 0, f"{victim} succeeded without undervolting"
    print("AC7 PASS monotone regions, silent window flips, broadcast MCE, zero-offset zero")


def test_ac08_scan_equals_brute_oracle():
    t0 = perf_counter()
    gen = numpy_stream(31, "acceptance-scan")
    for _ in range(1000):
        program = parse_program(random_program_text(gen))
        assert scan(program) == scan_brute(program)
    hits = scan(bundled_program("vp1_indirect_store"))
    assert hits == [PatternHit(PatternKind.VP1, 0, 1)]
    dt = perf_counter() - t0
    print(f"AC8 PASS 1000 programs match the oracle, indirect store = 1 VP1 hit ({dt:.1f}s)")


def test_ac09_cli_campaign_output_is_byte_identical():
    t0 = perf_counter()
    flags = [
        sys.executable, "-m", "voltlab.cli", "campaign",
        "--profile", "i7-7700k", "--victim", "hmac32", "--core", "1",
        "--stressor", "listing2", "--seed", "11", "--runs", "5", "--tries", "2000",
    ]

    def run(extra):
        proc = subprocess.run(flags + extra, capture_output=True, check=True)
        return proc.stdout

    first, second = run([]), run([])
    assert first == second, "same flags, different bytes"
    parallel = run(["--jobs", "4"])
    assert parallel == first, "worker count leaked into the output"
    json.loads(first.decode())  # well-formed on top of identical
    dt = perf_counter() - t0
    print(f"AC9 PASS byte-identical across reruns and --jobs 1/4 in {dt:.1f}s")


def test_ac10_hmac_vectors_and_flip_sensitivity():
    # Published HMAC-SHA256 test vectors (truncated set, full-length tags).
    vectors = [
        (
            bytes.fromhex("0b" * 20),
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            bytes.fromhex("aa" * 131),
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ]
    for key, message, tag in vectors:
        assert hmac_sha256(key, message).hex() == tag

    ctx = HmacContext(b"\x0b" * 32, bytes(range(32)))
    gen = numpy_stream(41, "acceptance-hmac")
    changed = 0
    for _ in range(1000):
        g = int(gen.integers(ctx.total_events))
        bit = int(gen.integers(128))
        mac = ctx.mac_with_faults({divmod(g, EVENTS_PER_BLOCK): 1 << bit})
        changed += mac != ctx.clean_mac
    assert changed == 1000, f"{1000 - changed} single-bit flips left the MAC intact"
    print("AC10 PASS standard vectors match, 1000/1000 single-bit flips change the MAC")
