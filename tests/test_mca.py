"""Machine-check reporting: what gets logged, what slips through."""

import json
from importlib import resources

import pytest

from voltlab import rng as vrng
from voltlab.errors import InvariantError
from voltlab.mca import MachineCheck, MceKind, MceLog, MceRecord
from voltlab.processor import (
    BitFlipPattern,
    CrashKind,
    ProcessorProfile,
    VoltageRegion,
    load_profile,
)


@pytest.fixture()
def mc():
    # Four cores, logging at 0.01 corrected and 1e-3 decode records per slice.
    return MachineCheck(load_profile("i7-7700k"))


FLIP = BitFlipPattern(0, 1 << 3)


def test_exploit_flips_are_always_silent(mc):
    gen = vrng.stream(21, "silent")
    for i in range(10_000):
        out = mc.observe(
            VoltageRegion.EXPLOIT_WINDOW, fault=FLIP, slice_index=i, core=1, rng=gen
        )
        assert out is None
    assert len(mc.log) == 0


def test_normal_and_unstable_slices_log_nothing(mc):
    gen = vrng.stream(22, "none")
    for i in range(2000):
        assert mc.observe(VoltageRegion.NORMAL, slice_index=i, rng=gen) is None
        assert mc.observe(VoltageRegion.UNSTABLE, slice_index=i, rng=gen) is None
    assert len(mc.log) == 0


def test_corrected_band_logs_at_configured_rate(mc):
    gen = vrng.stream(23, "corrected")
    n = 20_000
    logged = 0
    for i in range(n):
        out = mc.observe(VoltageRegion.CORRECTED_ERRORS, slice_index=i, core=2, rng=gen)
        if out is not None:
            logged += 1
            assert out.kind is MceKind.CORRECTED
    # binomial(20000, 0.01): mean 200, 3 sigma ~ 42
    assert abs(logged - 200) < 45
    assert len(mc.log) == logged


def test_kernel_exception_broadcasts_to_every_core(mc):
    out = mc.observe(
        VoltageRegion.UNSTABLE, crash=CrashKind.KERNEL_EXCEPTION, slice_index=7, core=1
    )
    assert out.kind is MceKind.UNCORRECTED_FATAL
    assert out.core == 1
    assert len(mc.log) == 4
    for core in range(4):
        view = mc.log.view(core)
        assert len(view) == 1
        assert view[0].kind is MceKind.UNCORRECTED_FATAL
        assert view[0].timestamp == 7


def test_hard_crashes_outrun_reporting(mc):
    for crash in (CrashKind.FREEZE, CrashKind.HARD_CRASH):
        assert mc.observe(VoltageRegion.UNSTABLE, crash=crash, slice_index=3) is None
    assert len(mc.log) == 0


def test_decode_errors_only_under_the_window_top(mc):
    gen = vrng.stream(24, "decode-normal")
    for region in (VoltageRegion.NORMAL, VoltageRegion.CORRECTED_ERRORS):
        for i in range(2000):
            assert mc.occasionally_decode_error(region, gen, slice_index=i) is None
    assert len(mc.log) == 0


def test_decode_error_rate_binomial(mc):
    gen = vrng.stream(25, "decode-rate")
    n = 100_000
    hits = 0
    for i in range(n):
        rec = mc.occasionally_decode_error(VoltageRegion.EXPLOIT_WINDOW, gen, slice_index=i)
        if rec is not None:
            hits += 1
            assert rec.kind is MceKind.INSTRUCTION_DECODE_CORRECTED
    # binomial(1e5, 1e-3): mean 100, 3 sigma ~ 30
    assert abs(hits - 100) < 32
    assert len(mc.log) == hits


def test_log_is_append_only_and_ordered():
    log = MceLog()
    log.append(MceRecord(5, 0, MceKind.CORRECTED))
    log.append(MceRecord(5, 1, MceKind.CORRECTED))  # ties allowed (broadcast)
    log.append(MceRecord(9, 0, MceKind.CORRECTED))
    with pytest.raises(InvariantError):
        log.append(MceRecord(4, 0, MceKind.CORRECTED))
    assert not hasattr(log, "remove")
    assert [r.timestamp for r in log] == [5, 5, 9]


def test_jsonl_round_trip(mc):
    gen = vrng.stream(28, "jsonl")
    mc.observe(VoltageRegion.UNSTABLE, crash=CrashKind.KERNEL_EXCEPTION, slice_index=2)
    for i in range(3, 500):
        mc.observe(VoltageRegion.CORRECTED_ERRORS, slice_index=i, core=3, rng=gen)
    lines = mc.log.to_jsonl().splitlines()
    assert len(lines) == len(mc.log)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"core": 0, "detail": "broadcast mce", "kind": "uncorrected_fatal", "timestamp": 2}
    assert all(p["kind"] in {k.value for k in MceKind} for p in parsed)


def test_replay_is_deterministic():
    def run():
        mc = MachineCheck(load_profile("i7-8700K"))
        gen = vrng.stream(29, "replay")
        for i in range(5000):
            mc.observe(VoltageRegion.CORRECTED_ERRORS, slice_index=i, core=i % 6, rng=gen)
            mc.occasionally_decode_error(VoltageRegion.EXPLOIT_WINDOW, gen, slice_index=i)
        return mc.log.to_jsonl()

    assert run() == run()


def test_for_profile_picks_up_rates():
    raw = json.loads(
        resources.files("voltlab").joinpath("data/profiles/i7-8700k.json").read_text()
    )
    raw["corrected_log_rate_per_slice"] = 1.0
    raw["decode_error_rate_per_slice"] = 0.0
    mc = MachineCheck(ProcessorProfile(raw))
    gen = vrng.stream(30, "profile-rates")
    for i in range(200):
        assert mc.observe(VoltageRegion.CORRECTED_ERRORS, slice_index=i, core=5, rng=gen)
        assert mc.occasionally_decode_error(VoltageRegion.EXPLOIT_WINDOW, gen, i) is None
    mc.observe(VoltageRegion.UNSTABLE, crash=CrashKind.KERNEL_EXCEPTION, slice_index=200)
    assert mc.log.count(MceKind.CORRECTED) == 200
    assert mc.log.count(MceKind.UNCORRECTED_FATAL) == 6
