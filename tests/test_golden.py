"""Seeded outputs pinned byte for byte.

Each `CASES` file under tests/golden/ is the exact stdout of one CLI
invocation.  The bundled profiles' planned offsets never crash, so
crash_aborts.json pins the crash paths through the library instead, and
phase1_sweep.json pins the phase-1 plan of every bundled profile and
pstate at two seeds, which the CLI shows for one cell only, and
`PHASE1_PLANS_SHA256` pins the same plans at 58 seeds by one digest.  A
change that alters any random-number stream, draw order or float
evaluation order shows up here as a diff; such a change must regenerate
the files and say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

import voltlab.cli as cli
from voltlab import rng
from voltlab.errors import AbortedByCrash
from voltlab.orchestrator import (
    VoltagePlan,
    phase1_find_window,
    phase2_probe_cores,
    phase3_attack,
    setup_system,
)
from voltlab.processor import bundled_profile_names, load_profile
from voltlab.victims import PlatformState, run_hmac_victim

from helpers import run_poc_under

GOLDEN = Path(__file__).parent / "golden"

_CELL = ("--profile", "i7-7700k", "--core", "1", "--stressor", "listing2",
         "--runs", "2", "--tries", "1000")

CASES = {
    "probe_i7-7700k.json": ("probe", "--profile", "i7-7700k", "--tries", "2000"),
    "campaign_poc.json": ("campaign", "--victim", "poc", *_CELL),
    "campaign_hmac32.json": ("campaign", "--victim", "hmac32", *_CELL),
    "campaign_hmac1k.json": ("campaign", "--victim", "hmac1k", *_CELL),
    "scan_vp1_xor_kernel.json": ("scan", "vp1_xor_kernel"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_file(capsys, name):
    assert cli.main(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def _aborted(call) -> dict:
    with pytest.raises(AbortedByCrash) as info:
        call()
    partial = info.value.partial
    return {
        "aborted": str(info.value),
        "partial": list(partial) if isinstance(partial, tuple) else partial.to_json(),
    }


def test_crash_aborts_match_golden_file():
    # Core 1 of the i7-7700K starts to crash just below -251 mV, so the
    # -252 mV cells die partway through a run rather than on its first try.
    state, _, _ = setup_system("i7-7700k", "0x1b", 1, "listing2", seed=5)
    edge = PlatformState(state.profile, state.pstate, state.core, -252, state.stressor, state.seed)
    plan = VoltagePlan("0x1b", (0.7, 0.71, 0.705, 0.705), (-260, -255, -255, -255))
    cells = {
        "run_poc_enclave": _aborted(
            lambda: run_poc_under(edge, 2000, rng.stream(5, "poc-edge"))
        ),
        "run_hmac_victim": _aborted(lambda: run_hmac_victim(edge, "hmac32", 200, runs=3)),
        "phase2_probe_cores": _aborted(
            lambda: phase2_probe_cores(state, plan, tries_per_core=2000)
        ),
        "phase3_attack_poc": _aborted(
            lambda: phase3_attack(state, plan, "poc", 3, 500)
        ),
    }
    out = json.dumps(cells, indent=2, sort_keys=True) + "\n"
    assert out == (GOLDEN / "crash_aborts.json").read_text(encoding="utf-8")



# SHA-256 over every phase-1 plan of every bundled profile and pstate at
# seeds 0-57, each plan the repr of (seed, profile, pstate, window tops,
# offsets, crashes) with its floats unrounded.
PHASE1_PLANS_SHA256 = "4eda425e2e36894f28590a57b09f4ff6b92cf7fcd0c09367bac2d036fce1db50"


def test_phase1_plans_over_many_seeds_match_their_digest():
    digest = hashlib.sha256()
    for seed in range(58):
        for name in bundled_profile_names():
            profile = load_profile(name)
            for pstate in profile.pstates:
                plan = phase1_find_window(profile, pstate=pstate, seed=seed)
                digest.update(repr((
                    seed, name, plan.pstate, plan.window_top_v, plan.chosen_offset_mv,
                    plan.crashes_during_search,
                )).encode())
    assert digest.hexdigest() == PHASE1_PLANS_SHA256


def test_phase1_sweep_matches_golden_file():
    plans = {
        str(seed): {
            name: {
                pstate: phase1_find_window(profile, pstate=pstate, seed=seed).to_json()
                for pstate in profile.pstates
            }
            for name, profile in ((n, load_profile(n)) for n in bundled_profile_names())
        }
        for seed in (7, 23)
    }
    out = json.dumps(plans, indent=2, sort_keys=True) + "\n"
    assert out == (GOLDEN / "phase1_sweep.json").read_text(encoding="utf-8")
