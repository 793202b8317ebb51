"""What one benchmark operation runs, and how its output is checked.

A campaign operation is one `voltlab campaign` invocation through
`voltlab.cli.main`, phase 1 included.  A window-sweep operation is
`orchestrator.phase1_find_window` for every pstate of every bundled
profile.  Every output is checked against the reference cells that the
acceptance tests pin, at the same tolerances.
"""

from __future__ import annotations

import importlib
import io
import json
import math
from contextlib import redirect_stdout

# The campaign cell shared by AC4 and AC5 in tests/test_acceptance.py.
CAMPAIGN_PROFILE = "i7-7700k"
CAMPAIGN_CORE = 1
CAMPAIGN_STRESSOR = "listing2"
CAMPAIGN_PSTATE = "0x1b"

# Reference successes per 10k tries (AC4) and PoC success rate (AC5).
HMAC_PER_10K = {"hmac32": 1795.6, "hmac1k": 1983.8}
POC_PCT, POC_PP = 99.0, 2.0

# Reference window tops of the i7-7700k (AC3), volts per core.
WINDOW_PROFILE = "i7-7700k"
WINDOW_TOPS_V = {
    "0x08": (0.540, 0.545, 0.535, 0.545),
    "0x10": (0.585, 0.585, 0.580, 0.585),
    "0x1b": (0.700, 0.710, 0.705, 0.705),
    "0x20": (0.765, 0.775, 0.770, 0.775),
    "0x24": (0.825, 0.835, 0.835, 0.835),
    "0x2a": (0.930, 0.935, 0.930, 0.935),
}
WINDOW_TOL_V = 0.005

# Campaign runs per operation and tries per run.  The hmac1k operation is
# one run, not AC4's five: five runs take 15-18 s, which leaves two
# operations per measured run and too few samples to steady the median on
# a shared host.  "tiny" is the smoke-test size: every workload and check,
# in about a second per operation.
SIZES = {
    "full": {
        "runs": {"hmac1k": 1, "hmac32": 5, "poc": 5},
        "tries": 10_000,
        "sweep_profiles": None,
    },
    "tiny": {
        "runs": {"hmac1k": 1, "hmac32": 2, "poc": 2},
        "tries": 1_000,
        "sweep_profiles": (WINDOW_PROFILE,),
    },
}


class CheckFailed(Exception):
    """An operation's output is missing, malformed or off its reference."""


class Campaign:
    """`voltlab campaign` against one victim on the AC4/AC5 cell."""

    def __init__(self, victim: str, size: str):
        self.victim = victim
        self.runs = SIZES[size]["runs"][victim]
        self.tries_per_run = SIZES[size]["tries"]
        self.profiles = (CAMPAIGN_PROFILE,)
        self.programs = ("vp1_xor_kernel",)
        if victim == "poc":
            self.programs += ("poc_and_branch",)
        self.cli = None

    @property
    def tries(self) -> int:
        """Simulated victim tries per operation."""
        return self.runs * self.tries_per_run

    def prepare(self) -> None:
        self.cli = importlib.import_module("voltlab.cli")

    def run(self, seed: int) -> tuple[int, str]:
        argv = [
            "campaign",
            "--profile", CAMPAIGN_PROFILE,
            "--victim", self.victim,
            "--core", str(CAMPAIGN_CORE),
            "--stressor", CAMPAIGN_STRESSOR,
            "--pstate", CAMPAIGN_PSTATE,
            "--seed", str(seed),
            "--runs", str(self.runs),
            "--tries", str(self.tries_per_run),
            "--jobs", "1",
        ]
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check(self, text: str) -> dict:
        try:
            result = json.loads(text)["result"]
            mean = float(result["mean_per_10k"])
            tries = int(result["tries"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"malformed campaign JSON: {exc!r}") from None
        if tries != self.tries:
            raise CheckFailed(f"{tries} tries completed, asked for {self.tries}")
        if self.victim == "poc":
            observed, reference, tolerance, unit = mean / 100.0, POC_PCT, POC_PP, "%"
        else:
            reference = HMAC_PER_10K[self.victim]
            p = reference / 10_000.0
            sigma_mean = 10_000.0 * math.sqrt(p * (1.0 - p) / tries)
            tolerance = max(0.05 * reference, 3.0 * sigma_mean)
            observed, unit = mean, "per_10k"
        deviation = observed - reference
        if abs(deviation) > tolerance:
            raise CheckFailed(
                f"{self.victim}: {observed:.2f} vs reference {reference} {unit} "
                f"(tolerance {tolerance:.2f})"
            )
        return {
            "observed": observed,
            "reference": reference,
            "deviation": deviation,
            "tolerance": tolerance,
            "unit": unit,
        }


class WindowSweep:
    """Phase 1 for every pstate of every bundled profile."""

    def __init__(self, size: str):
        self.profiles = SIZES[size]["sweep_profiles"]
        self.programs = ("vp1_xor_kernel",)
        self.loaded = []
        self.orchestrator = None

    @property
    def tries(self) -> int:
        """Per-core window searches per operation."""
        return sum(p.physical_cores * len(p.pstates) for _, p in self.loaded)

    def prepare(self) -> None:
        processor = importlib.import_module("voltlab.processor")
        self.orchestrator = importlib.import_module("voltlab.orchestrator")
        if self.profiles is None:
            self.profiles = tuple(processor.bundled_profile_names())
        self.loaded = [(name, processor.load_profile(name)) for name in self.profiles]

    def run(self, seed: int) -> tuple[int, str]:
        plans = []
        for name, profile in self.loaded:
            for pstate in profile.pstates:
                plan = self.orchestrator.phase1_find_window(profile, pstate=pstate, seed=seed)
                plans.append({"profile": name, "plan": plan.to_json()})
        return 0, json.dumps(plans, sort_keys=True)

    def check(self, text: str) -> dict:
        try:
            tops = {
                entry["plan"]["pstate"]: entry["plan"]["window_top_v"]
                for entry in json.loads(text)
                if entry["profile"] == WINDOW_PROFILE
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"malformed sweep JSON: {exc!r}") from None
        if sorted(tops) != sorted(WINDOW_TOPS_V):
            raise CheckFailed(f"{WINDOW_PROFILE} pstates searched: {sorted(tops)}")
        deviation = 0.0
        for pstate, expect in WINDOW_TOPS_V.items():
            if len(tops[pstate]) != len(expect):
                raise CheckFailed(f"{pstate}: {len(tops[pstate])} cores searched")
            for got, want in zip(tops[pstate], expect):
                deviation = max(deviation, abs(got - want))
        if deviation > WINDOW_TOL_V + 1e-12:
            raise CheckFailed(
                f"{WINDOW_PROFILE} window top off by {1000 * deviation:.1f} mV"
            )
        return {
            "observed": 1000.0 * deviation,
            "reference": 0.0,
            "deviation": 1000.0 * deviation,
            "tolerance": 1000.0 * WINDOW_TOL_V,
            "unit": "mV",
        }


NAMES = ("hmac1k", "hmac32", "poc", "window-sweep")


def make(name: str, size: str):
    if name == "window-sweep":
        return WindowSweep(size)
    return Campaign(name, size)
