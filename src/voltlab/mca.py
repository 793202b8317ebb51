"""Simulated machine-check reporting.

The reporting model is deliberately asymmetric, because that asymmetry is
the whole point of the attack surface being studied: supply dips shallow
enough to stay above the fault window get detected and logged as corrected
errors, while flips inside the window pass through with no record at all.
Only a recoverable kernel-level exception produces an uncorrected record,
and that one is broadcast so every core's view of the log contains it.
Freezes and hard crashes outrun the reporting path entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import InvariantError
from .processor import CrashKind, ProcessorProfile, VoltageRegion


class MceKind(Enum):
    CORRECTED = "corrected"
    UNCORRECTED_FATAL = "uncorrected_fatal"
    INSTRUCTION_DECODE_CORRECTED = "instruction_decode_corrected"

    @property
    def fatal(self) -> bool:
        return self is MceKind.UNCORRECTED_FATAL


class OutcomeKind(IntEnum):
    SILENT = 0
    LOGGED = 1
    EXCEPTION = 2


class SurfacedFault(Enum):
    """Decode corruption occasionally visible to the running program."""

    INVALID_OPCODE = "invalid_opcode"
    GENERAL_PROTECTION = "general_protection"


def draw_surfaced_fault(rng: np.random.Generator) -> SurfacedFault:
    """Which exception a surfaced decode fault raises; mostly invalid opcode."""
    return SurfacedFault.INVALID_OPCODE if rng.uniform() < 0.7 else SurfacedFault.GENERAL_PROTECTION


@dataclass(frozen=True)
class MceRecord:
    timestamp: int  # slice index within the run
    core: int
    kind: MceKind
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "core": self.core,
            "kind": self.kind.value,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class MceOutcome:
    kind: OutcomeKind
    record: MceRecord | None = None

    @classmethod
    def silent(cls) -> "MceOutcome":
        return cls(OutcomeKind.SILENT)


class MceLog:
    """Append-only error log with per-core views.

    Appends must arrive in non-decreasing timestamp order; within a
    timestamp, broadcast records for several cores may share it.
    """

    def __init__(self):
        self._records: list[MceRecord] = []

    def append(self, record: MceRecord) -> None:
        if self._records and record.timestamp < self._records[-1].timestamp:
            raise InvariantError(
                f"log runs forward: slice {record.timestamp} after "
                f"{self._records[-1].timestamp}"
            )
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def view(self, core: int) -> list[MceRecord]:
        return [r for r in self._records if r.core == core]

    def count(self, kind: MceKind) -> int:
        return sum(1 for r in self._records if r.kind is kind)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in self._records)


class MachineCheck:
    """Per-run reporter: one instance, one log, single writer."""

    def __init__(
        self,
        cores: int,
        corrected_rate: float = 0.01,
        decode_rate: float = 1e-3,
        surface_probability: float = 0.0,
    ):
        if not 0.0 <= corrected_rate <= 1.0 or not 0.0 <= decode_rate <= 1.0:
            raise InvariantError("per-slice rates live in [0, 1]")
        if not 0.0 <= surface_probability <= 1.0:
            raise InvariantError("surface probability lives in [0, 1]")
        self.cores = cores
        self.corrected_rate = corrected_rate
        self.decode_rate = decode_rate
        self.surface_probability = surface_probability
        self.log = MceLog()

    @classmethod
    def for_profile(cls, profile: ProcessorProfile, **overrides) -> "MachineCheck":
        kwargs = {
            "cores": profile.physical_cores,
            "corrected_rate": profile.corrected_log_rate,
            "decode_rate": profile.decode_error_rate,
        }
        kwargs.update(overrides)
        return cls(**kwargs)

    def observe(
        self,
        region: VoltageRegion,
        fault=None,
        crash: CrashKind | None = None,
        slice_index: int = 0,
        core: int = 0,
        rng: np.random.Generator | None = None,
    ) -> MceOutcome:
        """Classify one slice's worth of hardware events.

        Precedence: a crash ends the slice before anything is logged, so it
        is checked first.  A recoverable kernel exception is the only event
        that yields an uncorrected record, and it lands in every core's
        view.  Bit flips inside the exploit window are silent by
        construction; that is the property the rest of the system leans on.
        """
        if crash is not None:
            if crash is CrashKind.KERNEL_EXCEPTION:
                first = None
                for c in range(self.cores):
                    rec = MceRecord(
                        slice_index, c, MceKind.UNCORRECTED_FATAL, "broadcast mce"
                    )
                    self.log.append(rec)
                    if c == core:
                        first = rec
                return MceOutcome(OutcomeKind.EXCEPTION, first)
            # Freeze and hard crash outrun the reporting path.
            return MceOutcome.silent()
        if region is VoltageRegion.CORRECTED_ERRORS:
            if rng is not None and rng.uniform() < self.corrected_rate:
                rec = MceRecord(slice_index, core, MceKind.CORRECTED, "cache hierarchy")
                self.log.append(rec)
                return MceOutcome(OutcomeKind.LOGGED, rec)
            return MceOutcome.silent()
        # Exploit-window flips (fault is not None) deliberately fall through.
        return MceOutcome.silent()

    def occasionally_decode_error(
        self,
        region: VoltageRegion,
        rng: np.random.Generator,
        slice_index: int = 0,
        core: int = 0,
    ) -> MceRecord | None:
        """Rare corrected decode errors while running under the window top.

        These are logged but never fatal; a separate opt-in knob lets a
        fraction of them surface to the victim as a spurious exception.
        """
        if region not in (VoltageRegion.EXPLOIT_WINDOW, VoltageRegion.UNSTABLE):
            return None
        if rng.uniform() >= self.decode_rate:
            return None
        rec = MceRecord(
            slice_index, core, MceKind.INSTRUCTION_DECODE_CORRECTED, "frontend decode"
        )
        self.log.append(rec)
        return rec

    def surface_decode_fault(self, rng: np.random.Generator) -> SurfacedFault | None:
        """Whether a decode record additionally trips the running program.

        Off by default (probability 0); campaigns that want flaky-frontend
        behavior opt in.
        """
        if self.surface_probability <= 0.0:
            return None
        if rng.uniform() >= self.surface_probability:
            return None
        return draw_surfaced_fault(rng)
