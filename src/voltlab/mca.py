"""Simulated machine-check reporting.

The reporting model is deliberately asymmetric, because that asymmetry is
the whole point of the attack surface being studied: supply dips shallow
enough to stay above the fault window get detected and logged as corrected
errors, while flips inside the window pass through with no record at all.
Only a recoverable kernel-level exception produces an uncorrected record,
and that one is broadcast so every core's view of the log contains it.
Freezes and hard crashes outrun the reporting path entirely.  A reporter
is built from a profile, which carries the per-slice logging rates.
"""

from __future__ import annotations

import json
from enum import Enum

from .errors import InvariantError
from .msr import Record
from .processor import CrashKind, ProcessorProfile, VoltageRegion
from .rng import Stream


class MceKind(Enum):
    CORRECTED = "corrected"
    UNCORRECTED_FATAL = "uncorrected_fatal"
    INSTRUCTION_DECODE_CORRECTED = "instruction_decode_corrected"


class MceRecord(Record):
    __slots__ = ("timestamp", "core", "kind", "detail")  # timestamp: slice of the run

    def __init__(self, timestamp: int, core: int, kind: MceKind, detail: str = ""):
        self._set(timestamp, core, kind, detail)

    def to_json(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "core": self.core,
            "kind": self.kind.value,
            "detail": self.detail,
        }


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
    """Per-run reporter for the cores of `profile`, logging at its
    per-slice rates: one instance, one log, single writer."""

    def __init__(self, profile: ProcessorProfile):
        self.profile = profile
        self.log = MceLog()

    def observe(
        self,
        region: VoltageRegion,
        fault=None,
        crash: CrashKind | None = None,
        slice_index: int = 0,
        core: int = 0,
        rng: Stream | None = None,
    ) -> MceRecord | None:
        """Log one slice's worth of hardware events; return the record this
        slice put in `core`'s view, or None when it logged nothing.

        Precedence: a crash ends the slice before anything is logged, so it
        is checked first.  A recoverable kernel exception is the only event
        that yields an uncorrected record, and it lands in every core's
        view.  Bit flips inside the exploit window are silent by
        construction; that is the property the rest of the system leans on.
        """
        if crash is CrashKind.KERNEL_EXCEPTION:
            mine = None
            for c in range(self.profile.physical_cores):
                rec = MceRecord(slice_index, c, MceKind.UNCORRECTED_FATAL, "broadcast mce")
                self.log.append(rec)
                if c == core:
                    mine = rec
            return mine
        if crash is None and region is VoltageRegion.CORRECTED_ERRORS:
            if rng is not None and rng.uniform() < self.profile.corrected_log_rate:
                rec = MceRecord(slice_index, core, MceKind.CORRECTED, "cache hierarchy")
                self.log.append(rec)
                return rec
        # Freeze and hard crash outrun the reporting path, and exploit-window
        # flips (fault is not None) are deliberately silent.
        return None

    def occasionally_decode_error(
        self,
        region: VoltageRegion,
        rng: Stream,
        slice_index: int = 0,
        core: int = 0,
    ) -> MceRecord | None:
        """Rare corrected decode errors while running under the window top.

        These are logged but never fatal.
        """
        if region not in (VoltageRegion.EXPLOIT_WINDOW, VoltageRegion.UNSTABLE):
            return None
        if rng.uniform() >= self.profile.decode_error_rate:
            return None
        rec = MceRecord(
            slice_index, core, MceKind.INSTRUCTION_DECODE_CORRECTED, "frontend decode"
        )
        self.log.append(rec)
        return rec
