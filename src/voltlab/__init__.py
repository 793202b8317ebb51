"""Deterministic laboratory for software-controlled undervolting faults.

The package models the full chain end to end: the voltage mailbox word
format (`msr`), a calibrated multi-core fault simulator (`processor`,
`mca`), a small vector ISA with susceptible-pattern scanning (`isa`,
`scanner`), faultable victim workloads (`sha256sim`, `victims`), and the
three-phase attack workflow (`orchestrator`).  Everything downstream of a
seed is reproducible, whatever order a campaign's runs execute in.

The public names below are resolved on first use (PEP 562), so
`import voltlab` loads no submodule, and a name loads only the module
that defines it and what that module imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Defining module of each public name.
_EXPORTS = {
    "errors": (
        "AbortedByCrash", "FormatError", "InterpreterError", "InvariantError",
        "NoWindowFound", "ParseError", "RangeError", "SchemaError", "UnknownCoreOrPState",
        "UnknownStressor", "VoltlabError",
    ),
    "msr": (
        "MailboxCommand", "MailboxOp", "MsrWrite", "PState", "PStateInterface",
        "VoltageDomain", "VoltageMode", "decode_mailbox", "encode_mailbox",
        "encode_offset", "plan_pstate_request", "pstate_frequency_mhz",
    ),
    "processor": (
        "ProcessorProfile", "VoltageRegion", "bundled_profile_names", "classify_voltage",
        "load_profile", "region_boundaries_mv",
    ),
    "isa": (
        "MiniProgram", "bundled_program", "bundled_program_names", "interpret",
        "parse_program",
    ),
    "scanner": ("PatternHit", "PatternKind", "scan"),
    "mca": ("MachineCheck", "MceKind", "MceLog", "MceRecord"),
    "sha256sim": ("HmacContext", "hmac_sha256", "sha256"),
    "victims": (
        "CampaignResult", "FaultStats", "PlatformState", "RunOutcome", "RunStatus",
        "loop_rates", "loop_victim", "pinned_rates", "run_hmac_victim", "run_poc_enclave",
        "run_poc_victim", "run_probe_victim", "run_test_loop", "stressor_profile",
    ),
    "orchestrator": (
        "ProbeReport", "SystemConfig", "VoltagePlan",
        "phase1_find_window", "phase2_probe_cores", "phase3_attack", "run_campaign",
        "setup_system",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN, key=str.lower) + ["__version__"]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORIGIN))
