"""Phase 1: finding the exploitable window on an expendable machine.

The search knows nothing about the profile's internals; it just runs the
comparison loop at ever lower offsets until results corrupt, then keeps
descending with scalar-only work until the machine dies.  The level one
step above the first crash becomes the attack offset.
"""

from voltlab import load_profile, phase1_find_window, setup_system

profile = load_profile("i7-7700k")

print(f"searching {profile.name}, {profile.physical_cores} cores, 5 mV grid\n")
print(f"{'pstate':<8} {'window tops (V)':<32} {'attack offsets (mV)':<28} reboots")
for pstate in sorted(profile.pstates):
    plan = phase1_find_window(profile, pstate=pstate, seed=3)
    tops = " ".join(f"{v:.3f}" for v in plan.window_top_v)
    offs = " ".join(f"{o:+d}" for o in plan.chosen_offset_mv)
    print(f"{pstate:<8} {tops:<32} {offs:<28} {plan.crashes_during_search}")

# ---------------------------------------------------------------------------
# Once a plan exists, setting up the target is a fixed recipe: reserve one
# physical core for the attacker tooling, pin the pstate, and silence
# everything that could re-adjust voltage or frequency mid-campaign.

state, config, writes = setup_system(profile, "0x1b", target_core=1, stressor="listing2")

print(f"\nattack group (logical cores): {config.attack_group}")
print(f"victim group:                 {config.victim_group}")
print(f"drivers disabled:             {', '.join(config.drivers_disabled)}")
print("msr write plan:")
for w in writes:
    print(f"  wrmsr {w.address:#6x} <- {w.value:#018x}")
print(f"victim core {state.core} temp after warm-up: {state.temp_c:.1f} C")
