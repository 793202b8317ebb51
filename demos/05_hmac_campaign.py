"""Phase 3: the full campaign, two ways.

First the guarded-branch victim: a single vector store whose corruption
diverts control flow, measured as a success rate per core.  Then the
authentication victim: HMAC-SHA256 over a 32-byte payload, where success
means the returned tag differs from the true one while the machine never
notices a thing.
"""

from voltlab import load_profile, phase1_find_window, phase3_attack, run_campaign, setup_system

profile = load_profile("i7-7700k")
plan = phase1_find_window(profile, pstate="0x1b", seed=5)

# Each campaign pins the victim anew: one setup per core and stressor.
print("guarded-branch victim, 2 x 5000 tries per core:")
for core in range(1, profile.physical_cores):
    state, _, _ = setup_system(profile, "0x1b", core, "listing2", seed=5)
    result = phase3_attack(state, plan, "poc", runs=2, tries_per_run=5000)
    print(f"  core {core}: {result.mean_per_10k / 100:5.1f}% diverted")

state, _, _ = setup_system(profile, "0x1b", 1, "twofish", seed=5)
slow = phase3_attack(state, plan, "poc", runs=2, tries_per_run=5000)
print(f"  core 1 with the cipher stressor instead: {slow.mean_per_10k / 100:5.1f}%")

# ---------------------------------------------------------------------------
# The one-call wrapper stitches all three phases together and reports the
# context a row in a results table needs.

result, ctx = run_campaign(
    profile, "hmac32", target_core=1, stressor="listing2", seed=11, runs=5,
    tries_per_run=10_000,
)
print(
    f"\n{ctx['model']} core {result.target_core} at {ctx['attack_voltage_v']} V "
    f"({ctx['offset_mv']:+d} mV), stressor {ctx['stressor']}:"
)
print(f"  corrupted MACs per 10k tries: {result.mean_per_10k:.1f} (sigma {result.sigma:.1f})")
print(f"  per run: {[s for s, _ in result.per_run]}")
print(f"  crashes: {result.crashes}")
