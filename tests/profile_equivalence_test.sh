#!/usr/bin/env bash
# End-to-end check for --profile-out: the per-epoch columns must sum
# exactly to the run's end-of-run aggregates, and those aggregates
# must agree with the counters the same run writes to its stats
# manifest — the profiler observes the simulation, it must never
# perturb or re-derive it.  membw_report enforces the
# Σ(epochs) == aggregate half on every file it reads (exit 1 on any
# mismatch); the python snippets cross-check profile aggregates
# against the manifest by name.
#
# Usage: profile_equivalence_test.sh <membw_sim> <membw_report>
#        <fig4> <table7> <table8> <multilevel> <membw_decompose>
set -u

SIM="$(readlink -f "$1")"
PREPORT="$(readlink -f "$2")"
FIG4="$(readlink -f "$3")"
TABLE7="$(readlink -f "$4")"
TABLE8="$(readlink -f "$5")"
MULTI="$(readlink -f "$6")"
DECOMPOSE="$(readlink -f "$7")"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# --- membw_sim: profile aggregates vs stats manifest ---------------
"$SIM" --workload Compress --scale 0.1 --mtc --profile-out sp.json \
    --profile-epoch 4096 --stats-json ss.json > /dev/null 2>&1 ||
    fail "profiled membw_sim run failed"
[ -s sp.json ] || fail "membw_sim wrote no profile"

"$PREPORT" sp.json > /dev/null || fail "profile failed validation"

python3 - sp.json ss.json <<'EOF' || fail "sim profile/manifest drift"
import json, sys
prof = json.load(open(sys.argv[1]))
stats = {s["name"]: s["value"]
         for s in json.load(open(sys.argv[2]))["stats"]}
runs = {r["name"]: r for r in prof["runs"]}

# Profile metric name -> manifest counter name, per source.
MAPS = {
    ("hierarchy", "L1"): {
        "accesses": "l1.accesses", "loads": "l1.loads",
        "stores": "l1.stores", "hits": "l1.hits",
        "misses": "l1.demand_misses", "evictions": "l1.evictions",
        "writebacks": "l1.writebacks",
        "request_bytes": "l1.bytes.request",
        "writeback_bytes": "l1.bytes.writeback",
        "flush_writeback_bytes": "l1.bytes.flush_writeback",
        "below_bytes": "l1.bytes.below",
    },
    ("mtc", "mtc"): {
        "accesses": "mtc.accesses", "hits": "mtc.hits",
        "misses": "mtc.misses", "bypasses": "mtc.bypasses",
        "validates": "mtc.validates",
        "request_bytes": "mtc.bytes.request",
        "fetch_bytes": "mtc.bytes.fetch",
        "writeback_bytes": "mtc.bytes.writeback",
        "flush_writeback_bytes": "mtc.bytes.flush_writeback",
        "below_bytes": "mtc.bytes.below",
    },
}
checked = 0
for (run_name, comp), mapping in MAPS.items():
    run = runs[run_name]
    assert run["ended"], f"{run_name} never ended"
    src = next(s for s in run["sources"] if s["component"] == comp)
    idx = {m: i for i, m in enumerate(src["metrics"])}
    for metric, counter in mapping.items():
        agg = src["aggregate"][idx[metric]]
        cols = sum(src["columns"][idx[metric]])
        if cols != agg:
            raise SystemExit(
                f"{run_name}/{comp}/{metric}: epochs {cols} != "
                f"aggregate {agg}")
        if agg != stats[counter]:
            raise SystemExit(
                f"{run_name}/{comp}/{metric}: profile {agg} != "
                f"manifest {counter} {stats[counter]}")
        checked += 1
assert checked >= 20, f"only {checked} counters cross-checked"
print(f"membw_sim: {checked} counters agree")
EOF

# --- membw_decompose: cache sources across the three phases -------
# The perfect phase simulates no caches, so its cache sources read
# zero; the functional access sequence does not depend on timing, so
# the infinite-width and full phases' cache sources agree epoch by
# epoch.
"$DECOMPOSE" --workload Compress --experiment F --scale 0.05 \
    --profile-out dp.json --profile-epoch 16384 > /dev/null 2>&1 ||
    fail "profiled membw_decompose run failed"
[ -s dp.json ] || fail "membw_decompose wrote no profile"
"$PREPORT" dp.json > /dev/null || fail "decompose profile invalid"

python3 - dp.json <<'EOF' || fail "decompose profile cache sources"
import json, sys
runs = {r["name"]: r for r in json.load(open(sys.argv[1]))["runs"]}
assert set(runs) == {"perfect", "infinite-width", "full"}, set(runs)

def caches(run):
    assert run["ended"], f"{run['name']} never ended"
    return {s["component"]: s for s in run["sources"]
            if s["component"] in ("L1", "IL1", "L2")}

perfect = caches(runs["perfect"])
infinite = caches(runs["infinite-width"])
full = caches(runs["full"])
assert {"L1", "L2"} <= set(full), set(full)
assert set(perfect) == set(infinite) == set(full)
for comp, src in perfect.items():
    for metric, col in zip(src["metrics"], src["columns"]):
        if any(col):
            raise SystemExit(f"perfect/{comp}/{metric} not zero: {col}")
for comp, src in full.items():
    assert src["aggregate"][src["metrics"].index("accesses")] > 0, comp
    if infinite[comp]["columns"] != src["columns"]:
        raise SystemExit(f"{comp}: infinite-width and full epochs differ")
print(f"membw_decompose: {len(full)} cache sources agree")
EOF

# --- benches: every instrumented driver, validated + cross-checked -
# Each bench replays one representative config per workload under
# the profiler; the manifest's profile_epochs must equal the total
# epochs across the profile's runs, and every run must have ended
# with its references accounted for.
check_bench() {
    local name="$1" bin="$2"
    "$bin" --scale 0.05 --profile-out bp.json --profile-epoch 16384 \
        --json bj.json > /dev/null 2>&1 ||
        fail "$name profiled run failed"
    [ -s bp.json ] || fail "$name wrote no profile"
    "$PREPORT" bp.json > pr.txt ||
        fail "$name profile failed validation: $(cat pr.txt)"
    python3 - "$name" bp.json bj.json <<'EOF' || fail "bench drift"
import json, sys
name = sys.argv[1]
prof = json.load(open(sys.argv[2]))
manifest = json.load(open(sys.argv[3]))["manifest"]
assert prof["tool"] == name, (prof["tool"], name)
assert prof["runs"], f"{name}: no profiled runs"
epochs = 0
for run in prof["runs"]:
    assert run["ended"], f"{name}: run {run['name']} never ended"
    assert run["end_ref"], f"{name}: run {run['name']} has no epochs"
    epochs += len(run["end_ref"])
    # Per-reference replay observes every boundary exactly.
    assert run["clamped"] == 0, f"{name}: clamped epochs"
if int(manifest["profile_epochs"]) != epochs:
    raise SystemExit(
        f"{name}: manifest profile_epochs {manifest['profile_epochs']}"
        f" != {epochs} in the profile")
if int(manifest["profile_epoch"]) != prof["epoch_refs"]:
    raise SystemExit(f"{name}: manifest/profile epoch length drift")
print(f"{name}: {len(prof['runs'])} runs, {epochs} epochs agree")
EOF
}

check_bench fig4_traffic_curves "$FIG4"
check_bench table7_traffic_ratios "$TABLE7"
check_bench table8_traffic_inefficiency "$TABLE8"
check_bench multilevel_epin "$MULTI"

# --- validation failure mode: a doctored profile must be rejected --
python3 - sp.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
d["runs"][0]["sources"][0]["aggregate"][0] += 1
json.dump(d, open("doctored.json", "w"))
EOF
"$PREPORT" doctored.json > /dev/null 2>&1
[ $? -eq 1 ] || fail "doctored profile (sum != aggregate) not rejected"

# A trace-only flag on a profile is a usage error.
"$PREPORT" sp.json --top 5 > /dev/null 2>&1
[ $? -eq 2 ] || fail "--top on a profile did not exit 2"

echo "PASS"
