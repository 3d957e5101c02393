#!/usr/bin/env bash
# Robustness end-to-end gate (docs/resilience.md):
#
#  1. membw_torture: seeded kill/inject/resume schedules must all
#     converge to stats byte-identical to an uninterrupted baseline.
#  2. Degraded sweeps: an injected failing cell yields exit 5, a
#     "degraded" manifest, a failed_cells record, byte-identical
#     output at --jobs 1 and --jobs 4, and surviving-cell counters
#     identical to a clean run's.
#  3. membw_report classifies truncated/garbage/deeply-nested input
#     with a clean exit 1 — never an uncaught exception.
#
# Usage: torture_test.sh TORTURE SIM REPORT
# Env:   TORTURE_SCHEDULES (default 200), TORTURE_DIR (artifact dir,
#        kept on failure).
set -u

TORTURE=$1
SIM=$2
REPORT=$3
SCHEDULES=${TORTURE_SCHEDULES:-200}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/membw_torture_test.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# --- 1. torture harness -------------------------------------------------
TDIR=${TORTURE_DIR:-$WORK/torture}
mkdir -p "$TDIR"
"$TORTURE" --sim "$SIM" --schedules "$SCHEDULES" --dir "$TDIR" ||
    fail "torture harness reported divergence (artifacts in $TDIR)"

# --- 2. degraded sweep --------------------------------------------------
SWEEP="--workload Compress --scale 0.02 --sweep-sizes 4K,16K,64K \
       --sweep-blocks 32 --mtc --stable-json"

run_sweep() { # jobs out fault...
    local jobs=$1 out=$2
    shift 2
    # shellcheck disable=SC2086
    "$SIM" $SWEEP --jobs "$jobs" --stats-json "$out" "$@" \
        > "${out%.json}.txt" 2>&1
}

run_sweep 1 "$WORK/clean.json" || fail "clean sweep failed"

run_sweep 1 "$WORK/deg1.json" --fault-inject cell:at=2
[ $? -eq 5 ] || fail "degraded sweep (--jobs 1) did not exit 5"
run_sweep 4 "$WORK/deg4.json" --fault-inject cell:at=2
[ $? -eq 5 ] || fail "degraded sweep (--jobs 4) did not exit 5"

grep -q '"degraded": true' "$WORK/deg1.json" ||
    fail "degraded manifest flag missing"
grep -q '"failed_cells"' "$WORK/deg1.json" ||
    fail "failed_cells record missing"
grep -q 'sweep degraded: 1 of ' "$WORK/deg1.txt" ||
    fail "degraded stdout notice missing"
cmp -s "$WORK/deg1.json" "$WORK/deg4.json" ||
    fail "degraded stats differ between --jobs 1 and --jobs 4"
# stdout is identical apart from the announced worker count.
diff <(grep -v 'sweep using' "$WORK/deg1.txt") \
     <(grep -v 'sweep using' "$WORK/deg4.txt") > /dev/null ||
    fail "degraded stdout differs between --jobs 1 and --jobs 4"

# Surviving cells must carry exactly the clean run's counters: the
# degraded stats are the clean stats minus the failed cell's group
# (cell:at=2 is the 16K direct cell -> group sweep.16KB.32B.*).
python3 - "$WORK/clean.json" "$WORK/deg1.json" <<'EOF' ||
import json, sys

def stats(path):
    doc = json.load(open(path))
    return {e["name"]: e["value"] for e in doc["stats"]}, doc

clean, _ = stats(sys.argv[1])
deg, doc = stats(sys.argv[2])

failed = doc["failed_cells"]
if [f["cell"] for f in failed] != [1]:
    sys.exit(f"unexpected failed_cells: {failed}")
if "16KB" not in failed[0]["config"]:
    sys.exit(f"failed cell config should be the 16KB cell: {failed[0]}")

failed_prefix = "sweep.16KB.32B."
missing = [k for k in clean if k not in deg]
extra = [k for k in deg if k not in clean]
diff = [k for k in deg if k in clean and deg[k] != clean[k]]

if extra:
    sys.exit(f"degraded run has keys absent from clean run: {extra[:5]}")
if diff:
    sys.exit(f"surviving counters diverged: {diff[:5]}")
if not missing:
    sys.exit("failed cell's stats group unexpectedly present")
bad = [k for k in missing if not k.startswith(failed_prefix)]
if bad:
    sys.exit(f"keys missing outside the failed cell's group: {bad[:5]}")
EOF
    fail "surviving-cell counters do not match the clean run"

# --- 3. report tool on malformed input ----------------------------------
run_report() { # tool file
    "$1" "$2" > "$WORK/report.out" 2>&1
    local status=$?
    [ $status -eq 1 ] ||
        fail "$(basename "$1") on $(basename "$2") exited $status (want 1)"
    grep -qE 'terminate called|Aborted|Segmentation' "$WORK/report.out" &&
        fail "$(basename "$1") crashed on $(basename "$2")"
    return 0
}

"$SIM" --workload Compress --scale 0.02 \
    --profile-out "$WORK/prof.json" \
    --trace-out "$WORK/trace.json" \
    --stats-json "$WORK/s.json" > /dev/null 2>&1 ||
    fail "artifact-producing run failed"

head -c 512 "$WORK/prof.json" > "$WORK/prof_trunc.json"
head -c 256 "$WORK/trace.json" > "$WORK/trace_trunc.json"
printf 'not json at all {{{' > "$WORK/garbage.json"
# 10k-deep nesting: the parser must refuse, not exhaust the stack.
awk 'BEGIN { for (i = 0; i < 10000; i++) printf "[" }' \
    > "$WORK/deep.json"

run_report "$REPORT" "$WORK/prof_trunc.json"
run_report "$REPORT" "$WORK/trace_trunc.json"
run_report "$REPORT" "$WORK/garbage.json"
run_report "$REPORT" "$WORK/deep.json"

echo "torture_test: all robustness gates passed"
