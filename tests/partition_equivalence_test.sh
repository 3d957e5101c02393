#!/usr/bin/env bash
# End-to-end determinism check for intra-trace set partitioning: a
# single-configuration run at --jobs 4 takes the set-partitioned
# ladder path (exec/time_partition.hh) and must be byte-identical —
# stdout and --stable-json stats — to the serial per-reference loop
# at --jobs 1.  Ditto for sweeps routed through CollapsedSweep and the
# bench drivers, where --jobs 4 takes the set-partitioned plan for
# table7 (one ladder group) and the group fan-out plan for fig4 (six
# groups), so both plans are diffed against --jobs 1.  Also checks
# that the per-reference flags (--sigterm-after, --checkpoint/
# --resume) force the serial path and keep their exact semantics at
# --jobs 4, and that a saved-and-loaded trace gives the results of
# the generated one.
#
# Usage: partition_equivalence_test.sh <membw_sim> \
#            <fig4_traffic_curves> <table7_traffic_ratios>
set -u

SIM="$1"
FIG4="$2"
TABLE7="$3"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

expect_exit() {
    local want="$1"
    shift
    "$@" >/dev/null 2>&1
    local got=$?
    [ "$got" -eq "$want" ] ||
        fail "expected exit $want from '$*', got $got"
}

# --- single config: partitioned path vs serial loop ----------------
# Two ladder configs: a plain write-back one, and a write-through
# no-allocate one with the MTC phase riding along.  Write-validate is
# outside the ladder regime, so its --jobs 4 run keeps the serial
# loop, and must say nothing about a partitioned pass.
check_jobs() { # name flags...
    local name="$1"
    shift
    "$SIM" "$@" --jobs 1 --stats-json "$name.ref.json" \
        > "$name.ref.txt" 2>/dev/null ||
        fail "$name --jobs 1 failed"
    "$SIM" "$@" --jobs 4 --stats-json "$name.p4.json" \
        > "$name.p4.txt" 2> "$name.p4.err" ||
        fail "$name --jobs 4 failed"
    cmp -s "$name.ref.txt" "$name.p4.txt" ||
        fail "$name stdout differs: --jobs 1 vs --jobs 4"
    cmp -s "$name.ref.json" "$name.p4.json" ||
        fail "$name stats JSON differs: --jobs 1 vs --jobs 4"
}
check_single() { # name flags...
    check_jobs "$@"
    # The --jobs 4 run must actually have taken the partitioned path,
    # otherwise this test is vacuous (the announce goes to stderr so
    # stdout stays byte-identical).
    grep -q "set-partitioned hierarchy pass" "$1.p4.err" ||
        fail "$1 --jobs 4 did not take the partitioned path"
}

check_single plain --workload Swm --scale 0.05 --size 64K --assoc 4 \
    --block 32 --stable-json
check_single wtwna --workload Compress --scale 0.05 --size 16K \
    --assoc 8 --block 32 --write wt --alloc wna --mtc --stable-json
check_jobs wv --workload Compress --scale 0.05 --size 16K \
    --assoc 8 --block 32 --write wb --alloc wv --mtc --stable-json
! grep -q "set-partitioned hierarchy pass" wv.p4.err ||
    fail "wv --jobs 4 took the partitioned ladder path"

# --- loaded traces take the generated-trace path -------------------
# A saved trace, loaded back, must give the results of the trace it
# was generated from, through both the partitioned single-config plan
# and the sweep plan at --jobs 4.  --scale is repeated on the loaded
# runs so the manifests differ only in the workload field, which
# names the trace file; stdout differs only in its trace-source line.
GEN=(--workload Li --scale 0.05)
"$SIM" "${GEN[@]}" --save-trace t.mbwt > /dev/null 2>&1 ||
    fail "trace save failed"
check_loaded() { # name flags...
    local name="$1"
    shift
    "$SIM" "${GEN[@]}" "$@" --jobs 1 --stats-json "$name.g1.json" \
        > "$name.g1.txt" 2>/dev/null || fail "generated $name failed"
    "$SIM" --load-trace t.mbwt --scale 0.05 "$@" --jobs 4 \
        --stats-json "$name.l4.json" > "$name.l4.txt" 2> "$name.l4.err" ||
        fail "loaded $name --jobs 4 failed"
    diff <(sed 's/"workload": "t\.mbwt"/"workload": "Li"/' \
               "$name.l4.json") "$name.g1.json" > /dev/null ||
        fail "loaded $name --jobs 4 stats differ from generated --jobs 1"
    diff <(grep -v '^trace: ' "$name.l4.txt") \
         <(grep -v '^workload: ' "$name.g1.txt") > /dev/null ||
        fail "loaded $name --jobs 4 stdout differs from generated --jobs 1"
}
check_loaded single --size 64K --assoc 4 --block 32 --stable-json
grep -q "set-partitioned hierarchy pass" single.l4.err ||
    fail "loaded single --jobs 4 did not take the partitioned path"
check_loaded sweep --sweep-sizes 4K,64K --sweep-blocks 32 --stable-json

# --- sweep mode: partitioned group pass vs serial -----------------
SWEEP=(--workload Compress --scale 0.05 --sweep-sizes 4K,64K
       --sweep-blocks 32 --stable-json)
"$SIM" "${SWEEP[@]}" --jobs 1 --stats-json w1.json > w1.txt 2>/dev/null ||
    fail "sweep --jobs 1 failed"
"$SIM" "${SWEEP[@]}" --jobs 4 --stats-json w4.json > w4.txt 2>/dev/null ||
    fail "sweep --jobs 4 failed"
cmp -s w1.txt w4.txt ||
    fail "sweep stdout differs between --jobs 1 and --jobs 4"
cmp -s w1.json w4.json ||
    fail "sweep stats differ between --jobs 1 and --jobs 4"

# --- per-reference flags force the serial path ---------------------
# --sigterm-after must drain at exactly the same reference at any
# --jobs value (the partitioned kernel has no per-reference clock, so
# the flag routes both runs through the serial loop).
RUN=(--workload Swm --scale 0.05 --size 64K --assoc 4 --block 32
     --stable-json)
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 1 --sigterm-after 20000 \
    --stats-json g1.json
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 4 --sigterm-after 20000 \
    --stats-json g4.json
cmp -s g1.json g4.json ||
    fail "interrupted partial stats differ between --jobs 1 and 4"

# A run killed mid-flight and resumed at --jobs 4 must reproduce the
# uninterrupted serial stats byte for byte (resume state only exists
# for the per-reference loop; --resume forces it).
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 4 --checkpoint ck.bin \
    --sigterm-after 20000
"$SIM" "${RUN[@]}" --jobs 4 --resume ck.bin \
    --stats-json resumed.json > /dev/null 2>&1 ||
    fail "resumed --jobs 4 run failed"
cmp -s resumed.json plain.ref.json 2>/dev/null || {
    # plain.ref.json was the Swm 64K/4/32 serial reference above.
    fail "resumed --jobs 4 stats differ from uninterrupted serial run"
}

# --- bench drivers -----------------------------------------------------
check_bench() { # name binary
    local name="$1" bin="$2"
    "$bin" --scale 0.02 --jobs 1 --stable-json --json "$name.1.json" \
        > "$name.1.txt" 2>/dev/null || fail "$name --jobs 1 failed"
    "$bin" --scale 0.02 --jobs 4 --stable-json --json "$name.4.json" \
        > "$name.4.txt" 2>/dev/null || fail "$name --jobs 4 failed"
    cmp -s "$name.1.txt" "$name.4.txt" ||
        fail "$name stdout differs between --jobs 1 and 4"
    cmp -s "$name.1.json" "$name.4.json" ||
        fail "$name JSON differs between --jobs 1 and 4"
}

check_bench fig4 "$FIG4"
check_bench table7 "$TABLE7"

echo "PASS"
