#!/usr/bin/env bash
# End-to-end determinism check of membw_sim at --jobs 4 against
# --jobs 1: a sweep routed through CollapsedSweep must be
# byte-identical — stdout and --stable-json stats — at either value,
# and a saved-and-loaded trace must give the results of the
# generated one, for a single config and for a sweep.  Also checks
# that the per-reference flags (--sigterm-after, --checkpoint/
# --resume) keep their exact semantics at any --jobs value, and that
# a single-config run interrupted at --jobs 1 still writes partial
# stats flagged interrupted.
#
# Usage: partition_equivalence_test.sh <membw_sim>
set -u

SIM="$1"
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

# --- loaded traces take the generated-trace path -------------------
# A saved trace, loaded back at --jobs 4, must give the results of
# the trace it was generated from, for a single config and for a
# sweep.  --scale is repeated on the loaded runs so the manifests
# differ only in the workload field, which names the trace file;
# stdout differs only in its trace-source line.
GEN=(--workload Li --scale 0.05)
"$SIM" "${GEN[@]}" --save-trace t.mbwt > /dev/null 2>&1 ||
    fail "trace save failed"
check_loaded() { # name flags...
    local name="$1"
    shift
    "$SIM" "${GEN[@]}" "$@" --jobs 1 --stats-json "$name.g1.json" \
        > "$name.g1.txt" 2>/dev/null || fail "generated $name failed"
    "$SIM" --load-trace t.mbwt --scale 0.05 "$@" --jobs 4 \
        --stats-json "$name.l4.json" > "$name.l4.txt" 2>/dev/null ||
        fail "loaded $name --jobs 4 failed"
    diff <(sed 's/"workload": "t\.mbwt"/"workload": "Li"/' \
               "$name.l4.json") "$name.g1.json" > /dev/null ||
        fail "loaded $name --jobs 4 stats differ from generated --jobs 1"
    diff <(grep -v '^trace: ' "$name.l4.txt") \
         <(grep -v '^workload: ' "$name.g1.txt") > /dev/null ||
        fail "loaded $name --jobs 4 stdout differs from generated --jobs 1"
}
check_loaded single --size 64K --assoc 4 --block 32 --stable-json
check_loaded sweep --sweep-sizes 4K,64K --sweep-blocks 32 --stable-json

# --- sweep mode: --jobs 4 vs --jobs 1 ------------------------------
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

# --- per-reference flags ------------------------------------------
# --sigterm-after must drain at exactly the same reference at any
# --jobs value, and the drained run must leave its partial stats.
RUN=(--workload Swm --scale 0.05 --size 64K --assoc 4 --block 32
     --stable-json)
"$SIM" "${RUN[@]}" --jobs 1 --stats-json plain.json > /dev/null 2>&1 ||
    fail "uninterrupted --jobs 1 run failed"
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 1 --sigterm-after 20000 \
    --stats-json g1.json
grep -q '"interrupted": true' g1.json 2>/dev/null ||
    fail "interrupted --jobs 1 run left no partial stats flagged interrupted"
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 4 --sigterm-after 20000 \
    --stats-json g4.json
cmp -s g1.json g4.json ||
    fail "interrupted partial stats differ between --jobs 1 and 4"

# A run killed mid-flight and resumed at --jobs 4 must reproduce the
# uninterrupted stats byte for byte.
expect_exit 3 "$SIM" "${RUN[@]}" --jobs 4 --checkpoint ck.bin \
    --sigterm-after 20000
"$SIM" "${RUN[@]}" --jobs 4 --resume ck.bin \
    --stats-json resumed.json > /dev/null 2>&1 ||
    fail "resumed --jobs 4 run failed"
cmp -s resumed.json plain.json ||
    fail "resumed --jobs 4 stats differ from uninterrupted run"

echo "PASS"
