#!/usr/bin/env bash
# End-to-end exactness check for the one-pass sweep engines: every
# sweep consumer (membw_sim sweep mode and the table/figure benches)
# must produce byte-identical stdout and --stable-json output with
# the collapsed engines enabled (default) and disabled
# (--no-collapse forces direct per-cell simulation).  The workloads
# carry stores, so the ladder kernel — not the FA-LRU Mattson
# collapse — is the engine under test.
#
# Usage: onepass_equivalence_test.sh <membw_sim> <fig4> <table7> \
#            <table8> <multilevel_epin> <table9> <sec53> \
#            <ablation_stream_buffers>
set -u

SIM="$1"
FIG4="$2"
TABLE7="$3"
TABLE8="$4"
EPIN="$5"
TABLE9="$6"
SEC53="$7"
STREAMBUF="$8"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# --- membw_sim sweep mode ------------------------------------------
SWEEP=(--workload Compress --scale 0.05 --sweep-sizes 1K,4K,16K,64K
       --sweep-blocks 16,32,64 --mtc --stable-json)

"$SIM" "${SWEEP[@]}" --jobs 1 --stats-json on.json \
    > on.txt 2>/dev/null || fail "sweep (collapsed) failed"
"$SIM" "${SWEEP[@]}" --jobs 1 --no-collapse --stats-json off.json \
    > off.txt 2>/dev/null || fail "sweep --no-collapse failed"
cmp -s on.txt off.txt ||
    fail "membw_sim sweep stdout differs with --no-collapse"
cmp -s on.json off.json ||
    fail "membw_sim sweep stats JSON differs with --no-collapse"

# The ladder engine must announce its passes (stderr only, so stdout
# stays byte-stable against the direct path).
"$SIM" "${SWEEP[@]}" --jobs 1 >/dev/null 2>note.txt
grep -q 'ladder-kernel pass' note.txt ||
    fail "sweep did not report ladder-kernel coverage on stderr"

# --- bench drivers -------------------------------------------------
run_bench() {
    local name="$1"
    shift
    "$@" --jobs 1 --stable-json --json "${name}_on.json" \
        > "${name}_on.txt" 2>/dev/null ||
        fail "$name (collapsed) failed"
    "$@" --jobs 1 --no-collapse --stable-json \
        --json "${name}_off.json" > "${name}_off.txt" 2>/dev/null ||
        fail "$name --no-collapse failed"
    cmp -s "${name}_on.txt" "${name}_off.txt" ||
        fail "$name stdout differs with --no-collapse"
    cmp -s "${name}_on.json" "${name}_off.json" ||
        fail "$name JSON report differs with --no-collapse"
}

run_bench fig4 "$FIG4" --scale 0.02
run_bench table7 "$TABLE7" --scale 0.05
run_bench table8 "$TABLE8" --scale 0.05
run_bench epin "$EPIN" --scale 0.05
run_bench table9 "$TABLE9" --scale 0.05
run_bench sec53 "$SEC53" --scale 0.05
run_bench streambuf "$STREAMBUF" --scale 0.05

# Collapsed engines must also stay jobs-independent end to end.
"$FIG4" --scale 0.02 --jobs 4 --stable-json --json f4.json \
    > f4.txt 2>/dev/null || fail "fig4 --jobs 4 failed"
cmp -s fig4_on.txt f4.txt ||
    fail "fig4 collapsed stdout differs between --jobs 1 and 4"
cmp -s fig4_on.json f4.json ||
    fail "fig4 collapsed JSON differs between --jobs 1 and 4"

echo "PASS"
