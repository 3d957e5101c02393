#!/usr/bin/env bash
# End-to-end determinism check for the parallel engines, in three
# parts that run as separate tests.
#
# sweep: every membw_sim sweep-mode output (stdout, --stats-json with
# --stable-json) and the stdout and report of each of the nine trace
# benches must be byte-identical at --jobs 1 and --jobs 4 — including
# a run truncated by the deterministic --sigterm-after cell-count
# trigger — and the --jobs input contract must hold.
#
# decompose: membw_decompose --experiment all must be byte-identical
# at --jobs 1 and --jobs 4 and keep its flag contract, and on hosts
# with enough hardware threads parallel decomposition cells must
# actually run faster in one of up to three alternating timed pairs.
#
# decompose_benches: the fig3/table1 bench reports, whose
# decomposition cells share one pool, must be byte-identical at
# --jobs 1 and --jobs 4.
#
# Usage: parallel_equivalence_test.sh sweep <membw_sim> \
#            <trace bench>...  (the nine trace-driven benches)
#        parallel_equivalence_test.sh decompose <membw_decompose>
#        parallel_equivalence_test.sh decompose_benches \
#            <fig3_decomposition> <table1_technique_effects>
set -u

MODE="$1"
shift
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

# Each bench's stdout and --json report at --jobs 1 and --jobs 4.
bench_equivalence() {
    local bench name j
    for bench in "$@"; do
        name=$(basename "$bench")
        for j in 1 4; do
            "$bench" --scale 0.02 --jobs $j --stable-json \
                --json "$name.$j.json" > "$name.$j.txt" 2>/dev/null ||
                fail "$name --jobs $j failed"
        done
        cmp -s "$name.1.txt" "$name.4.txt" ||
            fail "$name stdout differs between --jobs 1 and 4"
        cmp -s "$name.1.json" "$name.4.json" ||
            fail "$name JSON report differs between --jobs 1 and 4"
    done
}

sweep_part() {
    local SIM="$1"
    shift

    # --- membw_sim sweep mode: jobs 1 vs jobs 4 --------------------
    SWEEP=(--workload Compress --scale 0.05 --sweep-sizes 1K,4K,16K,64K
           --sweep-blocks 16,32,64 --mtc --stable-json)

    "$SIM" "${SWEEP[@]}" --jobs 1 --stats-json s1.json > s1.txt 2>/dev/null ||
        fail "sweep --jobs 1 failed"
    "$SIM" "${SWEEP[@]}" --jobs 4 --stats-json s4.json > s4.txt 2>/dev/null ||
        fail "sweep --jobs 4 failed"
    cmp -s s1.txt s4.txt ||
        fail "membw_sim sweep stdout differs between --jobs 1 and 4"
    cmp -s s1.json s4.json ||
        fail "membw_sim sweep stats JSON differs between --jobs 1 and 4"
    grep -q '"sweep.64KB.32B.hier.traffic_ratio"' s1.json ||
        fail "sweep stats JSON lacks per-cell groups"

    # --- membw_sim sweep mode: SIGTERM drain is jobs-independent ---
    expect_exit 3 "$SIM" "${SWEEP[@]}" --jobs 1 --sigterm-after 7 \
        --stats-json t1.json
    expect_exit 3 "$SIM" "${SWEEP[@]}" --jobs 4 --sigterm-after 7 \
        --stats-json t4.json
    "$SIM" "${SWEEP[@]}" --jobs 1 --sigterm-after 7 > t1.txt 2>/dev/null
    "$SIM" "${SWEEP[@]}" --jobs 4 --sigterm-after 7 > t4.txt 2>/dev/null
    cmp -s t1.txt t4.txt ||
        fail "interrupted sweep stdout differs between --jobs 1 and 4"
    cmp -s t1.json t4.json ||
        fail "interrupted sweep stats JSON differs between --jobs 1 and 4"
    grep -q '"sweep_completed": "7"' t1.json ||
        fail "interrupted sweep did not truncate to exactly 7 cells"
    grep -q '"interrupted": true' t1.json ||
        fail "interrupted sweep JSON not flagged interrupted"

    # --- membw_sim sweep mode: flag contract -----------------------
    expect_exit 1 "$SIM" "${SWEEP[@]}" --jobs 0
    expect_exit 1 "$SIM" "${SWEEP[@]}" --jobs 999
    expect_exit 1 "$SIM" "${SWEEP[@]}" --checkpoint ck.bin
    expect_exit 1 "$SIM" "${SWEEP[@]}" --l2-size 1M
    expect_exit 1 "$SIM" "${SWEEP[@]}" --scale -1
    expect_exit 1 "$SIM" "${SWEEP[@]}" --scale 0

    # --- bench sweeps: jobs 1 vs jobs 4 ----------------------------
    bench_equivalence "$@"
}

decompose_part() {
    local DECOMP="$1"

    # --- membw_decompose --experiment all: jobs 1 vs jobs 4 --------
    DALL=(--workload Swm --experiment all --scale 0.05 --stable-json)

    "$DECOMP" "${DALL[@]}" --jobs 1 --stats-json d1.json > d1.txt 2>/dev/null ||
        fail "decompose all --jobs 1 failed"
    "$DECOMP" "${DALL[@]}" --jobs 4 --stats-json d4.json > d4.txt 2>/dev/null ||
        fail "decompose all --jobs 4 failed"
    cmp -s d1.txt d4.txt ||
        fail "decompose all stdout differs between --jobs 1 and 4"
    cmp -s d1.json d4.json ||
        fail "decompose all stats JSON differs between --jobs 1 and 4"
    grep -q '"A.decomp.t_p"' d1.json ||
        fail "decompose all stats JSON lacks per-experiment groups"
    expect_exit 1 "$DECOMP" "${DALL[@]}" --checkpoint dck.bin
    expect_exit 1 "$DECOMP" "${DALL[@]}" --sigterm-after 100
    expect_exit 1 "$DECOMP" "${DALL[@]}" --scale -1
    expect_exit 1 "$DECOMP" "${DALL[@]}" --scale 0
    # --experiment takes exactly one letter A-F or "all"; anything else
    # must fail before it runs, not fall back to its first letter.
    for bad in BOGUS Fx f ""; do
        expect_exit 1 "$DECOMP" --workload Swm --scale 0.05 \
            --experiment "$bad"
    done

    # --- wall-clock speedup (only meaningful on multi-core hosts) --
    # Times the 18 independent timing-model cells of --experiment all: a
    # collapsed membw_sim sweep is dominated by serial trace generation.
    # Up to three alternating (--jobs 1, --jobs 4) pairs; the first
    # pair that reaches the bound passes, so a quiet host runs one
    # pair and a briefly busy one does not fail the check.
    CORES=$(nproc 2>/dev/null || echo 1)
    if [ "$CORES" -ge 4 ]; then
        local pair t_serial t_par times=""
        for pair in 1 2 3; do
            t_serial=$({ time -p "$DECOMP" "${DALL[@]}" --scale 0.5 \
                --jobs 1 >/dev/null 2>&1; } 2>&1 | awk '/^real/ {print $2}')
            t_par=$({ time -p "$DECOMP" "${DALL[@]}" --scale 0.5 \
                --jobs 4 >/dev/null 2>&1; } 2>&1 | awk '/^real/ {print $2}')
            times="$times ($t_serial vs $t_par s)"
            awk -v s="$t_serial" -v p="$t_par" \
                'BEGIN { exit !(p > 0 && s / p >= 1.5) }' && break
            [ "$pair" -eq 3 ] &&
                fail "decompose all --jobs 4 not faster than --jobs 1 in 3 pairs:$times on a $CORES-core host"
        done
    else
        echo "SKIP speedup check: only $CORES hardware thread(s)"
    fi
}

decompose_benches_part() {
    # --- bench decomposition cells: jobs 1 vs jobs 4 ---------------
    bench_equivalence "$@"
}

case "$MODE" in
    sweep)
        [ $# -eq 10 ] || fail "sweep takes membw_sim and 9 benches"
        sweep_part "$@" ;;
    decompose)
        [ $# -eq 1 ] || fail "decompose takes 1 binary"
        decompose_part "$@" ;;
    decompose_benches)
        [ $# -eq 2 ] || fail "decompose_benches takes 2 binaries"
        decompose_benches_part "$@" ;;
    *)
        fail "unknown part '$MODE' (sweep, decompose or decompose_benches)" ;;
esac

echo "PASS"
