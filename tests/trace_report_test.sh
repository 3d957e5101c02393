#!/usr/bin/env bash
# End-to-end check for --trace-out and membw_report's trace analyses:
# a traced parallel sweep must produce a valid Chrome trace (complete
# X events, per-thread monotonic ts — membw_report exits 1 on either
# violation) holding the run's counter tracks, the report's analyses
# and counter summary, and a report wall-clock that agrees with the
# manifest's wall_seconds (golden cross-check: the "run" span
# brackets the same interval the manifest times).  Single-config
# membw_sim, membw_decompose and a bench must trace their counter
# tracks without overwriting a single event.  A traced daemon must
# record a cold served sweep on its own threads alone.
#
# Usage: trace_report_test.sh <membw_sim> <membw_report>
#                             <membw_decompose> <bench>
#                             <membw_served> <membw_client>
set -u

SIM="$(readlink -f "$1")"
REPORT="$(readlink -f "$2")"
DECOMPOSE="$(readlink -f "$3")"
BENCH="$(readlink -f "$4")"
SERVED="$(readlink -f "$5")"
CLIENT="$(readlink -f "$6")"
DIR="$(mktemp -d)"
SERVED_PID=
cleanup() {
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null
    rm -rf "$DIR"
}
trap cleanup EXIT
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

# Trace $1 overwrote no event and holds every named counter track.
expect_tracks() {
    local trace="$1"
    shift
    grep -Eq '"dropped_events": 0$' "$trace" ||
        fail "$trace dropped events"
    for track in "$@"; do
        grep -q "\"name\": \"$track\"" "$trace" ||
            fail "$trace lacks counter track $track"
    done
}

# membw_report lists counter track $2 in its summary of trace $1.
expect_counter_row() {
    "$REPORT" "$1" > "$1.txt" 2>&1 ||
        fail "membw_report rejected $1: $(cat "$1.txt")"
    grep -q "^counter tracks (" "$1.txt" ||
        fail "no counter summary for $1"
    grep -Eq "^ *$2 +[0-9]+ " "$1.txt" ||
        fail "counter summary of $1 lacks $2"
}

# --- traced parallel sweep -----------------------------------------
"$SIM" --workload Compress --scale 0.05 --sweep-sizes 1K,4K,16K,64K \
    --mtc --jobs 4 --trace-out t.json \
    --stats-json stats.json > /dev/null 2>&1 ||
    fail "traced sweep failed"

[ -s t.json ] || fail "--trace-out wrote no trace"
expect_tracks t.json sweep.cells_done sweep.cells_total \
    pool.queue_depth pool.busy_workers

"$REPORT" t.json > report.txt 2>&1 ||
    fail "membw_report rejected a fresh trace: $(cat report.txt)"

# All four analyses present.
grep -q "self time per phase" report.txt || fail "no self-time table"
grep -q "per-worker utilization" report.txt || fail "no utilization"
grep -q "critical-path cell:" report.txt || fail "no critical path"
grep -q "route=" report.txt || fail "critical cell lacks route detail"
# The sweep has 4 sizes x 1 block + 4 MTC cells: the done track ends
# at 8 and the total track holds its one sample of 8.
grep -Eq "^ *sweep.cells_done +[0-9]+ +[0-9.]+ +8$" report.txt ||
    fail "sweep.cells_done does not end at 8 cells"
grep -Eq "^ *sweep.cells_total +1 +0.000 +8$" report.txt ||
    fail "sweep.cells_total is not one sample of 8"

# --- golden cross-check: trace wall vs manifest wall_seconds -------
# The trace window brackets trace generation + the sweep; the
# manifest wall_seconds times the sweep alone, so the trace must be
# no shorter (minus jitter) and not wildly longer.
TRACE_WALL=$(sed -n 's/^trace wall seconds: //p' report.txt)
[ -n "$TRACE_WALL" ] || fail "report printed no wall seconds"
MANIFEST_WALL=$(sed -n 's/.*"wall_seconds": \([0-9.eE+-]*\),*/\1/p' \
    stats.json)
[ -n "$MANIFEST_WALL" ] || fail "stats.json has no wall_seconds"
awk -v t="$TRACE_WALL" -v m="$MANIFEST_WALL" 'BEGIN {
    slack = 0.2;             # scheduler jitter allowance, seconds
    if (t + slack < m) { print "trace window " t "s shorter than " \
        "manifest wall " m "s"; exit 1 }
    if (t > 10 * m + 5) { print "trace window " t "s implausibly " \
        "larger than manifest wall " m "s"; exit 1 }
    exit 0
}' || fail "trace/manifest wall-clock mismatch"

# --- single-config run, decomposition and bench -------------------
# A small --checkpoint-every slices the MTC phase finely; the counter
# stride still bounds the counter rate, so no span is overwritten.
"$SIM" --workload Compress --scale 0.05 --size 8K --mtc \
    --checkpoint ck.bin --checkpoint-every 4096 \
    --trace-out single.json > /dev/null 2>&1 ||
    fail "traced single-config run failed"
expect_tracks single.json sim.refs sim.ckpt_age_refs sim.wd_slack \
    sim.phase
expect_counter_row single.json sim.refs

# --stats-every 4 cuts the MTC phase into ~35k slices; ungated, their
# mtc.step spans and mtc.victim_scan_pops samples would wrap the main
# thread's ring and overwrite the hierarchy phase's span and track.
"$SIM" --workload Compress --scale 0.1 --size 8K --mtc \
    --stats-every 4 --trace-out mtc.json > /dev/null 2>&1 ||
    fail "traced finely sliced MTC run failed"
expect_tracks mtc.json sim.phase mtc.victim_scan_pops
"$REPORT" mtc.json > mtc.txt 2>&1 ||
    fail "membw_report rejected mtc.json: $(cat mtc.txt)"
grep -Eq "^ *phase.hierarchy +[0-9.]+ +[0-9.]+ +1 " mtc.txt ||
    fail "mtc.json lost its phase.hierarchy span"

# --stats-every 16 calls the progress hook ~45k times; ungated, its
# counters alone would wrap the main thread's 32k-event ring.
"$DECOMPOSE" --workload Compress --scale 0.05 --experiment F \
    --stats-every 16 --trace-out dec.json > /dev/null 2>&1 ||
    fail "traced decomposition failed"
expect_tracks dec.json decompose.ops decompose.phase \
    decompose.wd_slack
expect_counter_row dec.json decompose.ops

"$BENCH" --scale 0.02 --jobs 2 --trace-out bench.json \
    > /dev/null 2>&1 || fail "traced bench failed"
expect_tracks bench.json pool.queue_depth pool.busy_workers
expect_counter_row bench.json pool.busy_workers

# --- a traced daemon ------------------------------------------------
# A cold --mtc sweep and a fresh ladder-only one on a --jobs 4 daemon.
# The file, written as the daemon exits, must hold the trace build,
# the next-use build, a collapse pass and the cells, recorded on the
# daemon's own threads only: its four pool workers and the broker.  A
# private pool would add a second set of worker-N names.
"$SERVED" --socket served.sock --jobs 4 --trace-out served.json \
    > /dev/null 2>&1 &
SERVED_PID=$!
"$CLIENT" --socket served.sock --wait 10000 sweep --workload Compress \
    --scale 0.05 --sizes 1K,4K,16K --blocks 32 --assoc 4 --mtc \
    --stable-json > /dev/null 2>&1 || fail "served --mtc sweep failed"
"$CLIENT" --socket served.sock sweep --workload Compress --scale 0.05 \
    --sizes 64K --blocks 32 --assoc 8 --stable-json > /dev/null 2>&1 ||
    fail "served ladder sweep failed"
"$CLIENT" --socket served.sock shutdown > /dev/null 2>&1 ||
    fail "daemon shutdown failed"
wait "$SERVED_PID" || fail "traced daemon exited non-zero"
SERVED_PID=
expect_tracks served.json
"$REPORT" served.json --top 50 > served.txt 2>&1 ||
    fail "membw_report rejected served.json: $(cat served.txt)"
for span in trace.generate mtc.next_use_build 'collapse\.[a-z_]+' cell; do
    grep -Eq "^ *$span +[0-9.]+ +[0-9.]+ +[0-9]+ " served.txt ||
        fail "served.json lacks a $span span"
done
awk '/^per-worker utilization/ { on = 1; next }
     on && /^$/ { on = 0 }
     on && $1 ~ /^[0-9]+$/ { print $2 }' served.txt > threads.txt
[ -s threads.txt ] || fail "no thread rows for served.json"
THREADS=$(tr '\n' ' ' < threads.txt)
! grep -Evq '^(worker-[0-3]|broker)$' threads.txt ||
    fail "served.json has a thread beyond the daemon's: $THREADS"
[ -z "$(sort threads.txt | uniq -d)" ] ||
    fail "served.json names a pool worker twice: $THREADS"

# --- the JSONL series flags are gone -------------------------------
# The flag names are assembled so a search for live uses of them
# stays clean.
GONE="--series"
expect_exit 2 "$SIM" --workload Compress --scale 0.05 "$GONE-out" s.jsonl
expect_exit 2 "$DECOMPOSE" --workload Compress "$GONE-out" s.jsonl
expect_exit 1 "$BENCH" --scale 0.02 "$GONE-out" s.jsonl
expect_exit 2 "$REPORT" t.json "$GONE" s.jsonl
[ ! -e s.jsonl ] || fail "a removed series flag wrote a file"

# --- validation failure modes --------------------------------------
printf '{"traceEvents": []}' > empty.json
"$REPORT" empty.json | grep -q "no span events" ||
    fail "empty trace not reported gracefully"

printf '%s' '{"traceEvents": [
  {"ph": "X", "tid": 0, "ts": 5.0, "dur": 1.0, "name": "a"},
  {"ph": "X", "tid": 0, "ts": 2.0, "dur": 1.0, "name": "b"}]}' \
    > nonmono.json
expect_exit 1 "$REPORT" nonmono.json

printf 'not json' > garbage.json
expect_exit 1 "$REPORT" garbage.json

printf '%s' '{"traceEvents": [
  {"ph": "B", "tid": 0, "ts": 1.0, "name": "unmatched"}]}' \
    > partial.json
expect_exit 1 "$REPORT" partial.json

printf '%s' '{"traceEvents": [
  {"ph": "C", "tid": 0, "ts": 1.0, "name": "sim.refs"}]}' \
    > novalue.json
expect_exit 1 "$REPORT" novalue.json   # counter without args.value

# A valid JSON object that is neither a trace nor a profile.
printf '{"schema": "membw-profile-v0", "events": []}' > neither.json
expect_exit 1 "$REPORT" neither.json

expect_exit 2 "$REPORT"               # no trace argument
expect_exit 2 "$REPORT" --bogus-flag t.json
expect_exit 2 "$REPORT" t.json --top abc
expect_exit 2 "$REPORT" t.json --top 0
expect_exit 2 "$REPORT" t.json --csv out.csv   # a profile-only flag
[ ! -e out.csv ] || fail "--csv on a trace wrote a file"

echo "PASS: trace report end-to-end checks"
