#!/usr/bin/env bash
# End-to-end check for --trace-out/--series-out and membw_report's
# trace analyses: a traced parallel sweep must produce a
# valid Chrome trace (complete X events, per-thread monotonic ts —
# membw_report exits 1 on either violation), a non-empty JSONL
# series, the three report analyses, and a report wall-clock that
# agrees with the manifest's wall_seconds (golden cross-check: the
# "run" span brackets the same interval the manifest times).
#
# Usage: trace_report_test.sh <membw_sim> <membw_report>
set -u

SIM="$(readlink -f "$1")"
REPORT="$(readlink -f "$2")"
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

# --- traced parallel sweep -----------------------------------------
"$SIM" --workload Compress --scale 0.05 --sweep-sizes 1K,4K,16K,64K \
    --mtc --jobs 4 --trace-out t.json --series-out s.jsonl \
    --stats-json stats.json > /dev/null 2>&1 ||
    fail "traced sweep failed"

[ -s t.json ] || fail "--trace-out wrote no trace"
[ -s s.jsonl ] || fail "--series-out wrote no series"

# The series must hold at least one complete sample per run (the
# sweep forces a final sample), every line a JSON object with "t".
LINES=$(wc -l < s.jsonl)
[ "$LINES" -ge 1 ] || fail "series has no samples"
grep -q '"cells_done"' s.jsonl || fail "series lacks cells_done"

"$REPORT" t.json --series s.jsonl > report.txt 2>&1 ||
    fail "membw_report rejected a fresh trace: $(cat report.txt)"

# All three analyses present.
grep -q "self time per phase" report.txt || fail "no self-time table"
grep -q "per-worker utilization" report.txt || fail "no utilization"
grep -q "critical-path cell:" report.txt || fail "no critical path"
grep -q "route=" report.txt || fail "critical cell lacks route detail"
grep -Eq "samples over" report.txt || fail "no series summary"

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

# --- absent / empty series files are notes, not failures -----------
# A run that never sampled (or had telemetry disabled) is a normal
# outcome: the report must say so and still exit 0.
"$REPORT" t.json --series missing.jsonl > absent.txt 2>&1 ||
    fail "absent series file made the report fail"
grep -q "no samples: file absent" absent.txt ||
    fail "absent series lacks a clear note"

: > empty.jsonl
"$REPORT" t.json --series empty.jsonl > emptyseries.txt 2>&1 ||
    fail "empty series file made the report fail"
grep -q "(no samples)" emptyseries.txt ||
    fail "empty series lacks a clear note"

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
