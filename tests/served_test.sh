#!/usr/bin/env bash
# Serving end-to-end gate (docs/serving.md):
#
#  1. Byte-identity: daemon responses for sweep and decompose requests
#     must byte-match fresh membw_sim/membw_decompose --stats-json
#     output — cold (computed) and warm (result-cache hit), at
#     --jobs 1 and --jobs 4.
#  2. Stats counters: the warm repeat shows up as a result-cache hit.
#  3. Shutdown: the `shutdown` op stops the daemon (exit 0, socket
#     unlinked); SIGTERM mid-request drains and answers first
#     (exercised via membw_torture --served daemon schedules).
#  4. Provenance: --version/--build-info work on all three binaries
#     and ping reports the same build block.
#
# Usage: served_test.sh SERVED CLIENT SIM DECOMPOSE TORTURE
set -u

SERVED=$1
CLIENT=$2
SIM=$3
DECOMPOSE=$4
TORTURE=$5

WORK=$(mktemp -d "${TMPDIR:-/tmp}/membw_served_test.XXXXXX")
SOCK="$WORK/s.sock"
DAEMON_PID=

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1" >&2
    [ -f "$WORK/daemon.log" ] && tail -5 "$WORK/daemon.log" >&2
    exit 1
}

start_daemon() { # jobs
    "$SERVED" --socket "$SOCK" --jobs "$1" > "$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
    "$CLIENT" ping --socket "$SOCK" --wait 10000 > /dev/null ||
        fail "daemon did not come up (--jobs $1)"
}

stop_daemon() {
    "$CLIENT" shutdown --socket "$SOCK" > /dev/null ||
        fail "shutdown op failed"
    wait "$DAEMON_PID"
    [ $? -eq 0 ] || fail "daemon exit code after shutdown was not 0"
    [ -S "$SOCK" ] && fail "daemon left its socket behind"
    DAEMON_PID=
}

SWEEP_ARGS="--workload Compress --scale 0.03 --sizes 1K,4K,64K \
            --blocks 32 --assoc 4 --mtc --stable-json"
DEC_ARGS="--workload Swm --experiment F --scale 0.05 --stable-json"

# --- fresh references ---------------------------------------------------
# shellcheck disable=SC2086
"$SIM" --workload Compress --scale 0.03 --sweep-sizes 1K,4K,64K \
    --sweep-blocks 32 --assoc 4 --mtc --stable-json \
    --stats-json "$WORK/sweep_fresh.json" > /dev/null 2>&1 ||
    fail "fresh membw_sim sweep failed"
# shellcheck disable=SC2086
"$DECOMPOSE" $DEC_ARGS --stats-json "$WORK/dec_fresh.json" \
    > /dev/null 2>&1 || fail "fresh membw_decompose failed"

# --- 1+2. byte-identity cold/warm at --jobs 1 and --jobs 4 --------------
for jobs in 1 4; do
    start_daemon "$jobs"
    # shellcheck disable=SC2086
    "$CLIENT" sweep --socket "$SOCK" $SWEEP_ARGS \
        --out "$WORK/sweep_cold.json" ||
        fail "served sweep failed (--jobs $jobs)"
    cmp -s "$WORK/sweep_fresh.json" "$WORK/sweep_cold.json" ||
        fail "cold served sweep diverged from fresh (--jobs $jobs)"
    # shellcheck disable=SC2086
    "$CLIENT" sweep --socket "$SOCK" $SWEEP_ARGS \
        --out "$WORK/sweep_warm.json" ||
        fail "warm served sweep failed (--jobs $jobs)"
    cmp -s "$WORK/sweep_fresh.json" "$WORK/sweep_warm.json" ||
        fail "warm served sweep diverged from fresh (--jobs $jobs)"
    # shellcheck disable=SC2086
    "$CLIENT" decompose --socket "$SOCK" $DEC_ARGS \
        --out "$WORK/dec_served.json" ||
        fail "served decompose failed (--jobs $jobs)"
    cmp -s "$WORK/dec_fresh.json" "$WORK/dec_served.json" ||
        fail "served decompose diverged from fresh (--jobs $jobs)"

    "$CLIENT" stats --socket "$SOCK" > "$WORK/stats.json" ||
        fail "stats op failed"
    grep -q '"result_hits":1' "$WORK/stats.json" ||
        fail "warm repeat did not register as a result-cache hit"
    grep -q '"result_misses":2' "$WORK/stats.json" ||
        fail "unexpected result-cache miss count"
    stop_daemon
done

# --- 3. SIGTERM drain + fault-injection daemon schedules ----------------
"$TORTURE" --served "$SERVED" --schedules "${SERVED_SCHEDULES:-6}" \
    --scale 0.02 --dir "$WORK/torture" > "$WORK/torture.log" 2>&1 ||
    fail "daemon torture schedules diverged (see $WORK/torture.log)"

# --- 4. provenance ------------------------------------------------------
for bin in "$SIM" "$DECOMPOSE" "$SERVED"; do
    "$bin" --version | grep -q " 1\." ||
        fail "$(basename "$bin") --version did not print a version"
    "$bin" --build-info | grep -q "tracing:" ||
        fail "$(basename "$bin") --build-info missing the tracing line"
done
start_daemon 1
"$CLIENT" ping --socket "$SOCK" > "$WORK/ping.json" ||
    fail "ping failed"
grep -q '"version":' "$WORK/ping.json" ||
    fail "ping response missing the build-info block"
stop_daemon

echo "PASS: served byte-identity, cache counters, drain, provenance"
