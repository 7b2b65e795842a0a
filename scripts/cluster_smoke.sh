#!/bin/sh
# cluster_smoke.sh — CI drill for the sharded serving tier.
#
# Boots two rpserved replicas (with an emulated 10ms backend service
# time so concurrent identical misses genuinely overlap) behind one
# rprouter, then:
#
#   1. hot-key phase — replays the Zipf-skewed hotkey profile through
#      the router and requires at least one collapsed singleflight wait
#      (the router's per-key placement keeps each hot key's herd on one
#      replica, where the flight group collapses it) and zero outcome
#      mismatches.
#   2. replica-kill phase — kill -9 one replica in the middle of a
#      paced run. The router must fail over in-flight requests and
#      demote the dead replica: the client may see backpressure
#      retries, but zero 5xx, zero transport errors, zero mismatches.
#   3. drain phase — SIGTERM the router mid-load; it must drain and
#      exit 0.
#   4. early-signal phase — start a fresh replica and router and
#      SIGTERM each the moment its port file appears; both must exit 0
#      (the signal handler is installed before the port is published).
#
# Any deviation fails the script.
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"

work="$(mktemp -d /tmp/cluster-smoke.XXXXXX)"
pids=""
cleanup() {
    for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

say() { echo "cluster-smoke: $*"; }

$GO build -o bin/rpserved ./cmd/rpserved
$GO build -o bin/rprouter ./cmd/rprouter
$GO build -o bin/rploadgen ./cmd/rploadgen

# wait_port <file> — blocks until a port file appears.
wait_port() {
    i=0
    while [ ! -f "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { say "$1 never appeared"; exit 1; }
        sleep 0.1
    done
}

say "starting 2 replicas (-chaos-slow 10ms) and the router"
bin/rpserved -addr 127.0.0.1:0 -port-file "$work/r1.port" -chaos-slow 10ms -queue 64 &
r1_pid=$!; pids="$pids $r1_pid"
bin/rpserved -addr 127.0.0.1:0 -port-file "$work/r2.port" -chaos-slow 10ms -queue 64 &
r2_pid=$!; pids="$pids $r2_pid"
wait_port "$work/r1.port"; wait_port "$work/r2.port"
r1="$(cat "$work/r1.port")"; r2="$(cat "$work/r2.port")"

bin/rprouter -addr 127.0.0.1:0 -port-file "$work/router.port" -replicas "$r1,$r2" &
router_pid=$!; pids="$pids $router_pid"
wait_port "$work/router.port"
router="$(cat "$work/router.port")"

# Phase 1: hot-key profile; the Zipf herd on each hot key must collapse
# into shared flights (the 10ms service window makes overlap certain).
say "phase 1: hotkey profile through the router (-min-collapsed 1)"
bin/rploadgen -addr "$router" -profile hotkey -n 256 -c 16 -min-collapsed 1
say "phase 1 ok: herds collapsed, outcomes identical"

# Phase 2: kill -9 one replica mid-run. The paced mix leaves the router
# time to demote the dead replica and rebalance; rploadgen itself fails
# the phase on any 5xx, transport error, or outcome divergence.
say "phase 2: kill -9 one replica mid-run"
bin/rploadgen -addr "$router" -n 300 -c 8 -qps 150 -unique 8 -size small -retries 6 &
load_pid=$!
sleep 0.6
kill -9 "$r2_pid"
wait "$r2_pid" 2>/dev/null || true
wait "$load_pid" || { say "FAIL: requests failed across the replica kill"; exit 1; }
say "phase 2 ok: zero failed requests across replica loss"

# Phase 3: SIGTERM the router under load; require a clean drain.
say "phase 3: drain under load"
bin/rploadgen -addr "$router" -n 400 -c 4 -qps 200 -unique 4 -size small >/dev/null 2>&1 &
load_pid=$!
sleep 0.3
kill -TERM "$router_pid"
wait "$router_pid" || { say "FAIL: router did not drain cleanly"; exit 1; }
wait "$load_pid" 2>/dev/null || true  # interrupted load may (rightly) report errors
say "phase 3 ok: router drained and exited 0"

# term_on_port <pid> <port-file> <name> — spins (no sleep, so the signal
# lands as soon after publication as the shell can manage) until the
# port file exists, sends SIGTERM, and requires exit 0.
term_on_port() {
    i=0
    while [ ! -f "$2" ]; do
        i=$((i + 1))
        [ "$i" -gt 5000000 ] && { say "$2 never appeared"; exit 1; }
    done
    kill -TERM "$1"
    wait "$1" || { say "FAIL: $3 killed by a SIGTERM sent as its port file appeared"; exit 1; }
}

# Phase 4: SIGTERM each binary the instant it publishes its port.
say "phase 4: SIGTERM at port-file publication"
bin/rpserved -addr 127.0.0.1:0 -port-file "$work/early-r.port" >/dev/null &
early_pid=$!; pids="$pids $early_pid"
term_on_port "$early_pid" "$work/early-r.port" rpserved
bin/rprouter -addr 127.0.0.1:0 -port-file "$work/early-rt.port" -replicas "$r1" >/dev/null &
early_pid=$!; pids="$pids $early_pid"
term_on_port "$early_pid" "$work/early-rt.port" rprouter
say "phase 4 ok: both binaries drained a signal sent at port publication"

say "PASS"
