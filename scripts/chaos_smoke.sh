#!/bin/sh
# chaos_smoke.sh — kill-and-restart plus disk-fault drill for rpserved.
#
# Three phases, all replaying the same deterministic mix (seed 1,
# 4 programs, small size) and fingerprinting per-program outcomes:
#
#   1. pristine   — memory-only server; records the reference outcomes.
#   2. kill/warm  — server with a durable cache dir is populated, then
#                   SIGKILLed mid-load. A restart over the same dir must
#                   serve the mix with at least one disk hit per program
#                   (warm start) and byte-identical outcomes. Then a
#                   server over a fresh dir, its disk slowed by 50ms
#                   per operation, is populated and stopped with SIGTERM
#                   right after the pass: disk writes land behind the
#                   response, so only the drain's flush of the write
#                   queue makes that restart warm.
#   3. disk chaos — server over a fresh dir with injected disk read/
#                   write/checksum faults and slow IO. Faults may cost
#                   cache hits, never correctness: no 5xx, no divergence,
#                   outcomes byte-identical to pristine.
#
# Any deviation — a 5xx, an outcome mismatch, a cold restart, a fault
# that surfaces to a client — fails the script.
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"
MIX="-n 64 -c 4 -unique 4 -size small -seed 1"

work="$(mktemp -d /tmp/chaos-smoke.XXXXXX)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

say() { echo "chaos-smoke: $*"; }

$GO build -o bin/rpserved ./cmd/rpserved
$GO build -o bin/rploadgen ./cmd/rploadgen

# start_server <extra flags...> — boots rpserved on an ephemeral port,
# waits for the port file, and sets $server_pid / $server_addr.
start_server() {
    rm -f "$work/port"
    bin/rpserved -addr 127.0.0.1:0 -port-file "$work/port" "$@" &
    server_pid=$!
    i=0
    while [ ! -f "$work/port" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { say "rpserved never published its port"; exit 1; }
        sleep 0.1
    done
    server_addr="$(cat "$work/port")"
}

stop_server() {
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" || true
    server_pid=""
}

# Phase 1: pristine reference run, memory-only.
say "phase 1: pristine reference run"
start_server
bin/rploadgen -addr "$server_addr" $MIX -outcomes "$work/pristine.json"
stop_server

# Phase 2: populate the durable tier, SIGKILL mid-load, restart over the
# same directory, require a warm start with identical bytes.
say "phase 2: populate durable cache, kill -9 mid-load, warm restart"
cache="$work/cache"
start_server -cache-dir "$cache"
bin/rploadgen -addr "$server_addr" $MIX >/dev/null
bin/rploadgen -addr "$server_addr" $MIX -qps 200 >/dev/null 2>&1 &
load_pid=$!
sleep 0.3
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$load_pid" 2>/dev/null || true  # interrupted load may (rightly) report errors

start_server -cache-dir "$cache"
bin/rploadgen -addr "$server_addr" $MIX -min-disk-hits 4 -outcomes "$work/warm.json"
stop_server
cmp "$work/pristine.json" "$work/warm.json" || {
    say "FAIL: outcomes after kill -9 + warm restart differ from pristine"
    exit 1
}
say "phase 2 ok: warm restart, byte-identical outcomes"

say "phase 2: populate a fresh slow-disk cache, SIGTERM right after the pass, warm restart"
cache="$work/drain-cache"
start_server -cache-dir "$cache" -chaos-disk "slow=50ms"
bin/rploadgen -addr "$server_addr" $MIX >/dev/null
stop_server
start_server -cache-dir "$cache"
bin/rploadgen -addr "$server_addr" $MIX -min-disk-hits 4 -outcomes "$work/drained.json"
stop_server
cmp "$work/pristine.json" "$work/drained.json" || {
    say "FAIL: outcomes after a clean drain + restart differ from pristine"
    exit 1
}
say "phase 2 ok: the drain flushed the disk write queue, byte-identical outcomes"

# Phase 3: injected disk faults must never surface to clients. The
# loadgen itself fails the phase on any 5xx, transport error, or
# outcome divergence; the cmp catches silent wrong bytes.
say "phase 3: disk fault injection (read/write/checksum/slow)"
start_server -cache-dir "$work/chaos-cache" \
    -chaos-disk "read=0.3,write=0.3,checksum=0.2,slow=1ms,seed=7"
bin/rploadgen -addr "$server_addr" $MIX -outcomes "$work/chaos.json"
stop_server
cmp "$work/pristine.json" "$work/chaos.json" || {
    say "FAIL: outcomes under disk faults differ from pristine"
    exit 1
}
say "phase 3 ok: faults degraded to recomputation, bytes identical"

say "PASS"
