#!/usr/bin/env sh
# Tier-1 verification gate. Run from the repository root; any failure
# aborts the script with a nonzero exit. `.github/workflows/ci.yml` runs
# this same script on every push/PR, so the gate is enforced, not
# conventional.
set -eu

# The gate reads the tree, it never writes it: whatever `git status`
# says now it must say again at the end (build products are ignored).
TREE_BEFORE=$(git status --porcelain)

# ---------------------------------------------------------------------
# Process / tempfile hygiene: every server the smoke steps boot records
# its PID in CI_PIDS and every scratch file lands in CI_TMP, and ONE
# trap cleans all of it up on any exit — success, failed assertion, or
# signal. (Previously a failed assertion between `kill` and `trap -`
# leaked the reply file, and a multi-server smoke would have orphaned
# the other processes.)
CI_PIDS=""
CI_TMP=""
cleanup() {
    for pid in $CI_PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for f in $CI_TMP; do
        rm -rf "$f"
    done
}
trap cleanup EXIT INT TERM

# start_serve EXTRA_ARGS... — boots `shapesearch serve` on an
# OS-assigned ephemeral port (`--addr 127.0.0.1:0`) and reads the bound
# port back from the server's own "listening on" line. Letting the
# kernel pick the port removes the bind-collision class outright (the
# previous fixed `$$`-derived port raced concurrent CI runs and stale
# servers — worse, a stale server on the chosen port would pass the
# health probe and silently receive the smoke's queries); the outer
# retry loop still covers transient boot failures. Prints "PID PORT" on
# success. The caller appends the PID to CI_PIDS. (Runs in a command
# substitution — a subshell — so it must not mutate parent state.)
start_serve() {
    for attempt in 1 2 3; do
        log=$(mktemp "/tmp/ci_serve_$$_XXXXXX.log")
        ./target/release/shapesearch serve --addr "127.0.0.1:0" "$@" \
            >"$log" 2>&1 &
        pid=$!
        for _ in $(seq 1 100); do
            port=$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9][0-9]*\).*#\1#p' "$log")
            if [ -n "$port" ]; then
                # The port is bound and (any --data preload) registered:
                # the listening line prints after both.
                echo "$pid $port"
                rm -f "$log"
                return 0
            fi
            if ! kill -0 "$pid" 2>/dev/null; then
                break # died during boot: retry
            fi
            sleep 0.1
        done
        echo "ci: serve boot attempt $attempt failed; log:" >&2
        cat "$log" >&2
        rm -f "$log"
        kill "$pid" 2>/dev/null || true
    done
    echo "ci: could not boot a server after 3 attempts" >&2
    return 1
}

echo "==> cargo build --release"
cargo build --release

# ssbench is a package of its own (BENCHMARK.json runs it; tier-1 never
# builds it) that links core/server by path: compiling it here turns the
# API it pins — handlers::route, AppState, CacheKey::new, … — into a
# gate, so a rename cannot break the benchmark silently. Read-only with
# respect to its directory (its Cargo.lock is committed; the build lands
# in the shared target dir).
echo "==> cargo build --release (ssbench)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" cargo build --release --offline \
    --manifest-path crates/bench/src/bin/ssbench/Cargo.toml

# Its unit tests are not in the workspace's `cargo test` either; same
# shared target dir, so this too writes nothing under that directory.
echo "==> cargo test --release (ssbench)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" cargo test --release --offline \
    --manifest-path crates/bench/src/bin/ssbench/Cargo.toml

# A smoke-sized run of the two workloads that live in SEGMENT+SCORE, of
# the one where a pruned needle query shares an engine pass (and one
# SharedThresholds) with located queries, and of the one whose set-up
# crosses every registration shape in the production binary — two spawned
# servers registering `shard_of` partitions from inline CSV, and a router
# registering the same corpus with every slot remote, i.e. with no engine
# built at all: every reply is checked against ssbench's one-shard
# in-process reference and every request must be answered. Timing-free —
# the latencies it prints are not read (four short passes each, ~20 s
# together).
echo "==> ssbench smoke (fuzzy_miss, needle_miss, mixed_batch, router_rpc: answers correct, 0 failed)"
for w in fuzzy_miss needle_miss mixed_batch router_rpc; do
    out=$(CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
        "${CARGO_TARGET_DIR:-target}/release/ssbench" --workload "$w" --seconds 1 --trace 0)
    case "$out" in
        *'"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "ci: ssbench $w smoke failed: $out" >&2
            exit 1
            ;;
    esac
done

# A work counter, not a clock: of the candidates `fuzzy_miss` bounds, the
# share the three bound tiers prune before SEGMENT — in ssbench's in-process
# one-shard replay (`pruning.pruned_share`) and in the served four-shard
# system (`server.pruning.pruned_share`), from one traced run. It read 0
# before the second tier, 0.403 with it, and reads 0.79–0.83 with the
# third and the best-bound-first sweep (it moves in the third decimal with
# thread timing); below 0.7 a tier has stopped being entered.
echo "==> ssbench work counter (fuzzy_miss: pruned_share >= 0.7)"
out=$(CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
    "${CARGO_TARGET_DIR:-target}/release/ssbench" --workload fuzzy_miss --seconds 1 --trace 1)
shares=$(echo "$out" | tail -1 | grep -o 'pruning\.pruned_share":{"value":[0-9.e-]*' | sed 's/.*://')
[ "$(echo "$shares" | wc -w)" -eq 2 ] || {
    echo "ci: ssbench fuzzy_miss trace reported no pruned_share pair: $out" >&2
    exit 1
}
for share in $shares; do
    awk -v share="$share" 'BEGIN { exit !(share >= 0.7) }' || {
        echo "ci: fuzzy_miss pruned_share $share is below 0.7 (of: $shares)" >&2
        exit 1
    }
done

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> sharded serve smoke (--shards 4, HTTP batch query)"
# Guards the whole fan-out path end to end: CLI flag -> catalog default
# -> shard partitioning -> compute-pool fan-out -> merge -> JSON reply.
set -- $(start_serve --shards 4 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
SMOKE_PID=$1 SMOKE_PORT=$2
CI_PIDS="$CI_PIDS $SMOKE_PID"

# The registration got the configured 4 shards.
curl -sf "http://127.0.0.1:$SMOKE_PORT/datasets" | grep -q '"shards":4' || {
    echo "smoke: dataset did not register with 4 shards"; exit 1;
}

SMOKE_REPLY="/tmp/ci_smoke_batch_$$.json"
CI_TMP="$CI_TMP $SMOKE_REPLY"
BATCH_BODY='[
  {"dataset":"sales","query":"[p=up][p=down]","k":3},
  {"dataset":"sales","query":"[p=down][p=up]","k":3}
]'
BATCH_STATUS=$(curl -s -o "$SMOKE_REPLY" -w '%{http_code}' \
    -X POST "http://127.0.0.1:$SMOKE_PORT/query" -d "$BATCH_BODY")
[ "$BATCH_STATUS" = "200" ] || {
    echo "smoke: batch query returned $BATCH_STATUS"
    cat "$SMOKE_REPLY"; exit 1;
}
# Non-empty results in every batch slot (a result object always carries
# a "key"), and the per-item shard count is reported.
grep -q '"key":' "$SMOKE_REPLY" || {
    echo "smoke: batch reply carried no results"; cat "$SMOKE_REPLY"; exit 1;
}
grep -q '"shards":4' "$SMOKE_REPLY" || {
    echo "smoke: batch reply did not report sharded execution"
    cat "$SMOKE_REPLY"; exit 1;
}
echo "smoke: sharded serve OK"

echo "==> distributed serve smoke (2 shard servers + mixed-placement router, byte diff)"
# The multi-machine topology end to end: two --shard-of shard servers
# own partitions 0 and 1 of a 4-way split, a router places those two
# shards remotely and the other two locally, and the router's batch
# reply must be BYTE-IDENTICAL to the single-process --shards 4 reply
# (after stripping the envelope's wall-clock "micros", the one
# legitimately nondeterministic field).
set -- $(start_serve --workers 4 --shard-of 0/4 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
SHARD0_PID=$1 SHARD0_PORT=$2
CI_PIDS="$CI_PIDS $SHARD0_PID"
set -- $(start_serve --workers 4 --shard-of 1/4 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
SHARD1_PID=$1 SHARD1_PORT=$2
CI_PIDS="$CI_PIDS $SHARD1_PID"
set -- $(start_serve --workers 4 --shards 4 \
    --shard-endpoint "127.0.0.1:$SHARD0_PORT" \
    --shard-endpoint "127.0.0.1:$SHARD1_PORT" \
    --shard-endpoint local --shard-endpoint local \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
ROUTER_PID=$1 ROUTER_PORT=$2
CI_PIDS="$CI_PIDS $ROUTER_PID"

ROUTER_REPLY="/tmp/ci_router_batch_$$.json"
SINGLE_REPLY="/tmp/ci_single_batch_$$.json"
CI_TMP="$CI_TMP $ROUTER_REPLY $SINGLE_REPLY"
# Fresh queries (cold on BOTH servers — the first smoke already warmed
# BATCH_BODY on the single-process server, and a hit's "cached":true
# would trivially break the byte diff).
DIFF_BODY='[
  {"dataset":"sales","query":"[p=up][p=down]","k":4},
  {"dataset":"sales","query":"[p=down][p=up][p=down]","k":6},
  {"dataset":"sales","query":"[p=up]","k":2},
  {"dataset":"sales","query":"[p=down]","k":1}
]'
for target in "router 127.0.0.1:$ROUTER_PORT $ROUTER_REPLY" \
              "single 127.0.0.1:$SMOKE_PORT $SINGLE_REPLY"; do
    set -- $target
    status=$(curl -s -o "$3.raw" -w '%{http_code}' \
        -X POST "http://$2/query" -d "$DIFF_BODY")
    CI_TMP="$CI_TMP $3.raw"
    [ "$status" = "200" ] || {
        echo "distributed smoke: $1 batch returned $status"
        cat "$3.raw"; exit 1;
    }
    # Strip the envelope's wall-clock micros; everything else —
    # results, scores, ranges, tie order, shard counts, cache flags —
    # must match byte for byte.
    sed 's/"micros":[0-9]*,//' "$3.raw" > "$3"
done
cmp "$ROUTER_REPLY" "$SINGLE_REPLY" || {
    echo "distributed smoke: router and single-process replies diverged"
    echo "--- router:"; cat "$ROUTER_REPLY"
    echo "--- single-process:"; cat "$SINGLE_REPLY"
    exit 1
}
grep -q '"key":' "$ROUTER_REPLY" || {
    echo "distributed smoke: router reply carried no results"
    cat "$ROUTER_REPLY"; exit 1;
}
# The router really did go over the wire: its healthz names both
# endpoints with zero errors.
ROUTER_HEALTH=$(curl -sf "http://127.0.0.1:$ROUTER_PORT/healthz")
echo "$ROUTER_HEALTH" | grep -q "\"endpoint\":\"127.0.0.1:$SHARD0_PORT\"" || {
    echo "distributed smoke: router healthz missing shard 0 endpoint"
    echo "$ROUTER_HEALTH"; exit 1;
}
# Anchor on the remote_shards TOTALS block — a bare '"errors":0' would
# match any zero anywhere (e.g. one healthy endpoint in by_endpoint)
# and miss a partially erroring topology.
echo "$ROUTER_HEALTH" | grep -Eq '"remote_shards":\{"endpoints":[0-9]+,"requests":[0-9]+,"errors":0,' || {
    echo "distributed smoke: router reported remote errors"
    echo "$ROUTER_HEALTH"; exit 1;
}
# The Section-6.3 bound path was actually exercised end to end: the
# router's local shards computed at least one score upper bound (the
# k=1 query guarantees a live threshold even on these tiny partitions).
echo "$ROUTER_HEALTH" | grep -Eq '"pruning":\{"bounded":[1-9]' || {
    echo "distributed smoke: router healthz shows no pruning activity"
    echo "$ROUTER_HEALTH"; exit 1;
}
echo "smoke: distributed topology OK (router == single-process, byte for byte)"

echo "==> observability smoke (explain trace across the topology, /metrics exposition)"
# A fresh explain:true query against the router must return ONE stitched
# span tree covering every shard slot — the two remote slots carrying
# the shard SERVERS' own spans, proving the trace ID crossed the
# /shard/query wire and came back.
EXPLAIN_REPLY="/tmp/ci_router_explain_$$.json"
CI_TMP="$CI_TMP $EXPLAIN_REPLY"
EXPLAIN_STATUS=$(curl -s -o "$EXPLAIN_REPLY" -w '%{http_code}' \
    -X POST "http://127.0.0.1:$ROUTER_PORT/query" \
    -d '{"dataset":"sales","query":"[p=up][p=flat][p=down]","k":3,"explain":true}')
[ "$EXPLAIN_STATUS" = "200" ] || {
    echo "observability smoke: explain query returned $EXPLAIN_STATUS"
    cat "$EXPLAIN_REPLY"; exit 1;
}
grep -q '"trace_id":"' "$EXPLAIN_REPLY" || {
    echo "observability smoke: explain reply carried no trace"
    cat "$EXPLAIN_REPLY"; exit 1;
}
# (`"refined":` and `"joined":` are the pruning block's second- and
# third-tier counters: their names, not their values — the sales data is
# too small to say what they should read.)
for needle in '"name":"request"' '"name":"shard_fanout"' '"name":"merge"' '"refined":' '"joined":'; do
    grep -q "$needle" "$EXPLAIN_REPLY" || {
        echo "observability smoke: explain trace missing $needle"
        cat "$EXPLAIN_REPLY"; exit 1;
    }
done
# A span for every shard: 2 remote_rpc slots, each stitching the shard
# server's shard_request reply tree (which adds its own shard_compute),
# plus the router's 2 local shard_compute spans — >= 4 computes total.
rpc_count=$(grep -o '"name":"remote_rpc"' "$EXPLAIN_REPLY" | wc -l)
echo_count=$(grep -o '"name":"shard_request"' "$EXPLAIN_REPLY" | wc -l)
compute_count=$(grep -o '"name":"shard_compute"' "$EXPLAIN_REPLY" | wc -l)
if [ "$rpc_count" -ne 2 ] || [ "$echo_count" -ne 2 ] || [ "$compute_count" -lt 4 ]; then
    echo "observability smoke: span tree does not cover every shard" \
         "(remote_rpc=$rpc_count shard_request=$echo_count shard_compute=$compute_count)"
    cat "$EXPLAIN_REPLY"; exit 1;
fi

# A present-but-mistyped optional key is refused, never defaulted.
MISTYPED_STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "http://127.0.0.1:$ROUTER_PORT/query" \
    -d '{"dataset":"sales","query":"[p=up]","k":"7"}')
[ "$MISTYPED_STATUS" = "400" ] || {
    echo "observability smoke: \"k\":\"7\" should 400, got $MISTYPED_STATUS"; exit 1;
}

# The router's /metrics exposition parses: non-empty, the known series
# are present, and the stage histograms actually saw samples.
ROUTER_METRICS=$(curl -sf "http://127.0.0.1:$ROUTER_PORT/metrics")
[ -n "$ROUTER_METRICS" ] || { echo "observability smoke: empty /metrics"; exit 1; }
for series in 'shapesearch_queries_total ' \
              'shapesearch_cache_lookups_total ' \
              'shapesearch_pruning_refined_total ' \
              'shapesearch_pruning_joined_total ' \
              '# TYPE shapesearch_request_duration_micros histogram'; do
    echo "$ROUTER_METRICS" | grep -q "$series" || {
        echo "observability smoke: /metrics missing $series"
        echo "$ROUTER_METRICS"; exit 1;
    }
done
echo "$ROUTER_METRICS" | grep -Eq 'shapesearch_request_duration_micros_count [1-9]' || {
    echo "observability smoke: request histogram saw no samples"
    echo "$ROUTER_METRICS"; exit 1;
}
for stage in parse_plan cache_lookup shard_compute remote_rpc merge serialize; do
    echo "$ROUTER_METRICS" | \
        grep -Eq "shapesearch_stage_duration_micros_count\{stage=\"$stage\"\} [1-9]" || {
        echo "observability smoke: stage histogram \"$stage\" saw no samples"
        echo "$ROUTER_METRICS"; exit 1;
    }
done
# Docs cannot drift from the stats table: every family this router
# serves and every top-level /healthz key must be named (in backticks) in
# docs/ARCHITECTURE.md.
HEALTHZ_KEYS=$(curl -sf "http://127.0.0.1:$ROUTER_PORT/healthz" |
    sed -e 's/^{//' -e 's/}$//' -e ':strip' \
        -e 's/{[^{}]*}//g' -e 's/\[[^][]*\]//g' -e 't strip' |
    grep -o '"[a-z_]*":' | tr -d '":')
METRIC_FAMILIES=$(echo "$ROUTER_METRICS" |
    sed -n 's/^# TYPE \(shapesearch_[a-z0-9_]*\) .*/\1/p')
[ -n "$HEALTHZ_KEYS" ] && [ -n "$METRIC_FAMILIES" ] || {
    echo "observability smoke: could not list healthz keys / metric families"; exit 1;
}
for name in $HEALTHZ_KEYS $METRIC_FAMILIES; do
    grep -qF "\`$name\`" docs/ARCHITECTURE.md || {
        echo "observability smoke: \`$name\` is served but not in docs/ARCHITECTURE.md"
        exit 1
    }
done
echo "smoke: observability OK (stitched explain trace + parsing /metrics + documented names)"

echo "==> chaos smoke (replica failover, then opt-in partial results)"
# The replication tier end to end: shard 1 of 2 lives behind a
# TWO-replica list while shard 0 stays local. Killing one replica must
# leave batch results byte-identical to a single-process run (failover,
# not degradation); killing both must 502 a plain query but turn a
# "partial":true query into a 200 with a degraded block — and that
# degraded response must never be cached.
set -- $(start_serve --workers 4 --shard-of 1/2 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
REPLICA_A_PID=$1 REPLICA_A_PORT=$2
CI_PIDS="$CI_PIDS $REPLICA_A_PID"
set -- $(start_serve --workers 4 --shard-of 1/2 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
REPLICA_B_PID=$1 REPLICA_B_PORT=$2
CI_PIDS="$CI_PIDS $REPLICA_B_PID"
set -- $(start_serve --workers 4 --shards 2 \
    --shard-endpoint local \
    --shard-endpoint "127.0.0.1:$REPLICA_A_PORT|127.0.0.1:$REPLICA_B_PORT" \
    --shard-connect-timeout-ms 1000 --shard-io-timeout-ms 2000 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
CHAOS_ROUTER_PID=$1 CHAOS_ROUTER_PORT=$2
CI_PIDS="$CI_PIDS $CHAOS_ROUTER_PID"
# The byte-identity reference: a fresh single-process server with the
# same shard count (cold for every query below).
set -- $(start_serve --workers 4 --shards 2 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
CHAOS_REF_PID=$1 CHAOS_REF_PORT=$2
CI_PIDS="$CI_PIDS $CHAOS_REF_PID"

chaos_diff() { # BODY LABEL — router batch reply must equal reference's
    body=$1; label=$2
    r="/tmp/ci_chaos_router_$$_$label.json"
    s="/tmp/ci_chaos_ref_$$_$label.json"
    CI_TMP="$CI_TMP $r $s $r.raw $s.raw"
    for target in "router 127.0.0.1:$CHAOS_ROUTER_PORT $r" \
                  "reference 127.0.0.1:$CHAOS_REF_PORT $s"; do
        set -- $target
        status=$(curl -s -o "$3.raw" -w '%{http_code}' \
            -X POST "http://$2/query" -d "$body")
        [ "$status" = "200" ] || {
            echo "chaos smoke [$label]: $1 batch returned $status"
            cat "$3.raw"; return 1;
        }
        sed 's/"micros":[0-9]*,//' "$3.raw" > "$3"
    done
    cmp "$r" "$s" || {
        echo "chaos smoke [$label]: router and reference replies diverged"
        echo "--- router:"; cat "$r"
        echo "--- reference:"; cat "$s"
        return 1
    }
    grep -q '"key":' "$r" || {
        echo "chaos smoke [$label]: reply carried no results"
        cat "$r"; return 1;
    }
}

# Both replicas healthy: the batch goes over the wire and matches.
chaos_diff '[
  {"dataset":"sales","query":"[p=up][p=down]","k":5},
  {"dataset":"sales","query":"[p=down][p=up]","k":4}
]' both_alive

# Kill replica A mid-batch-sequence; the router's pooled connection to
# it is now dead and the next (fresh, uncached) batch must fail over to
# replica B — still byte-identical, never a partial answer.
kill "$REPLICA_A_PID"
for _ in $(seq 1 50); do
    kill -0 "$REPLICA_A_PID" 2>/dev/null || break
    sleep 0.1
done
chaos_diff '[
  {"dataset":"sales","query":"[p=up][p=flat][p=down]","k":5},
  {"dataset":"sales","query":"[p=up]","k":3}
]' one_dead
# The failover left a trail: healthz names replica A with errors.
CHAOS_HEALTH=$(curl -sf "http://127.0.0.1:$CHAOS_ROUTER_PORT/healthz")
echo "$CHAOS_HEALTH" | grep -q "\"endpoint\":\"127.0.0.1:$REPLICA_A_PORT\"" || {
    echo "chaos smoke: healthz lost track of the killed replica"
    echo "$CHAOS_HEALTH"; exit 1;
}

# Kill replica B too: shard 1 has no replicas left. A plain query is a
# structured 502 naming BOTH attempted replicas…
kill "$REPLICA_B_PID"
for _ in $(seq 1 50); do
    kill -0 "$REPLICA_B_PID" 2>/dev/null || break
    sleep 0.1
done
DEAD_REPLY="/tmp/ci_chaos_dead_$$.json"
CI_TMP="$CI_TMP $DEAD_REPLY"
DEAD_STATUS=$(curl -s -o "$DEAD_REPLY" -w '%{http_code}' \
    -X POST "http://127.0.0.1:$CHAOS_ROUTER_PORT/query" \
    -d '{"dataset":"sales","query":"[p=down]","k":2}')
[ "$DEAD_STATUS" = "502" ] || {
    echo "chaos smoke: total replica loss should 502 a plain query, got $DEAD_STATUS"
    cat "$DEAD_REPLY"; exit 1;
}
grep -q '"code":"shard_unavailable"' "$DEAD_REPLY" || {
    echo "chaos smoke: 502 is not a structured shard_unavailable"
    cat "$DEAD_REPLY"; exit 1;
}
for port in "$REPLICA_A_PORT" "$REPLICA_B_PORT"; do
    grep -q "127.0.0.1:$port" "$DEAD_REPLY" || {
        echo "chaos smoke: shard_unavailable must name every attempted replica"
        cat "$DEAD_REPLY"; exit 1;
    }
done

# …while the SAME query with "partial":true is a 200 whose degraded
# block names the missing shard, computed from the shards still alive.
PARTIAL_REPLY="/tmp/ci_chaos_partial_$$.json"
CI_TMP="$CI_TMP $PARTIAL_REPLY"
for pass in first second; do
    PARTIAL_STATUS=$(curl -s -o "$PARTIAL_REPLY" -w '%{http_code}' \
        -X POST "http://127.0.0.1:$CHAOS_ROUTER_PORT/query" \
        -d '{"dataset":"sales","query":"[p=down]","k":2,"partial":true}')
    [ "$PARTIAL_STATUS" = "200" ] || {
        echo "chaos smoke: partial:true should degrade to 200, got $PARTIAL_STATUS"
        cat "$PARTIAL_REPLY"; exit 1;
    }
    grep -q '"degraded":{"missing_shards":\[1\]' "$PARTIAL_REPLY" || {
        echo "chaos smoke: degraded block missing or not naming shard 1"
        cat "$PARTIAL_REPLY"; exit 1;
    }
    # Never cached: the second pass must be another cold degraded
    # computation, not a cache hit serving yesterday's partial answer.
    grep -q '"cached":false' "$PARTIAL_REPLY" || {
        echo "chaos smoke: degraded response must never be cached ($pass pass)"
        cat "$PARTIAL_REPLY"; exit 1;
    }
done
echo "smoke: chaos OK (failover byte-identical, partial degrades, never cached)"

echo "==> snapshot smoke (cold boot from columnar snapshot, byte diff vs CSV)"
# The on-disk snapshot tier end to end: build a snapshot from the CSV
# with the CLI, boot one server from the snapshot (lazy mmap shards
# behind a resident LRU whose 1-byte budget keeps exactly one) and one
# from the CSV (eager EXTRACT), and their batch replies must be
# BYTE-IDENTICAL after stripping the envelope's wall-clock micros. Then
# a deliberately corrupted copy of the snapshot must be refused at
# registration with the structured snapshot_invalid error — never a
# panic, never garbage results.
SNAP_DIR=$(mktemp -d "/tmp/ci_snap_$$_XXXXXX")
CI_TMP="$CI_TMP $SNAP_DIR"
./target/release/shapesearch snapshot \
    --data examples/data/sales.csv --z product --x week --y sales \
    --out "$SNAP_DIR/sales.snap"
test -s "$SNAP_DIR/sales.snap" || { echo "snapshot smoke: no snapshot written"; exit 1; }

set -- $(start_serve --workers 4 --shards 2 --resident-bytes 1 \
    --data-root "$SNAP_DIR" --snapshot "$SNAP_DIR/sales.snap" --name sales)
SNAP_PID=$1 SNAP_PORT=$2
CI_PIDS="$CI_PIDS $SNAP_PID"
set -- $(start_serve --workers 4 --shards 2 \
    --data examples/data/sales.csv --name sales \
    --z product --x week --y sales)
CSV_PID=$1 CSV_PORT=$2
CI_PIDS="$CI_PIDS $CSV_PID"

SNAP_REPLY="/tmp/ci_snap_reply_$$.json"
CSV_REPLY="/tmp/ci_csv_reply_$$.json"
CI_TMP="$CI_TMP $SNAP_REPLY $CSV_REPLY $SNAP_REPLY.raw $CSV_REPLY.raw"
# The located item makes push-down (a) binary-search the mapped raw x
# column; the bin_width item re-GROUPs from the mapped raw columns (the
# snapshot seeds width 1 only).
SNAP_BODY='[
  {"dataset":"sales","query":"[p=up][p=down]","k":4},
  {"dataset":"sales","query":"[p=down][p=up]","k":3},
  {"dataset":"sales","query":"[p=up]","k":1},
  {"dataset":"sales","query":"[x.s=4, x.e=12, p=up][p=down]","k":3},
  {"dataset":"sales","query":"[p=up][p=down]","k":4,"bin_width":2}
]'
for target in "snapshot 127.0.0.1:$SNAP_PORT $SNAP_REPLY" \
              "csv 127.0.0.1:$CSV_PORT $CSV_REPLY"; do
    set -- $target
    status=$(curl -s -o "$3.raw" -w '%{http_code}' \
        -X POST "http://$2/query" -d "$SNAP_BODY")
    [ "$status" = "200" ] || {
        echo "snapshot smoke: $1 batch returned $status"
        cat "$3.raw"; exit 1;
    }
    sed 's/"micros":[0-9]*,//' "$3.raw" > "$3"
done
cmp "$SNAP_REPLY" "$CSV_REPLY" || {
    echo "snapshot smoke: snapshot-backed and CSV-backed replies diverged"
    echo "--- snapshot:"; cat "$SNAP_REPLY"
    echo "--- csv:"; cat "$CSV_REPLY"
    exit 1
}
grep -q '"key":' "$SNAP_REPLY" || {
    echo "snapshot smoke: reply carried no results"; cat "$SNAP_REPLY"; exit 1;
}
# The lazy path really ran: both shards were loaded on first touch and
# the 1-byte budget forced at least one eviction.
SNAP_HEALTH=$(curl -sf "http://127.0.0.1:$SNAP_PORT/healthz")
echo "$SNAP_HEALTH" | grep -Eq '"snapshots":\{"resident":1,[^}]*"capacity_bytes":1,[^}]*"loads":[1-9]' || {
    echo "snapshot smoke: healthz shows no lazy shard loads"
    echo "$SNAP_HEALTH"; exit 1;
}
echo "$SNAP_HEALTH" | grep -Eq '"evictions":[1-9]' || {
    echo "snapshot smoke: 2 shards over a 1-byte budget evicted nothing"
    echo "$SNAP_HEALTH"; exit 1;
}

# A torn snapshot (one payload byte flipped) is a structured 400 at
# registration — the checksum refuses it before any data is served.
cp "$SNAP_DIR/sales.snap" "$SNAP_DIR/torn.snap"
printf '\377' | dd of="$SNAP_DIR/torn.snap" bs=1 seek=400 conv=notrunc 2>/dev/null
TORN_REPLY="/tmp/ci_snap_torn_$$.json"
CI_TMP="$CI_TMP $TORN_REPLY"
TORN_STATUS=$(curl -s -o "$TORN_REPLY" -w '%{http_code}' \
    -X POST "http://127.0.0.1:$SNAP_PORT/datasets" \
    -d "{\"name\":\"torn\",\"id\":\"torn\",\"snapshot\":\"$SNAP_DIR/torn.snap\"}")
[ "$TORN_STATUS" = "400" ] || {
    echo "snapshot smoke: corrupted snapshot should 400, got $TORN_STATUS"
    cat "$TORN_REPLY"; exit 1;
}
grep -q '"code":"snapshot_invalid"' "$TORN_REPLY" || {
    echo "snapshot smoke: refusal is not a structured snapshot_invalid"
    cat "$TORN_REPLY"; exit 1;
}
echo "smoke: snapshot OK (cold load == eager CSV byte for byte, torn file refused)"

TREE_AFTER=$(git status --porcelain)
[ "$TREE_BEFORE" = "$TREE_AFTER" ] || {
    echo "ci: the run changed the working tree:"
    echo "--- before:"; echo "$TREE_BEFORE"
    echo "--- after:"; echo "$TREE_AFTER"
    exit 1
}

echo "ci: all green"
