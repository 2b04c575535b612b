#!/usr/bin/env bash
# Offline CI gate. Everything here must pass with no network access:
# all external crate names resolve to local shims under shims/ (see
# shims/README.md), so `cargo` never touches a registry.
#
# Stages (run all by default):
#   ./ci.sh gate              build + tests + clippy + rustdoc with
#                             warnings denied, and the layering check:
#                             pps-harness and pps-eval must not link
#                             pps-serve
#   ./ci.sh obs-smoke         one recorded benchmark run; fails on missing or
#                             invalid --trace-out/--metrics-out JSON
#   ./ci.sh parallel-harness  same experiment at --jobs 1 and --jobs 2;
#                             fails if tables or metrics differ by a byte
#   ./ci.sh profile-io        saved profiles: table1 (basic-block cells
#                             read no profile) runs from an empty
#                             --profile-in directory; fig4 on wc saved with
#                             --profile-out and reloaded with --profile-in
#                             gives byte-identical tables and metrics
#   ./ci.sh serve-smoke       start the pps-serve daemon on an ephemeral
#                             port, drive it with `pps-client loadgen`
#                             (concurrent requests verified byte-identical
#                             to the in-process pipeline, plus malformed-
#                             frame probes), then drain it and assert a
#                             clean exit
#   ./ci.sh drift-smoke       continuous-PGO loop end to end: daemon with
#                             fast sweeps, loadgen --drift phase-shifts the
#                             workload's profiles; assert >=1 hot-swap,
#                             zero rollbacks, no in-flight recompiles at
#                             drain, and zero reply mismatches throughout;
#                             prints the swap count
#   ./ci.sh interp-diff       differential lockdown of the fast execution
#                             engine: ~200 generated programs plus fault-
#                             injected variants run on both engines
#                             (results, traces, bounded prefixes, sim
#                             tables must match exactly), plus the golden
#                             table byte-stability suite — in release mode,
#                             the configuration the harness actually ships
#   ./ci.sh kpath-smoke       the k-iteration / interprocedural scheme
#                             family end to end: regenerate the Figure 4
#                             table with the Pk2/Pk3/Px4 columns and one
#                             train/test divergence sweep; pps-explore
#                             traced on P4/Pk2/Pk3; drive a daemon with
#                             P4, Pk2 and Px4 loads (replies byte-verified,
#                             repeats must hit the reply cache, the steady
#                             P4/Pk2 loads recompile nothing); prints
#                             the mean Figure 4 ratios and serve
#                             throughput
#   ./ci.sh interp-bench      fig4 scale-4 smoke under the fast engine and
#                             PPS_ENGINE=reference: outputs must be
#                             byte-identical; prints both wall times;
#                             hard-fails only on a gross regression (fast
#                             slower than the tree's own reference path)
#   ./ci.sh telemetry-smoke   two loadgen passes, telemetry off then on;
#                             with it on, scrape /metrics + /health while
#                             the load runs (`pps-client top --watch-json`
#                             validates every exposition), assert non-zero
#                             serve_latency_ms buckets, one access-log line
#                             per reply, zero reply mismatches, and fail
#                             on a gross on/off throughput delta (printed)
#
# Performance is measured by perfbench/ (see BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

stage="${1:-all}"

gate() {
  echo "== build (release) =="
  cargo build --release

  echo "== tests =="
  cargo test -q

  echo "== clippy =="
  cargo clippy --all-targets -- -D warnings
  # crates/bench sits outside default-members; lint it so the API it
  # calls stays compiled.
  cargo clippy -p pps-bench --all-targets -- -D warnings

  echo "== rustdoc =="
  # Broken or private intra-doc links fail the gate.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

  echo "== layering =="
  # The offline paper reproduction must not link the TCP daemon: the
  # protocol and every client of it live in pps-serve.
  harness_deps="$(cargo tree -p pps-harness -e normal --offline --prefix none)"
  if grep -q '^pps-serve ' <<< "$harness_deps"; then
    echo "pps-harness depends on pps-serve"; exit 1
  fi
  # The per-cell runner sits below both the harness and the daemon.
  eval_deps="$(cargo tree -p pps-eval -e normal --offline --prefix none)"
  if grep -q '^pps-serve ' <<< "$eval_deps"; then
    echo "pps-eval depends on pps-serve"; exit 1
  fi
  # The simulator times whatever compacted program it is handed: it must
  # not link superblock formation.
  sim_deps="$(cargo tree -p pps-sim -e normal --offline --prefix none)"
  if grep -q '^pps-core ' <<< "$sim_deps"; then
    echo "pps-sim depends on pps-core"; exit 1
  fi
  # The guard hands back a pps-profile edge profile, never simulator
  # types: superblock formation must not link the simulator.
  core_deps="$(cargo tree -p pps-core -e normal --offline --prefix none)"
  if grep -q '^pps-sim ' <<< "$core_deps"; then
    echo "pps-core depends on pps-sim"; exit 1
  fi
}

# boot LOG PORTFILES CMD...: starts a pps-serve daemon in the background,
# its output to LOG ("-" keeps the terminal), and waits until every file
# in the space-separated PORTFILES is non-empty. Sets $booted to the
# daemon's pid. Fails if the daemon dies before binding.
boot() {
  local log="$1" ports="$2" f ready
  shift 2
  if [ "$log" = - ]; then "$@" & else "$@" > "$log" 2>&1 & fi
  booted=$!
  for _ in $(seq 1 100); do
    ready=yes
    for f in $ports; do [ -s "$f" ] || ready=""; done
    [ -n "$ready" ] && return 0
    if ! kill -0 "$booted" 2>/dev/null; then
      echo "$1 died before binding"; [ "$log" = - ] || cat "$log"; exit 1
    fi
    sleep 0.1
  done
  echo "$1 never wrote its port file(s): $ports"; exit 1
}

obs_smoke() {
  echo "== observability smoke =="
  out="$(mktemp -d)"
  cargo run --release -p pps-harness --bin pps-harness -- \
    --experiment fig4 --bench wc --scale 1 --mode strict \
    --trace-out "$out/trace.json" --metrics-out "$out/metrics.json" \
    --log-level warn > "$out/tables.txt"
  test -s "$out/trace.json" || { echo "missing trace.json"; exit 1; }
  test -s "$out/metrics.json" || { echo "missing metrics.json"; exit 1; }
  cargo run --release --example validate_obs -- "$out/trace.json" "$out/metrics.json"
  rm -rf "$out"
}

parallel_harness() {
  echo "== parallel harness determinism =="
  out="$(mktemp -d)"
  for jobs in 1 2; do
    cargo run --release -p pps-harness --bin pps-harness -- \
      --experiment fig4 --scale 1 --mode strict --jobs "$jobs" \
      --metrics-out "$out/metrics-j$jobs.json" \
      --log-level warn > "$out/tables-j$jobs.txt"
  done
  diff -u "$out/tables-j1.txt" "$out/tables-j2.txt" \
    || { echo "tables differ between --jobs 1 and --jobs 2"; exit 1; }
  diff -u "$out/metrics-j1.json" "$out/metrics-j2.json" \
    || { echo "metrics differ between --jobs 1 and --jobs 2"; exit 1; }
  rm -rf "$out"
}

profile_io() {
  echo "== profile io =="
  out="$(mktemp -d)"
  cargo build --release -p pps-harness
  harness=./target/release/pps-harness
  mkdir "$out/empty"
  "$harness" --experiment table1 --scale 1 --mode strict \
    --profile-in "$out/empty" --log-level warn > "$out/table1.txt" \
    || { echo "table1 needed a saved profile"; exit 1; }
  for pass in out in; do
    "$harness" --experiment fig4 --bench wc --scale 1 --mode strict \
      --"profile-$pass" "$out/saved" --metrics-out "$out/metrics-$pass.json" \
      --log-level warn > "$out/tables-$pass.txt"
  done
  diff -u "$out/tables-out.txt" "$out/tables-in.txt" \
    || { echo "tables differ between --profile-out and --profile-in"; exit 1; }
  diff -u "$out/metrics-out.json" "$out/metrics-in.json" \
    || { echo "metrics differ between --profile-out and --profile-in"; exit 1; }
  rm -rf "$out"
}

serve_smoke() {
  echo "== serve smoke =="
  out="$(mktemp -d)"
  cargo build --release -p pps-serve

  # The daemon writes its bound address atomically once listening.
  boot - "$out/port" ./target/release/pps-serve --addr 127.0.0.1:0 --port-file "$out/port" \
    --metrics-out "$out/serve-metrics.json" --log-level warn
  daemon=$booted
  addr="$(cat "$out/port")"

  # 64 requests over 64 connections, every reply verified byte-identical
  # to the in-process pipeline; malformed frames must be rejected cleanly;
  # --shutdown drains the daemon via the in-band request.
  ./target/release/pps-client loadgen --addr "$addr" \
    --conns 64 --requests 64 --bench wc --scale 1 --scheme P4 \
    --probe-malformed --shutdown --out "$out/loadgen.json" --log-level warn

  # The in-band Shutdown must produce a clean, drained exit.
  if ! wait "$daemon"; then
    echo "daemon exited nonzero after drain"; exit 1
  fi
  test -s "$out/loadgen.json" || { echo "missing loadgen.json"; exit 1; }
  test -s "$out/serve-metrics.json" || { echo "missing serve metrics"; exit 1; }
  grep -q '"mismatches": 0' "$out/loadgen.json" || { echo "reply mismatches"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen.json" || { echo "loadgen errors"; exit 1; }
  grep -q '"throughput_rps"' "$out/loadgen.json" || { echo "no throughput"; exit 1; }
  grep -q 'serve.requests' "$out/serve-metrics.json" \
    || { echo "daemon metrics missing serve.requests"; exit 1; }
  rm -rf "$out"
}

drift_smoke() {
  echo "== drift smoke (continuous PGO) =="
  out="$(mktemp -d)"
  cargo build --release -p pps-serve

  # Fast sweep knobs so the loop closes in CI time: sweep every 50ms, no
  # recompile cooldown, drift-check once two profiles have merged.
  boot "$out/daemon.log" "$out/port" \
    ./target/release/pps-serve --addr 127.0.0.1:0 --port-file "$out/port" \
    --pgo-interval-ms 50 --pgo-cooldown-ms 0 --pgo-min-samples 2 \
    --metrics-out "$out/serve-metrics.json" --log-level info
  daemon=$booted
  addr="$(cat "$out/port")"

  # Phase A: steady mix with true profiles. Phase B (--drift): the mix's
  # Compile slot carries weight-inverted profiles, shifting the daemon's
  # aggregate until the sweeper recompiles and hot-swaps the unit. Every
  # reply in both phases is verified byte-identical to the in-process
  # pipeline; --shutdown then drains the daemon.
  ./target/release/pps-client loadgen --addr "$addr" \
    --conns 8 --requests 24 --bench wc --scale 1 --scheme P4 \
    --drift --shutdown \
    --out "$out/loadgen.json" --log-level warn

  if ! wait "$daemon"; then
    echo "daemon exited nonzero after drain"; cat "$out/daemon.log"; exit 1
  fi
  test -s "$out/loadgen.json" || { echo "missing loadgen.json"; exit 1; }
  grep -q '"mismatches": 0' "$out/loadgen.json" || { echo "reply mismatches under drift"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen.json" || { echo "loadgen errors under drift"; exit 1; }
  swaps="$(grep -o '"swaps": [0-9]*' "$out/loadgen.json" | head -1 | grep -o '[0-9]*$')"
  [ "${swaps:-0}" -ge 1 ] || { echo "no hot-swap observed (swaps=${swaps:-0})"; exit 1; }
  grep -q '"rollbacks": 0' "$out/loadgen.json" || { echo "rollback leak"; exit 1; }
  grep -q '"in_flight_final": 0' "$out/loadgen.json" \
    || { echo "recompile still in flight at drain"; exit 1; }
  grep -q 'pgo.profiles_merged' "$out/serve-metrics.json" \
    || { echo "daemon metrics missing pgo counters"; exit 1; }
  grep -q 'hot-swapped' "$out/daemon.log" || { echo "daemon log missing swap"; exit 1; }

  echo "drift smoke OK (swaps $swaps)"
  rm -rf "$out"
}

telemetry_smoke() {
  echo "== telemetry smoke =="
  out="$(mktemp -d)"
  cargo build --release -p pps-serve

  # Pass 1: telemetry fully off — the throughput baseline. Same loadgen
  # knobs as the telemetry-on pass so the two rps numbers are comparable.
  boot "$out/daemon-off.log" "$out/port-off" \
    ./target/release/pps-serve --addr 127.0.0.1:0 --port-file "$out/port-off" --log-level warn
  daemon=$booted
  ./target/release/pps-client loadgen --addr "$(cat "$out/port-off")" \
    --conns 32 --requests 160 --bench wc --scale 1 --scheme P4 \
    --probe-malformed --shutdown --out "$out/loadgen-off.json" --log-level warn
  if ! wait "$daemon"; then
    echo "baseline daemon exited nonzero"; cat "$out/daemon-off.log"; exit 1
  fi

  # Pass 2: scrape listener + access log + tail sampler all on, scraped
  # concurrently with the same load.
  boot "$out/daemon-on.log" "$out/port-on $out/tport" \
    ./target/release/pps-serve --addr 127.0.0.1:0 --port-file "$out/port-on" \
    --telemetry-addr 127.0.0.1:0 --telemetry-port-file "$out/tport" \
    --access-log "$out/access.jsonl" --log-level info
  daemon=$booted
  taddr="$(cat "$out/tport")"

  # No --shutdown here: a warm reply cache can finish the load before
  # `top` connects, so the daemon is drained only after `top` has run.
  ./target/release/pps-client loadgen --addr "$(cat "$out/port-on")" \
    --conns 32 --requests 160 --bench wc --scale 1 --scheme P4 \
    --probe-malformed --out "$out/loadgen-on.json" --log-level warn &
  load=$!

  # A plain-HTTP scrape mid-load: poll until the latency histogram is
  # live (the first requests may still be queued), timing the scrape.
  live=""
  for _ in $(seq 1 100); do
    t0="$(date +%s%N)"
    if curl -sf "http://$taddr/metrics" > "$out/metrics.prom" 2>/dev/null \
      && awk '/^serve_latency_ms_count/ { s += $NF } END { exit !(s > 0) }' "$out/metrics.prom"
    then
      scrape_ms="$(awk -v a="$t0" -v b="$(date +%s%N)" 'BEGIN { printf "%.2f", (b - a) / 1e6 }')"
      live=yes
      break
    fi
    kill -0 "$load" 2>/dev/null || break
    sleep 0.05
  done
  [ -n "$live" ] || { echo "serve_latency_ms never went live mid-load"; exit 1; }
  grep -q '^serve_latency_ms_bucket' "$out/metrics.prom" || { echo "no latency buckets"; exit 1; }
  grep -q '^serve_queue_capacity' "$out/metrics.prom" || { echo "missing gauges"; exit 1; }
  curl -sf "http://$taddr/health" > "$out/health.json" || { echo "curl /health failed"; exit 1; }
  grep -q '"schema":"pps-health"' "$out/health.json" || { echo "bad /health payload"; exit 1; }

  # `top` polls /metrics + /health of the live daemon; it hard-fails on
  # any exposition that does not parse and validate (monotone cumulative
  # buckets, +Inf == _count, finite numbers).
  ./target/release/pps-client top --addr "$taddr" \
    --interval-ms 100 --iterations 5 --watch-json > "$out/top.jsonl" \
    || { echo "pps-client top failed against the live daemon"; exit 1; }
  [ "$(wc -l < "$out/top.jsonl")" -eq 5 ] || { echo "top --watch-json line count"; exit 1; }
  grep -q '"schema":"pps-top"' "$out/top.jsonl" || { echo "top lines missing schema"; exit 1; }

  wait "$load" || { echo "loadgen failed with telemetry on"; exit 1; }
  ./target/release/pps-client loadgen --addr "$(cat "$out/port-on")" --requests 0 --conns 1 \
    --bench wc --scale 1 --scheme P4 --shutdown --log-level warn
  if ! wait "$daemon"; then
    echo "daemon exited nonzero after drain"; cat "$out/daemon-on.log"; exit 1
  fi

  # Replies stay byte-identical with telemetry on, and every reply —
  # including busy rejections and malformed-frame probes — produced
  # exactly one access-log line.
  grep -q '"mismatches": 0' "$out/loadgen-on.json" \
    || { echo "reply mismatches with telemetry on"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen-on.json" || { echo "loadgen errors"; exit 1; }
  replies="$(sed -n 's/.*drained: [0-9]* connections, \([0-9]*\) requests.*/\1/p' \
    "$out/daemon-on.log" | head -1)"
  lines="$(wc -l < "$out/access.jsonl")"
  [ -n "$replies" ] && [ "$lines" -eq "$replies" ] \
    || { echo "access log lines ($lines) != daemon replies (${replies:-?})"; exit 1; }
  grep -q '"trace_id"' "$out/access.jsonl" || { echo "access log missing trace ids"; exit 1; }
  grep -q 'telemetry: ' "$out/daemon-on.log" || { echo "daemon telemetry summary missing"; exit 1; }

  # The overhead target is 5%; a CI box may pin the scraper and the
  # workers to the same vCPU, so only a gross regression (>25%) fails.
  rps_off="$(grep -o '"throughput_rps": [0-9.]*' "$out/loadgen-off.json" | grep -o '[0-9.]*$')"
  rps_on="$(grep -o '"throughput_rps": [0-9.]*' "$out/loadgen-on.json" | grep -o '[0-9.]*$')"
  pct="$(awk -v off="$rps_off" -v on="$rps_on" \
    'BEGIN { printf "%.2f", (off > 0) ? (1 - on / off) * 100 : 0 }')"
  echo "telemetry: rps off $rps_off, on $rps_on, overhead ${pct}%, scrape ${scrape_ms}ms, $lines access-log lines"
  awk -v pct="$pct" 'BEGIN { exit !(pct <= 25.0) }' \
    || { echo "gross telemetry overhead (${pct}% > 25%)"; exit 1; }
  echo "telemetry smoke OK"
  rm -rf "$out"
}

kpath_smoke() {
  echo "== kpath smoke (k-iteration + interprocedural schemes) =="
  out="$(mktemp -d)"
  cargo build --release -p pps-serve -p pps-harness

  # Table regeneration: Figure 4 carries the Pk2/Pk3/Px4 columns, and
  # `diverge` is the train/test divergence sweep (true vs weight-inverted
  # vs phase-mixed path profiles). Scale 1 keeps this inside CI time.
  ./target/release/pps-harness --experiment fig4 --scale 1 --jobs 2 \
    --log-level warn > "$out/fig4.txt"
  grep -q 'Pk2/M4' "$out/fig4.txt" || { echo "fig4 missing Pk2 column"; exit 1; }
  grep -q 'Px4/M4' "$out/fig4.txt" || { echo "fig4 missing Px4 column"; exit 1; }
  ./target/release/pps-harness --experiment diverge --scale 1 \
    --log-level warn > "$out/diverge.txt"
  grep -q 'inv/true' "$out/diverge.txt" || { echo "diverge missing ratio columns"; exit 1; }
  grep -q 'Pk2' "$out/diverge.txt" || { echo "diverge missing Pk2 rows"; exit 1; }

  # The explorer end to end under the general path profiler (P4) and the
  # k-path collectors, recording a trace. (perfbench's profile-s4 workload
  # measures the profilers' overhead.)
  for s in P4 Pk2 Pk3; do
    ./target/release/pps-explore --bench wc --scheme "$s" --scale 2 \
      --trace-out "$out/trace-$s.json" --log-level warn > /dev/null
  done

  # The daemon end to end: a P4 and then a Pk2 load over one benchmark
  # (repeats must hit the reply cache), and a Px4 load on a call-heavy
  # benchmark (so the inline phase actually fires server-side), every
  # reply byte-verified against the in-process pipeline. Scheme names
  # arrive lowercased to exercise canonicalization through the wire.
  # Continuous PGO sweeps every 50 ms: the two steady loads bring profiles
  # of two kinds, and PGO keeps one aggregate per kind, so nothing drifts.
  boot "$out/daemon.log" "$out/port" \
    ./target/release/pps-serve --addr 127.0.0.1:0 --port-file "$out/port" \
    --pgo-interval-ms 50 --log-level warn
  daemon=$booted
  addr="$(cat "$out/port")"

  ./target/release/pps-client loadgen --addr "$addr" \
    --conns 8 --requests 48 --bench wc --scale 1 --scheme p4 \
    --out "$out/loadgen-p4.json" --log-level warn
  grep -q '"mismatches": 0' "$out/loadgen-p4.json" || { echo "P4 reply mismatches"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen-p4.json" || { echo "P4 loadgen errors"; exit 1; }

  ./target/release/pps-client loadgen --addr "$addr" \
    --conns 8 --requests 48 --bench wc --scale 1 --scheme pk2 \
    --out "$out/loadgen-pk2.json" --log-level warn
  grep -q '"mismatches": 0' "$out/loadgen-pk2.json" || { echo "Pk2 reply mismatches"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen-pk2.json" || { echo "Pk2 loadgen errors"; exit 1; }
  grep -q '"scheme": "Pk2"' "$out/loadgen-pk2.json" \
    || { echo "lowercase pk2 did not canonicalize"; exit 1; }

  ./target/release/pps-client ping --addr "$addr" > "$out/ping.json"
  hits="$(grep -o '"cache_hits":[0-9]*' "$out/ping.json" | grep -o '[0-9]*$')"
  misses="$(grep -o '"cache_misses":[0-9]*' "$out/ping.json" | grep -o '[0-9]*$')"
  [ "${hits:-0}" -gt 0 ] || { echo "Pk2 repeats never hit the reply cache"; exit 1; }

  # Four sweep intervals after the steady loads, nothing has recompiled.
  sleep 0.2
  ./target/release/pps-client ping --addr "$addr" > "$out/ping-pgo.json"
  recompiles="$(grep -o '"recompiles":[0-9]*' "$out/ping-pgo.json" | grep -o '[0-9]*$')"
  [ -n "$recompiles" ] || { echo "ping reports no recompiles count"; exit 1; }
  [ "$recompiles" -eq 0 ] || { echo "steady P4/Pk2 loads recompiled $recompiles units"; exit 1; }

  ./target/release/pps-client loadgen --addr "$addr" \
    --conns 4 --requests 16 --bench li --scale 1 --scheme Px4 \
    --shutdown --out "$out/loadgen-px4.json" --log-level warn
  if ! wait "$daemon"; then
    echo "daemon exited nonzero after drain"; cat "$out/daemon.log"; exit 1
  fi
  grep -q '"mismatches": 0' "$out/loadgen-px4.json" || { echo "Px4 reply mismatches"; exit 1; }
  grep -q '"errors": 0' "$out/loadgen-px4.json" || { echo "Px4 loadgen errors"; exit 1; }

  pk2_rps="$(grep -o '"throughput_rps": [0-9.]*' "$out/loadgen-pk2.json" | grep -o '[0-9.]*$')"
  px4_rps="$(grep -o '"throughput_rps": [0-9.]*' "$out/loadgen-px4.json" | grep -o '[0-9.]*$')"

  # Per-scheme cycle ratios averaged over the Figure 4 rows (columns:
  # benchmark, M4 cycles, P4, Pk2, Pk3, Px4, P4/M4, Pk2/M4, Px4/M4).
  awk '
    NR > 3 && NF == 9 { n += 1; p4 += $7; pk2 += $8; px4 += $9 }
    END {
      if (n == 0) { print "no fig4 data rows" > "/dev/stderr"; exit 1 }
      printf "fig4 scale 1: %d benchmarks, mean P4/M4 %.3f, Pk2/M4 %.3f, Px4/M4 %.3f\n", n, p4 / n, pk2 / n, px4 / n
    }' "$out/fig4.txt" || { echo "fig4 has no data rows"; exit 1; }
  echo "kpath smoke OK (Pk2 ${pk2_rps} rps, Px4 ${px4_rps} rps, cache hits $hits/$((hits + ${misses:-0})))"
  rm -rf "$out"
}

interp_diff() {
  echo "== interp differential lockdown (release) =="
  # The harness ships release builds, so the equivalence proof must hold
  # with optimizations on and debug assertions off. The same tests run in
  # debug as part of `gate`'s workspace tests.
  cargo test --release -q --test interp_diff
  cargo test --release -q --test guardrails
  cargo test --release -q --test golden_tables
}

interp_bench() {
  echo "== interp throughput smoke =="
  out="$(mktemp -d)"
  cargo build --release -p pps-harness

  run_fig4() { # engine-env outfile -> wall ms
    local t0 t1
    t0="$(date +%s%N)"
    env $1 target/release/pps-harness \
      --experiment fig4 --scale 4 --jobs 1 --log-level off > "$2"
    t1="$(date +%s%N)"
    echo $(( (t1 - t0) / 1000000 ))
  }

  fast_ms="$(run_fig4 "PPS_ENGINE=fast" "$out/fig4-fast.txt")"
  ref_ms="$(run_fig4 "PPS_ENGINE=reference" "$out/fig4-ref.txt")"
  diff -u "$out/fig4-fast.txt" "$out/fig4-ref.txt" \
    || { echo "fig4 output differs between engines"; exit 1; }

  # CI hosts vary wildly, so the live gate is gross-regression-only: the
  # fast engine must not lose to this tree's own reference path.
  echo "fig4 scale 4: fast engine ${fast_ms}ms, reference engine ${ref_ms}ms"
  awk -v fast="$fast_ms" -v ref="$ref_ms" 'BEGIN { exit !(fast <= 1.10 * ref) }' \
    || { echo "fast engine grossly regressed vs reference"; exit 1; }
  echo "interp bench OK"
  rm -rf "$out"
}

case "$stage" in
  gate) gate ;;
  obs-smoke) obs_smoke ;;
  parallel-harness) parallel_harness ;;
  profile-io) profile_io ;;
  serve-smoke) serve_smoke ;;
  drift-smoke) drift_smoke ;;
  telemetry-smoke) telemetry_smoke ;;
  kpath-smoke) kpath_smoke ;;
  interp-diff) interp_diff ;;
  interp-bench) interp_bench ;;
  all)
    gate
    obs_smoke
    parallel_harness
    profile_io
    interp_diff
    interp_bench
    kpath_smoke
    serve_smoke
    drift_smoke
    telemetry_smoke
    ;;
  *)
    echo "usage: ./ci.sh [gate|obs-smoke|parallel-harness|profile-io|interp-diff|interp-bench|kpath-smoke|serve-smoke|drift-smoke|telemetry-smoke|all]" >&2
    exit 2
    ;;
esac

echo "== CI green =="
