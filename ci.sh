#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, the full test suite, the chaos
# sweeps under a pinned seed, CLI smoke runs, and the parallel/metrics
# determinism gates. Run from the repo root; exits nonzero on the first
# failure.
#
# Opt-in extras:
#   MODSOC_BENCH_GATE=1 ./ci.sh   also runs the serve throughput gate
#                                 (loadgen --check BENCH_serve.json).
#                                 Keep it off on noisy/shared machines; to
#                                 re-baseline after an intentional perf
#                                 change, rerun loadgen with --json
#                                 BENCH_serve.json (see DESIGN.md §15) and
#                                 commit the refreshed file. Engine and
#                                 TAM timing live in perfbench/ (see
#                                 BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  # A failed gate must not leave daemons behind:
  # a surviving serve process keeps its port bound and makes the next
  # local run fail on bind. Kill every registered background pid before
  # dropping the workdir.
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors)"
# Catches dangling intra-doc links left behind by a deleted module or
# function. The vendored proptest/rand shims are excluded: they are
# stand-ins with their own doc warnings, not project code.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --exclude proptest --exclude rand

echo "== cargo test (workspace)"
cargo test -q --workspace

echo "== chaos suite (fixed seed)"
# The chaos harness is seed-deterministic; PROPTEST_SEED pins the
# vendored proptest streams on top so the whole gate is reproducible.
PROPTEST_SEED=20080310 cargo test -q --test chaos --test parser_fuzz

echo "== perfbench (builds and unit-tests against the workspace API)"
# perfbench is its own package outside the workspace; it links the
# public API of the atpg/core/tam/store crates, so a change there that
# breaks it must fail here rather than only in the benchmark run.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== CLI smoke runs"
cargo build -q --release --bin modsoc
./target/release/modsoc --version
./target/release/modsoc index testdata/soc2.soc
./target/release/modsoc experiment soc2 --jobs 4 > "$workdir/soc2_smoke.txt"
grep -q "monolithic ATPG" "$workdir/soc2_smoke.txt" \
  || { echo "FAIL: experiment soc2 produced no monolithic summary"; exit 1; }
./target/release/modsoc analyze testdata/soc1.soc --exclude-chip-pins --measured-tmono 216 > "$workdir/soc1_smoke.txt"
grep -q "45,183" "$workdir/soc1_smoke.txt" \
  || { echo "FAIL: soc1.soc analyze lost the Table 1 modular TDV (45,183)"; exit 1; }

echo "== paper reproduction golden (modsoc repro at --jobs 1, 2 and 4)"
# Every table, figure and extension section, diffed against the
# committed stdout. Pins the live SOC1/SOC2/at-speed pattern counts and
# checks that repro output is identical at any --jobs value (with 2
# workers the monolithic run, claimed first, overlaps queued cores).
# After an intentional change to a printed number, regenerate with
# `modsoc repro --jobs 1 > testdata/repro.txt` and commit the diff.
for jobs in 1 2 4; do
  ./target/release/modsoc repro --jobs "$jobs" > "$workdir/repro$jobs.txt" 2>/dev/null
  diff testdata/repro.txt "$workdir/repro$jobs.txt" \
    || { echo "FAIL: modsoc repro --jobs $jobs diverges from testdata/repro.txt"; exit 1; }
done

echo "== parallel determinism gate (--jobs 1 vs --jobs 2 and 4)"
# The worker pool's contract: reports are byte-identical at any --jobs
# value. Diverging output here means an order-dependent merge crept in.
./target/release/modsoc analyze testdata/soc2.soc --keep-going --jobs 1 > "$workdir/jobs1.txt"
./target/release/modsoc experiment mini --jobs 1 > "$workdir/exp1.txt"
for jobs in 2 4; do
  ./target/release/modsoc analyze testdata/soc2.soc --keep-going --jobs "$jobs" > "$workdir/jobs$jobs.txt"
  diff "$workdir/jobs1.txt" "$workdir/jobs$jobs.txt" \
    || { echo "FAIL: analyze output diverges between --jobs 1 and --jobs $jobs"; exit 1; }
  ./target/release/modsoc experiment mini --jobs "$jobs" > "$workdir/exp$jobs.txt"
  diff "$workdir/exp1.txt" "$workdir/exp$jobs.txt" \
    || { echo "FAIL: experiment output diverges between --jobs 1 and --jobs $jobs"; exit 1; }
done

echo "== metrics determinism gate (counters identical at --jobs 1 vs --jobs 2 and 4)"
# The metrics layer's contract: every report field except wall times
# (*_ms), the sched objects and the jobs field itself is deterministic.
# The serializer puts each volatile field on its own line so this filter
# strips exactly the volatile subset.
./target/release/modsoc experiment mini --jobs 1 --metrics "$workdir/m1.json" > /dev/null
for jobs in 2 4; do
  ./target/release/modsoc experiment mini --jobs "$jobs" --metrics "$workdir/m$jobs.json" > /dev/null
  diff <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m1.json") \
       <(grep -vE '"(sched|jobs)": |_ms":|"store_' "$workdir/m$jobs.json") \
    || { echo "FAIL: metrics counters diverge between --jobs 1 and --jobs $jobs"; exit 1; }
done

echo "== tam co-optimizer gate (smoke + --jobs determinism)"
# The rectangle packer's contract: the full comparison table is a pure
# function of (SOC, width, chains, ceiling) — byte-identical at any
# --jobs value — and the power-constrained variant stays feasible on a
# reconstructed ITC'02 SOC.
./target/release/modsoc tam soc2 --width 16 > "$workdir/tam_soc2.txt"
grep -q "soc2" "$workdir/tam_soc2.txt" \
  || { echo "FAIL: tam soc2 produced no comparison row"; cat "$workdir/tam_soc2.txt"; exit 1; }
./target/release/modsoc tam d695 --width 16 --power-ceiling 2000 > "$workdir/tam_d695.txt"
grep -q "constrained" "$workdir/tam_d695.txt" \
  || { echo "FAIL: tam d695 produced no constrained column"; cat "$workdir/tam_d695.txt"; exit 1; }
./target/release/modsoc tam --width 16 --jobs 1 > "$workdir/tam_j1.txt"
./target/release/modsoc tam --width 16 --jobs 4 > "$workdir/tam_j4.txt"
diff "$workdir/tam_j1.txt" "$workdir/tam_j4.txt" \
  || { echo "FAIL: tam table diverges between --jobs 1 and --jobs 4"; exit 1; }

echo "== store cache determinism gate (cold vs warm, --jobs 1, 2 and 4)"
# The result store's contract: a warm run is byte-identical to the cold
# one on stdout at any --jobs value, and every engine run (4 cores +
# monolithic on soc2) is served from the cache.
store="$workdir/store"
./target/release/modsoc experiment soc2 --jobs 4 --store "$store" > "$workdir/cold.txt" 2> "$workdir/cold_err.txt"
grep -q "monolithic ATPG" "$workdir/cold.txt" \
  || { echo "FAIL: cold store run produced no monolithic summary"; exit 1; }
grep -q "store: 0 hits, 5 misses, 5 writes" "$workdir/cold_err.txt" \
  || { echo "FAIL: cold run did not write 5 entries"; cat "$workdir/cold_err.txt"; exit 1; }
for jobs in 1 2 4; do
  ./target/release/modsoc experiment soc2 --jobs "$jobs" --store "$store" \
    > "$workdir/warm$jobs.txt" 2> "$workdir/warm${jobs}_err.txt"
  grep -q "store: 5 hits, 0 misses" "$workdir/warm${jobs}_err.txt" \
    || { echo "FAIL: warm --jobs $jobs run missed the cache"; cat "$workdir/warm${jobs}_err.txt"; exit 1; }
  diff "$workdir/cold.txt" "$workdir/warm$jobs.txt" \
    || { echo "FAIL: warm --jobs $jobs report differs from the cold run"; exit 1; }
done

echo "== campaign resume gate"
# A re-invoked campaign must skip every journaled unit.
printf '%s' '{"schema":1,"name":"ci","units":[{"name":"m7","soc":"mini","seed":7},{"name":"m9","soc":"mini","seed":9}]}' > "$workdir/campaign.json"
./target/release/modsoc campaign "$workdir/campaign.json" --store "$store" > "$workdir/camp1.txt" 2>/dev/null
grep -q " ok " "$workdir/camp1.txt" \
  || { echo "FAIL: first campaign run completed no units"; cat "$workdir/camp1.txt"; exit 1; }
./target/release/modsoc campaign "$workdir/campaign.json" --store "$store" > "$workdir/camp2.txt" 2>/dev/null
[ "$(grep -c "skipped" "$workdir/camp2.txt")" -eq 2 ] \
  || { echo "FAIL: re-invoked campaign did not skip its journaled units"; cat "$workdir/camp2.txt"; exit 1; }
# The store the runs leave behind sweeps clean, and a size-bounded GC
# pass keeps it clean (journals are never collected).
./target/release/modsoc store verify "$store" > /dev/null \
  || { echo "FAIL: campaign store has corrupt entries"; exit 1; }
./target/release/modsoc store gc "$store" --max-bytes 8192 > "$workdir/gc.txt" 2>/dev/null
grep -q "store gc: scanned" "$workdir/gc.txt" \
  || { echo "FAIL: store gc produced no report"; cat "$workdir/gc.txt"; exit 1; }
./target/release/modsoc store verify "$store" > /dev/null \
  || { echo "FAIL: store corrupt after gc"; exit 1; }

echo "== serve gate (daemon parity, shedding, graceful drain)"
# The service layer's contract: a served analyze is byte-identical to
# the CLI, a mixed workload passes the loadgen corruption check, a
# flooded daemon sheds with 503 (never hangs), and both shutdown paths
# (POST /shutdown, SIGTERM) drain and exit 0.
serve_store="$workdir/serve_store"
./target/release/modsoc serve --addr 127.0.0.1:0 --workers 2 --store "$serve_store" \
  > "$workdir/serve.log" 2>/dev/null &
serve_pid=$!
pids+=("$serve_pid")
for _ in $(seq 1 50); do
  grep -q "listening on" "$workdir/serve.log" && break
  sleep 0.1
done
serve_addr="$(sed -n 's|.*http://||p' "$workdir/serve.log")"
[ -n "$serve_addr" ] || { echo "FAIL: serve did not report its address"; exit 1; }
./target/release/modsoc analyze testdata/soc1.soc > "$workdir/serve_cli.txt"
./target/release/modsoc loadgen --addr "$serve_addr" --analyze-file testdata/soc1.soc \
  > "$workdir/serve_http.txt"
diff "$workdir/serve_cli.txt" "$workdir/serve_http.txt" \
  || { echo "FAIL: served analyze diverges from CLI stdout"; exit 1; }
./target/release/modsoc loadgen --addr "$serve_addr" --requests 48 --concurrency 8 --seed 20080310 \
  > "$workdir/loadgen.txt"
grep -q "zero-corruption check: PASS" "$workdir/loadgen.txt" \
  || { echo "FAIL: loadgen corruption check"; cat "$workdir/loadgen.txt"; exit 1; }
./target/release/modsoc loadgen --addr "$serve_addr" --shutdown > /dev/null
wait "$serve_pid" \
  || { echo "FAIL: daemon did not exit 0 after POST /shutdown"; exit 1; }

# A constrained second daemon must shed under flood and drain on SIGTERM.
./target/release/modsoc serve --addr 127.0.0.1:0 --workers 1 --queue 2 \
  > "$workdir/serve2.log" 2>/dev/null &
serve2_pid=$!
pids+=("$serve2_pid")
for _ in $(seq 1 50); do
  grep -q "listening on" "$workdir/serve2.log" && break
  sleep 0.1
done
serve2_addr="$(sed -n 's|.*http://||p' "$workdir/serve2.log")"
./target/release/modsoc loadgen --addr "$serve2_addr" --flood 24 > "$workdir/flood.txt"
grep -q "shed with 503" "$workdir/flood.txt" \
  || { echo "FAIL: flood report missing"; cat "$workdir/flood.txt"; exit 1; }
grep -q "retry-after on all 503s: PASS" "$workdir/flood.txt" \
  || { echo "FAIL: 503s without Retry-After"; cat "$workdir/flood.txt"; exit 1; }
kill -TERM "$serve2_pid"
wait "$serve2_pid" \
  || { echo "FAIL: daemon did not exit 0 after SIGTERM"; exit 1; }

echo "== serve keep-alive parity smoke (transport must never change bytes)"
# One keep-alive + batching daemon serves the same seeded mixed workload
# over both transports; the per-request response hashes must match line
# for line, and the persistent client must actually reuse its sockets.
ka_store="$workdir/ka_store"
./target/release/modsoc serve --addr 127.0.0.1:0 --workers 2 --keep-alive --batch-max 4 \
  --store "$ka_store" > "$workdir/serve3.log" 2>/dev/null &
serve3_pid=$!
pids+=("$serve3_pid")
for _ in $(seq 1 50); do
  grep -q "listening on" "$workdir/serve3.log" && break
  sleep 0.1
done
serve3_addr="$(sed -n 's|.*http://||p' "$workdir/serve3.log")"
[ -n "$serve3_addr" ] || { echo "FAIL: keep-alive serve did not report its address"; exit 1; }
./target/release/modsoc loadgen --addr "$serve3_addr" --requests 48 --concurrency 8 --seed 20080310 \
  --bodies-out "$workdir/bodies_close.txt" > /dev/null
./target/release/modsoc loadgen --addr "$serve3_addr" --requests 48 --concurrency 8 --seed 20080310 \
  --keep-alive --bodies-out "$workdir/bodies_ka.txt" > "$workdir/loadgen_ka.txt"
diff "$workdir/bodies_close.txt" "$workdir/bodies_ka.txt" \
  || { echo "FAIL: response bodies differ between close and keep-alive transports"; exit 1; }
grep -q "zero-corruption check: PASS" "$workdir/loadgen_ka.txt" \
  || { echo "FAIL: keep-alive loadgen corruption check"; cat "$workdir/loadgen_ka.txt"; exit 1; }
grep -qE "keep-alive: 48 requests over [0-9]+ connections \([1-9][0-9]* reused\)" "$workdir/loadgen_ka.txt" \
  || { echo "FAIL: keep-alive transport reported no socket reuse"; cat "$workdir/loadgen_ka.txt"; exit 1; }

if [[ "${MODSOC_BENCH_GATE:-0}" == "1" ]]; then
  echo "== serve throughput gate (loadgen --check BENCH_serve.json, 50% tolerance)"
  # Warm-up pass first: the committed baseline was measured against a
  # warm store, so the gate must be too.
  ./target/release/modsoc loadgen --addr "$serve3_addr" --requests 128 --concurrency 2 \
    --seed 20080310 --keep-alive > /dev/null
  ./target/release/modsoc loadgen --addr "$serve3_addr" --requests 128 --concurrency 2 \
    --seed 20080310 --keep-alive --label keepalive --check BENCH_serve.json --tolerance 0.5 \
    | tail -3
else
  echo "== serve throughput gate skipped (set MODSOC_BENCH_GATE=1 to enable)"
fi
./target/release/modsoc loadgen --addr "$serve3_addr" --shutdown > /dev/null
wait "$serve3_pid" \
  || { echo "FAIL: keep-alive daemon did not exit 0 after POST /shutdown"; exit 1; }

echo "CI gate passed."
