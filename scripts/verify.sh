#!/usr/bin/env bash
# Verification gate, shared by local runs and CI.
#
#   scripts/verify.sh              # every stage
#   scripts/verify.sh build test   # a selection
#
# Every cargo invocation runs --locked so neither local runs nor CI can
# drift from Cargo.lock.
#
# Stages:
#   build   release build of the whole workspace
#   test    workspace test suite (includes the fault-injection suite)
#   doc     rustdoc with warnings denied
#   clippy  clippy on all targets with warnings denied
#   fuzz    fixed-seed fault-injection smoke (panic-free pipeline gate)
#   bench   figures binary + BENCH_pipeline.json structural validation
#   batch   batch engine over the models corpus + BENCH_batch.json validation
#   audit   strict-audit bug sweep over the faulted corpus + BENCH_audit.json
#   lint    srclint source gate + decklint golden-corpus gate + BENCH_lint.json
#   lint-fix  auto-fix engine gate: fix-corpus round-trip + pipeline
#             parity, fixpoint property tests over the fault-mutator
#             corpus, LINTS.md drift check, BENCH_lint.json validation
#   large_mesh  100k-element sparse-CG smoke + BENCH_sparse.json
#   serve   deck service under concurrent load + BENCH_serve.json
#   cache   edit-replay stage-cache bench (warm ≡ cold) + BENCH_cache.json
#   perf    the benchmark, built as BENCHMARK.json builds it (own lockfile,
#           --locked --offline); every workload BENCHMARK.json names runs
#           for 1 s untraced and 1 s traced, and every result line must
#           report "correct": true and "failed": 0
#
# Every bench-producing stage finishes by running the consolidated
# bench_validate gate on its artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

validate_artifact() {
  cargo run --locked --release -p cafemio-bench --bin bench_validate -- "$1"
}

run_build() {
  echo "== build (release)"
  cargo build --locked --release --workspace
}

run_test() {
  echo "== tests"
  cargo test --locked -q --workspace
}

run_doc() {
  echo "== rustdoc (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace
}

run_clippy() {
  echo "== clippy (warnings are errors)"
  cargo clippy --locked --workspace --all-targets -- -D warnings
}

run_fuzz() {
  echo "== fuzz smoke (fixed-seed fault injection)"
  cargo run --locked --release -p cafemio-bench --bin fuzz_smoke
}

run_bench() {
  echo "== bench smoke (stage timings artifact)"
  # Regenerate only the timing profile (the filter matches no figure id).
  cargo run --locked --release -p cafemio-bench --bin figures -- NONE_SELECTED
  validate_artifact BENCH_pipeline.json
}

run_batch() {
  echo "== batch smoke (concurrent batch engine + throughput artifact)"
  cargo run --locked --release -p cafemio-bench --bin batch_bench
  validate_artifact BENCH_batch.json
}

run_audit() {
  echo "== audit sweep (strict per-stage invariants over the faulted corpus)"
  cargo run --locked --release -p cafemio-bench --bin audit_sweep
  validate_artifact BENCH_audit.json
}

run_lint() {
  echo "== static analysis (repo source gate + deck lint golden corpus)"
  cargo run --locked --release -p cafemio-bench --bin srclint
  cargo run --locked --release -p cafemio-bench --bin decklint -- --golden
  validate_artifact BENCH_lint.json
}

run_lint_fix() {
  echo "== lint-fix (auto-fix round-trip + parity gate + doc drift)"
  # The golden gate replays every before/after fix pair (idempotence +
  # mesh parity) and writes the fix counters into BENCH_lint.json.
  cargo run --locked --release -p cafemio-bench --bin decklint -- --golden
  # Fixpoint properties over the fault-mutator corpus.
  cargo test --locked -q --test lint_fix
  # The committed lint catalog must match the registry.
  cargo run --locked --release -p cafemio-bench --bin decklint -- --doc-check
  validate_artifact BENCH_lint.json
}

run_large_mesh() {
  echo "== large-mesh smoke (100k-element sparse-CG solve + residual audit)"
  cargo run --locked --release -p cafemio-bench --bin large_mesh_smoke
  validate_artifact BENCH_sparse.json
}

run_serve() {
  echo "== serve smoke (deck service under concurrent load + graceful drain)"
  cargo run --locked --release -p cafemio-bench --bin load_gen -- --connections 8
  validate_artifact BENCH_serve.json
}

run_perf() {
  echo "== perf (the benchmark from its own lockfile: every workload, untraced and traced)"
  local perf=(cargo run --release --locked --offline --quiet
    --manifest-path crates/bench/src/bin/perf/Cargo.toml --)
  # One workload per line inside BENCHMARK.json's "workloads" array.
  local workloads
  workloads=$(sed -n '/"workloads"/,/\]/s/.*{"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
  if [[ -z "$workloads" ]]; then
    echo "perf: BENCHMARK.json names no workloads" >&2
    exit 1
  fi
  local log=target/perf_smoke.log
  mkdir -p target
  : > "$log"
  local workload trace result
  for workload in $workloads; do
    for trace in 0 1; do
      result=$("${perf[@]}" --workload "$workload" --seconds 1 --trace "$trace" \
        | tee -a "$log" | tail -n 1)
      echo "$result"
      if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
        echo "perf: $workload (trace $trace) must report \"correct\": true and \"failed\": 0" >&2
        exit 1
      fi
    done
  done
}

run_cache() {
  echo "== cache replay (warm-vs-cold edit replay over the catalog)"
  cargo run --locked --release -p cafemio-bench --bin cache_replay
  validate_artifact BENCH_cache.json
}

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(build test doc clippy fuzz bench batch audit lint lint-fix large_mesh serve cache perf)
fi

for stage in "${stages[@]}"; do
  case "$stage" in
    build) run_build ;;
    test) run_test ;;
    doc) run_doc ;;
    clippy) run_clippy ;;
    fuzz) run_fuzz ;;
    bench) run_bench ;;
    batch) run_batch ;;
    audit) run_audit ;;
    lint) run_lint ;;
    lint-fix|lint_fix) run_lint_fix ;;
    large_mesh) run_large_mesh ;;
    serve) run_serve ;;
    cache) run_cache ;;
    perf) run_perf ;;
    *)
      echo "verify: unknown stage '$stage'" >&2
      exit 2
      ;;
  esac
done

echo "verify: all requested gates passed (${stages[*]})"
