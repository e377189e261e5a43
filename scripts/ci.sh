#!/usr/bin/env bash
# CI entry point: configure, build, and run the tier-1 test suite, with
# -Werror applied to the files this PR introduced (TSUNAMI_WERROR).
#
# Ten passes:
#  1. the default build (SIMD tiers compiled in, runtime-dispatched; column
#     blocks FOR + bit-width encoded), plus a compile-only build of
#     perfbench/, the repository benchmark, so a library API change that
#     breaks the benchmark fails here rather than at the benchmark gate;
#  2. a -DTSUNAMI_DISABLE_SIMD=ON build that pins the portable scalar
#     kernel, so the fallback path can never silently rot;
#  3. a -DTSUNAMI_DISABLE_ENCODING=ON build that pins every column block to
#     raw 64-bit storage, so the unencoded scan path stays exercised;
#  4. the examples (including the batch-API and query-service demos, which
#     self-check against per-query execution) plus a ctest run under
#     TSUNAMI_FORCE_SCALAR, exercising the runtime-degraded dispatch path
#     in the full-SIMD binary;
#  5. a ThreadSanitizer build gating the concurrency suites (work-stealing
#     scheduler, query service, the runner and parallel builds, the batch
#     API, whose scheduler workers scan live delta chunks, the network
#     front end, whose query completions cross from scheduler workers to
#     the event-loop thread, and the WAL and resource suites, whose fold
#     hook, writers racing compaction and scrubber repair read and publish
#     snapshots from other threads) — the serving path is lock-and-deque
#     code and must stay race-clean, not just correct. Built with
#     -DTSUNAMI_FAULT_INJECTION=ON so the fault-injection soaks (thrown
#     chunks, flipped checksums, injected stalls, wire faults) run *under*
#     TSan: the error paths must be as race-clean as the happy path;
#  6. an AddressSanitizer+UBSanitizer build, also with fault injection on,
#     over the robustness-relevant suites — corrupt-block quarantine,
#     short-read/truncation handling, and exception unwinding through the
#     scheduler (failed jobs thrown out of the runner, the batch loop, and
#     parallel builds) must not scribble, leak-on-throw, or hit UB — plus
#     the property suite, whose extreme-value sweeps drive every SUM path
#     through int64 wraparound, the index-build suites (optimizer,
#     grid, outlier, skew), whose index arithmetic the cost model's
#     per-candidate layout, the fence selection and the clustering
#     embeddings rewrite, consistency_test, which runs every index's
#     scans end to end, the three baseline suites, whose planners emit
#     through the task-coalescing helper, and the secondary-index and
#     router suites, whose plans carry zero-task key probes and routed
#     access paths through FinishPlan and PlanTarget. Under ASan a scan
#     kernel load past a slice's last code is a heap-buffer-overflow
#     (scan_kernel_test scans stores whose last block ends where the code
#     payload ends).
#     UBSan is fatal here (-fno-sanitize-recover=undefined), so passes 6,
#     7, 9 and 10 fail on any report;
#  7. the network front end under the same ASan+UBSan+FI build:
#     tsunami_serverd + net_test (which gates the wire-level NetFaultTest
#     fault soaks on TSUNAMI_FAULT_INJECTION), a loopback daemon smoke via
#     tsunami_serverd itself (SIGTERM drain must exit 0), and the
#     1000-connection fault-injected `query_service --soak --net` soak;
#  8. the concurrent-ingest path under the TSan+FI build: ingest_test rides
#     in pass 5/6, and `query_service --soak --ingest` races writers,
#     readers, and grid reorganization with the ingest fault sites
#     (ingest.compact_throw, ingest.swap_delay) armed — reference-counted
#     snapshot publication must stay race-clean under injected aborts and
#     widened swap windows, and the quiesced replay must be bit-identical;
#  9. the durability path under the ASan+UBSan+FI build: wal_test (whose
#     WalFaultTest suite arms wal.torn_write / wal.fsync_fail /
#     durability.checkpoint_throw and requires the log to fail closed) and
#     the `query_service --soak --durable` crash-recovery soak, which
#     SIGKILLs a durable-ingest child mid-stream three times and verifies
#     every acked batch survives recovery, nothing is double-applied, and a
#     quiesced query replay is bit-identical to a full-scan reference;
# 10. resource pressure under the same ASan+UBSan+FI build: resource_test
#     (governor accounting, backpressure determinism, the fs.enospc sweep
#     over all four filesystem sites, and the scrubber's find-before-touch
#     repair) plus the `query_service --soak --pressure` soak, which runs
#     memory budgets, WAL-disk budgets, disk-full latch/re-arm, and
#     background scrubbing against racing writers.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DTSUNAMI_WERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Compile-only, without -Werror: libstdc++'s -Wrestrict warnings fire in
# perfbench at -O2.
cmake -S perfbench -B build-perfbench
cmake --build build-perfbench -j"$(nproc)" --target perfbench

cmake -B build-nosimd -S . -DTSUNAMI_WERROR=ON -DTSUNAMI_DISABLE_SIMD=ON
cmake --build build-nosimd -j"$(nproc)"
ctest --test-dir build-nosimd --output-on-failure -j"$(nproc)"

# Third pass: raw-block (no narrowing) build — scans, serialization, and
# size reporting must hold without the codec layer.
cmake -B build-noenc -S . -DTSUNAMI_WERROR=ON -DTSUNAMI_DISABLE_ENCODING=ON
cmake --build build-noenc -j"$(nproc)"
ctest --test-dir build-noenc --output-on-failure -j"$(nproc)"

# Fourth pass: examples build + degraded-dispatch run.
cmake --build build -j"$(nproc)" --target \
  batch_api query_service quickstart sql_shell access_paths index_explorer
./build/batch_api
./build/query_service
TSUNAMI_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure \
  -j"$(nproc)"

# Fifth pass: ThreadSanitizer on the scheduler/service suites and on the
# WAL and resource suites, whose threads read and publish snapshots, fault
# injection compiled in so the injected-fault soaks run under TSan.
cmake -B build-tsan -S . -DTSUNAMI_WERROR=ON -DTSUNAMI_SANITIZE=thread \
  -DTSUNAMI_FAULT_INJECTION=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j"$(nproc)" --target \
  task_scheduler_test query_service_test exec_test ingest_test net_test \
  batch_api_test wal_test resource_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" -R \
  'task_scheduler_test|query_service_test|exec_test|ingest_test|net_test|batch_api_test|wal_test|resource_test'

# Sixth pass: ASan+UBSan on the robustness suites (storage integrity, file
# error paths, scheduler exception-safety, service overload/degrade) and on
# the index-build arithmetic (the cost model's per-candidate layout, the
# outlier fence selection, the clustering embeddings), the baselines'
# range planners and the secondary-index and router plans, fault injection
# compiled in. Scoped to the relevant
# suites: this is a 1-core CI host and a full ASan ctest would double the
# wall time for no new signal.
cmake -B build-asan -S . -DTSUNAMI_WERROR=ON \
  -DTSUNAMI_SANITIZE=address,undefined -DTSUNAMI_FAULT_INJECTION=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j"$(nproc)" --target \
  io_test encoded_column_test storage_test scan_kernel_test \
  task_scheduler_test query_service_test tsunami_test ingest_test \
  exec_test batch_api_test property_test optimizer_test grid_test \
  outlier_test skew_test consistency_test baselines_test \
  related_baselines_test learned_baselines_test secondary_test router_test
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" -R \
  'io_test|encoded_column_test|storage_test|scan_kernel_test|task_scheduler_test|query_service_test|tsunami_test|ingest_test|exec_test|batch_api_test|property_test|optimizer_test|grid_test|outlier_test|skew_test|consistency_test|baselines_test|related_baselines_test|learned_baselines_test|secondary_test|router_test'

# Seventh pass: the network front end, reusing the ASan+UBSan+FI build.
# net_test's NetFaultTest suite (injected accept failures, short writes,
# RSTs, torn frames) and io_test's short-read sweep only compile with fault
# injection on, so this is where the wire-level error paths run sanitized.
cmake --build build-asan -j"$(nproc)" --target \
  net_test tsunami_serverd query_service
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" -R net_test

# Daemon smoke: boot tsunami_serverd on an ephemeral port, then SIGTERM —
# the graceful drain must run to completion and exit 0.
./build-asan/tsunami_serverd --rows=50000 --port=0 >serverd-smoke.log 2>&1 &
serverd_pid=$!
for _ in $(seq 1 120); do
  grep -q "listening" serverd-smoke.log && break
  sleep 0.5
done
grep -q "listening" serverd-smoke.log
kill -TERM "$serverd_pid"
wait "$serverd_pid"
cat serverd-smoke.log
rm -f serverd-smoke.log

# The >=1000-connection loopback soak with the wire + service fault sites
# armed: zero hangs, zero leaks (ASan), zero wrong results (fail-closed
# predicate inside the binary).
./build-asan/query_service --soak --net

# Eighth pass: the concurrent-ingest soak under TSan with the ingest fault
# sites armed — writers, readers, and grid reorganization race while
# compactions abort (ingest.compact_throw must fail closed) and the
# snapshot-publish critical section stalls (ingest.swap_delay widens the
# race window TSan watches). The binary's own invariants (monotone
# visibility, fail-closed floor, quiesced bit-identical replay) plus TSan's
# race detection are the pass/fail signal.
cmake --build build-tsan -j"$(nproc)" --target query_service
./build-tsan/query_service --soak --ingest

# Ninth pass: durability under ASan+UBSan+FI. wal_test carries the
# fail-closed fault suite (torn group writes, fsync failures, checkpoint
# aborts); the --durable soak is the kill -9 test — a forked child ingests
# with durable acks and armed WAL faults, the parent SIGKILLs it mid-stream,
# recovers the directory in-process, and fails unless every acked insert is
# present exactly once and a quiesced replay matches a never-crashed
# full-scan reference bit for bit.
cmake --build build-asan -j"$(nproc)" --target wal_test query_service
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" -R wal_test
./build-asan/query_service --soak --durable

# Tenth pass: resource pressure under ASan+UBSan+FI. resource_test sweeps
# injected fs.enospc over all four filesystem sites (WAL write, WAL fsync,
# checkpoint rename, manifest write) and requires the latch/drain/re-arm
# protocol to hold bit-exactly; the --pressure soak then races concurrent
# writers against a delta-backlog budget (gov.mem_pressure armed), a
# Scrubber against scrub.corrupt_block rot, and a durable store against a
# WAL-disk budget plus a persistent fs.enospc storm — admission control,
# not luck, must pace the writers, and the quiesced replays must match a
# full-scan reference bit for bit with zero leaks and zero UB.
cmake --build build-asan -j"$(nproc)" --target resource_test query_service
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" -R resource_test
./build-asan/query_service --soak --pressure
