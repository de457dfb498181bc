#!/usr/bin/env bash
# Tier-1 gate for the workspace: build, every package's tests,
# formatting, lints.
# Run from the repository root:  bash scripts/ci.sh
#
# Pass "soak" (or set CI_SOAK=1) to additionally run the seeded fault-soak
# lane — the #[ignore]d release-mode campaign soak in tests/campaign_soak.rs.
# It takes minutes of wall time, so it stays out of the default tier-1 path.
#
# Pass "benchmark" (or set CI_BENCHMARK=1) to rehearse the harness of
# record: `benchmark/rehearse.sh --smoke` builds `benchmark/` against the
# program's public API and runs all five workloads in both trace modes
# with every check on, leaving the tree as it found it — an API-pin break
# shows here before the judge's run.
#
# Pass "sentinel" (or set CI_SENTINEL=1) to run the numerical-integrity
# lane: the sentinel unit/property tests and the seeded heal/rollback/
# degrade scenarios, built with debug assertions enabled so integer
# overflow and debug invariants are checked too.
#
# Pass "layout" (or set CI_LAYOUT=1) to run the particle-storage lane:
# AoS/AoSoA bit-identity across worker counts, cross-layout checkpoint
# restore, exile migration, the `layout = aosoa` deck knob, and the
# sentinel rollback campaign pinned to AoSoA storage.
#
# Pass "kernel" (or set CI_KERNEL=1) to run the lane-kernel lane: the
# differential-oracle harness (lane-wide push/gather vs the scalar AoS
# oracle, including the deferred-scatter batch and block-pairing seams),
# the lane-math unit suite (the intrinsic body proptested against the
# portable one), the
# determinism matrix, the adaptive-sort-cadence determinism and
# checkpoint round-trip suites, and the fault-injected SRS rollback matrix
# (AoS oracle vs AoSoA at 1/2/4/8 pipelines) — all with debug assertions
# on — then the in-process relative speed gates, each timing both sides
# in one process (run-based ghost-plane walk >= 4x the per-element
# reference on the quasi-1D SRS grid; and, built with the shipping flags:
# two blocks per compute pass >= 1.15x one, per block; the whole step on
# the lane kernel >= the scalar body; `auto` cadence >= 0.85x fixed-25,
# one simulation with the variant toggled between batches); last, the
# lane-math, oracle and determinism suites again on the portable lane
# body (`target-cpu=x86-64`).
#
# Pass "sweep" (or set CI_SWEEP=1) to run the reflectivity-sweep-service
# lane: the WAL corruption matrix, the job-queue state machine, the
# scheduler/grid/curve suites, the distributed sweep-job adapter, the
# shrunk kill/resume and quarantine tests, and a [sweep] deck end to end
# through vpic-run with e5 consuming the curve artifact.
#
# Pass "transport" (or set CI_TRANSPORT=1) to run the socket-transport
# lane: the nanompi and vpic-parallel suites (wire/socket/bootstrap,
# coalesced halo exchange), the relative CRC speed gate, the
# local-vs-socket determinism matrix on the shipped SRS deck, the
# multi-process kill -9/rejoin recovery test, and the 16-plan socket
# fault soak.
#
# Pass "diag" (or set CI_DIAG=1) to run the diagnostics-pipeline lane:
# the bounded-queue/engine unit and property suites, the [diag] deck
# knobs, the sync-vs-async artifact bit-identity matrix (layout x
# 1/2/4/8 pipelines) with the kill-mid-measurement campaign replay,
# and the publication gate: on a real async LPI run at 245 762 particles
# snapshot publication is <= 3% of the step, with no stall and no drop.
#
# The "threads" lane (also part of the default, argument-less run; or set
# CI_THREADS=1) covers real worker threads: the vendored rayon's own
# tests, then the determinism / kernel-oracle / cadence suites and the
# AoS and AoSoA sort unit tests under RAYON_NUM_THREADS=1, 2 and 4 with
# debug assertions on (the scatter-slot and chunk-bounds asserts are live)
# — each suite additionally runs its own 1/2/4-thread axis through
# `install`, so every (pool width x scoped width) pair is exercised. A
# ThreadSanitizer pass over the shim tests and determinism.rs runs only
# where a nightly toolchain with rust-src is installed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [[ -z "${1:-}" || "${1:-}" == "threads" || "${CI_THREADS:-0}" == "1" ]]; then
    echo "==> threads lane (real worker threads, debug assertions on)"
    (
        # Setting RUSTFLAGS replaces .cargo/config.toml's flags wholesale,
        # so restate target-cpu=native (as the kernel lane does).
        export RUSTFLAGS="${RUSTFLAGS:-} -C target-cpu=native -C debug-assertions=on"
        cargo test --release -p rayon
        for threads in 1 2 4; do
            echo "--> RAYON_NUM_THREADS=$threads"
            export RAYON_NUM_THREADS=$threads
            cargo test --release -p vpic-core --test determinism
            cargo test --release -p vpic-core --test kernel_oracle
            cargo test --release -p vpic-core --test cadence
            cargo test --release -p vpic-core --lib sort
        done
    )
    if cargo +nightly --version >/dev/null 2>&1 &&
        rustup +nightly component list --installed 2>/dev/null | grep -q '^rust-src'; then
        echo "--> ThreadSanitizer (nightly, -Zbuild-std)"
        host=$(rustc +nightly -vV | sed -n 's/^host: //p')
        (
            export RUSTFLAGS="-Zsanitizer=thread -C target-cpu=native"
            export RAYON_NUM_THREADS=4
            cargo +nightly test -Zbuild-std --target "$host" -p rayon
            cargo +nightly test -Zbuild-std --target "$host" -p vpic-core --test determinism
        )
    else
        echo "--> ThreadSanitizer skipped: no nightly toolchain with rust-src"
    fi
fi

if [[ "${1:-}" == "soak" || "${CI_SOAK:-0}" == "1" ]]; then
    echo "==> fault-soak lane (release, ignored tests)"
    cargo test --release --test campaign_soak -- --ignored --nocapture
    cargo test --release --test srs_soak -- --ignored --nocapture
    cargo test --release --test sweep_soak -- --ignored --nocapture
fi

if [[ "${1:-}" == "sweep" || "${CI_SWEEP:-0}" == "1" ]]; then
    echo "==> sweep lane (crash-proof reflectivity-sweep service)"
    # WAL hardening: truncation/bit-flip/torn-tail matrix plus the
    # journal and job-queue unit suites.
    cargo test --release -p vpic-core --test journal_corruption
    cargo test --release -p vpic-core --lib journal
    cargo test --release -p vpic-core --lib queue
    # Orchestrator: grid/scheduler/curve suites, the distributed
    # sweep-job adapter, and the shrunk kill/resume + quarantine tests.
    cargo test --release -p vpic-lpi sweep
    cargo test --release -p vpic-parallel --lib sweepjob
    cargo test --release --test sweep_soak
    # End to end: a shrunk [sweep] deck through vpic-run (kill-safe
    # service path), then the e5 harness consuming the curve artifact.
    cargo build --release -p vpic -p vpic-bench
    deck=target/ci_sweep.deck
    cat > "$deck" <<'EOF'
kind = lpi
steps = 40
seed = 7
[laser]
a0 = 0.01
flat = 4
ppc = 4
[sweep]
a0 = 0.01, 0.02
checkpoint_interval = 10
[sentinel]
health_interval = 10
max_energy_growth = 100
EOF
    rm -rf target/ci_sweep_out
    ./target/release/vpic-run "$deck" target/ci_sweep_out
    ./target/release/e5_reflectivity \
        --from-curve target/ci_sweep_out/sweep/reflectivity_curve.json
fi

if [[ "${1:-}" == "transport" || "${CI_TRANSPORT:-0}" == "1" ]]; then
    echo "==> transport lane (socket worlds, kill -9 recovery)"
    # The whole of nanompi and vpic-parallel: wire codecs (bulk hooks,
    # slicing-by-8 CRC vs the byte-wise reference at every length and
    # offset), framing, bootstrap mismatches (version / world size /
    # fingerprint / silent peer), heartbeat failure detection, respawn
    # adoption, fault injection (incl. the duplicated-final-message
    # regression); the coalesced ghost exchange vs the per-component
    # reference on a 2x2x2 world over both transports, mis-sized plane
    # messages, the per-step message count, Migrant batches, the
    # socket-mode sweep-job launcher.
    cargo test --release -p nanompi -p vpic-parallel
    # Checkpoint/WAL framing shares the CRC kernel.
    cargo test --release -p vpic-core --lib crc32
    # Relative speed gate, both kernels timed in one process so host
    # drift cancels: slicing CRC >= 2x the table loop on 64 kB.
    cargo test --release -p nanompi --lib slicing_crc_is_at_least -- --ignored --nocapture
    # The transport/laser/sponge deck globals.
    cargo test --release -p vpic --lib transport_global
    cargo test --release -p vpic --lib campaign_laser_and_sponge
    # Determinism matrix: the shipped SRS campaign deck must land on the
    # same state fingerprint over both transports.
    cargo build --release -p vpic
    rm -rf target/ci_transport_local target/ci_transport_sock
    ./target/release/vpic-run decks/srs_campaign.deck target/ci_transport_local \
        --transport local
    ./target/release/vpic-run decks/srs_campaign.deck target/ci_transport_sock \
        --transport socket
    diff target/ci_transport_local/state_fingerprint.txt \
        target/ci_transport_sock/state_fingerprint.txt
    # Multi-process acceptance: 4 OS processes, rank 2 kill -9'd mid-run,
    # respawned with --rejoin, bit-identical to the local baseline — then
    # the 16-plan socket fault soak.
    cargo test --release --test socket_transport
    cargo test --release --test socket_transport -- --ignored --nocapture
fi

if [[ "${1:-}" == "diag" || "${CI_DIAG:-0}" == "1" ]]; then
    echo "==> diag lane (async in-situ diagnostics pipeline)"
    # Engine + bounded-queue suites: flush/drain ordering (proptest),
    # reset re-seeding, drop-mode accounting, windowed series retention.
    cargo test --release -p vpic-diag --lib pipeline
    cargo test --release -p vpic-diag --lib recorder
    # The `diag = off|sync|async` global and the [diag] section knobs.
    cargo test --release -p vpic --lib diag
    # The contract tests: sync-vs-async artifact bit-identity across
    # layout x pipeline count, and a seeded kill mid-measurement
    # whose rollback replay must not double-count a single sample.
    cargo test --release --test diag_pipeline
    # Publication gate: a share of one real `LpiRun`'s own step timings
    # (async sink, the srs-sweep a0 = 0.06 point at ppc 2048), not a
    # ratio of two runs.
    cargo test --release --test diag_pipeline async_publication_is_at_most -- --ignored --nocapture
fi

if [[ "${1:-}" == "sentinel" || "${CI_SENTINEL:-0}" == "1" ]]; then
    echo "==> sentinel lane (debug assertions on)"
    # Release speed with debug_assert!/overflow checks live, so the
    # monitors' own arithmetic is vetted while the seeded blow-up,
    # in-place heal, rollback and degrade scenarios run.
    export RUSTFLAGS="${RUSTFLAGS:-} -C debug-assertions=on"
    cargo test --release -p vpic-core sentinel
    cargo test --release --test sentinel_heal
    cargo test --release --test srs_soak shrunk
fi

if [[ "${1:-}" == "layout" || "${CI_LAYOUT:-0}" == "1" ]]; then
    echo "==> layout lane (AoSoA storage through the production path)"
    # Bit-identity of the two layouts at every worker count, plus the
    # store/AoSoA unit suites (counting sort, exile emission, round-trip).
    cargo test --release -p vpic-core --test determinism
    cargo test --release -p vpic-core --lib store
    cargo test --release -p vpic-core --lib aosoa
    # Cross-layout exile migration at a rank boundary, checkpoint restore
    # into the other layout, and the `layout = aosoa` deck knob end to end.
    cargo test --release -p vpic-parallel --lib migration_is_bitwise_identical_across_layouts
    cargo test --release -p vpic --lib layout
    # Sentinel heal/rollback on a `layout = aosoa` campaign must land on
    # the same bits as the AoS run — checkpoints are canonical AoS bytes.
    cargo test --release --test srs_soak aosoa_campaign_recovers
fi

if [[ "${1:-}" == "kernel" || "${CI_KERNEL:-0}" == "1" ]]; then
    echo "==> kernel lane (lane-wide push + gather vs the scalar oracle)"
    # Debug assertions live while the differential oracle runs. Setting
    # RUSTFLAGS replaces .cargo/config.toml's flags wholesale, so restate
    # target-cpu=native — without it the lane kernel would be rebuilt for
    # the baseline ISA and the suites below would test the portable body.
    export RUSTFLAGS="${RUSTFLAGS:-} -C target-cpu=native -C debug-assertions=on"
    # The tentpole harness: proptest-generated states (thermal, all-cross,
    # all-absorbed, denormal, one-live-tail) round-trip bit-identically
    # through the lane kernel against the pinned scalar AoS oracle.
    cargo test --release -p vpic-core --test kernel_oracle
    # Lane-math unit suite and the layout x kernel x pipeline-count
    # determinism matrix.
    cargo test --release -p vpic-core --lib lanes
    cargo test --release -p vpic-core --test determinism lane_kernel
    # Adaptive sort cadence: the controller's unit suite, then the
    # integration contract — identical decisions across pipelines /
    # layouts / kernels, checkpoint round-trip, convergence, and the
    # zero-crosser sort skip.
    cargo test --release -p vpic-core --lib cadence
    cargo test --release -p vpic-core --test cadence
    # The fault-injected SRS rollback matrix: a NaN upset mid-campaign
    # must recover onto the same bits on the AoS oracle and the AoSoA
    # lane kernel at every pipeline count.
    cargo test --release --test srs_soak srs_layout_matrix
    # Relative speed gate for the ghost surface, both walks timed in one
    # process so host drift cancels: the run-based sync_b >= 4x the
    # per-element reference on the quasi-1D SRS grid (291x1x1).
    cargo test --release -p vpic-core --lib run_based_sync_b_is_at_least -- --ignored --nocapture
    # The same for block pairing: the compute half of the lane kernel two
    # blocks per pass against one block per pass, >= 1.15x per block —
    # timed on the code as it ships (.cargo/config.toml's flags). With
    # debug assertions compiled in, std's pointer-precondition checks
    # sit on every row load of the gather and the body's register
    # allocation is another one altogether: the ratio reads 0.8-1.0.
    env -u RUSTFLAGS cargo test --release -p vpic-core --lib paired_compute_is_at_least -- --ignored --nocapture
    # The whole-step gates, same flags for the same reason: lane kernel >=
    # scalar body on AoSoA, and `auto` cadence >= 0.85x fixed-25 with a
    # sort falling due in every batch. One simulation each, the variant
    # toggled between A-B-B-A batches — never two sims side by side.
    env -u RUSTFLAGS cargo test --release -p vpic-core --test cadence -- --ignored --nocapture
    # The same suites on the portable lane body: a baseline x86-64 target
    # has no AVX2, so `lanes.rs` compiles its element-wise loops — the
    # only body other targets get, and the oracle the intrinsic body is
    # proptested against above. It must still be bit-identical to the
    # scalar AoS oracle, through the same two-blocks-per-pass compute and
    # the same branch-free scatter (no code path is chosen by the body).
    (
        export RUSTFLAGS="-C target-cpu=x86-64 -C debug-assertions=on"
        cargo test --release -p vpic-core --lib lanes
        cargo test --release -p vpic-core --test kernel_oracle
        cargo test --release -p vpic-core --test determinism
    )
fi

if [[ "${1:-}" == "benchmark" || "${CI_BENCHMARK:-0}" == "1" ]]; then
    echo "==> benchmark lane (rehearsal of the harness of record)"
    bash benchmark/rehearse.sh --smoke
fi

echo "CI OK"
