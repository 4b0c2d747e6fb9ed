#!/usr/bin/env sh
# Repository gate: formatting, lints, build, tests. Everything runs offline
# (no registry access — the only external crate, proptest, is vendored as a
# shim under vendor/ behind an off-by-default feature).
#
# Usage: scripts/check.sh [--docs]
#   --docs   additionally build the API docs with rustdoc warnings denied
#            (the same gate CI runs; catches broken intra-doc links).
set -eu

cd "$(dirname "$0")/.."

RUN_DOCS=0
for arg in "$@"; do
    case "$arg" in
    --docs) RUN_DOCS=1 ;;
    *)
        echo "unknown flag: $arg (supported: --docs)" >&2
        exit 2
        ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test (with the property tests, as CI runs them) =="
cargo test -q --workspace --features proptest

echo "== fault campaign (smoke: detection + coverage vs committed baseline) =="
# Emits the Chrome trace, flight-recorder captures and the coverage matrix
# under target/experiments/; fails if any fault class goes undetected OR
# if a (fault class x supervisor transition) cell exercised by the
# committed COVERAGE_fault_campaign.csv baseline goes dark.
cargo run --release -q -p ascp-bench --bin fault_campaign -- --smoke --threads 4 \
    --check-coverage COVERAGE_fault_campaign.csv
cp target/experiments/fault_campaign.csv target/experiments/fault_campaign.reference.csv

echo "== sensor datasheet (smoke: three sensor families + wire-fault coverage) =="
# One campaign sweeps the gyro, the MAP/IAT pressure/temperature pair and
# the capacitive accelerometer through the shared conditioning portfolio;
# fails if a sensor family fails to characterize, a scheduled wire fault
# (not_connected / short_to_ground / reverse_polarity) goes undetected, or
# a cell of the committed COVERAGE_sensor_datasheet.csv baseline goes dark.
cargo run --release -q -p ascp-bench --bin sensor_datasheet -- --smoke --threads 4 \
    --check-coverage COVERAGE_sensor_datasheet.csv
SD_REFERENCE=target/experiments/sensor_datasheet.reference.csv
cp target/experiments/sensor_datasheet.csv "$SD_REFERENCE"

echo "== sensor datasheet under chaos + truncated-journal resume (byte-identical CSV) =="
# Gyro and channel scenarios share the runner's supervision. Seeded
# worker panics/stalls must be invisible after the retry; a journal cut
# mid-record (what a kill -9 leaves behind — the ~0.5 s smoke is too
# short to kill reliably) must resume some scenarios and reproduce the
# undisturbed CSV.
target/release/sensor_datasheet --smoke --threads 4 --chaos >/dev/null
cmp target/experiments/sensor_datasheet.csv "$SD_REFERENCE" \
    || { echo "sensor_datasheet chaos CSV differs from the undisturbed run" >&2; exit 1; }
SD_JOURNAL=target/experiments/sensor_datasheet.journal
rm -f "$SD_JOURNAL"
target/release/sensor_datasheet --smoke --threads 4 --journal "$SD_JOURNAL" >/dev/null
head -c "$(($(wc -c <"$SD_JOURNAL") / 2))" "$SD_JOURNAL" >"$SD_JOURNAL.cut"
mv "$SD_JOURNAL.cut" "$SD_JOURNAL"
target/release/sensor_datasheet --smoke --threads 4 --journal "$SD_JOURNAL" \
    >target/experiments/sensor_datasheet.resume.log
grep -Eq "journal: resumed [1-9][0-9]* completed" target/experiments/sensor_datasheet.resume.log \
    || { echo "sensor_datasheet resume loaded no scenarios from the cut journal" >&2; exit 1; }
cmp target/experiments/sensor_datasheet.csv "$SD_REFERENCE" \
    || { echo "resumed sensor_datasheet CSV differs from the undisturbed run" >&2; exit 1; }
rm -f "$SD_JOURNAL"

echo "== chaos campaign (seeded worker panics + stalls; retry must make it invisible) =="
# The supervision layer's chaos mode injects worker panics and stalls;
# every scenario must recover on its deterministic retry, so the CSV is
# byte-identical to the undisturbed smoke run above.
cargo run --release -q -p ascp-bench --bin fault_campaign -- --chaos --smoke --threads 4
cmp target/experiments/fault_campaign.csv target/experiments/fault_campaign.reference.csv \
    || { echo "chaos campaign CSV differs from the undisturbed run" >&2; exit 1; }

echo "== exit-code taxonomy (0 ok, 1 scenario failures, 2 infra errors) =="
# An unwritable journal path is an infrastructure error: exit 2, no sweep.
set +e
target/release/fault_campaign --smoke --journal /nonexistent/dir/fc.journal >/dev/null 2>&1
infra_code=$?
set -e
[ "$infra_code" -eq 2 ] \
    || { echo "expected exit 2 for journal infra error, got $infra_code" >&2; exit 1; }

echo "== kill -9 + resume (crash-recoverable journal) =="
# SIGKILL the campaign mid-run, then re-run the same command line: the
# journal resumes the completed scenarios and the merged CSV must be
# byte-identical to the undisturbed run. The binary is exec'd directly so
# the kill hits the campaign process, not a cargo wrapper.
JOURNAL=target/experiments/kill_resume.journal
rm -f "$JOURNAL"
target/release/fault_campaign --smoke --threads 4 --journal "$JOURNAL" >/dev/null 2>&1 &
campaign_pid=$!
sleep 2
kill -9 "$campaign_pid" 2>/dev/null || true
wait "$campaign_pid" 2>/dev/null || true
target/release/fault_campaign --smoke --threads 4 --journal "$JOURNAL"
cmp target/experiments/fault_campaign.csv target/experiments/fault_campaign.reference.csv \
    || { echo "resumed campaign CSV differs from the undisturbed run" >&2; exit 1; }
rm -f "$JOURNAL"

echo "== kernel benches (short mode: build + run smoke, perf guard) =="
# --short shrinks the measurement protocol ~10x; --check compares the
# committed baseline and fails only on a >50% min-ns regression (the
# guard is deliberately noise-tolerant — see ascp_bench::harness).
# platform_sim covers the 8051 ISS translation-cache entries
# (mcu8051/instruction_step, _uncached, block_replay) so an ISS perf
# regression fails this gate.
cargo bench -p ascp-bench --bench platform_sim -- --short --check BENCH_platform_sim.json
cargo bench -p ascp-bench --bench dsp_blocks -- --short
cargo bench -p ascp-bench --bench campaign_warmstart -- --short
cargo bench -p ascp-bench --bench campaign_supervised -- --short
cargo bench -p ascp-bench --bench campaign_montecarlo -- --short

if [ "$RUN_DOCS" = 1 ]; then
    echo "== cargo doc (rustdoc warnings are errors) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
fi

echo "All checks passed."
