#!/usr/bin/env bash
# The full CI gate, runnable locally: build, tests, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> chaos smoke campaign (seed-pinned, injector determinism)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release --example chaos_campaign -- --smoke --out "$tmpdir/a.json" >/dev/null
cargo run --release --example chaos_campaign -- --smoke --threads 1 --out "$tmpdir/b.json" >/dev/null
diff "$tmpdir/a.json" "$tmpdir/b.json" \
  || { echo "chaos campaign is not deterministic" >&2; exit 1; }

echo "==> §7 crash/revive rejoin demo (seed-pinned, sim + live backends)"
# Emits rejoin_{sim,live}.json twice; the emitter itself fails unless the
# naive/epoch separation holds and in-process replay is byte-identical,
# and the diff pins determinism across whole invocations.
cargo run --release --example chaos_campaign -- --rejoin "$tmpdir/rejoin_a" >/dev/null
cargo run --release --example chaos_campaign -- --rejoin "$tmpdir/rejoin_b" >/dev/null
diff -r "$tmpdir/rejoin_a" "$tmpdir/rejoin_b" \
  || { echo "crash/revive rejoin demo is not deterministic" >&2; exit 1; }

echo "==> monitor gate (streaming R1–R3 verdicts on the smoke grid)"
# With --monitor every cell carries online verdicts; the gate inside the
# example fails unless corrected-bounds cells are clean and under-corrected
# cells reproduce the R1 breach.
cargo run --release --example chaos_campaign -- --smoke --monitor >/dev/null

echo "==> membership failover gate (coordinator crash, sim + live, monitors clean)"
# The emitter fails unless every cell demotes the ex-coordinator, agrees
# on one view, resolves both sides of the re-convergence samples, keeps
# the R1–R3 monitors clean, and replays byte-identically in process; the
# diffs pin determinism across invocations and against the checked-in
# golden cells.
cargo run --release --example chaos_campaign -- --failover "$tmpdir/failover_a" >/dev/null
cargo run --release --example chaos_campaign -- --failover "$tmpdir/failover_b" >/dev/null
diff -r "$tmpdir/failover_a" "$tmpdir/failover_b" \
  || { echo "failover campaign is not deterministic" >&2; exit 1; }
diff "$tmpdir/failover_a/failover_sim.json" artifacts/failover_sim.json \
  || { echo "failover sim artifact drifted from the checked-in golden" >&2; exit 1; }
diff "$tmpdir/failover_a/failover_live.json" artifacts/failover_live.json \
  || { echo "failover live artifact drifted from the checked-in golden" >&2; exit 1; }

echo "==> bench smoke (throughput harness runs end to end; no perf assertion)"
cargo bench -p bench --bench throughput -- --smoke "$tmpdir/throughput_smoke.json" >/dev/null

echo "==> mck scale smoke (reduction stacks agree; packed store round-trips)"
# The bench itself asserts that every finished reduction stack (full,
# sym, sym+por, sym+por+packed) reports the same verdict.
cargo bench -p bench --bench mck_states -- --smoke "$tmpdir/mck_smoke.json" >/dev/null

echo "==> benchmark correctness smoke (campaign and checker workloads; no perf assertion)"
# A one-second run of each workload: every campaign plan run is checked
# against its detection bound and monitor, every checker operation
# against scale_cell, and the result line must say so.
for w in campaign_sim campaign_loopback mck_hashed mck_packed; do
  line="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)" || true
  python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$line" \
    || { echo "perfbench $w failed: $line" >&2; exit 1; }
done

echo "==> static analyzer gate (fixed machines must be free of error findings)"
# Advisory findings (pid-concrete-guard on the member takeover) are
# reported but do not deny.
cargo run --release --example hb_analyze -- --machines fixed --deny-findings

echo "==> symmetry certificate gate (census + quotient vs brute vs full on the smoke grid)"
cargo run --release --example hb_analyze -- --sym-check > "$tmpdir/sym.txt"
tail -n 1 "$tmpdir/sym.txt"

echo "==> POR soundness cross-check (reduced vs full verdicts, all table cells)"
# por_cross_check panics on any verdict divergence; the tail lines report
# the state savings (EXPERIMENTS.md carries the full table).
cargo run --release --example hb_analyze -- --por-check > "$tmpdir/por.txt"
tail -n 2 "$tmpdir/por.txt"

echo "==> sim-vs-live campaign differ (checked-in artifact pair)"
cargo run --release --example chaos_campaign -- --diff \
  artifacts/campaign_gm98_sim.json artifacts/campaign_gm98_live.json >/dev/null

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI green."
