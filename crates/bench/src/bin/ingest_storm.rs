//! Ingest-path storm: the string-keyed struct spine vs the interned
//! columnar spine over identical encoded [`SampleBatch`] frames, printed
//! as JSON to stdout (CI captures it as `BENCH_ingest.json`).
//!
//! ```sh
//! cargo run -p pdmap-bench --release --bin ingest_storm
//! cargo run -p pdmap-bench --release --bin ingest_storm -- 256 512
//! ```
//!
//! Arg 1 (optional): number of batches (default 384). Arg 2 (optional):
//! samples per batch (default 1024). Both paths decode the same frames,
//! skew-correct with the same offset, and fold into per-(metric, focus)
//! aggregates; the run aborts (exit 1) if the two paths disagree on any
//! aggregate, or if the columnar path is not at least 2x the baseline —
//! the floor this PR's refactor is accountable to. CI additionally diffs
//! `columnar_samples_per_sec` against the previous run's artifact.
//!
//! The baseline is deliberately the pre-refactor shape: decode to
//! per-sample structs (two `Arc<str>` clones each), then fold through a
//! `HashMap` keyed by the *string pair*, hashing both names for every
//! sample. The columnar path decodes to flat columns, interns the small
//! per-frame dictionary once, and folds `u32` symbol pairs.

use pdmap::columns::{align, KeyFold, SampleColumns};
use pdmap::intern::{self, Symbol};
use pdmap_transport::{BatchColumns, BatchSample, SampleBatch, WirePayload};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tool-clock skew applied by both paths (arbitrary non-zero value so the
/// alignment arithmetic is actually exercised).
const OFFSET_NS: i64 = 1_500;
/// Timed repetitions per path; the best round is reported.
const ROUNDS: usize = 3;

/// Builds the encoded frames once: `batches` frames of `per_batch`
/// samples cycling through a realistic key population (12 metrics x 16
/// foci), walls advancing, values varying.
fn build_frames(batches: usize, per_batch: usize) -> Vec<pdmap_transport::Frame> {
    let metrics: Vec<Arc<str>> = (0..12)
        .map(|i| Arc::from(format!("Metric-{i:02} Time").as_str()))
        .collect();
    let foci: Vec<Arc<str>> = (0..16)
        .map(|i| Arc::from(format!("/CMFarrays/bow.fcm/ARR{i:02}").as_str()))
        .collect();
    let mut wall = 1_000_000u64;
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        let samples: Vec<BatchSample> = (0..per_batch)
            .map(|i| {
                wall += 7 + (i as u64 % 5);
                let k = b * per_batch + i;
                BatchSample {
                    metric: metrics[k % metrics.len()].clone(),
                    focus: foci[(k / 3) % foci.len()].clone(),
                    wall,
                    value: ((k % 97) as f64) * 0.25,
                }
            })
            .collect();
        out.push(
            SampleBatch {
                samples,
                epoch: 1,
                seq: (b + 1) as u64,
                sources: Vec::new(),
            }
            .to_frame(),
        );
    }
    out
}

/// One timed pass of the pre-refactor path: struct decode, per-sample
/// alignment, string-pair-keyed fold.
fn baseline_pass(frames: &[pdmap_transport::Frame]) -> HashMap<(Arc<str>, Arc<str>), KeyFold> {
    let mut folds: HashMap<(Arc<str>, Arc<str>), KeyFold> = HashMap::new();
    for frame in frames {
        let batch = SampleBatch::from_frame(frame).expect("frames are valid");
        for s in &batch.samples {
            let aligned = align(s.wall, OFFSET_NS);
            folds
                .entry((s.metric.clone(), s.focus.clone()))
                .or_default()
                .observe(aligned, s.value);
        }
    }
    folds
}

/// One timed pass of the columnar path: columnar decode, dictionary
/// interned once per frame, bulk landing, symbol-pair-keyed fold.
fn columnar_pass(frames: &[pdmap_transport::Frame]) -> Vec<((Symbol, Symbol), KeyFold)> {
    let mut cols = SampleColumns::new();
    for frame in frames {
        let batch = BatchColumns::from_frame(frame).expect("frames are valid");
        cols.extend_batch(0, OFFSET_NS, &batch);
    }
    cols.fold()
}

/// Runs `pass` `ROUNDS` times, returning the best elapsed and the last
/// result (every round computes identical aggregates).
fn best_of<T>(mut pass: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let r = pass();
        best = best.min(t0.elapsed());
        out = Some(r);
    }
    (best, out.unwrap())
}

/// Both paths must agree on every aggregate, bit for bit — the speedup is
/// meaningless if the fast path computes something else.
fn check_identical(
    base: &HashMap<(Arc<str>, Arc<str>), KeyFold>,
    cols: &[((Symbol, Symbol), KeyFold)],
) -> Result<(), String> {
    if base.len() != cols.len() {
        return Err(format!("key count: {} vs {}", base.len(), cols.len()));
    }
    for ((m, f), cf) in cols {
        let Some(bf) = base.get(&(Arc::from(m.as_str()), Arc::from(f.as_str()))) else {
            return Err(format!("columnar-only key ({m}, {f})"));
        };
        let same = bf.count == cf.count
            && bf.sum.to_bits() == cf.sum.to_bits()
            && bf.min.to_bits() == cf.min.to_bits()
            && bf.max.to_bits() == cf.max.to_bits()
            && bf.last.to_bits() == cf.last.to_bits()
            && bf.last_aligned == cf.last_aligned
            && bf.hist == cf.hist;
        if !same {
            return Err(format!("aggregates diverge at ({m}, {f})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let batches: usize = args
        .next()
        .map(|a| a.parse().expect("batches: usize"))
        .unwrap_or(384);
    let per_batch: usize = args
        .next()
        .map(|a| a.parse().expect("samples per batch: usize"))
        .unwrap_or(1024);
    let frames = build_frames(batches, per_batch);
    let total = (batches * per_batch) as f64;
    let bytes: usize = frames.iter().map(|f| f.payload.len()).sum();

    // Import-time interning: the key population enters the table before
    // the storm, then the table freezes — exactly the PIF-import contract
    // the hot path runs under.
    {
        let warm = BatchColumns::from_frame(&frames[0]).unwrap();
        for (m, f) in &warm.dict {
            intern::sym(m);
            intern::sym(f);
        }
        intern::freeze();
    }

    let (base_t, base_folds) = best_of(|| baseline_pass(&frames));
    let (col_t, col_folds) = best_of(|| columnar_pass(&frames));
    if let Err(e) = check_identical(&base_folds, &col_folds) {
        eprintln!("ingest_storm: paths disagree: {e}");
        return ExitCode::FAILURE;
    }

    let base_sps = total / base_t.as_secs_f64();
    let col_sps = total / col_t.as_secs_f64();
    let speedup = col_sps / base_sps;
    println!("{{");
    println!("  \"samples\": {},", batches * per_batch);
    println!("  \"batches\": {batches},");
    println!("  \"samples_per_batch\": {per_batch},");
    println!("  \"keys\": {},", col_folds.len());
    println!("  \"encoded_bytes\": {bytes},");
    println!(
        "  \"post_freeze_interns\": {},",
        intern::table().post_freeze_interns()
    );
    println!("  \"baseline_ms\": {:.3},", base_t.as_secs_f64() * 1e3);
    println!("  \"columnar_ms\": {:.3},", col_t.as_secs_f64() * 1e3);
    println!("  \"baseline_samples_per_sec\": {base_sps:.0},");
    println!("  \"columnar_samples_per_sec\": {col_sps:.0},");
    println!("  \"speedup\": {speedup:.2}");
    println!("}}");
    if speedup < 2.0 {
        eprintln!("ingest_storm: columnar speedup {speedup:.2}x is below the 2x floor");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
