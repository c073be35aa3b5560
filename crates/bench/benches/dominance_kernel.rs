//! Same-process kernel ladder: one presorted SFS probe stream driven
//! through each dominance kernel in turn, reported as nanoseconds per
//! probe.
//!
//! * `flat_scalar` — the reference: a flat row-major `Vec<f64>` window
//!   scanned with [`dominates`] row by row, stopping at the first
//!   dominator. No pruning, no batching.
//! * `arena_block` — the production kernel: [`BlockWindow`] over one
//!   contiguous arena of 16-lane column-major blocks, `u16` lane masks,
//!   the per-block max/score screens and the Theorem-4 cutoff.
//! * `arena_replace` — the BNL shape of the same arena
//!   ([`ReplaceWindow::probe_replace`]) over the unsorted stream, where
//!   evictions happen.
//!
//! The headline row is 100k × d7 (seed 2003, the size and seed of the
//! bench gate's `full` section); the d ∈ {2, 5, 7, 10} grid at 4k rows
//! follows. Rungs run
//! round-robin so drift on the host hits all of them alike, and every
//! rung must return the same skyline size. A stamp line (cores, CPU
//! model, rustc) heads the output.
//!
//! Run: `cargo bench -p skyline-bench --bench dominance_kernel`.

use skyline_core::dominance_block::{key_score, BlockVerdict, BlockWindow, ReplaceWindow};
use skyline_core::dominates;
use skyline_relation::gen::WorkloadSpec;
use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Timed rounds per rung; the median is reported.
const ROUNDS: usize = 7;

/// Flat row-major keys of `n` seeded rows: generation order and
/// score-descending (the SFS presort) order.
fn streams(n: usize, d: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let keys = WorkloadSpec::paper(n, seed).generate_keys(d);
    let mut rows: Vec<&[f64]> = keys.chunks_exact(d).collect();
    rows.sort_by(|a, b| key_score(b).total_cmp(&key_score(a)));
    let sorted = rows.concat();
    (keys, sorted)
}

fn flat_scalar(sorted: &[f64], d: usize) -> usize {
    let mut window: Vec<f64> = Vec::new();
    for key in sorted.chunks_exact(d) {
        if !window.chunks_exact(d).any(|e| dominates(e, key)) {
            window.extend_from_slice(key);
        }
    }
    window.len() / d
}

fn arena_block(sorted: &[f64], d: usize) -> usize {
    let mut window = BlockWindow::new(d, usize::MAX);
    for key in sorted.chunks_exact(d) {
        if !matches!(window.probe(key).0, BlockVerdict::Dominated) {
            window.insert(key);
        }
    }
    window.len()
}

fn arena_replace(unsorted: &[f64], d: usize) -> usize {
    let mut window = ReplaceWindow::new(d);
    let mut removed = Vec::new();
    for key in unsorted.chunks_exact(d) {
        if !window.probe_replace(key, &mut removed).0 {
            window.push(key);
        }
    }
    window.len()
}

/// One ladder row: every rung timed `ROUNDS` times round-robin, median
/// ns per probe printed.
fn ladder(n: usize, d: usize, seed: u64) {
    let (unsorted, sorted) = streams(n, d, seed);
    type Rung = (&'static str, fn(&[f64], usize) -> usize, bool);
    let rungs: [Rung; 3] = [
        ("flat_scalar", flat_scalar, true),
        ("arena_block", arena_block, true),
        ("arena_replace", arena_replace, false),
    ];
    let mut samples = vec![Vec::with_capacity(ROUNDS); rungs.len()];
    let mut sizes = vec![0usize; rungs.len()];
    for _ in 0..ROUNDS {
        for (r, &(_, kernel, presorted)) in rungs.iter().enumerate() {
            let input = if presorted { &sorted } else { &unsorted };
            let t0 = Instant::now();
            sizes[r] = black_box(kernel(black_box(input), d));
            samples[r].push(t0.elapsed());
        }
    }
    assert!(
        sizes.iter().all(|&s| s == sizes[0]),
        "kernels disagree on the skyline size: {sizes:?}"
    );
    let median = |s: &mut Vec<Duration>| {
        s.sort_unstable();
        s[s.len() / 2]
    };
    let base = median(&mut samples[0]);
    for (r, &(name, _, _)) in rungs.iter().enumerate() {
        let m = median(&mut samples[r]);
        println!(
            "  n={n:>6} d={d:>2} {name:<14} {:>9.1} ns/probe  {:>8.2} ms  {:>5.2}x  skyline={}",
            m.as_nanos() as f64 / n as f64,
            m.as_secs_f64() * 1e3,
            base.as_secs_f64() / m.as_secs_f64(),
            sizes[r],
        );
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = command_line("sh", &["-c", "grep -m1 'model name' /proc/cpuinfo"]);
    let cpu = cpu.split(':').nth(1).map_or("unknown", str::trim);
    let rustc = command_line("rustc", &["--version"]);
    println!("dominance_kernel ladder: nproc={cores} cpu=\"{cpu}\" rustc=\"{rustc}\"");
    println!("  (speedup column: flat_scalar median / rung median)");
    ladder(100_000, 7, 2003);
    for d in [2, 5, 7, 10] {
        ladder(4_000, d, 2003);
    }
}
