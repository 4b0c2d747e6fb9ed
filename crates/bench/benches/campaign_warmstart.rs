//! Warm-start campaign benchmark: cold vs checkpoint-cached settle.
//!
//! A rate-table campaign is lock-dominated: every scenario spends most of
//! its simulated time waiting for PLL lock and AGC settling before a short
//! measurement window. With `CampaignOptions::builder().warm_start(true)`, scenarios
//! that share a settle recipe restore one cached checkpoint instead of
//! re-running the transient — this bench measures the wall-clock win on a
//! 16-point rate table and guards the >= 3x acceptance bar.
//!
//! Flags: `--short` shrinks the protocol (gate/CI smoke; never rewrites
//! the committed baseline), `--threads N` pins the worker count. Full runs
//! merge this bench's entries into `BENCH_platform_sim.json` at the repo
//! root, preserving the other benches' entries.

use ascp_bench::harness::{merge_into_baseline, Args, BenchStats};
use ascp_core::campaign::{CampaignOptions, CampaignRunner, ScenarioSpec, Step};
use ascp_core::platform::PlatformConfig;

/// The lock-dominated 16-point rate table: one shared settle recipe
/// (identical config, seed and bring-up prefix), sixteen different
/// stimulus points.
fn rate_table(settle_s: f64, window_s: f64) -> Vec<ScenarioSpec> {
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid campaign config");
    (0..16)
        .map(|i| {
            let dps = f64::from(i) * 20.0 - 150.0;
            ScenarioSpec::new(format!("rate_{i}"), config.clone())
                .with_seed(0xa5c)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::Run { seconds: settle_s })
                .with_step(Step::SetRate { dps })
                .with_step(Step::MeasureMeanRate {
                    label: "mean_dps".into(),
                    window_s,
                })
        })
        .collect()
}

/// Runs the campaign `reps` times and returns the fastest wall clock in
/// seconds (the minimum is the least scheduler-polluted sample).
fn best_wall(runner: &CampaignRunner, settle_s: f64, window_s: f64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| runner.run(rate_table(settle_s, window_s)).wall_s)
        .fold(f64::INFINITY, f64::min)
}

fn main() -> std::io::Result<()> {
    println!("== campaign_warmstart ==");
    let args = Args::parse("campaign_warmstart");
    let threads = args.threads;
    // The short profile keeps the same shape (lock transient dominates)
    // with a ~10x smaller measurement window; good enough for the smoke
    // gate, too noisy to commit.
    let (settle_s, window_s, reps) = if args.short {
        (0.02, 0.002, 1)
    } else {
        (0.05, 0.005, 2)
    };

    let cold_runner = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    );
    let warm_runner = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .warm_start(true)
            .build()
            .expect("valid options"),
    );

    // Byte-identity first: warm-start must change wall clock and nothing
    // else, whatever the thread count.
    let cold_report = cold_runner.run(rate_table(settle_s, window_s));
    let warm_report = warm_runner.run(rate_table(settle_s, window_s));
    assert_eq!(
        cold_report.to_csv(),
        warm_report.to_csv(),
        "warm-start must be byte-identical to cold"
    );
    assert_eq!(
        warm_report.warm_hits, 15,
        "15 of 16 scenarios must restore the cached settle"
    );

    let cold_s = best_wall(&cold_runner, settle_s, window_s, reps).min(cold_report.wall_s);
    let warm_s = best_wall(&warm_runner, settle_s, window_s, reps).min(warm_report.wall_s);
    let speedup = cold_s / warm_s;
    println!("  threads            : {threads}");
    println!("  cold campaign      : {cold_s:.3} s (16 scenarios, full settle each)");
    println!("  warm campaign      : {warm_s:.3} s (1 settle + 15 restores)");
    println!(
        "  speedup            : {speedup:.2}x ({} >= 3x acceptance bar)",
        if speedup >= 3.0 { "within" } else { "UNDER" }
    );

    let per = |name: &str, wall: f64| BenchStats {
        name: name.to_owned(),
        iters_per_sample: 1,
        ns_per_iter: wall * 1.0e9,
        min_ns_per_iter: wall * 1.0e9,
    };
    let stats = [
        per("campaign/rate_table_16_cold", cold_s),
        per("campaign/rate_table_16_warm", warm_s),
    ];
    if args.short {
        println!("(short mode: baseline not rewritten)");
    } else {
        merge_into_baseline(&stats)?;
    }
    Ok(())
}
