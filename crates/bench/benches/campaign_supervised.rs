//! Supervision-overhead benchmark: healthy campaign, watchdog on vs off.
//!
//! The supervision layer (panic isolation, deadline watchdog, retry
//! bookkeeping — PR 7) must be cheap enough to leave on everywhere: on a
//! healthy 16-scenario campaign the fully-armed runner (watchdog thread +
//! per-scenario deadline + retry budget) must stay within **2%** of the
//! bare runner's wall clock.
//!
//! Flags: `--short` shrinks the protocol (gate/CI smoke; never rewrites
//! the committed baseline and only warns on overhead), `--threads N` pins
//! the worker count. Full runs merge this bench's entries into
//! `BENCH_platform_sim.json` at the repo root, preserving the other
//! benches' entries.

use ascp_bench::harness::{merge_into_baseline, Args, BenchStats};
use ascp_core::campaign::{CampaignOptions, CampaignRunner, ScenarioSpec, Step};
use ascp_core::platform::PlatformConfig;

/// The acceptance bar: supervised wall clock / bare wall clock − 1.
const MAX_OVERHEAD: f64 = 0.02;

/// A healthy 16-point rate table (same shape as `campaign_warmstart`'s):
/// no scenario panics, stalls, or overruns, so every supervised cycle is
/// pure overhead.
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
    println!("== campaign_supervised ==");
    let args = Args::parse("campaign_supervised");
    let threads = args.threads;
    let (settle_s, window_s, reps) = if args.short {
        (0.02, 0.002, 2)
    } else {
        (0.05, 0.005, 4)
    };

    let bare = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    );
    // Fully armed: watchdog thread scanning every slot against a (never
    // hit) deadline, retry budget, heartbeats from every step hook.
    let supervised = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .deadline_s(60.0)
            .retries(1)
            .build()
            .expect("valid options"),
    );

    // Identity first: supervision must change wall clock and nothing else.
    let bare_report = bare.run(rate_table(settle_s, window_s));
    let supervised_report = supervised.run(rate_table(settle_s, window_s));
    assert_eq!(
        bare_report.to_csv(),
        supervised_report.to_csv(),
        "supervision must be byte-identical to the bare runner on a healthy campaign"
    );
    assert_eq!(supervised_report.retries_total(), 0);
    assert_eq!(supervised_report.poisoned(), 0);

    let bare_s = best_wall(&bare, settle_s, window_s, reps).min(bare_report.wall_s);
    let supervised_s =
        best_wall(&supervised, settle_s, window_s, reps).min(supervised_report.wall_s);
    let overhead = supervised_s / bare_s - 1.0;
    println!("  threads            : {threads}");
    println!("  bare campaign      : {bare_s:.3} s (16 healthy scenarios)");
    println!("  supervised campaign: {supervised_s:.3} s (watchdog + retry budget armed)");
    println!(
        "  overhead           : {:+.2}% ({} <= {:.0}% acceptance bar)",
        overhead * 100.0,
        if overhead <= MAX_OVERHEAD {
            "within"
        } else {
            "OVER"
        },
        MAX_OVERHEAD * 100.0
    );

    let per = |name: &str, wall: f64| BenchStats {
        name: name.to_owned(),
        iters_per_sample: 1,
        ns_per_iter: wall * 1.0e9,
        min_ns_per_iter: wall * 1.0e9,
    };
    let stats = [
        per("campaign/supervised_16_off", bare_s),
        per("campaign/supervised_16_on", supervised_s),
    ];
    if args.short {
        // Short samples are too noisy to commit or to gate on; report only.
        println!("(short mode: baseline not rewritten, overhead informational)");
    } else {
        assert!(
            overhead <= MAX_OVERHEAD,
            "supervision overhead {:.2}% exceeds the {:.0}% bar",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        merge_into_baseline(&stats)?;
    }
    Ok(())
}
