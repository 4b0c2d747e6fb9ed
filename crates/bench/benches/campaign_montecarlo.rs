//! Monte-Carlo campaign benchmark: batched fleet vs scalar lane execution.
//!
//! A [`ScenarioSpec::monte_carlo`] population expands into N dispersed
//! lanes that share a step program, which makes the campaign the natural
//! customer of the structure-of-arrays [`PlatformFleet`] path: the runner
//! groups eligible lanes and steps them in lockstep instead of running N
//! independent platforms. This bench measures the end-to-end campaign
//! wall-clock win of that batching (`fleet(true)` vs `fleet(false)` on an
//! otherwise identical runner) and asserts the byte-identity contract —
//! batching must change wall clock and nothing else.
//!
//! Flags: `--short` shrinks the protocol (gate/CI smoke; never rewrites
//! the committed baseline), `--threads N` pins the worker count. Full runs
//! merge this bench's entries into `BENCH_platform_sim.json` at the repo
//! root, preserving the other benches' entries.

use ascp_bench::harness::{merge_into_baseline, Args, BenchStats};
use ascp_core::campaign::{CampaignOptions, CampaignRunner, Dispersion, ScenarioSpec, Step};
use ascp_core::platform::PlatformConfig;

/// Fleet width exercised by the population; matches `FLEET_GROUP_MAX`.
const LANES: usize = 16;

/// A 16-lane Monte-Carlo population over the fleet-safe step vocabulary:
/// run, retarget, measure. Dispersion magnitudes sit at realistic
/// trim-spread levels so the lanes are genuinely distinct platforms.
fn population(run_s: f64, window_s: f64) -> Vec<ScenarioSpec> {
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .seed(0x0c17)
        .build()
        .expect("valid campaign config");
    let dispersion = Dispersion::none()
        .with_omega_frac(0.02)
        .with_q_frac(0.05)
        .with_offset_dps(10.0)
        .with_gain_frac(0.03);
    vec![ScenarioSpec::new("mc_population", config)
        .with_step(Step::Run { seconds: run_s })
        .with_step(Step::SetRate { dps: 60.0 })
        .with_step(Step::MeasureMeanRate {
            label: "mean_dps".into(),
            window_s,
        })
        .monte_carlo(LANES, dispersion)]
}

/// Runs the campaign `reps` times and returns the fastest wall clock in
/// seconds (the minimum is the least scheduler-polluted sample).
fn best_wall(runner: &CampaignRunner, run_s: f64, window_s: f64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| runner.run(population(run_s, window_s)).wall_s)
        .fold(f64::INFINITY, f64::min)
}

fn main() -> std::io::Result<()> {
    println!("== campaign_montecarlo ==");
    let args = Args::parse("campaign_montecarlo");
    let threads = args.threads;
    let (run_s, window_s, reps) = if args.short {
        (0.02, 0.005, 1)
    } else {
        (0.1, 0.02, 2)
    };

    let runner_with = |fleet: bool| {
        CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(threads)
                .fleet(fleet)
                .build()
                .expect("valid options"),
        )
    };
    let scalar_runner = runner_with(false);
    let fleet_runner = runner_with(true);

    // Byte-identity first: the fleet path must be invisible in every
    // campaign artifact, whatever the thread count.
    let scalar_report = scalar_runner.run(population(run_s, window_s));
    let fleet_report = fleet_runner.run(population(run_s, window_s));
    assert_eq!(
        scalar_report.to_csv(),
        fleet_report.to_csv(),
        "fleet campaign must be byte-identical to scalar"
    );
    assert_eq!(
        fleet_report.outcomes.len(),
        LANES,
        "population must expand to one outcome per lane"
    );

    let scalar_s = best_wall(&scalar_runner, run_s, window_s, reps).min(scalar_report.wall_s);
    let fleet_s = best_wall(&fleet_runner, run_s, window_s, reps).min(fleet_report.wall_s);
    let speedup = scalar_s / fleet_s;
    println!("  threads            : {threads}");
    println!("  scalar campaign    : {scalar_s:.3} s ({LANES} independent lanes)");
    println!("  fleet campaign     : {fleet_s:.3} s (one lockstep group)");
    println!(
        "  speedup            : {speedup:.2}x ({} >= 1.5x acceptance bar)",
        if speedup >= 1.5 { "within" } else { "UNDER" }
    );

    let per = |name: &str, wall: f64| BenchStats {
        name: name.to_owned(),
        iters_per_sample: 1,
        ns_per_iter: wall * 1.0e9,
        min_ns_per_iter: wall * 1.0e9,
    };
    let stats = [
        per("campaign/montecarlo_16_scalar", scalar_s),
        per("campaign/montecarlo_16_fleet", fleet_s),
    ];
    if args.short {
        println!("(short mode: baseline not rewritten)");
    } else {
        merge_into_baseline(&stats)?;
    }
    Ok(())
}
