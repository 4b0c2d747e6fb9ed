//! Supervision-layer contract: worker faults (panics, stalls) injected by
//! the deterministic chaos mode must never abort a campaign, must leave
//! healthy scenarios byte-identical to an undisturbed run, and must be
//! thread-count invariant — the same promises `campaign_determinism`
//! makes for healthy campaigns, extended to unhealthy ones.

mod common;

use ascp_core::campaign::{
    CampaignOptions, CampaignOptionsBuilder, CampaignRunner, ChaosInjection, ChaosPlan,
    ScenarioError, ScenarioSpec, ScenarioStatus, Step,
};
use ascp_core::frontend::ChannelMeasurement;
use ascp_mems::frontend::WireFault;

/// Runner with `threads` workers and otherwise default options.
fn runner(threads: usize) -> CampaignRunner {
    configured(CampaignOptions::builder().threads(threads))
}

/// Runner from a fully-specified options builder.
fn configured(options: CampaignOptionsBuilder) -> CampaignRunner {
    CampaignRunner::with_options(options.build().expect("valid options"))
}

use ascp_core::platform::PlatformConfig;

/// A small healthy campaign: eight cheap rate-measurement scenarios.
fn scenario_list() -> Vec<ScenarioSpec> {
    (0..8)
        .map(|i| {
            let config = PlatformConfig::builder().quiet().build().expect("valid");
            ScenarioSpec::new(format!("s{i}"), config)
                .with_duration(0.01)
                .with_step(Step::SetRate {
                    dps: f64::from(i) * 10.0,
                })
                .with_step(Step::MeasureMeanRate {
                    label: "rate".into(),
                    window_s: 0.005,
                })
        })
        .collect()
}

/// Finds a chaos seed whose injection pattern over `n` scenarios contains
/// at least one panic and at least one stall (search is deterministic, so
/// the tests stay reproducible).
fn chaos_seed_with_both(n: usize) -> u64 {
    chaos_seed_injecting_from(n, 0)
}

/// [`chaos_seed_with_both`], additionally injecting at least one scenario
/// at index `from` or later.
fn chaos_seed_injecting_from(n: usize, from: usize) -> u64 {
    (0..4096u64)
        .find(|&seed| {
            let plan = ChaosPlan::new(seed);
            let decisions: Vec<ChaosInjection> = (0..n).map(|i| plan.decide(i, 0)).collect();
            decisions.contains(&ChaosInjection::Panic)
                && decisions.contains(&ChaosInjection::Stall)
                && decisions.contains(&ChaosInjection::None)
                && decisions[from..].iter().any(|d| *d != ChaosInjection::None)
        })
        .expect("some seed in 0..4096 mixes panic, stall, and healthy")
}

/// With retries disabled, injected faults quarantine their scenarios —
/// and the poisoning pattern, the healthy rows, and the whole CSV are
/// identical at 1, 2, and 4 threads.
#[test]
fn chaos_without_retries_poisons_deterministically_at_any_thread_count() {
    let seed = chaos_seed_with_both(8);
    // Tiny stall cap: with no watchdog the stalled worker self-reports
    // `TimedOut` after the cap, keeping the test fast.
    let chaos = ChaosPlan::new(seed).with_stall_cap_s(0.05);
    let run = |threads: usize| {
        configured(
            CampaignOptions::builder()
                .threads(threads)
                .retries(0)
                .chaos(chaos.clone()),
        )
        .run(scenario_list())
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert_eq!(one.outcomes, two.outcomes);
    assert_eq!(one.outcomes, four.outcomes);
    assert_eq!(one.to_csv(), four.to_csv());

    // The poisoning pattern matches the plan exactly, and healthy rows
    // match an undisturbed run byte-for-byte.
    let clean = runner(2).run(scenario_list());
    for (i, o) in one.outcomes.iter().enumerate() {
        match chaos.decide(i, 0) {
            ChaosInjection::None => {
                assert_eq!(o.status, ScenarioStatus::Done, "scenario {i}");
                assert_eq!(o, &clean.outcomes[i], "healthy scenario {i} perturbed");
            }
            ChaosInjection::Panic => {
                assert_eq!(o.status, ScenarioStatus::Poisoned, "scenario {i}");
                assert!(
                    matches!(o.attempt_errors[..], [ScenarioError::Panicked { .. }]),
                    "scenario {i}: {:?}",
                    o.attempt_errors
                );
                assert!(o.metrics.is_empty(), "poisoned scenario {i} has metrics");
            }
            ChaosInjection::Stall => {
                assert_eq!(o.status, ScenarioStatus::Poisoned, "scenario {i}");
                assert!(
                    matches!(o.attempt_errors[..], [ScenarioError::TimedOut { .. }]),
                    "scenario {i}: {:?}",
                    o.attempt_errors
                );
            }
        }
    }
    assert!(one.poisoned() > 0);
    assert_eq!(one.poisoned(), one.failed_scenarios().len());
}

/// With the default retry budget, every chaos-injected scenario recovers
/// on its clean retry and the *entire* CSV is byte-identical to an
/// undisturbed run — the seed is re-derived, not advanced. The campaign
/// mixes gyro and sensor-channel scenarios, and the chaos plan hits at
/// least one channel.
#[test]
fn chaos_with_retries_is_byte_identical_to_undisturbed() {
    let mixed = || common::with_channels(scenario_list());
    let seed = chaos_seed_injecting_from(mixed().len(), scenario_list().len());
    let clean = runner(2).run(mixed());
    for threads in [1, 2, 4] {
        let chaotic = configured(
            CampaignOptions::builder()
                .threads(threads)
                .retries(1)
                .backoff_ms(1)
                .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05)),
        )
        .run(mixed());
        assert_eq!(chaotic.poisoned(), 0, "retry must recover every scenario");
        assert!(chaotic.retries_total() > 0, "chaos must have injected");
        assert_eq!(
            clean.to_csv(),
            chaotic.to_csv(),
            "chaos + retry must be invisible in the CSV at {threads} threads"
        );
        for (c, o) in clean.outcomes.iter().zip(&chaotic.outcomes) {
            assert_eq!(c.seed, o.seed, "retry must not advance the seed");
            assert_eq!(c.metrics, o.metrics);
        }
    }
}

/// The watchdog cancels a stalled scenario at the configured deadline and
/// records that configured limit (not measured wall time) in the error.
#[test]
fn watchdog_cancels_overrunning_scenarios_at_the_configured_deadline() {
    // Find a seed that stalls scenario 0 and leaves scenario 1 healthy,
    // so the assertion targets are fixed.
    let seed = (0..4096u64)
        .find(|&s| {
            let plan = ChaosPlan::new(s);
            plan.decide(0, 0) == ChaosInjection::Stall && plan.decide(1, 0) == ChaosInjection::None
        })
        .expect("some seed stalls scenario 0 only");
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .retries(0)
            .deadline_s(0.05)
            // Cap far above the deadline: only the watchdog can end the
            // stall.
            .chaos(ChaosPlan::new(seed).with_stall_cap_s(10.0)),
    )
    .run(scenario_list().into_iter().take(2).collect());
    let stalled = &report.outcomes[0];
    assert_eq!(stalled.status, ScenarioStatus::Poisoned);
    assert_eq!(
        stalled.attempt_errors,
        vec![ScenarioError::TimedOut { deadline_s: 0.05 }],
        "the recorded deadline must be the configured one"
    );
    assert!(report.timeouts_total() >= 1);
    // The sibling scenario drained normally.
    assert_eq!(report.outcomes[1].status, ScenarioStatus::Done);
}

/// A sensor-channel scenario is supervised like a platform one: a long
/// wire-fault run under a 1 ms deadline is cancelled from inside its
/// stepping loop and quarantined as timed out, not run to completion.
#[test]
fn watchdog_cancels_an_overrunning_channel_scenario() {
    let long_fault = common::map_scenario(
        "map/fault/long",
        ChannelMeasurement::WireFaultResponse {
            fault: WireFault::NotConnected,
            at_s: 0.05,
            // ~50 s of simulated channel time: minutes of wall clock if
            // the watchdog never fired.
            duration_s: 50.0,
        },
    );
    let report = configured(
        CampaignOptions::builder()
            .threads(1)
            .backoff_ms(1)
            .deadline_s(0.001),
    )
    .run(vec![long_fault]);
    let o = &report.outcomes[0];
    assert_eq!(o.status, ScenarioStatus::Poisoned);
    assert_eq!(
        o.attempt_errors,
        vec![ScenarioError::TimedOut { deadline_s: 0.001 }; 2],
        "both attempts must time out at the configured deadline"
    );
    assert!(o.metrics.is_empty(), "a cancelled run reports no metrics");
    assert!(
        report.wall_s < 10.0,
        "cancellation took {} s",
        report.wall_s
    );
}

/// Supervision events flow through telemetry: the Prometheus exposition
/// carries the retry/timeout/panic counters with the `ascp_` prefix.
#[test]
fn supervision_counters_reach_prometheus_and_json() {
    let seed = chaos_seed_with_both(8);
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .retries(1)
            .backoff_ms(1)
            .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05)),
    )
    .run(scenario_list());
    let snap = report.to_telemetry();
    assert_eq!(
        snap.counter("campaign.retries_total"),
        report.retries_total()
    );
    let prom = snap.to_prometheus();
    for needle in [
        "ascp_campaign_retries_total",
        "ascp_campaign_timeouts_total",
        "ascp_campaign_panics_total",
        "ascp_campaign_poisoned_scenarios",
    ] {
        assert!(prom.contains(needle), "{needle} missing from:\n{prom}");
    }
    assert!(snap.to_json().contains("campaign.retries_total"));
}

/// A healthy campaign under full supervision (watchdog armed, retry
/// budget, chaos off) is byte-identical to a bare run: supervision is
/// pure observation until something fails.
#[test]
fn supervision_is_invisible_on_a_healthy_campaign() {
    let bare = runner(2).run(scenario_list());
    let supervised = configured(
        CampaignOptions::builder()
            .threads(2)
            .deadline_s(60.0)
            .retries(2),
    )
    .run(scenario_list());
    assert_eq!(bare.outcomes, supervised.outcomes);
    assert_eq!(bare.to_csv(), supervised.to_csv());
    assert_eq!(supervised.retries_total(), 0);
    assert_eq!(supervised.timeouts_total(), 0);
}
