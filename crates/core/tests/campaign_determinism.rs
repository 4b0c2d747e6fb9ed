//! Determinism contract of the campaign engine: the same `Vec<ScenarioSpec>`
//! must produce bit-identical `CampaignReport` metrics no matter how many
//! worker threads shard it. This is what makes `--threads N` safe to use in
//! CI — parallelism may change wall clock, never numbers.
//!
//! A fixed mixed-scenario list runs unconditionally; a randomized
//! property-test variant runs under `--features proptest`.

mod common;

use ascp_core::campaign::{
    CampaignOptions, CampaignOptionsBuilder, CampaignRunner, Scenario, ScenarioSpec, Step,
};

/// Runner with `threads` workers and otherwise default options.
fn runner(threads: usize) -> CampaignRunner {
    configured(CampaignOptions::builder().threads(threads))
}

/// Runner from a fully-specified options builder.
fn configured(options: CampaignOptionsBuilder) -> CampaignRunner {
    CampaignRunner::with_options(options.build().expect("valid options"))
}

use ascp_core::platform::PlatformConfig;
use ascp_sim::fault::{AdcChannel, FaultKind};

/// A short but heterogeneous scenario list: distinct configs, explicit and
/// derived seeds, a fault plan, and both metric- and series-producing steps.
fn scenario_list() -> Vec<ScenarioSpec> {
    let quiet = || PlatformConfig::builder().quiet();
    vec![
        ScenarioSpec::new("rate_step", quiet().build().expect("valid"))
            .with_step(Step::Run { seconds: 0.01 })
            .with_step(Step::SetRate { dps: 120.0 })
            .with_step(Step::Run { seconds: 0.01 })
            .with_step(Step::MeasureMeanRate {
                label: "rate".into(),
                window_s: 0.01,
            }),
        ScenarioSpec::new(
            "noisier",
            quiet().noise_density(0.02).build().expect("valid"),
        )
        .with_seed(0xDEAD_BEEF)
        .with_step(Step::Run { seconds: 0.01 })
        .with_step(Step::MeasureMeanRate {
            label: "null".into(),
            window_s: 0.01,
        }),
        ScenarioSpec::new(
            "faulted",
            quiet()
                .fault_one_shot(
                    FaultKind::AdcOverload {
                        channel: AdcChannel::Primary,
                        gain: 4.0,
                    },
                    0.005,
                    0.005,
                )
                .build()
                .expect("valid"),
        )
        .with_duration(0.02)
        .with_step(Step::MeasureMeanRate {
            label: "during".into(),
            window_s: 0.005,
        }),
        ScenarioSpec::new("capture", quiet().build().expect("valid")).with_step(
            Step::CaptureZeroRate {
                label: "zr".into(),
                seconds: 0.01,
                settle_s: 0.005,
            },
        ),
    ]
}

/// Strips the wall clock (the only legitimately nondeterministic field) so
/// reports can be compared whole.
fn fingerprint<S: Into<Scenario>>(runner: &CampaignRunner, specs: Vec<S>) -> (String, String) {
    let report = runner.run(specs);
    assert_eq!(report.threads, runner.options().threads());
    (report.to_csv(), report.to_telemetry().to_json())
}

/// One mixed campaign — gyro platform scenarios plus generic sensor
/// channels — renders identically at any thread count.
#[test]
fn report_is_bit_identical_at_1_2_and_4_threads() {
    let mixed = || common::with_channels(scenario_list());
    let (csv1, json1) = fingerprint(&runner(1), mixed());
    let (csv2, json2) = fingerprint(&runner(2), mixed());
    let (csv4, json4) = fingerprint(&runner(4), mixed());
    assert!(csv1.contains("map/fault/nc,detected,1,ok"), "{csv1}");
    assert!(csv1.contains("map/transfer,transfer_slope,"), "{csv1}");
    assert_eq!(csv1, csv2, "CSV differs between 1 and 2 threads");
    assert_eq!(csv1, csv4, "CSV differs between 1 and 4 threads");
    assert_eq!(
        json1, json2,
        "telemetry JSON differs between 1 and 2 threads"
    );
    assert_eq!(
        json1, json4,
        "telemetry JSON differs between 1 and 4 threads"
    );
}

#[test]
fn outcomes_are_equal_not_just_rendered_equal() {
    let a = runner(1).run(scenario_list());
    let b = runner(4).run(scenario_list());
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn more_threads_than_scenarios_is_fine() {
    let specs = scenario_list().into_iter().take(2).collect::<Vec<_>>();
    let a = runner(1).run(specs);
    let specs = scenario_list().into_iter().take(2).collect::<Vec<_>>();
    let b = runner(16).run(specs);
    assert_eq!(a.outcomes, b.outcomes);
}

/// Tracing is observability, not simulation state: switching it on (at any
/// thread count) must leave the deterministic artifacts byte-identical,
/// for platform and sensor-channel scenarios alike.
#[test]
fn tracing_does_not_change_results() {
    let mixed = || common::with_channels(scenario_list());
    let (csv_off, json_off) = fingerprint(&runner(1), mixed());
    for threads in [1, 2, 4] {
        let (csv, json) = fingerprint(
            &configured(CampaignOptions::builder().threads(threads).tracing(true)),
            mixed(),
        );
        assert_eq!(
            csv_off, csv,
            "CSV differs with tracing on at {threads} threads"
        );
        assert_eq!(
            json_off, json,
            "telemetry JSON differs with tracing on at {threads} threads"
        );
    }
}

/// Structural contract of the campaign trace: one span per scenario, each
/// with at least one `Step` child nested inside it, sim-time monotonic.
#[test]
fn trace_has_nested_step_spans_per_scenario() {
    let specs = scenario_list();
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let report = configured(CampaignOptions::builder().threads(2).tracing(true)).run(specs);
    let trace = report.trace.as_ref().expect("tracing was enabled");

    let campaign = trace.span("campaign").expect("campaign root span");
    assert_eq!(campaign.parent, 0, "campaign span is a root");

    for name in &names {
        let label = format!("scenario:{name}");
        let scenario = trace
            .span(&label)
            .unwrap_or_else(|| panic!("missing span {label}"));
        assert!(scenario.sim_end_s >= scenario.sim_start_s, "{label}");
        let steps = trace.children(scenario.id);
        assert!(!steps.is_empty(), "{label} has no Step child spans");
        let mut last_start = f64::NEG_INFINITY;
        for step in steps {
            assert!(
                step.sim_start_s >= scenario.sim_start_s && step.sim_end_s <= scenario.sim_end_s,
                "step {} of {label} escapes its scenario interval",
                step.label
            );
            assert!(
                step.sim_start_s >= last_start,
                "step {} of {label} goes backwards in sim time",
                step.label
            );
            assert!(step.sim_end_s >= step.sim_start_s, "{}", step.label);
            last_start = step.sim_start_s;
        }
    }
}

/// An armed flight recorder must not perturb determinism, and its capture
/// (a deterministic function of sim state) must be thread-count invariant.
#[test]
fn recorder_capture_is_thread_count_invariant() {
    let specs = || {
        let config = PlatformConfig::builder()
            .quiet()
            .fault_one_shot(FaultKind::SensorDisconnect, 0.7, 0.05)
            .recorder(ascp_sim::telemetry::RecorderConfig::fault_triggers(64))
            .build()
            .expect("valid");
        vec![ScenarioSpec::new("rec", config)
            .with_duration(0.8)
            .with_step(Step::WaitReady { timeout_s: 2.0 })
            .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })]
    };
    let a = runner(1).run(specs());
    let b = configured(CampaignOptions::builder().threads(4).tracing(true)).run(specs());
    assert_eq!(a.outcomes, b.outcomes);
    let capture = a.outcomes[0].capture.as_ref().expect("trigger fired");
    assert!(!capture.frames.is_empty());
    assert_eq!(a.outcomes[0].metric("recorder_triggered"), Some(1.0));
}

#[cfg(feature = "proptest")]
mod random {
    use super::*;
    use proptest::prelude::*;

    /// Noise-density index, applied rate, seed override (flag + value),
    /// fault flag, and duration floor for one randomized scenario.
    type SpecParams = (u8, f64, (bool, u64), bool, f64);

    fn spec_params() -> impl Strategy<Value = SpecParams> {
        (
            0u8..4,                        // noise-density index
            -300.0f64..300.0,              // applied rate
            (any::<bool>(), any::<u64>()), // seed override flag + value
            any::<bool>(),                 // inject a fault?
            0.005f64..0.02,                // duration floor
        )
    }

    fn build(params: &[SpecParams]) -> Vec<ScenarioSpec> {
        params
            .iter()
            .enumerate()
            .map(|(i, &(nd, rate, (override_seed, seed), fault, dur))| {
                let mut b = PlatformConfig::builder()
                    .quiet()
                    .noise_density([0.002, 0.005, 0.01, 0.02][nd as usize]);
                if fault {
                    b = b.fault_one_shot(FaultKind::PllUnlock, 0.004, 0.004);
                }
                let mut spec = ScenarioSpec::new(format!("s{i}"), b.build().expect("valid"))
                    .with_duration(dur)
                    .with_step(Step::SetRate { dps: rate })
                    .with_step(Step::MeasureMeanRate {
                        label: "rate".into(),
                        window_s: 0.004,
                    });
                if override_seed {
                    spec = spec.with_seed(seed);
                }
                spec
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn any_scenario_list_is_thread_count_invariant(
            params in proptest::collection::vec(spec_params(), 1..6)
        ) {
            let one = runner(1).run(build(&params));
            let two = runner(2).run(build(&params));
            let four = runner(4).run(build(&params));
            prop_assert_eq!(&one.outcomes, &two.outcomes);
            prop_assert_eq!(&one.outcomes, &four.outcomes);
            prop_assert_eq!(one.to_csv(), four.to_csv());
            prop_assert_eq!(
                one.to_telemetry().to_json(),
                four.to_telemetry().to_json()
            );
        }
    }
}
