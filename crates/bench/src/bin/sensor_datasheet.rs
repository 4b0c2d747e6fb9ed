//! Cross-sensor datasheet campaign: the paper's platform-based-design
//! claim, demonstrated. One campaign binary characterizes **three sensor
//! families** through the same conditioning IP portfolio — the case-study
//! vibrating-ring gyro (full platform), the automotive MAP/IAT
//! pressure/temperature divider pair, and a capacitive crash accelerometer
//! (plus the promoted capacitive-pressure and LVDT-position demo sensors)
//! — and renders the merged results as a Table-1-style cross-sensor
//! datasheet.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin sensor_datasheet            # full
//! cargo run --release -p ascp-bench --bin sensor_datasheet -- --smoke # CI
//! ```
//!
//! Per sensor the campaign measures the static transfer (sensitivity,
//! linearity, zero offset), the output noise density, and the response to
//! the wire-harness fault classes the dbus-adc-style supervisor checks
//! introduce (`wire_not_connected`, `wire_short_to_ground`,
//! `wire_reverse_polarity`). It is **one campaign** on the campaign
//! runner: the gyro scenarios drive the full platform (Step DSL), the
//! other sensors are generic [`SensorChannel`] scenarios, and all of them
//! share one [`CampaignReport`] — CSV, telemetry and coverage matrix — and
//! one supervision layer:
//!
//! - `--chaos` (`--chaos-seed N`) injects seeded worker panics and stalls;
//!   the retry leaves the CSV byte-identical to an undisturbed run;
//! - `--deadline S` arms the per-scenario wall-clock watchdog;
//! - `--journal <path>` journals each completed scenario; re-running the
//!   same command after a crash resumes with a byte-identical CSV.
//!
//! Artifacts: `DATASHEET.md` at the repo root (full run; smoke writes to
//! `target/experiments/`), the long-format campaign CSV, merged metrics
//! JSON, and the fault-class × transition coverage matrix. The process
//! exits non-zero when a scheduled wire fault goes undetected, a sensor
//! family fails to characterize, or (`--check-coverage`) a baseline
//! coverage cell goes dark.

use ascp_bench::harness::{repo_root_path, run_campaign, run_to_exit, Args, EXIT_SCENARIO_FAILURE};
use ascp_bench::{experiments_dir, write_metrics};
use ascp_core::campaign::derive_seed;
use ascp_core::datasheet::{FaultCoverage, SensorColumn};
use ascp_core::prelude::*;
use ascp_mems::accel::CapacitiveAccelFrontEnd;
use ascp_mems::frontend::WireFault;
use ascp_mems::pressure::{IatThermistorFrontEnd, MapSensorFrontEnd};
use std::sync::Arc;

/// Channel wire-fault injection time / duration, seconds. The channel
/// supervisor window is 1 ms with a 3-window persistence filter, so 50 ms
/// of fault leaves ample margin for detection *and* latch.
const T_INJECT_S: f64 = 0.05;
const T_FAULT_S: f64 = 0.05;

/// Gyro fault timing (full-platform time scale, matches `fault_campaign`).
const GYRO_T_INJECT_S: f64 = 0.7;
const GYRO_T_FAULT_S: f64 = 0.3;

/// Default chaos seed: chosen so the 18-scenario campaign draws panics on
/// gyro and channel scenarios and stalls on two channel scenarios.
const CHAOS_SEED: u64 = 0xDA10;

/// One generic-channel device entry in the sweep.
struct Device {
    name: &'static str,
    factory: Arc<dyn Fn(u64) -> SensorChannel + Send + Sync>,
    /// Static-transfer stimulus points, engineering units.
    points: Vec<f64>,
    /// Noise-density hold point, engineering units.
    noise_at: f64,
    /// Wire-fault classes this front-end's plausibility bands are
    /// designed to detect (the datasheet shows the per-sensor contrast).
    faults: Vec<WireFault>,
    seed: u64,
}

fn devices(smoke: bool) -> Vec<Device> {
    use WireFault::{NotConnected, ReversePolarity, ShortToGround};
    let thin = |points: Vec<f64>| -> Vec<f64> {
        if smoke {
            // Keep the end points and the middle: enough for a slope fit.
            let mid = points.len() / 2;
            vec![points[0], points[mid], points[points.len() - 1]]
        } else {
            points
        }
    };
    vec![
        Device {
            name: "map",
            factory: Arc::new(|seed| {
                let mut cfg = ChannelConfig::new("map", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
            }),
            points: thin(vec![30.0, 75.0, 120.0, 165.0, 210.0, 255.0, 290.0]),
            noise_at: 101.325,
            faults: vec![NotConnected, ShortToGround, ReversePolarity],
            seed: 0x0DA7_0001,
        },
        Device {
            name: "iat",
            factory: Arc::new(|seed| {
                let mut cfg = ChannelConfig::new("iat", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(IatThermistorFrontEnd::automotive(seed)))
            }),
            points: thin(vec![-20.0, 0.0, 20.0, 40.0, 60.0, 85.0, 110.0]),
            noise_at: 25.0,
            // The thermistor's valid span crosses the protection-diode
            // band, so reverse polarity is undetectable by design.
            faults: vec![NotConnected, ShortToGround],
            seed: 0x0DA7_0002,
        },
        Device {
            name: "accel",
            factory: Arc::new(|seed| {
                SensorChannel::new(
                    ChannelConfig::new("accel", seed),
                    Box::new(CapacitiveAccelFrontEnd::crash_50g(seed)),
                )
            }),
            points: thin(vec![-40.0, -25.0, -10.0, 0.0, 10.0, 25.0, 40.0]),
            noise_at: 0.0,
            faults: vec![NotConnected, ShortToGround, ReversePolarity],
            seed: 0x0DA7_0003,
        },
    ]
}

/// Channel scenarios for one device: transfer, noise, one scenario per
/// designed-detectable wire fault.
fn channel_scenarios(dev: &Device, smoke: bool) -> Vec<ChannelScenario> {
    let mut out = Vec::new();
    out.push(ChannelScenario {
        name: format!("{}/transfer", dev.name),
        factory: dev.factory.clone(),
        measurement: ChannelMeasurement::StaticTransfer {
            points: dev.points.clone(),
            avg: if smoke { 16 } else { 64 },
        },
        seed: dev.seed,
    });
    out.push(ChannelScenario {
        name: format!("{}/noise", dev.name),
        factory: dev.factory.clone(),
        measurement: ChannelMeasurement::NoiseDensity {
            at: dev.noise_at,
            samples: if smoke { 1 << 10 } else { 1 << 13 },
        },
        seed: dev.seed,
    });
    for &fault in &dev.faults {
        out.push(ChannelScenario {
            name: format!("{}/fault/{}", dev.name, fault.label()),
            factory: dev.factory.clone(),
            measurement: ChannelMeasurement::WireFaultResponse {
                fault,
                at_s: T_INJECT_S,
                duration_s: T_FAULT_S,
            },
            seed: dev.seed,
        });
    }
    out
}

/// Gyro scenarios on the full-platform campaign runner: the datasheet
/// measurements plus the three new wire-fault classes (mapped onto the
/// pickoff harness by the platform fault catalog).
fn gyro_scenarios(smoke: bool) -> Vec<ScenarioSpec> {
    let quiet = || {
        PlatformConfig::builder()
            .quiet()
            .cpu_enabled(false)
            .build()
            .expect("valid gyro config")
    };
    let mut out = vec![ScenarioSpec::new("gyro/characterize", quiet())
        .with_step(Step::WaitReady { timeout_s: 2.0 })
        .with_step(Step::MeasureStaticTransfer {
            rate_points: if smoke {
                vec![-300.0, 0.0, 300.0]
            } else {
                vec![-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0]
            },
            samples_per_point: if smoke { 100 } else { 400 },
        })
        .with_step(Step::MeasureNoiseDensity {
            samples: if smoke { 1 << 12 } else { 1 << 14 },
        })];
    for kind in [
        FaultKind::WireNotConnected,
        FaultKind::WireShortToGround,
        FaultKind::WireReversePolarity,
    ] {
        let config = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(false)
            .fault_one_shot(kind, GYRO_T_INJECT_S, GYRO_T_FAULT_S)
            .build()
            .expect("valid gyro fault config");
        out.push(
            ScenarioSpec::new(format!("gyro/fault/{}", kind.label()), config)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })
                .with_step(Step::FaultResponse {
                    t_inject_s: GYRO_T_INJECT_S,
                    t_clear_s: GYRO_T_INJECT_S + GYRO_T_FAULT_S,
                    detect_budget_s: 0.5,
                    recover_budget_s: 4.0,
                    measure_recovery: !smoke,
                }),
        );
    }
    out
}

/// Finds `device/suffix` in the merged outcomes.
fn outcome<'a>(report: &'a CampaignReport, name: &str) -> Option<&'a ScenarioOutcome> {
    report.outcomes.iter().find(|o| o.name == name)
}

fn fault_row(report: &CampaignReport, scenario: &str, class: &str) -> Option<FaultCoverage> {
    let o = outcome(report, scenario)?;
    Some(FaultCoverage {
        class: class.to_owned(),
        detected: o.metric("detected") == Some(1.0),
        latency_ms: o
            .metric("latency_ms")
            .or_else(|| o.metric("detection_latency_s").map(|s| s * 1.0e3))
            .unwrap_or(-1.0),
    })
}

/// Assembles one device column from the merged report.
fn device_column(report: &CampaignReport, dev: &Device) -> SensorColumn {
    // One throwaway channel instance answers the static questions
    // (unit, range) straight from the front-end contract.
    let ch = (dev.factory)(dev.seed);
    let (lo, hi) = ch.frontend().range();
    let unit = ch.frontend().unit();
    let transfer = outcome(report, &format!("{}/transfer", dev.name));
    let noise = outcome(report, &format!("{}/noise", dev.name));
    SensorColumn {
        device: dev.name.to_owned(),
        unit: unit.to_owned(),
        full_scale: format!("{lo}..{hi} {unit}"),
        sensitivity_v_per_eu: transfer.and_then(|o| o.metric("sensitivity_v_per_eu")),
        transfer_slope: transfer.and_then(|o| o.metric("transfer_slope")),
        linearity_pct_fs: transfer.and_then(|o| o.metric("linearity_pct_fs")),
        noise_density_eu_rthz: noise.and_then(|o| o.metric("noise_density_eu_rthz")),
        offset_eu: transfer.and_then(|o| o.metric("offset_eu")),
        fault_coverage: dev
            .faults
            .iter()
            .filter_map(|f| {
                fault_row(
                    report,
                    &format!("{}/fault/{}", dev.name, f.label()),
                    f.label(),
                )
            })
            .collect(),
    }
}

/// Assembles the gyro column (platform metric names differ: °/s scale,
/// volts-referenced sensitivity and null).
fn gyro_column(report: &CampaignReport) -> SensorColumn {
    let c = outcome(report, "gyro/characterize");
    let sensitivity = c.and_then(|o| o.metric("sensitivity_v_per_dps"));
    SensorColumn {
        device: "gyro".to_owned(),
        unit: "°/s".to_owned(),
        full_scale: "-300..300 °/s".to_owned(),
        sensitivity_v_per_eu: sensitivity,
        // The platform output is volts around a 2.5 V null; the channel
        // slope metric has no analogue here.
        transfer_slope: None,
        linearity_pct_fs: c.and_then(|o| o.metric("nonlinearity_pct_fs")),
        noise_density_eu_rthz: c.and_then(|o| o.metric("noise_density_dps_rthz")),
        offset_eu: c.and_then(|o| {
            let null = o.metric("null_v")?;
            Some((null - 2.5) / sensitivity?)
        }),
        fault_coverage: [
            FaultKind::WireNotConnected,
            FaultKind::WireShortToGround,
            FaultKind::WireReversePolarity,
        ]
        .iter()
        .filter_map(|k| fault_row(report, &format!("gyro/fault/{}", k.label()), k.label()))
        .collect(),
    }
}

fn main() {
    run_to_exit("sensor_datasheet", run);
}

fn run() -> Result<i32, Box<dyn std::error::Error>> {
    let args = Args::parse("sensor_datasheet");
    let smoke = args.smoke;
    let threads = args.threads;
    let devs = devices(smoke);
    println!(
        "sensor_datasheet: characterizing {} sensor families on {threads} worker thread(s){}",
        devs.len() + 1,
        if smoke { " (smoke)" } else { "" }
    );

    // One campaign: the gyro scenarios first, then the generic channels.
    let channels = devs.iter().flat_map(|d| channel_scenarios(d, smoke));
    let scenarios: Vec<Scenario> = gyro_scenarios(smoke)
        .into_iter()
        .map(Scenario::from)
        .chain(channels.enumerate().map(|(k, mut sc)| {
            // Seed k of the former channel-only pool keeps DATASHEET.md byte-identical.
            sc.seed = derive_seed(sc.seed, k as u64);
            Scenario::from(sc)
        }))
        .collect();
    let report = run_campaign(&args, CampaignOptions::builder(), CHAOS_SEED, scenarios)?;

    for o in &report.outcomes {
        print!("  {:<32}", o.name);
        if o.failed() {
            println!("POISONED");
            continue;
        }
        match o.metric("detected") {
            Some(1.0) => {
                let ms = o
                    .metric("latency_ms")
                    .or_else(|| o.metric("detection_latency_s").map(|s| s * 1.0e3))
                    .unwrap_or(-1.0);
                println!("detected in {ms:>6.1} ms");
            }
            Some(_) => println!("NOT DETECTED"),
            None => println!("done"),
        }
    }

    // The cross-sensor datasheet: gyro column first, then the sweep order.
    let mut sheet = CrossSensorReport::default();
    sheet.push(gyro_column(&report));
    for dev in &devs {
        sheet.push(device_column(&report, dev));
    }
    let md = sheet.to_markdown();
    let md_path = if smoke {
        experiments_dir()?.join("DATASHEET.md")
    } else {
        repo_root_path("DATASHEET.md")
    };
    std::fs::write(&md_path, &md)?;
    println!("  datasheet -> {}", md_path.display());
    let sheet_csv = experiments_dir()?.join("sensor_datasheet.sheet.csv");
    std::fs::write(&sheet_csv, sheet.to_csv())?;

    // Shared campaign artifacts.
    let csv_path = experiments_dir()?.join("sensor_datasheet.csv");
    std::fs::write(&csv_path, report.to_csv())?;
    println!("  csv -> {}", csv_path.display());
    write_metrics("sensor_datasheet", &report.to_telemetry())?;
    let coverage = report.coverage();
    std::fs::write(
        experiments_dir()?.join("sensor_datasheet.coverage.md"),
        coverage.to_markdown(),
    )?;
    let cov_csv = coverage.to_csv();
    std::fs::write(
        experiments_dir()?.join("sensor_datasheet.coverage.csv"),
        &cov_csv,
    )?;
    println!(
        "  coverage: {}/{} fault classes exercised -> target/experiments/",
        coverage.exercised_classes().len(),
        coverage.classes().len()
    );

    let mut failures = false;

    // Gate 1: every sensor family produced a characterization column.
    for col in &sheet.columns {
        if col.sensitivity_v_per_eu.is_none() || col.noise_density_eu_rthz.is_none() {
            eprintln!(
                "sensor_datasheet: sensor `{}` failed to characterize",
                col.device
            );
            failures = true;
        }
    }

    // Gate 2: every scheduled wire fault was detected.
    for col in &sheet.columns {
        for fc in &col.fault_coverage {
            if !fc.detected {
                eprintln!(
                    "sensor_datasheet: UNDETECTED wire fault {} on `{}`",
                    fc.class, col.device
                );
                failures = true;
            }
        }
    }

    // Gate 3: the three new wire-fault classes all appear in coverage.
    for class in [
        "wire_not_connected",
        "wire_short_to_ground",
        "wire_reverse_polarity",
    ] {
        if !sheet.fault_classes().iter().any(|c| c == class) {
            eprintln!("sensor_datasheet: wire-fault class `{class}` never exercised");
            failures = true;
        }
    }

    // Gate 4 (CI): baseline coverage cells must stay lit.
    if let Some(baseline) = args.check_coverage.as_deref() {
        let path = repo_root_path(baseline);
        let body = std::fs::read_to_string(&path)?;
        let lost = coverage.regressions(&body);
        if lost.is_empty() {
            println!("  coverage check vs {}: ok", path.display());
        } else {
            eprintln!(
                "sensor_datasheet: coverage REGRESSION vs {} — cells no longer exercised:",
                path.display()
            );
            for (class, edge) in &lost {
                eprintln!("  {class} × {edge}");
            }
            failures = true;
        }
    }

    let poisoned = report.failed_scenarios();
    if !poisoned.is_empty() {
        eprintln!("sensor_datasheet: POISONED scenarios: {poisoned:?}");
        failures = true;
    }
    if failures {
        return Ok(EXIT_SCENARIO_FAILURE);
    }
    println!(
        "sensor_datasheet: {} sensor families, {} scenarios, wall {:.2} s",
        sheet.columns.len(),
        report.outcomes.len(),
        report.wall_s
    );
    Ok(0)
}
