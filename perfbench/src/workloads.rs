//! The four seeded workloads: generators, execution through the
//! simulator's public entry points, and output checks.
//!
//! A generator turns a seed into plain specs (`ScenarioSpec`s, or channel
//! jobs); the simulator only ever sees those specs. Execution goes through
//! `CampaignRunner::run` (gyro workloads) or `SensorChannel`'s own methods
//! (channel workload), and ends with the rendered report: CSV, telemetry
//! and coverage matrix.

use ascp_core::campaign::{CampaignObserver, CampaignReport, ScenarioOutcome, ScenarioStatus};
use ascp_core::firmware;
use ascp_core::prelude::*;
use ascp_dsp::fft::{band_density, welch_psd, Window};
use ascp_mems::accel::CapacitiveAccelFrontEnd;
use ascp_mems::frontend::WireFault;
use ascp_mems::pressure::{IatThermistorFrontEnd, MapSensorFrontEnd};
use ascp_sim::fault::AdcChannel;
use ascp_sim::noise::Rng64;
use ascp_sim::snapshot::fnv1a64;
use ascp_sim::stats;
use ascp_sim::telemetry::trace::TraceRecorder;
use ascp_sim::telemetry::RecorderConfig;
use std::sync::Arc;
use std::time::Instant;

/// Paper Table 1 typical sensitivity of the gyro rate output, V per °/s.
pub const TABLE1_SENSITIVITY_V_PER_DPS: f64 = 0.005;

/// Allowed departure of the rate-table sensitivity from Table 1 typical,
/// percent (over the whole rate × temperature table).
pub const RATE_TABLE_SENS_BAND_PCT: f64 = 5.0;

/// Gyro DSP tick rate of every gyro workload (the platform default), Hz.
pub const GYRO_TICK_HZ: f64 = 250_000.0;

/// Flight-recorder depth armed on every fault scenario (≈ 8 ms of ticks).
const RECORDER_DEPTH: usize = 2048;

/// Residual-rate window the fault protocol runs after recovery, seconds.
const RESIDUAL_WINDOW_S: f64 = 0.1;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FaultSweep,
    MonteCarloFleet,
    RateTableWarm,
    ChannelDatasheet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FaultSweep,
        Workload::MonteCarloFleet,
        Workload::RateTableWarm,
        Workload::ChannelDatasheet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::FaultSweep => "fault_sweep",
            Self::MonteCarloFleet => "montecarlo_fleet",
            Self::RateTableWarm => "rate_table_warm",
            Self::ChannelDatasheet => "channel_datasheet",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the gyro platform (and so has a tick).
    pub fn is_gyro(self) -> bool {
        self != Self::ChannelDatasheet
    }
}

/// Workload size: `Full` is what the benchmark measures; `Short` is a
/// cut-down instance of the same generator for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Short,
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// One fault class of the sweep with its drawn timing and budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCase {
    pub kind: FaultKind,
    pub t_inject_s: f64,
    pub duration_s: f64,
    pub detect_budget_s: f64,
    pub recover_budget_s: f64,
    pub needs_cpu: bool,
}

/// Nominal fault catalog: `(kind, duration, detect budget, recover budget,
/// needs CPU)`, the envelope the fault campaign detects. Severities are
/// drawn around the nominal value by [`fault_cases`].
fn nominal_catalog() -> Vec<(FaultKind, f64, f64, f64, bool)> {
    vec![
        (FaultKind::MemsDriveLoss, 0.45, 0.8, 3.0, false),
        (FaultKind::SensorDisconnect, 0.3, 0.2, 2.5, false),
        (
            FaultKind::AdcStuckBit {
                channel: AdcChannel::Secondary,
                bit: 11,
                value: false,
            },
            0.3,
            0.2,
            2.0,
            false,
        ),
        (
            FaultKind::AdcStuckCode {
                channel: AdcChannel::Primary,
                code: 0,
            },
            0.3,
            0.2,
            3.5,
            false,
        ),
        (
            FaultKind::AdcOverload {
                channel: AdcChannel::Primary,
                gain: 4.0,
            },
            0.3,
            0.15,
            2.0,
            false,
        ),
        (
            FaultKind::ReferenceDroop { frac: 0.4 },
            0.3,
            0.35,
            2.5,
            false,
        ),
        (FaultKind::PllUnlock, 0.05, 0.15, 8.0, false),
        (FaultKind::SpiBitErrors { rate: 0.9 }, 0.3, 0.15, 1.0, false),
        (FaultKind::UartBitErrors { rate: 0.5 }, 0.3, 0.35, 1.0, true),
        (
            FaultKind::JtagCorruption { rate: 0.1 },
            0.3,
            0.25,
            1.0,
            false,
        ),
        (FaultKind::CpuHang, 0.06, 0.25, 2.0, true),
        (FaultKind::WireNotConnected, 0.3, 0.5, 4.0, false),
        (FaultKind::WireShortToGround, 0.3, 0.5, 4.0, false),
        (FaultKind::WireReversePolarity, 0.3, 0.5, 4.0, false),
    ]
}

/// Draws every fault class's injection time, duration and severity from
/// `seed`, inside the envelope the fault campaign detects.
pub fn fault_cases(seed: u64, scale: Scale) -> Vec<FaultCase> {
    let mut rng = Rng64::new(seed ^ 0xFA17_5EED);
    let mut cases: Vec<FaultCase> = nominal_catalog()
        .into_iter()
        .map(|(kind, duration, detect, recover, needs_cpu)| {
            let kind = match kind {
                FaultKind::AdcOverload { channel, .. } => FaultKind::AdcOverload {
                    channel,
                    gain: rng.gen_range(3.6, 4.4),
                },
                FaultKind::ReferenceDroop { .. } => FaultKind::ReferenceDroop {
                    frac: rng.gen_range(0.37, 0.43),
                },
                FaultKind::SpiBitErrors { .. } => FaultKind::SpiBitErrors {
                    rate: rng.gen_range(0.85, 0.95),
                },
                FaultKind::UartBitErrors { .. } => FaultKind::UartBitErrors {
                    rate: rng.gen_range(0.45, 0.55),
                },
                FaultKind::JtagCorruption { .. } => FaultKind::JtagCorruption {
                    rate: rng.gen_range(0.09, 0.12),
                },
                other => other,
            };
            FaultCase {
                kind,
                t_inject_s: rng.gen_range(0.65, 0.75),
                duration_s: duration * rng.gen_range(0.9, 1.1),
                detect_budget_s: detect,
                recover_budget_s: recover,
                needs_cpu,
            }
        })
        .collect();
    if scale == Scale::Short {
        // Three classes (one CPU case) keep the short instance meaningful.
        cases.retain(|c| {
            matches!(
                c.kind,
                FaultKind::SensorDisconnect | FaultKind::SpiBitErrors { .. } | FaultKind::CpuHang
            )
        });
    }
    cases
}

/// The platform config one fault case runs on.
pub fn fault_config(case: &FaultCase, image: &[u8]) -> PlatformConfig {
    let mut b = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(case.needs_cpu)
        .spi_probe_period(1)
        .jtag_probe_period(10)
        .fault_one_shot(case.kind, case.t_inject_s, case.duration_s)
        .recorder(RecorderConfig::fault_triggers(RECORDER_DEPTH));
    if case.needs_cpu {
        b = b.firmware(image.to_vec());
    }
    b.build().expect("valid fault-sweep config")
}

fn fault_spec(case: &FaultCase, image: &[u8]) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(case.kind.label(), fault_config(case, image));
    if case.needs_cpu {
        // 20 000 machine cycles ≈ 12 ms at the divided CPU clock.
        spec = spec.with_step(Step::ArmWatchdog {
            timeout_cycles: 20_000,
        });
    }
    spec.with_step(Step::WaitReady { timeout_s: 2.0 })
        .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })
        .with_step(Step::FaultResponse {
            t_inject_s: case.t_inject_s,
            t_clear_s: case.t_inject_s + case.duration_s,
            detect_budget_s: case.detect_budget_s,
            recover_budget_s: case.recover_budget_s,
            measure_recovery: true,
        })
}

/// One Monte-Carlo population: a rate on the ladder and its dispersion.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    pub rate_dps: f64,
    pub dispersion: Dispersion,
    pub seed: u64,
}

/// Lanes per population (one full fleet group).
pub const MC_LANES: usize = 16;
/// Settle time before the rate step, seconds (PLL lock + AGC settling).
const MC_SETTLE_S: f64 = 0.45;
/// Rate-step settling before the measurement window, seconds.
const MC_STEP_SETTLE_S: f64 = 0.05;
/// Mean-rate window, seconds.
const MC_WINDOW_S: f64 = 0.05;

/// Scale-factor tolerance of an undispersed lane against the applied
/// rate: the quiet open-loop platform reads about 2.4 % low.
const MC_SCALE_TOL: f64 = 0.03;
/// Absolute floor of a lane's dispersion band, °/s.
const MC_FLOOR_DPS: f64 = 1.0;

/// Draws the rate ladder and per-population dispersion from `seed`.
pub fn populations(seed: u64, scale: Scale) -> Vec<Population> {
    let mut rng = Rng64::new(seed ^ 0x0C0F_1EE7);
    let rungs: &[f64] = match scale {
        Scale::Full => &[-250.0, -100.0, 100.0, 250.0],
        Scale::Short => &[150.0],
    };
    rungs
        .iter()
        .map(|&rung| Population {
            rate_dps: rung * rng.gen_range(0.9, 1.1),
            dispersion: Dispersion::none()
                .with_omega_frac(rng.gen_range(0.002, 0.005))
                .with_q_frac(rng.gen_range(0.05, 0.1))
                .with_offset_dps(rng.gen_range(0.5, 1.0))
                .with_gain_frac(rng.gen_range(0.01, 0.02)),
            seed: rng.next_u64(),
        })
        .collect()
}

pub fn montecarlo_config() -> PlatformConfig {
    PlatformConfig::builder()
        .quiet()
        .build()
        .expect("valid Monte-Carlo config")
}

fn population_spec(i: usize, pop: &Population) -> ScenarioSpec {
    ScenarioSpec::new(format!("pop{i}"), montecarlo_config())
        .with_seed(pop.seed)
        .monte_carlo(MC_LANES, pop.dispersion)
        .with_step(Step::Run {
            seconds: MC_SETTLE_S,
        })
        .with_step(Step::SetRate { dps: pop.rate_dps })
        .with_step(Step::Run {
            seconds: MC_STEP_SETTLE_S,
        })
        .with_step(Step::MeasureMeanRate {
            label: "mean_dps".into(),
            window_s: MC_WINDOW_S,
        })
}

/// One rate × temperature table point.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePoint {
    pub rate_dps: f64,
    pub celsius: f64,
}

/// Static-transfer sweep of every table point, °/s.
const TABLE_SWEEP_DPS: [f64; 3] = [-200.0, 0.0, 200.0];
/// Static-transfer samples per sweep point (decimated outputs).
const TABLE_SAMPLES_PER_POINT: usize = 200;
/// Static-transfer settle per sweep point (`CharacterizationConfig`
/// default), seconds.
const TABLE_POINT_SETTLE_S: f64 = 0.3;
/// Noise-density capture, decimated outputs.
const TABLE_NOISE_SAMPLES: usize = 4096;
/// Temperature soak at the table point before measuring, seconds.
const TABLE_SOAK_S: f64 = 0.05;
/// Rate-table mean window, seconds.
const TABLE_MEAN_WINDOW_S: f64 = 0.05;

/// Draws the rate × temperature table from `seed`.
pub fn table_points(seed: u64, scale: Scale) -> (u64, Vec<TablePoint>) {
    let mut rng = Rng64::new(seed ^ 0x7AB1_E000);
    let temps: &[f64] = match scale {
        Scale::Full => &[-30.0, 25.0, 80.0],
        Scale::Short => &[25.0],
    };
    let rates: &[f64] = match scale {
        Scale::Full => &[-150.0, 50.0, 150.0],
        Scale::Short => &[100.0],
    };
    let mut points = Vec::new();
    for &t in temps {
        for &r in rates {
            points.push(TablePoint {
                rate_dps: r * rng.gen_range(0.8, 1.2),
                celsius: t + rng.gen_range(-5.0, 5.0),
            });
        }
    }
    (rng.next_u64(), points)
}

pub fn table_config(image: &[u8]) -> PlatformConfig {
    // The paper's default platform: default noise, 8051 monitor running.
    PlatformConfig::builder()
        .firmware(image.to_vec())
        .build()
        .expect("valid rate-table config")
}

/// The shared bring-up recipe (the warm-start prefix): identical on every
/// point, so one checkpoint serves the whole table.
fn bring_up() -> [Step; 2] {
    [
        Step::WaitReady { timeout_s: 2.0 },
        Step::WaitSupervisorNormal { timeout_s: 0.1 },
    ]
}

fn table_spec(seed: u64, point: &TablePoint, config: &PlatformConfig) -> ScenarioSpec {
    ScenarioSpec::new(
        format!("r{:+.1}_t{:+.1}", point.rate_dps, point.celsius),
        config.clone(),
    )
    .with_seed(seed)
    .with_steps(bring_up())
    // `SetRate` ends the shared prefix; temperature follows it so every
    // point restores the same checkpoint.
    .with_step(Step::SetRate {
        dps: point.rate_dps,
    })
    .with_step(Step::SetTemperature {
        celsius: point.celsius,
    })
    .with_step(Step::Run {
        seconds: TABLE_SOAK_S,
    })
    .with_step(Step::MeasureMeanRate {
        label: "mean_dps".into(),
        window_s: TABLE_MEAN_WINDOW_S,
    })
    .with_step(Step::MeasureStaticTransfer {
        rate_points: TABLE_SWEEP_DPS.to_vec(),
        samples_per_point: TABLE_SAMPLES_PER_POINT,
    })
    .with_step(Step::MeasureNoiseDensity {
        samples: TABLE_NOISE_SAMPLES,
    })
}

/// Channel families of the datasheet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Map,
    Iat,
    Accel,
}

impl Family {
    pub const ALL: [Family; 3] = [Family::Map, Family::Iat, Family::Accel];

    pub fn name(self) -> &'static str {
        match self {
            Self::Map => "map",
            Self::Iat => "iat",
            Self::Accel => "accel",
        }
    }

    /// Builds the family's channel (the shared conditioning portfolio).
    pub fn channel(self, seed: u64) -> SensorChannel {
        match self {
            Self::Map => {
                let mut cfg = ChannelConfig::new("map", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
            }
            Self::Iat => {
                let mut cfg = ChannelConfig::new("iat", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(IatThermistorFrontEnd::automotive(seed)))
            }
            Self::Accel => SensorChannel::new(
                ChannelConfig::new("accel", seed),
                Box::new(CapacitiveAccelFrontEnd::crash_50g(seed)),
            ),
        }
    }

    /// Stimulus span swept for the static transfer, engineering units.
    pub fn span(self) -> (f64, f64) {
        match self {
            Self::Map => (30.0, 290.0),
            Self::Iat => (-20.0, 110.0),
            Self::Accel => (-40.0, 40.0),
        }
    }

    /// Wire faults the family's plausibility bands are designed to detect
    /// (the thermistor's valid span crosses the reverse-polarity band).
    pub fn faults(self) -> &'static [WireFault] {
        use WireFault::{NotConnected, ReversePolarity, ShortToGround};
        match self {
            Self::Iat => &[NotConnected, ShortToGround],
            Self::Map | Self::Accel => &[NotConnected, ShortToGround, ReversePolarity],
        }
    }
}

/// What one channel job measures.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelTask {
    Transfer {
        points: Vec<f64>,
        avg: usize,
    },
    Noise {
        at: f64,
        samples: usize,
    },
    Fault {
        fault: WireFault,
        at_s: f64,
        duration_s: f64,
    },
}

/// One channel scenario of the datasheet workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelJob {
    pub name: String,
    pub family: Family,
    pub seed: u64,
    pub task: ChannelTask,
}

/// Allowed departure of a channel's mean output from its stimulus, as a
/// share of the family's swept span.
const CHANNEL_HOLD_TOL: f64 = 0.02;

/// Channel supervision: 1 ms windows, 3-window persistence; a fault is
/// detected within this budget of its injection.
pub const CHANNEL_DETECT_BUDGET_MS: f64 = 10.0;

/// Draws the channel datasheet jobs from `seed`.
pub fn channel_jobs(seed: u64, scale: Scale) -> Vec<ChannelJob> {
    let mut rng = Rng64::new(seed ^ 0xC4A2_2E15);
    let (points, avg, noise_samples) = match scale {
        Scale::Full => (7, 64, 1 << 14),
        Scale::Short => (3, 16, 1 << 10),
    };
    let mut jobs = Vec::new();
    for family in Family::ALL {
        let (lo, hi) = family.span();
        let step = (hi - lo) / (points - 1) as f64;
        // Jitter every interior point by up to a quarter step.
        let sweep: Vec<f64> = (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                if i == 0 || i == points - 1 {
                    x
                } else {
                    x + step * rng.gen_range(-0.25, 0.25)
                }
            })
            .collect();
        jobs.push(ChannelJob {
            name: format!("{}/transfer", family.name()),
            family,
            seed: rng.next_u64(),
            task: ChannelTask::Transfer { points: sweep, avg },
        });
        jobs.push(ChannelJob {
            name: format!("{}/noise", family.name()),
            family,
            seed: rng.next_u64(),
            task: ChannelTask::Noise {
                at: lo + (hi - lo) * rng.gen_range(0.3, 0.7),
                samples: noise_samples,
            },
        });
        for &fault in family.faults() {
            jobs.push(ChannelJob {
                name: format!("{}/fault/{}", family.name(), fault.label()),
                family,
                seed: rng.next_u64(),
                task: ChannelTask::Fault {
                    fault,
                    at_s: rng.gen_range(0.04, 0.06),
                    duration_s: rng.gen_range(0.04, 0.06),
                },
            });
        }
    }
    jobs
}

// ---------------------------------------------------------------------------
// Set-up and execution
// ---------------------------------------------------------------------------

/// A workload instance ready to run: everything the set-up phase builds.
pub enum Prepared {
    Campaign {
        runner: CampaignRunner,
        specs: Vec<ScenarioSpec>,
    },
    Channels {
        jobs: Vec<ChannelJob>,
        channels: Vec<SensorChannel>,
    },
}

/// Everything a workload's generator draws from the seed (the self-tests
/// compare these across seeds).
#[derive(Debug, Clone, PartialEq)]
pub enum Draw {
    Faults(Vec<FaultCase>),
    Populations(Vec<Population>),
    Table(u64, Vec<TablePoint>),
    Channels(Vec<ChannelJob>),
}

pub fn draw(workload: Workload, seed: u64, scale: Scale) -> Draw {
    match workload {
        Workload::FaultSweep => Draw::Faults(fault_cases(seed, scale)),
        Workload::MonteCarloFleet => Draw::Populations(populations(seed, scale)),
        Workload::RateTableWarm => {
            let (s, p) = table_points(seed, scale);
            Draw::Table(s, p)
        }
        Workload::ChannelDatasheet => Draw::Channels(channel_jobs(seed, scale)),
    }
}

/// The set-up phase: spec generation, config validation, firmware
/// assembly, runner or channel construction. `observer` is attached only
/// by the traced run.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: Scale,
    threads: usize,
    observer: Option<Arc<dyn CampaignObserver>>,
) -> Prepared {
    setup_draw(draw(workload, seed, scale), threads, observer)
}

/// [`setup`] from an already drawn workload.
pub fn setup_draw(
    draw: Draw,
    threads: usize,
    observer: Option<Arc<dyn CampaignObserver>>,
) -> Prepared {
    let image = || firmware::monitor_image().expect("monitor firmware assembles");
    let runner = |warm: bool| {
        let mut b = CampaignOptions::builder().threads(threads);
        if warm {
            b = b.warm_start(true);
        }
        if let Some(obs) = observer.clone() {
            b = b.observer(obs);
        }
        CampaignRunner::with_options(b.build().expect("valid campaign options"))
    };
    match draw {
        Draw::Faults(cases) => {
            let image = image();
            Prepared::Campaign {
                runner: runner(false),
                specs: cases.iter().map(|c| fault_spec(c, &image)).collect(),
            }
        }
        Draw::Populations(pops) => Prepared::Campaign {
            runner: runner(false),
            specs: pops
                .iter()
                .enumerate()
                .map(|(i, p)| population_spec(i, p))
                .collect(),
        },
        Draw::Table(table_seed, points) => {
            let config = table_config(&image());
            Prepared::Campaign {
                runner: runner(true),
                specs: points
                    .iter()
                    .map(|p| table_spec(table_seed, p, &config))
                    .collect(),
            }
        }
        Draw::Channels(jobs) => {
            let channels = jobs.iter().map(|j| j.family.channel(j.seed)).collect();
            Prepared::Channels { jobs, channels }
        }
    }
}

/// The rendered result of one workload execution.
pub struct Executed {
    pub report: CampaignReport,
    pub csv: String,
    /// Wall time from the first call into the simulator until the report
    /// (CSV + telemetry + coverage) is rendered, seconds.
    pub wall_s: f64,
    /// Wall time of report rendering alone, seconds.
    pub render_s: f64,
    /// Wall time of the simulator calls (`wall_s` minus rendering),
    /// seconds.
    pub run_s: f64,
    /// Id of the span around the simulator calls, the scenario spans'
    /// parent (0 when untraced).
    pub campaign_span: u64,
}

/// Runs a prepared workload and renders its report. With a recorder, one
/// span goes around the simulator calls (`campaign`, or `channels` with
/// one `channel:<job>` span per job) and one around report rendering.
pub fn execute(prepared: Prepared, mut rec: Option<&mut TraceRecorder>) -> Executed {
    let label = match prepared {
        Prepared::Campaign { .. } => "campaign",
        Prepared::Channels { .. } => "channels",
    };
    let t0 = Instant::now();
    let run_span = rec.as_deref_mut().map(|r| r.begin(label, 0.0));
    let campaign_span = rec
        .as_deref()
        .and_then(|r| r.spans().last())
        .map_or(0, |s| s.id);
    let report = match prepared {
        Prepared::Campaign { runner, specs } => runner.run(specs),
        Prepared::Channels { jobs, channels } => {
            let outcomes = jobs
                .iter()
                .zip(channels)
                .enumerate()
                .map(|(index, (job, ch))| {
                    let span = rec
                        .as_deref_mut()
                        .map(|r| r.begin(format!("channel:{}", job.name), 0.0));
                    let out = run_channel_job(index, job, ch);
                    if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                        r.end(id, out.metric("sim_s").unwrap_or(0.0));
                    }
                    out
                })
                .collect();
            CampaignReport {
                outcomes,
                threads: 1,
                wall_s: t0.elapsed().as_secs_f64(),
                warm_hits: 0,
                resumed: 0,
                trace: None,
            }
        }
    };
    let t1 = Instant::now();
    if let (Some(r), Some(id)) = (rec.as_deref_mut(), run_span) {
        r.end(id, 0.0);
    }
    let render_span = rec.as_deref_mut().map(|r| r.begin("report", 0.0));
    let csv = render(&report);
    let t2 = Instant::now();
    if let (Some(r), Some(id)) = (rec, render_span) {
        r.end(id, 0.0);
    }
    Executed {
        report,
        csv,
        wall_s: (t2 - t0).as_secs_f64(),
        render_s: (t2 - t1).as_secs_f64(),
        run_s: (t1 - t0).as_secs_f64(),
        campaign_span,
    }
}

/// Renders the report artifacts: CSV, telemetry JSON and the coverage
/// matrix. Returns the CSV.
fn render(report: &CampaignReport) -> String {
    std::hint::black_box(report.to_telemetry().to_json());
    std::hint::black_box(report.coverage().to_csv());
    report.to_csv()
}

/// The channel protocol of one job, driven through `SensorChannel`'s own
/// methods. Returns the scenario outcome (time lands in metric `sim_s`).
fn run_channel_job(index: usize, job: &ChannelJob, mut ch: SensorChannel) -> ScenarioOutcome {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut fault_classes: Vec<&'static str> = Vec::new();
    match &job.task {
        ChannelTask::Transfer { points, avg } => {
            ch.settle(0.02);
            let mut eus = Vec::with_capacity(points.len());
            for &p in points {
                ch.set_stimulus(p);
                ch.settle(0.01);
                eus.push(ch.read(*avg));
            }
            let fit = stats::linear_fit(points, &eus);
            let (lo, hi) = ch.frontend().range();
            metrics.push(("transfer_slope".into(), fit.slope));
            metrics.push((
                "linearity_pct_fs".into(),
                100.0 * fit.max_residual / (hi - lo),
            ));
        }
        ChannelTask::Noise { at, samples } => {
            ch.set_stimulus(*at);
            ch.settle(0.05);
            let xs = ch.collect(*samples);
            let m = stats::mean(&xs);
            let centred: Vec<f64> = xs.iter().map(|x| x - m).collect();
            let fs_out = ch.output_rate();
            let seg = (samples / 4).next_power_of_two().clamp(64, 512);
            let (freqs, psd) = welch_psd(&centred, fs_out, seg, Window::Hann);
            let density = band_density(&freqs, &psd, 5.0, (fs_out / 4.0).min(200.0));
            metrics.push(("mean_eu".into(), m));
            metrics.push(("noise_density_eu_rthz".into(), density));
        }
        ChannelTask::Fault {
            fault,
            at_s,
            duration_s,
        } => {
            let kind = match fault {
                WireFault::NotConnected => FaultKind::WireNotConnected,
                WireFault::ShortToGround => FaultKind::WireShortToGround,
                WireFault::ReversePolarity => FaultKind::WireReversePolarity,
            };
            let expect = match fault {
                WireFault::NotConnected => ChannelStatus::NotConnected,
                WireFault::ShortToGround => ChannelStatus::ShortToGround,
                WireFault::ReversePolarity => ChannelStatus::ReversePolarity,
            };
            fault_classes.push(kind.label());
            let mut plan = FaultPlan::new();
            plan.one_shot(kind, *at_s, *duration_s);
            ch.set_fault_plan(plan);
            let mut detected_at = None;
            let mut recovered = false;
            let end = at_s + duration_s + 0.1;
            while ch.time() < end {
                let _ = ch.step();
                if detected_at.is_none() && ch.status() == expect {
                    detected_at = Some(ch.time());
                }
                if detected_at.is_some()
                    && ch.time() > at_s + duration_s
                    && ch.status() == ChannelStatus::Normal
                {
                    recovered = true;
                    break;
                }
            }
            metrics.push((
                "detected".into(),
                f64::from(u8::from(detected_at.is_some())),
            ));
            if let Some(t) = detected_at {
                metrics.push(("detection_latency_s".into(), t - at_s));
            }
            metrics.push(("recovered".into(), f64::from(u8::from(recovered))));
        }
    }
    metrics.push(("sim_s".into(), ch.time()));
    ScenarioOutcome {
        name: job.name.clone(),
        index,
        seed: job.seed,
        metrics,
        series: Vec::new(),
        fault_classes,
        transitions: ch.transitions().to_vec(),
        capture: None,
        attempt_errors: Vec::new(),
        status: ScenarioStatus::Done,
    }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Result of checking one execution's outputs.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Scenarios (or lanes) attempted.
    pub attempted: usize,
    /// Scenarios poisoned, timed out, or failing their output check.
    pub failed: Vec<String>,
    /// Simulated seconds the workload advanced.
    pub sim_s: f64,
    /// Worst gain error against the reference, percent (`None` where the
    /// workload measures no gain).
    pub gain_err_pct: Option<f64>,
    /// Fault-detection latencies, simulated ms.
    pub detect_ms: Vec<f64>,
    /// Simulated seconds per channel scenario, by family.
    pub family_sim_s: Vec<(Family, f64)>,
}

impl Checked {
    pub fn fail_frac(&self) -> f64 {
        self.failed.len() as f64 / self.attempted.max(1) as f64
    }

    /// Folds the next iteration's check into a run total: counts add up,
    /// the per-iteration results (identical across iterations of one
    /// seed) are replaced.
    pub fn merge(&mut self, next: Checked) {
        self.attempted += next.attempted;
        self.failed.extend(next.failed);
        self.sim_s = next.sim_s;
        self.gain_err_pct = next.gain_err_pct;
        self.detect_ms = next.detect_ms;
        self.family_sim_s = next.family_sim_s;
    }
}

/// Checks one execution's outputs against the workload's references.
pub fn check(workload: Workload, seed: u64, scale: Scale, report: &CampaignReport) -> Checked {
    check_draw(&draw(workload, seed, scale), report)
}

/// [`check`] against an already drawn workload.
pub fn check_draw(draw: &Draw, report: &CampaignReport) -> Checked {
    let mut c = Checked {
        attempted: report.outcomes.len(),
        ..Checked::default()
    };
    let mut failed: Vec<String> = Vec::new();
    let mut fail = |o: &ScenarioOutcome, why: &str| failed.push(format!("{}: {why}", o.name));
    let mut sim_s = 0.0;
    let mut gain_err: Option<f64> = None;
    let mut detect_ms = Vec::new();
    let mut worst = |e: f64| gain_err = Some(gain_err.map_or(e, |g: f64| g.max(e)));
    let usable = |o: &ScenarioOutcome| o.status != ScenarioStatus::Poisoned;
    let expected = match draw {
        Draw::Faults(cases) => cases.len(),
        Draw::Populations(pops) => pops.len() * MC_LANES,
        Draw::Table(_, points) => points.len(),
        Draw::Channels(jobs) => jobs.len(),
    };
    let missing = expected.saturating_sub(report.outcomes.len());
    c.attempted = c.attempted.max(expected);
    match draw {
        Draw::Faults(cases) => {
            for (o, case) in report.outcomes.iter().zip(cases) {
                if !usable(o) {
                    fail(o, "poisoned");
                    continue;
                }
                let t_clear = case.t_inject_s + case.duration_s;
                match (
                    o.metric("detected"),
                    o.metric("detection_latency_s"),
                    o.metric("recovered"),
                    o.metric("recovery_time_s"),
                ) {
                    (Some(d), Some(lat), Some(r), Some(rec)) if d == 1.0 && r == 1.0 => {
                        if !(lat >= 0.0 && lat <= case.detect_budget_s) {
                            fail(o, "detected outside its budget");
                        }
                        if rec > case.recover_budget_s {
                            fail(o, "recovered outside its budget");
                        }
                        detect_ms.push(lat * 1.0e3);
                        sim_s += t_clear + rec + RESIDUAL_WINDOW_S;
                    }
                    (Some(d), ..) if d != 1.0 => fail(o, "fault not detected"),
                    _ => fail(o, "fault not recovered"),
                }
            }
        }
        Draw::Populations(pops) => {
            let per_lane = MC_SETTLE_S + MC_STEP_SETTLE_S + MC_WINDOW_S;
            for (i, pop) in pops.iter().enumerate() {
                let d = pop.dispersion;
                // A ±10 % Q spread moves the open-loop scale factor by
                // about ±1.2 %, hence Q at a quarter weight.
                let band = pop.rate_dps.abs()
                    * (MC_SCALE_TOL + d.gain_frac + d.omega_frac + d.q_frac / 4.0)
                    + d.offset_dps
                    + MC_FLOOR_DPS;
                let prefix = format!("pop{i}/");
                let lanes: Vec<&ScenarioOutcome> = report
                    .outcomes
                    .iter()
                    .filter(|o| o.name.starts_with(&prefix))
                    .collect();
                for o in lanes {
                    if !usable(o) {
                        fail(o, "poisoned");
                        continue;
                    }
                    match o.metric("mean_dps") {
                        Some(m) if (m - pop.rate_dps).abs() <= band => {
                            worst(100.0 * (m / pop.rate_dps - 1.0).abs());
                            sim_s += per_lane;
                        }
                        Some(_) => fail(o, "lane outside its dispersion band"),
                        None => fail(o, "no mean rate"),
                    }
                }
            }
        }
        Draw::Table(..) => {
            let decim_s = TABLE_SAMPLES_PER_POINT as f64 / table_output_rate();
            let per_point = TABLE_SOAK_S
                + TABLE_MEAN_WINDOW_S
                + TABLE_SWEEP_DPS.len() as f64 * (TABLE_POINT_SETTLE_S + decim_s)
                + TABLE_POINT_SETTLE_S
                + TABLE_NOISE_SAMPLES as f64 / table_output_rate();
            let mut prefix_s: Option<f64> = None;
            for o in &report.outcomes {
                if !usable(o) {
                    fail(o, "poisoned");
                    continue;
                }
                if o.metric("locked") != Some(1.0) {
                    fail(o, "did not lock");
                    continue;
                }
                // The bring-up prefix is simulated once and restored for
                // every other point.
                if prefix_s.is_none() {
                    prefix_s = o.metric("supervisor_normal_s");
                }
                match o.metric("sensitivity_v_per_dps") {
                    Some(s) => {
                        let err = 100.0 * (s / TABLE1_SENSITIVITY_V_PER_DPS - 1.0).abs();
                        worst(err);
                        if err > RATE_TABLE_SENS_BAND_PCT {
                            fail(o, "sensitivity outside the Table 1 band");
                        }
                    }
                    None => fail(o, "no sensitivity"),
                }
                if o.metric("noise_density_dps_rthz")
                    .is_none_or(|n| n.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
                {
                    fail(o, "no noise density");
                }
                sim_s += per_point;
            }
            sim_s += prefix_s.unwrap_or(0.0);
        }
        Draw::Channels(jobs) => {
            for (o, job) in report.outcomes.iter().zip(jobs) {
                let job_s = o.metric("sim_s").unwrap_or(0.0);
                sim_s += job_s;
                c.family_sim_s.push((job.family, job_s));
                match &job.task {
                    ChannelTask::Transfer { .. } => match o.metric("transfer_slope") {
                        Some(s) if (s - 1.0).abs() < 0.05 => worst(100.0 * (s - 1.0).abs()),
                        _ => fail(o, "family did not characterize"),
                    },
                    ChannelTask::Noise { at, .. } => {
                        // A capture quieter than one ADC code reads 0:
                        // the density must be finite, not positive.
                        if o.metric("noise_density_eu_rthz")
                            .is_none_or(|n| !(n >= 0.0 && n.is_finite()))
                        {
                            fail(o, "no noise density");
                        }
                        let (lo, hi) = job.family.span();
                        if o.metric("mean_eu")
                            .is_none_or(|m| (m - at).abs() > CHANNEL_HOLD_TOL * (hi - lo))
                        {
                            fail(o, "noise capture off its hold point");
                        }
                    }
                    ChannelTask::Fault { .. } => match o.metric("detection_latency_s") {
                        Some(lat)
                            if o.metric("recovered") == Some(1.0)
                                && lat * 1.0e3 <= CHANNEL_DETECT_BUDGET_MS =>
                        {
                            detect_ms.push(lat * 1.0e3);
                        }
                        _ => fail(o, "wire fault not detected or not recovered"),
                    },
                }
            }
        }
    }
    for _ in 0..missing {
        failed.push("scenario missing from the report".into());
    }
    c.failed = failed;
    c.sim_s = sim_s;
    c.gain_err_pct = gain_err;
    c.detect_ms = detect_ms;
    c
}

/// Decimated output rate of the gyro platform, Hz.
fn table_output_rate() -> f64 {
    GYRO_TICK_HZ / f64::from(ascp_core::chain::ChainConfig::default().demod_decimation)
}

/// FNV-1a digest of a CSV, as printed with every run.
pub fn digest(csv: &str) -> u64 {
    fnv1a64(csv.as_bytes())
}
