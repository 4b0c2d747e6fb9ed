//! Scenario campaigns: declarative platform experiments executed on the
//! parallel [`ascp_sim::campaign`] worker pool.
//!
//! The paper's design flow (§2, Fig. 1) explores one programmable platform
//! across many configurations. This module turns that exploration into
//! data: a [`ScenarioSpec`] names a configuration (built with
//! [`PlatformConfig::builder`]), an optional [`FaultPlan`], a duration, a
//! seed and a list of [`Step`]s (the measurement protocol); a
//! [`CampaignRunner`] shards a `Vec<ScenarioSpec>` across worker threads —
//! one independent [`Platform`] per scenario — and merges the per-scenario
//! metrics into a single [`CampaignReport`] (CSV + telemetry JSON).
//! Generic sensor-channel measurements ([`ChannelScenario`]) are
//! scenarios too: the runner takes any list of [`Scenario`]s, so one
//! campaign characterizes the gyro and the other sensor families under
//! the same supervision, journal and tracing.
//!
//! Determinism contract: every scenario derives its noise seed from its
//! own spec (`seed` override, else the config seed mixed with the
//! scenario's input index), so a campaign's report is **bit-identical for
//! any worker-thread count**. Metrics that were not measured (e.g. no
//! recovery on an undetected fault) are omitted rather than recorded as
//! NaN, keeping the CSV and JSON artifacts byte-stable. Scenarios that
//! share a settle recipe can additionally share the lock transient's cost
//! through the warm-start checkpoint cache
//! (`CampaignOptions::builder().warm_start(true)`) — with reports still
//! byte-identical to cold runs.
//!
//! Runner behaviour is configured through [`CampaignOptions`], a typed
//! options struct with a validating builder
//! ([`CampaignOptions::builder`]). The former `CampaignRunner::with_*`
//! setters were removed after a deprecation cycle; see DESIGN.md §14
//! for the old → new mapping table.
//!
//! # Monte-Carlo axis
//!
//! [`ScenarioSpec::monte_carlo`] expands one spec into `n` *lanes* —
//! scenarios named `{name}/mc{i}` whose seeds derive from the spec's base
//! seed and whose physical parameters (resonator frequency, quality
//! factors, quadrature rate, charge gain) are perturbed per lane by a
//! [`Dispersion`] — the paper's device-mismatch exploration as one line
//! of campaign code. Lanes are ordinary scenarios: they journal, resume,
//! retry, and land in the CSV individually. Consecutive sibling lanes
//! whose steps use only the lockstep-safe vocabulary (`Run`, `SetRate`,
//! `SetTemperature`, `MeasureMeanRate`) additionally execute *batched*
//! on a [`PlatformFleet`] — structure-of-arrays, up to 16 lanes per
//! fleet — with **byte-identical** results to scalar execution (fleet
//! batching is a wall-clock optimisation, never an arithmetic change;
//! disable it with `CampaignOptions::builder().fleet(false)`).
//!
//! # Supervision
//!
//! The runner is fault-tolerant: scenarios execute under a supervision
//! layer whose per-scenario FSM is `Queued → Running → {Done, Retrying(n)
//! → Running, TimedOut → Retrying, Poisoned}`. A panicking scenario is
//! caught ([`ScenarioError::Panicked`]) instead of killing the pool; a
//! scenario overrunning the configured wall-clock deadline
//! (`CampaignOptions::builder().deadline_s(..)`) is cancelled by a
//! watchdog thread
//! ([`ScenarioError::TimedOut`]); failed attempts are retried (default
//! once, `CampaignOptions::builder().retries(..)`) with the derived seed
//! **unchanged**, so a retried success is byte-identical to a first-try
//! run; a scenario that exhausts its retries is quarantined as
//! [`ScenarioStatus::Poisoned`] and ships as a failed CSV row instead of
//! aborting the campaign. [`CampaignRunner::run_with_journal`] records
//! each completed scenario in a crash-tolerant append-only journal
//! ([`crate::journal`]) and [`CampaignRunner::resume`] merges it back
//! byte-identically after a crash; a chaos plan
//! (`CampaignOptions::builder().chaos(..)`) injects deterministic worker
//! panics/stalls to exercise all of the above.
//!
//! # Step vocabulary
//!
//! Steps either evolve platform state or measure it; every measurement
//! lands in the scenario's [`ScenarioOutcome`] and, through
//! [`CampaignReport::to_csv`], in the long-format CSV
//! (`scenario,metric,value,status` rows).
//!
//! | Step | Measures | CSV metric columns |
//! |------|----------|--------------------|
//! | [`Step::ArmWatchdog`] | — (arms the watchdog) | — |
//! | [`Step::WaitReady`] | PLL lock + AGC settling | `locked`, `turn_on_s` |
//! | [`Step::WaitSupervisorNormal`] | supervisor bring-up | `supervisor_normal_s` |
//! | [`Step::Run`] | — (advances time) | — |
//! | [`Step::SetRate`] | — (rate table stimulus) | — |
//! | [`Step::SetTemperature`] | — (chamber setpoint) | — |
//! | [`Step::FreezeAgcDrive`] | — (AGC-off ablation arm) | — |
//! | [`Step::TrimRebalancePhase`] | closed-loop axis trim | `rebalance_phase_rad` |
//! | [`Step::MeasureMeanRate`] | mean rate over a window | `<label>` |
//! | [`Step::MeasureSensitivity`] | two-point sensitivity | `<label>` |
//! | [`Step::MeasureLinearity`] | linear-fit nonlinearity | `<label>` |
//! | [`Step::MeasureStaticTransfer`] | datasheet static transfer | `sensitivity_v_per_dps`, `null_v`, `nonlinearity_pct_fs` |
//! | [`Step::MeasureNoiseDensity`] | Welch-PSD noise density | `noise_density_dps_rthz` |
//! | [`Step::CaptureZeroRate`] | zero-rate series (Allan input) | `<label>_fs_hz` + series `<label>` |
//! | [`Step::FaultResponse`] | detection/recovery protocol | `baseline_dps`, `detected`, `detection_latency_s`, `recovered`, `recovery_time_s`, `residual_rate_dps`, `final_state_code` |
//!
//! # Example
//!
//! ```
//! use ascp_core::campaign::{CampaignOptions, CampaignRunner, ScenarioSpec, Step};
//! use ascp_core::platform::PlatformConfig;
//!
//! let cfg = PlatformConfig::builder().quiet().build().expect("valid");
//! let scenarios: Vec<ScenarioSpec> = [50.0, 150.0]
//!     .iter()
//!     .map(|&dps| {
//!         ScenarioSpec::new(format!("rate_{dps}"), cfg.clone())
//!             .with_step(Step::Run { seconds: 0.02 })
//!             .with_step(Step::SetRate { dps })
//!             .with_step(Step::MeasureMeanRate {
//!                 label: "mean_dps".into(),
//!                 window_s: 0.01,
//!             })
//!     })
//!     .collect();
//! let report = CampaignRunner::with_options(
//!     CampaignOptions::builder().threads(2).build().expect("valid"),
//! )
//! .run(scenarios);
//! assert_eq!(report.outcomes.len(), 2);
//! assert!(report.metric("rate_150", "mean_dps").is_some());
//! ```

use crate::calibrate::trim_rebalance_phase;
use crate::chain::ConditioningChain;
use crate::characterize::{
    measure_noise_density, measure_static_transfer, CharacterizationConfig, RateSensor,
};
use crate::checkpoint;
use crate::frontend::{run_channel_scenario, ChannelScenario};
use crate::journal::{self, JournalError, JournalWriter};
use crate::platform::{ConfigError, Platform, PlatformConfig, PlatformFleet};
use crate::supervisor::SupervisorState;
use ascp_mcu8051::periph::Bus16Device;
use ascp_sim::campaign::{available_parallelism, panic_message, try_parallel_map, MapError};
use ascp_sim::fault::FaultPlan;
use ascp_sim::snapshot::fnv1a64;
use ascp_sim::stats;
use ascp_sim::telemetry::trace::{SpanId, TraceCollector, TraceLog, TraceRecorder};
use ascp_sim::telemetry::{CaptureBundle, Event, Telemetry, TelemetryConfig, TelemetrySnapshot};
use ascp_sim::units::{Celsius, DegPerSec, Hertz};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// One step of a scenario's measurement protocol.
///
/// Steps run in order against the scenario's private [`Platform`]; each
/// `Measure*` step appends named metrics (and, for captures, sample
/// series) to the scenario's [`ScenarioOutcome`]. The step vocabulary
/// covers the protocols of the repo's bench bins — fault campaign,
/// ablations and stability runs are all scenario lists now.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Arms the watchdog through its register interface (needed before
    /// CPU-hang fault scenarios).
    ArmWatchdog {
        /// Watchdog timeout in machine cycles.
        timeout_cycles: u16,
    },
    /// Runs until PLL lock + AGC settling; records `locked` (0/1) and, on
    /// success, `turn_on_s`. On timeout the remaining steps are skipped.
    WaitReady {
        /// Bring-up deadline, seconds.
        timeout_s: f64,
    },
    /// Runs until the safety supervisor reports `Normal`; records
    /// `supervisor_normal_s`. On timeout the remaining steps are skipped.
    WaitSupervisorNormal {
        /// Deadline, seconds.
        timeout_s: f64,
    },
    /// Advances simulated time.
    Run {
        /// Simulated seconds (rounded to the nearest DSP tick).
        seconds: f64,
    },
    /// Applies a constant rate stimulus (the rate table).
    SetRate {
        /// Rate, °/s.
        dps: f64,
    },
    /// Sets chamber temperature.
    SetTemperature {
        /// Temperature, °C.
        celsius: f64,
    },
    /// Freezes the AGC at the currently settled drive (the "AGC off"
    /// ablation arm), then re-locks for `resettle_s`.
    FreezeAgcDrive {
        /// Re-lock time after the swap, seconds.
        resettle_s: f64,
    },
    /// Runs the closed-loop rebalance phase trim (final-test axis trim).
    TrimRebalancePhase {
        /// Probe rate, °/s.
        probe_rate_dps: f64,
        /// Trim iterations.
        iterations: u32,
    },
    /// Records the mean rate output over a window as metric `label`.
    MeasureMeanRate {
        /// Metric name.
        label: String,
        /// Averaging window, seconds.
        window_s: f64,
    },
    /// Two-point sensitivity at ±`rate_dps`, recorded as metric `label`
    /// (output °/s per applied °/s); leaves the rate at zero.
    MeasureSensitivity {
        /// Metric name.
        label: String,
        /// Probe rate magnitude, °/s.
        rate_dps: f64,
        /// Settling time before sampling each polarity, seconds.
        settle_s: f64,
        /// Samples per polarity.
        samples: usize,
    },
    /// Linear-fit nonlinearity over a rate sweep, recorded as metric
    /// `label` (% of the sweep's full scale).
    MeasureLinearity {
        /// Metric name.
        label: String,
        /// Sweep points, °/s.
        rates: Vec<f64>,
        /// Dwell after each rate change, seconds.
        dwell_s: f64,
        /// Settling time before sampling, seconds.
        settle_s: f64,
        /// Samples per point.
        samples: usize,
    },
    /// Datasheet static transfer: records `sensitivity_v_per_dps`,
    /// `null_v` and `nonlinearity_pct_fs`, and remembers the sensitivity
    /// for a following [`Step::MeasureNoiseDensity`].
    MeasureStaticTransfer {
        /// Rate sweep points, °/s.
        rate_points: Vec<f64>,
        /// Samples per sweep point.
        samples_per_point: usize,
    },
    /// Zero-rate noise density via Welch PSD, recorded as
    /// `noise_density_dps_rthz` (uses the sensitivity from the last
    /// [`Step::MeasureStaticTransfer`], else the nominal 5 mV/°/s).
    MeasureNoiseDensity {
        /// Capture length, samples.
        samples: usize,
    },
    /// Long zero-rate capture converted to °/s, stored as sample series
    /// `label` (the Allan-deviation input).
    CaptureZeroRate {
        /// Series name.
        label: String,
        /// Capture length, seconds.
        seconds: f64,
        /// Settling time before the capture, seconds.
        settle_s: f64,
    },
    /// The fault-campaign protocol: baseline rate, detection latency from
    /// `t_inject_s`, then (optionally) recovery time and residual error
    /// after `t_clear_s`. Records `baseline_dps`, `detected`,
    /// `detection_latency_s`, `recovered`, `recovery_time_s`,
    /// `residual_rate_dps` and `final_state_code` — unmeasured metrics are
    /// omitted, never NaN.
    FaultResponse {
        /// Scheduled fault-injection time (must match the scenario's
        /// [`FaultPlan`]), seconds.
        t_inject_s: f64,
        /// Scheduled fault-clear time, seconds.
        t_clear_s: f64,
        /// Deadline for the supervisor to leave `Normal`, from injection.
        detect_budget_s: f64,
        /// Deadline to return to `Normal` after the fault clears.
        recover_budget_s: f64,
        /// Whether to wait for recovery (the non-smoke campaign).
        measure_recovery: bool,
    },
}

impl Step {
    /// Stable variant label (trace span names, progress lines).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::ArmWatchdog { .. } => "ArmWatchdog",
            Self::WaitReady { .. } => "WaitReady",
            Self::WaitSupervisorNormal { .. } => "WaitSupervisorNormal",
            Self::Run { .. } => "Run",
            Self::SetRate { .. } => "SetRate",
            Self::SetTemperature { .. } => "SetTemperature",
            Self::FreezeAgcDrive { .. } => "FreezeAgcDrive",
            Self::TrimRebalancePhase { .. } => "TrimRebalancePhase",
            Self::MeasureMeanRate { .. } => "MeasureMeanRate",
            Self::MeasureSensitivity { .. } => "MeasureSensitivity",
            Self::MeasureLinearity { .. } => "MeasureLinearity",
            Self::MeasureStaticTransfer { .. } => "MeasureStaticTransfer",
            Self::MeasureNoiseDensity { .. } => "MeasureNoiseDensity",
            Self::CaptureZeroRate { .. } => "CaptureZeroRate",
            Self::FaultResponse { .. } => "FaultResponse",
        }
    }
}

/// Per-lane manufacturing dispersion for a Monte-Carlo campaign axis.
///
/// Each field is the half-width of a uniform spread applied to one
/// process-sensitive platform parameter; a lane's actual draw comes from
/// its position-derived seed (see [`ScenarioSpec::monte_carlo`]), so the
/// dispersed population is deterministic for any worker-thread count.
/// The default is zero spread on every axis (lanes differ only in their
/// noise seeds).
///
/// | Field | Dispersed parameter |
/// |-------|---------------------|
/// | `omega_frac` | resonance `gyro.f0`, ±fraction |
/// | `q_frac` | `gyro.q_drive` and `gyro.q_sense`, ±fraction (independent draws) |
/// | `offset_dps` | quadrature leakage `gyro.quadrature_rate`, ±°/s |
/// | `gain_frac` | `charge_gain`, ±fraction |
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dispersion {
    /// Resonance-frequency spread, ± fraction of nominal `f0`.
    pub omega_frac: f64,
    /// Quality-factor spread, ± fraction of nominal (drive and sense
    /// draw independently).
    pub q_frac: f64,
    /// Quadrature-offset spread, ± °/s added to the nominal leakage.
    pub offset_dps: f64,
    /// Charge-amplifier gain spread, ± fraction of nominal.
    pub gain_frac: f64,
}

impl Dispersion {
    /// No spread on any axis (lanes differ only by noise seed).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the resonance-frequency spread (± fraction).
    #[must_use]
    pub fn with_omega_frac(mut self, frac: f64) -> Self {
        self.omega_frac = frac;
        self
    }

    /// Sets the quality-factor spread (± fraction).
    #[must_use]
    pub fn with_q_frac(mut self, frac: f64) -> Self {
        self.q_frac = frac;
        self
    }

    /// Sets the quadrature-offset spread (± °/s).
    #[must_use]
    pub fn with_offset_dps(mut self, dps: f64) -> Self {
        self.offset_dps = dps;
        self
    }

    /// Sets the charge-gain spread (± fraction).
    #[must_use]
    pub fn with_gain_frac(mut self, frac: f64) -> Self {
        self.gain_frac = frac;
        self
    }
}

/// One scenario: a platform configuration plus the protocol to run on it.
///
/// Build the config with [`PlatformConfig::builder`]; schedule faults
/// either in the config or through [`ScenarioSpec::with_faults`] (the two
/// plans are merged). `duration_s` is a floor on simulated time: after the
/// steps finish, the platform runs on until at least that much simulated
/// time has elapsed.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (CSV rows, metric prefixes).
    pub name: String,
    /// Platform configuration (from the builder).
    pub config: PlatformConfig,
    /// Extra fault plan merged into the config's plan.
    pub faults: FaultPlan,
    /// Minimum simulated duration, seconds.
    pub duration_s: f64,
    /// Noise-seed override; default derives from the config seed and the
    /// scenario's input index (deterministic for any thread count).
    pub seed: Option<u64>,
    /// Measurement protocol, run in order.
    pub steps: Vec<Step>,
    /// Monte-Carlo axis: `Some((lanes, dispersion))` expands this spec
    /// into `lanes` dispersed scenarios before execution (see
    /// [`ScenarioSpec::monte_carlo`]); `None` runs it as-is.
    pub monte_carlo: Option<(usize, Dispersion)>,
}

impl ScenarioSpec {
    /// Creates a scenario with no steps, no extra faults and no duration
    /// floor.
    #[must_use]
    pub fn new(name: impl Into<String>, config: PlatformConfig) -> Self {
        Self {
            name: name.into(),
            config,
            faults: FaultPlan::new(),
            duration_s: 0.0,
            seed: None,
            steps: Vec::new(),
            monte_carlo: None,
        }
    }

    /// Merges `faults` into the scenario's fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        for spec in faults.specs() {
            self.faults.push(*spec);
        }
        self
    }

    /// Sets the minimum simulated duration.
    #[must_use]
    pub fn with_duration(mut self, seconds: f64) -> Self {
        self.duration_s = seconds;
        self
    }

    /// Overrides the derived noise seed.
    ///
    /// # Interaction with [`ScenarioSpec::monte_carlo`]
    ///
    /// On a plain scenario the override is used verbatim. On a
    /// Monte-Carlo spec it replaces the **base** of the per-lane seed
    /// stream, not the lanes' seeds themselves: lane `i` (at expanded
    /// campaign index `e`) runs with `derive_seed(seed, e)`, so sibling
    /// lanes still draw distinct noise and dispersion — an explicit seed
    /// pins the whole dispersed population reproducibly without
    /// collapsing it onto one sample. (A population of identical lanes
    /// would be a pointless Monte-Carlo; if one exact seed per lane is
    /// really wanted, expand manually into plain specs.)
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Adds a Monte-Carlo axis: before execution the spec expands into
    /// `lanes` scenarios named `{name}/mc0 … {name}/mc{lanes-1}`, each
    /// with an independent position-derived noise seed and a
    /// configuration perturbed by `dispersion` (drawn from that same
    /// seed). Lane outcomes are ordinary [`ScenarioOutcome`]s — the CSV
    /// carries one row set per lane, byte-identical whether the lanes ran
    /// batched on a [`PlatformFleet`] or as independent scalar scenarios,
    /// at any worker-thread count.
    ///
    /// `lanes` is clamped to at least 1.
    #[must_use]
    pub fn monte_carlo(mut self, lanes: usize, dispersion: Dispersion) -> Self {
        self.monte_carlo = Some((lanes.max(1), dispersion));
        self
    }

    /// Appends one protocol step.
    #[must_use]
    pub fn with_step(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Appends several protocol steps.
    #[must_use]
    pub fn with_steps(mut self, steps: impl IntoIterator<Item = Step>) -> Self {
        self.steps.extend(steps);
        self
    }

    /// The seed override, else the config seed mixed with `index`.
    fn effective_seed(&self, index: usize) -> u64 {
        self.seed
            .unwrap_or_else(|| derive_seed(self.config.seed, index as u64))
    }
}

/// One scenario the [`CampaignRunner`] executes: a full-platform
/// experiment or a measurement on a generic sensor channel.
///
/// Both kinds run under the same supervision (panic isolation, watchdog,
/// retry, chaos), journal and span tracing, and land side by side in one
/// [`CampaignReport`]. The `From` impls let every runner entry point take
/// a `Vec` of either kind directly. Channel scenarios never batch onto a
/// [`PlatformFleet`] and never use the warm-start cache.
#[derive(Clone)]
pub enum Scenario {
    /// A full-platform scenario (Step DSL).
    Platform(Box<ScenarioSpec>),
    /// A generic sensor-channel scenario.
    Channel(ChannelScenario),
}

impl From<ScenarioSpec> for Scenario {
    fn from(spec: ScenarioSpec) -> Self {
        Self::Platform(Box::new(spec))
    }
}

impl From<ChannelScenario> for Scenario {
    fn from(scenario: ChannelScenario) -> Self {
        Self::Channel(scenario)
    }
}

impl Scenario {
    fn name(&self) -> &str {
        match self {
            Self::Platform(spec) => &spec.name,
            Self::Channel(sc) => &sc.name,
        }
    }

    /// Effective noise seed at campaign position `index`.
    fn seed(&self, index: usize) -> u64 {
        match self {
            Self::Platform(spec) => spec.effective_seed(index),
            Self::Channel(sc) => sc.seed,
        }
    }
}

/// Why one attempt of a scenario failed (the supervision taxonomy).
///
/// Failed attempts are retried with the scenario's seed unchanged (see
/// [`derive_seed`]), so a retry that succeeds is byte-identical to a
/// first-try success; a scenario that exhausts its retries is quarantined
/// as [`ScenarioStatus::Poisoned`] with its attempt errors preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario's worker panicked; the payload is captured as text.
    Panicked {
        /// Panic payload rendered as text.
        message: String,
    },
    /// The scenario overran the campaign's per-scenario wall-clock
    /// deadline and was cancelled by the watchdog (or a chaos stall hit
    /// its cap). Carries the *configured* limit, not the measured wall
    /// time, so reports stay deterministic.
    TimedOut {
        /// The deadline that was enforced, seconds.
        deadline_s: f64,
    },
    /// The worker pool returned no result for this scenario (a worker
    /// died without reporting; should be unreachable).
    Missing,
}

impl ScenarioError {
    /// Stable taxonomy label (CSV, telemetry, trace annotations).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Panicked { .. } => "panicked",
            Self::TimedOut { .. } => "timed_out",
            Self::Missing => "missing",
        }
    }

    /// Numeric code for the `scenario_error` CSV row (1/2/3).
    #[must_use]
    pub fn code(&self) -> f64 {
        match self {
            Self::Panicked { .. } => 1.0,
            Self::TimedOut { .. } => 2.0,
            Self::Missing => 3.0,
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "scenario panicked: {message}"),
            Self::TimedOut { deadline_s } => {
                write!(f, "scenario overran its {deadline_s} s deadline")
            }
            Self::Missing => write!(f, "scenario produced no result"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Terminal supervision state of a scenario.
///
/// The per-scenario FSM is `Queued → Running → {Done, Retrying(n) →
/// Running, TimedOut → Retrying, Poisoned}`; only the two terminal states
/// appear in outcomes — everything in between is visible through
/// [`ScenarioOutcome::attempt_errors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioStatus {
    /// The scenario completed (possibly after retries) and its metrics
    /// are trustworthy.
    #[default]
    Done,
    /// The scenario failed every attempt and was quarantined; it carries
    /// no metrics, only its error history.
    Poisoned,
}

impl ScenarioStatus {
    /// Stable label for the CSV `status` column (`ok` / `poisoned`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Done => "ok",
            Self::Poisoned => "poisoned",
        }
    }
}

/// What the chaos plan injects into one scenario attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosInjection {
    /// No injection: the attempt runs normally.
    None,
    /// The worker panics before building the platform.
    Panic,
    /// The worker stalls (a cancel-polling sleep) until the watchdog
    /// cancels it or the stall cap elapses.
    Stall,
}

/// Deterministic worker-fault injection: the supervision layer's analogue
/// of [`FaultPlan`].
///
/// Each scenario's injection is derived from the chaos seed and the
/// scenario's input index ([`derive_seed`]`(seed, index) % 4`: 0 panic,
/// 1 stall, else none), so a chaos campaign is reproducible at any thread
/// count. Injections apply to the first `persist_attempts` attempts only;
/// the retry that follows runs clean with the scenario seed unchanged, so
/// every healthy metric is byte-identical to an undisturbed run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed the per-scenario injections derive from.
    pub seed: u64,
    /// Attempts that receive the injection (default 1: attempt 0 only, so
    /// default retries recover every scenario).
    pub persist_attempts: u32,
    /// Upper bound on a stall when no watchdog deadline is set, seconds.
    pub stall_cap_s: f64,
}

impl ChaosPlan {
    /// Plan with the default persistence (attempt 0 only) and a 30 s
    /// stall cap.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            persist_attempts: 1,
            stall_cap_s: 30.0,
        }
    }

    /// Sets how many attempts per scenario receive the injection.
    #[must_use]
    pub fn with_persist_attempts(mut self, attempts: u32) -> Self {
        self.persist_attempts = attempts;
        self
    }

    /// Sets the stall cap (seconds).
    #[must_use]
    pub fn with_stall_cap_s(mut self, seconds: f64) -> Self {
        self.stall_cap_s = seconds;
        self
    }

    /// The injection for one `(scenario index, attempt)` pair.
    #[must_use]
    pub fn decide(&self, index: usize, attempt: u32) -> ChaosInjection {
        if attempt >= self.persist_attempts {
            return ChaosInjection::None;
        }
        match derive_seed(self.seed, index as u64) % 4 {
            0 => ChaosInjection::Panic,
            1 => ChaosInjection::Stall,
            _ => ChaosInjection::None,
        }
    }
}

/// Measured result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (copied from the spec).
    pub name: String,
    /// Input index in the campaign's scenario list.
    pub index: usize,
    /// Effective noise seed the platform ran with.
    pub seed: u64,
    /// Named metrics in measurement order.
    pub metrics: Vec<(String, f64)>,
    /// Named sample series (e.g. zero-rate captures).
    pub series: Vec<(String, Vec<f64>)>,
    /// Fault-class labels injected in this scenario, deduplicated in
    /// catalog order (coverage-matrix rows).
    pub fault_classes: Vec<&'static str>,
    /// Supervisor `(from, to)` transitions observed, in order
    /// (coverage-matrix columns). Empty when telemetry is disabled.
    pub transitions: Vec<(&'static str, &'static str)>,
    /// Flight-recorder capture, when the scenario armed a recorder and a
    /// trigger fired. Captures are **not** journaled: a resumed campaign
    /// reloads every other field of a completed scenario, but not this
    /// one (the `recorder_triggered` metric survives, so the CSV and
    /// telemetry artifacts are unaffected).
    pub capture: Option<CaptureBundle>,
    /// Errors of the failed attempts that preceded this outcome, in
    /// attempt order. Empty for a first-try success; for a
    /// [`ScenarioStatus::Poisoned`] scenario it holds every attempt.
    pub attempt_errors: Vec<ScenarioError>,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl ScenarioOutcome {
    /// A completed outcome with nothing measured yet.
    pub(crate) fn started(name: &str, index: usize, seed: u64) -> Self {
        Self {
            name: name.to_owned(),
            index,
            seed,
            metrics: Vec::new(),
            series: Vec::new(),
            fault_classes: Vec::new(),
            transitions: Vec::new(),
            capture: None,
            attempt_errors: Vec::new(),
            status: ScenarioStatus::Done,
        }
    }

    /// Retries performed (attempts beyond the first).
    #[must_use]
    pub fn retries(&self) -> usize {
        match self.status {
            ScenarioStatus::Done => self.attempt_errors.len(),
            ScenarioStatus::Poisoned => self.attempt_errors.len().saturating_sub(1),
        }
    }

    /// `true` when the scenario exhausted its retries.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.status == ScenarioStatus::Poisoned
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a sample series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Merged result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Worker threads the campaign ran on (not part of the deterministic
    /// artifacts).
    pub threads: usize,
    /// Wall-clock duration, seconds (not part of the deterministic
    /// artifacts).
    pub wall_s: f64,
    /// Scenarios that restored a cached settle checkpoint instead of
    /// re-running their settle prefix (0 when warm-start is off).
    pub warm_hits: usize,
    /// Scenarios loaded from a journal instead of executed (0 unless the
    /// report came from [`CampaignRunner::resume`]; not part of the
    /// deterministic artifacts).
    pub resumed: usize,
    /// Merged span trace (present when the runner had tracing enabled).
    /// Wall-clock bounds inside are not part of the deterministic
    /// artifacts; the span structure and sim-time bounds are.
    pub trace: Option<TraceLog>,
}

impl CampaignReport {
    /// Looks up one metric of one scenario.
    #[must_use]
    pub fn metric(&self, scenario: &str, metric: &str) -> Option<f64> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.metric(metric))
    }

    /// Looks up one sample series of one scenario.
    #[must_use]
    pub fn series(&self, scenario: &str, series: &str) -> Option<&[f64]> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.series(series))
    }

    /// Total retry attempts across the campaign (the
    /// `ascp_campaign_retries_total` counter).
    #[must_use]
    pub fn retries_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries() as u64).sum()
    }

    /// Total timed-out attempts (the `ascp_campaign_timeouts_total`
    /// counter).
    #[must_use]
    pub fn timeouts_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::TimedOut { .. }))
    }

    /// Total panicked attempts (the `ascp_campaign_panics_total` counter).
    #[must_use]
    pub fn panics_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::Panicked { .. }))
    }

    fn attempt_error_count(&self, pred: impl Fn(&ScenarioError) -> bool) -> u64 {
        self.outcomes
            .iter()
            .flat_map(|o| &o.attempt_errors)
            .filter(|e| pred(e))
            .count() as u64
    }

    /// Scenarios quarantined after exhausting their retries.
    #[must_use]
    pub fn poisoned(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    /// Names of the quarantined scenarios, in input order.
    #[must_use]
    pub fn failed_scenarios(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.failed())
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Long-format CSV (`scenario,metric,value,status`), bit-identical
    /// for any worker-thread count.
    ///
    /// Metric rows of a completed scenario carry status `ok` — including
    /// scenarios that succeeded on a retry, whose rows are byte-identical
    /// to a first-try run. A poisoned scenario has no metric rows; it
    /// contributes `scenario_error` (the last error's
    /// [`ScenarioError::code`]) and `scenario_attempts` rows with status
    /// `poisoned`, so partial results ship instead of aborting the
    /// artifact.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("scenario,metric,value,status\n");
        for o in &self.outcomes {
            let status = o.status.label();
            for (name, value) in &o.metrics {
                csv.push_str(&format!("{},{name},{value},{status}\n", o.name));
            }
            if o.failed() {
                let code = o.attempt_errors.last().map_or(0.0, ScenarioError::code);
                csv.push_str(&format!("{},scenario_error,{code},{status}\n", o.name));
                csv.push_str(&format!(
                    "{},scenario_attempts,{},{status}\n",
                    o.name,
                    o.attempt_errors.len()
                ));
            }
        }
        csv
    }

    /// Merges every scenario's metrics into one telemetry snapshot
    /// (gauge `"<scenario>.<metric>"`), with the wall clock zeroed so the
    /// JSON export is bit-identical for any worker-thread count.
    #[must_use]
    pub fn to_telemetry(&self) -> TelemetrySnapshot {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.counter_set("campaign.scenarios", self.outcomes.len() as u64);
        tel.counter_set("campaign.retries_total", self.retries_total());
        tel.counter_set("campaign.timeouts_total", self.timeouts_total());
        tel.counter_set("campaign.panics_total", self.panics_total());
        tel.counter_set("campaign.poisoned_scenarios", self.poisoned() as u64);
        for o in &self.outcomes {
            for (name, value) in &o.metrics {
                let key: &'static str = Box::leak(format!("{}.{name}", o.name).into_boxed_str());
                tel.gauge_set(key, *value);
            }
        }
        let mut snap = tel.snapshot(0.0);
        // The collector stamps real wall time; zero it so the JSON export
        // is byte-stable across runs and thread counts.
        snap.wall_time_s = 0.0;
        snap
    }

    /// Builds the fault-class × transition coverage matrix over this
    /// report's outcomes (see [`crate::coverage`]).
    #[must_use]
    pub fn coverage(&self) -> crate::coverage::CoverageMatrix {
        crate::coverage::CoverageMatrix::from_outcomes(&self.outcomes)
    }
}

/// One line of campaign progress, emitted as each scenario finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// Input index of the finished scenario.
    pub index: usize,
    /// Total scenarios in the campaign.
    pub total: usize,
    /// Scenario name.
    pub name: String,
    /// Wall-clock time this scenario took, milliseconds.
    pub wall_ms: f64,
    /// Warm-start result: `Some(true)` hit, `Some(false)` miss, `None`
    /// when the cache is off.
    pub warm: Option<bool>,
    /// Whether the scenario's flight recorder froze a capture.
    pub triggered: bool,
    /// Scenarios finished so far (completion order, not input order).
    pub completed: usize,
    /// Retry attempts this scenario needed (0 on a first-try success).
    pub retries: usize,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl std::fmt::Display for ScenarioProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>2}/{}] {:<28} {:>8.1} ms",
            self.completed, self.total, self.name, self.wall_ms
        )?;
        match self.warm {
            Some(true) => write!(f, "  warm=hit ")?,
            Some(false) => write!(f, "  warm=miss")?,
            None => {}
        }
        write!(f, "  trigger={}", if self.triggered { "y" } else { "n" })?;
        if self.retries > 0 {
            write!(f, "  retries={}", self.retries)?;
        }
        if self.status == ScenarioStatus::Poisoned {
            write!(f, "  POISONED")?;
        }
        Ok(())
    }
}

/// Receives per-scenario progress callbacks from a running campaign (e.g.
/// a live metrics endpoint). Callbacks arrive from worker threads in
/// completion order.
pub trait CampaignObserver: Send + Sync {
    /// Called once per scenario, as it finishes.
    fn scenario_finished(&self, progress: &ScenarioProgress);
}

/// Validated execution settings for a [`CampaignRunner`].
///
/// Replaces the runner's historical pile of `with_*` setters with one
/// typed, validated options object: build it with
/// [`CampaignOptions::builder`], hand it to
/// [`CampaignRunner::with_options`]. The old setters went through a
/// deprecation cycle and are gone; see DESIGN.md §14 for the old → new
/// mapping table.
#[derive(Clone)]
pub struct CampaignOptions {
    threads: usize,
    warm_start: bool,
    tracing: bool,
    progress: bool,
    observer: Option<Arc<dyn CampaignObserver>>,
    max_retries: u32,
    backoff_ms: u64,
    deadline_s: Option<f64>,
    chaos: Option<ChaosPlan>,
    fleet: bool,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("threads", &self.threads)
            .field("warm_start", &self.warm_start)
            .field("tracing", &self.tracing)
            .field("progress", &self.progress)
            .field("observer", &self.observer.is_some())
            .field("max_retries", &self.max_retries)
            .field("backoff_ms", &self.backoff_ms)
            .field("deadline_s", &self.deadline_s)
            .field("chaos", &self.chaos.is_some())
            .field("fleet", &self.fleet)
            .finish()
    }
}

impl Default for CampaignOptions {
    /// One worker per available hardware thread; warm-start, tracing and
    /// progress off; one retry with 10 ms base backoff; no watchdog, no
    /// chaos; fleet batching on.
    fn default() -> Self {
        Self {
            threads: available_parallelism(),
            warm_start: false,
            tracing: false,
            progress: false,
            observer: None,
            max_retries: 1,
            backoff_ms: 10,
            deadline_s: None,
            chaos: None,
            fleet: true,
        }
    }
}

impl CampaignOptions {
    /// Starts a validating builder from the defaults.
    #[must_use]
    pub fn builder() -> CampaignOptionsBuilder {
        CampaignOptionsBuilder {
            options: Self::default(),
        }
    }

    /// Configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the warm-start cache is enabled.
    #[must_use]
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Whether span tracing is enabled.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether per-scenario progress lines are printed.
    #[must_use]
    pub fn progress(&self) -> bool {
        self.progress
    }

    /// Configured retry budget (attempts beyond the first).
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Base backoff between attempts, milliseconds.
    #[must_use]
    pub fn backoff_ms(&self) -> u64 {
        self.backoff_ms
    }

    /// Configured per-scenario deadline, if the watchdog is armed.
    #[must_use]
    pub fn deadline_s(&self) -> Option<f64> {
        self.deadline_s
    }

    /// The chaos plan, if one is installed.
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosPlan> {
        self.chaos.as_ref()
    }

    /// Whether eligible Monte-Carlo lanes run batched on a
    /// [`PlatformFleet`].
    #[must_use]
    pub fn fleet(&self) -> bool {
        self.fleet
    }
}

/// Validating builder for [`CampaignOptions`].
///
/// Every setter stores its raw value; [`CampaignOptionsBuilder::build`]
/// validates the whole set at once and names the offending field — the
/// same [`ConfigError`] contract as [`PlatformConfig::builder`]. Unlike
/// the removed legacy `CampaignRunner::with_*` setters, nothing is
/// silently clamped: `threads(0)` is an error here, not a 1.
#[derive(Clone, Debug)]
pub struct CampaignOptionsBuilder {
    options: CampaignOptions,
}

impl CampaignOptionsBuilder {
    /// Worker-thread count (must be ≥ 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Enables (or disables) the settle-checkpoint warm-start cache.
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.options.warm_start = enabled;
        self
    }

    /// Enables (or disables) span tracing (campaign → scenario → step
    /// spans in the report's [`TraceLog`]). Never changes simulation
    /// arithmetic.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.options.tracing = enabled;
        self
    }

    /// Enables (or disables) one-line per-scenario progress on stdout.
    #[must_use]
    pub fn progress(mut self, enabled: bool) -> Self {
        self.options.progress = enabled;
        self
    }

    /// Installs a progress observer (e.g. a live metrics endpoint).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.options.observer = Some(observer);
        self
    }

    /// Retry budget for failed scenarios (attempts beyond the first;
    /// default 1). Retries keep the derived seed unchanged, so a retried
    /// success is byte-identical to a first-try one.
    #[must_use]
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.options.max_retries = max_retries;
        self
    }

    /// Base backoff between attempts, milliseconds (doubles per retry,
    /// capped at 64× base; default 10, must be ≤ 60 000). Wall-clock
    /// only — never part of the deterministic artifacts.
    #[must_use]
    pub fn backoff_ms(mut self, backoff_ms: u64) -> Self {
        self.options.backoff_ms = backoff_ms;
        self
    }

    /// Arms the watchdog with a per-attempt wall-clock deadline in
    /// seconds (must be finite and > 0). Overrunning attempts are
    /// cancelled cooperatively and recorded as
    /// [`ScenarioError::TimedOut`].
    #[must_use]
    pub fn deadline_s(mut self, seconds: f64) -> Self {
        self.options.deadline_s = Some(seconds);
        self
    }

    /// Installs a deterministic chaos plan (seeded worker panics and
    /// stalls); see [`ChaosPlan`].
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Enables (or disables, e.g. to force the scalar reference path in
    /// an equivalence test) batched [`PlatformFleet`] execution of
    /// eligible Monte-Carlo lanes. Default on; never changes results,
    /// only wall-clock time.
    #[must_use]
    pub fn fleet(mut self, enabled: bool) -> Self {
        self.options.fleet = enabled;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field: zero threads, a
    /// non-finite or non-positive deadline, a backoff base above 60 s, or
    /// a chaos plan with a negative / non-finite stall cap.
    pub fn build(self) -> Result<CampaignOptions, ConfigError> {
        let o = &self.options;
        if o.threads == 0 {
            return Err(ConfigError::new("threads: must be at least 1"));
        }
        if let Some(d) = o.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ConfigError::new(format!(
                    "deadline_s: must be finite and > 0 (got {d})"
                )));
            }
        }
        if o.backoff_ms > 60_000 {
            return Err(ConfigError::new(format!(
                "backoff_ms: must be ≤ 60000 (got {})",
                o.backoff_ms
            )));
        }
        if let Some(plan) = &o.chaos {
            if !plan.stall_cap_s.is_finite() || plan.stall_cap_s < 0.0 {
                return Err(ConfigError::new(format!(
                    "chaos.stall_cap_s: must be finite and ≥ 0 (got {})",
                    plan.stall_cap_s
                )));
            }
        }
        Ok(self.options)
    }
}

/// Executes scenario lists on a fixed worker-thread pool.
///
/// Each scenario gets its own independent [`Platform`]; results come back
/// in input order and are numerically identical for any thread count (see
/// the module docs). Configure it with [`CampaignOptions`]:
///
/// ```
/// use ascp_core::campaign::{CampaignOptions, CampaignRunner};
/// let runner = CampaignRunner::with_options(
///     CampaignOptions::builder().threads(2).build().expect("valid"),
/// );
/// assert_eq!(runner.options().threads(), 2);
/// ```
///
/// # Warm-start cache
///
/// With `CampaignOptions::builder().warm_start(true)`, scenarios that
/// share a settle recipe — the same effective configuration (including
/// the effective noise seed) and the same leading run-in steps — share
/// the cost of the lock transient. The first scenario per key runs its
/// settle prefix and takes a [`crate::checkpoint`]; the rest restore
/// that checkpoint and run only their measurement steps. Because the
/// cache key covers the effective seed, a restored platform is **bit-
/// exactly** the platform a cold run would have produced, so warm-start
/// changes wall-clock time and nothing else: reports stay byte-identical
/// to cold runs and across worker-thread counts.
#[derive(Clone, Debug)]
pub struct CampaignRunner {
    options: CampaignOptions,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignRunner {
    /// Runner with the default options (see [`CampaignOptions::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: CampaignOptions::default(),
        }
    }

    /// Runner with validated options (the only configuration
    /// path).
    #[must_use]
    pub fn with_options(options: CampaignOptions) -> Self {
        Self { options }
    }

    /// The runner's options.
    #[must_use]
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }

    /// Runs every scenario (Monte-Carlo specs expanded into their lanes
    /// first) and merges the outcomes. Takes platform specs, channel
    /// scenarios, or a mix of both as [`Scenario`]s.
    ///
    /// Infallible: supervision turns worker failures into per-scenario
    /// outcomes, never a campaign abort. Check
    /// [`CampaignReport::poisoned`] for quarantined scenarios.
    ///
    /// # Panics
    ///
    /// Never in practice — only if the (journal-less) execution core
    /// reports a journal error, which it cannot.
    #[must_use]
    pub fn run<S: Into<Scenario>>(&self, scenarios: Vec<S>) -> CampaignReport {
        let (scenarios, parents) = expand_monte_carlo(scenarios);
        self.run_campaign(scenarios, &parents, Vec::new(), None)
            .expect("campaign without a journal cannot fail")
    }

    /// Runs the campaign while journaling each completed scenario to
    /// `path` (created fresh), so a crashed or killed campaign can be
    /// [`CampaignRunner::resume`]d. Journal records (and the campaign
    /// digest) are keyed by the **expanded** scenario list: Monte-Carlo
    /// lanes journal individually, so a crash mid-population loses only
    /// unfinished lanes.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal file cannot be created or
    /// written.
    pub fn run_with_journal<S: Into<Scenario>>(
        &self,
        scenarios: Vec<S>,
        path: impl AsRef<Path>,
    ) -> Result<CampaignReport, JournalError> {
        let (scenarios, parents) = expand_monte_carlo(scenarios);
        let digest = journal::campaign_digest(&scenarios);
        let writer = JournalWriter::create(path, digest)?;
        self.run_campaign(scenarios, &parents, Vec::new(), Some(&writer))
    }

    /// Resumes a journaled campaign: scenarios recorded in `path` are
    /// loaded instead of re-executed (a torn final record is discarded;
    /// duplicate records last-wins), the rest run normally, and the
    /// merged report is byte-identical to an uninterrupted
    /// [`CampaignRunner::run_with_journal`] at any thread count. A
    /// missing journal file starts a fresh journaled run.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal exists but was written by a
    /// different campaign (config-digest mismatch), is not a journal
    /// file, or cannot be read/appended.
    pub fn resume<S: Into<Scenario>>(
        &self,
        scenarios: Vec<S>,
        path: impl AsRef<Path>,
    ) -> Result<CampaignReport, JournalError> {
        let path = path.as_ref();
        let (scenarios, parents) = expand_monte_carlo(scenarios);
        let digest = journal::campaign_digest(&scenarios);
        if !path.exists() {
            let writer = JournalWriter::create(path, digest)?;
            return self.run_campaign(scenarios, &parents, Vec::new(), Some(&writer));
        }
        let recorded = journal::read(path, digest)?;
        let total = scenarios.len();
        let preloaded: Vec<ScenarioOutcome> =
            recorded.into_iter().filter(|o| o.index < total).collect();
        let writer = JournalWriter::append_to(path, digest)?;
        self.run_campaign(scenarios, &parents, preloaded, Some(&writer))
    }

    /// Partitions the remaining work into pool units: runs of consecutive
    /// fleet-eligible Monte-Carlo sibling lanes become
    /// [`WorkUnit::Fleet`] groups of at most [`FLEET_GROUP_MAX`] lanes;
    /// everything else (channel scenarios included) runs scalar. Grouping
    /// is disabled wholesale when a runner feature the fleet cannot
    /// express is on (warm-start cache, span tracing, chaos injection) —
    /// those campaigns run every lane scalar, with byte-identical results.
    fn plan_units(&self, work: Vec<(usize, Scenario)>, parents: &[Option<usize>]) -> Vec<WorkUnit> {
        let fleet_allowed = self.options.fleet
            && !self.options.warm_start
            && !self.options.tracing
            && self.options.chaos.is_none();
        let mut units: Vec<WorkUnit> = Vec::new();
        for (index, scenario) in work {
            let parent = parents.get(index).copied().flatten();
            match scenario {
                Scenario::Platform(spec)
                    if fleet_allowed && parent.is_some() && fleet_eligible(&spec) =>
                {
                    if let Some(WorkUnit::Fleet(group)) = units.last_mut() {
                        if parents[group[0].0] == parent && group.len() < FLEET_GROUP_MAX {
                            group.push((index, *spec));
                            continue;
                        }
                    }
                    units.push(WorkUnit::Fleet(vec![(index, *spec)]));
                }
                scenario => units.push(WorkUnit::Single(index, scenario)),
            }
        }
        // A one-lane fleet is scalar execution plus sync overhead: demote.
        for unit in &mut units {
            if let WorkUnit::Fleet(group) = unit {
                if group.len() == 1 {
                    let (index, spec) = group.pop().expect("length checked");
                    *unit = WorkUnit::Single(index, spec.into());
                }
            }
        }
        units
    }

    /// The execution core: runs every scenario not already `preloaded`
    /// under supervision (panic isolation, watchdog, retry, chaos),
    /// journals completions, and merges everything in input order.
    /// `parents` maps each expanded index to its Monte-Carlo parent
    /// (`None` for plain scenarios) and keys fleet grouping.
    fn run_campaign(
        &self,
        scenarios: Vec<Scenario>,
        parents: &[Option<usize>],
        preloaded: Vec<ScenarioOutcome>,
        writer: Option<&JournalWriter>,
    ) -> Result<CampaignReport, JournalError> {
        let start = Instant::now();
        let total = scenarios.len();
        let resumed = preloaded.len();
        let done_indices: HashSet<usize> = preloaded.iter().map(|o| o.index).collect();
        let work: Vec<(usize, Scenario)> = scenarios
            .into_iter()
            .enumerate()
            .filter(|(index, _)| !done_indices.contains(index))
            .collect();
        let units = self.plan_units(work, parents);
        // Identity of each unit's lanes, kept outside the pool so even a
        // scenario whose slot comes back empty gets a typed placeholder.
        let meta: Vec<Vec<(usize, String, u64)>> = units.iter().map(WorkUnit::lane_ids).collect();
        let cache = self.options.warm_start.then(WarmCache::default);
        let hits = AtomicUsize::new(0);
        let done = AtomicUsize::new(resumed);
        let collector = self.options.tracing.then(TraceCollector::new);
        // The campaign root span lives on track 0; scenario tracks are
        // `index + 1`.
        let mut root = collector.as_ref().map(|c| {
            let mut rec = c.recorder(0);
            let id = rec.begin("campaign", 0.0);
            (rec, id)
        });
        let watchdog = self
            .options
            .deadline_s
            .map(|d| Watchdog::spawn(units.len(), d));
        let journal_failure: Mutex<Option<JournalError>> = Mutex::new(None);

        // Journals one finished outcome and emits its progress line.
        let finish = |out: &ScenarioOutcome, wall_ms: f64, warm: Option<bool>| {
            if let Some(writer) = writer {
                if let Err(e) = writer.append(out) {
                    let mut parked = journal_failure
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    parked.get_or_insert(e);
                }
            }
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.options.progress || self.options.observer.is_some() {
                let progress = ScenarioProgress {
                    index: out.index,
                    total,
                    name: out.name.clone(),
                    wall_ms,
                    warm,
                    triggered: out.capture.is_some(),
                    completed,
                    retries: out.retries(),
                    status: out.status,
                };
                if self.options.progress {
                    println!("{progress}");
                }
                if let Some(obs) = self.options.observer.as_deref() {
                    obs.scenario_finished(&progress);
                }
            }
        };

        let slots = try_parallel_map(units, self.options.threads, |slot, unit| {
            let t0 = Instant::now();
            let ctx = AttemptCtx {
                watchdog: watchdog.as_ref(),
                slot,
            };
            let mut errors: Vec<ScenarioError> = Vec::new();
            let mut warm_hit = false;
            let outs = loop {
                let attempt = errors.len() as u32;
                if attempt > 0 {
                    let factor = 1u64 << u64::from((attempt - 1).min(6));
                    std::thread::sleep(Duration::from_millis(self.options.backoff_ms * factor));
                }
                ctx.arm();
                let caught = catch_unwind(AssertUnwindSafe(|| match &unit {
                    WorkUnit::Single(index, scenario) => run_attempt(
                        *index,
                        attempt,
                        scenario,
                        cache.as_ref(),
                        &hits,
                        collector.as_ref(),
                        ctx,
                        self.options.chaos.as_ref(),
                    )
                    .map(|(out, hit)| {
                        warm_hit = hit;
                        vec![out]
                    }),
                    WorkUnit::Fleet(lanes) => run_fleet_attempt(lanes, ctx),
                }));
                ctx.disarm();
                let attempt_result = caught.unwrap_or_else(|payload| {
                    Err(ScenarioError::Panicked {
                        message: panic_message(payload.as_ref()),
                    })
                });
                match attempt_result {
                    Ok(mut outs) => {
                        for out in &mut outs {
                            out.attempt_errors.clone_from(&errors);
                        }
                        break outs;
                    }
                    Err(err) => {
                        errors.push(err);
                        if errors.len() > self.options.max_retries as usize {
                            // The unit fails whole: every lane is
                            // quarantined with the shared history.
                            break meta[slot]
                                .iter()
                                .map(|(index, name, seed)| {
                                    poisoned_outcome(*index, name, *seed, errors.clone())
                                })
                                .collect();
                        }
                    }
                }
            };
            // Wall time amortized over the unit: fleet lanes ran as one
            // lockstep batch. Fleets are only planned with the warm cache
            // off, so `warm` is per-scenario whenever it is reported.
            let lane_ms = t0.elapsed().as_secs_f64() * 1.0e3 / outs.len().max(1) as f64;
            let warm = cache.as_ref().map(|_| warm_hit);
            for out in &outs {
                finish(out, lane_ms, warm);
            }
            outs
        });
        drop(watchdog); // stops the scanner thread

        let mut outcomes = preloaded;
        outcomes.reserve(slots.len());
        for (slot, result) in slots.into_iter().enumerate() {
            match result {
                Ok(outs) => outcomes.extend(outs),
                // The supervised closure itself failed — convert the pool
                // error into quarantined placeholders so the report still
                // covers every scenario of the unit.
                Err(e) => {
                    for (index, name, seed) in &meta[slot] {
                        let err = match &e {
                            MapError::Panicked { message } => ScenarioError::Panicked {
                                message: message.clone(),
                            },
                            MapError::Missing => ScenarioError::Missing,
                        };
                        outcomes.push(poisoned_outcome(*index, name, *seed, vec![err]));
                    }
                }
            }
        }
        outcomes.sort_by_key(|o| o.index);

        if let Some(e) = journal_failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }

        let poisoned = outcomes.iter().filter(|o| o.failed()).count();
        let retries: usize = outcomes.iter().map(ScenarioOutcome::retries).sum();
        let trace = collector.map(|c| {
            if let Some((mut rec, id)) = root.take() {
                rec.annotate(id, "scenarios", total.to_string());
                rec.annotate(id, "resumed", resumed.to_string());
                rec.annotate(id, "retries", retries.to_string());
                rec.annotate(id, "poisoned", poisoned.to_string());
                rec.end(id, 0.0);
                c.merge(rec);
            }
            c.into_log()
        });
        Ok(CampaignReport {
            outcomes,
            threads: self.options.threads,
            wall_s: start.elapsed().as_secs_f64(),
            warm_hits: hits.load(Ordering::Relaxed),
            resumed,
            trace,
        })
    }
}

/// Maximum Monte-Carlo lanes batched onto one [`PlatformFleet`] work
/// unit. Sixteen AVX2 f64 lanes keep the SoA buffers inside L1/L2 while
/// leaving enough units for the worker pool to balance.
const FLEET_GROUP_MAX: usize = 16;

/// One unit of pool work: a scalar scenario, or consecutive Monte-Carlo
/// sibling lanes batched onto one [`PlatformFleet`].
enum WorkUnit {
    Single(usize, Scenario),
    Fleet(Vec<(usize, ScenarioSpec)>),
}

impl WorkUnit {
    /// `(index, name, effective seed)` of the unit's lanes in input order
    /// (a single scenario is one lane).
    fn lane_ids(&self) -> Vec<(usize, String, u64)> {
        match self {
            Self::Single(index, scenario) => {
                vec![(*index, scenario.name().to_owned(), scenario.seed(*index))]
            }
            Self::Fleet(lanes) => lanes
                .iter()
                .map(|(index, spec)| (*index, spec.name.clone(), spec.effective_seed(*index)))
                .collect(),
        }
    }
}

/// Whether a lane spec can run on the batched fleet path: only the
/// lockstep-safe step vocabulary, no monitor CPU, no fault plans, and a
/// configuration that validates. Anything subtler — armed recorders,
/// gated paths, non-uniform lane state — is caught by
/// [`PlatformFleet::new`] at attempt time, which falls back to scalar
/// execution with identical results.
fn fleet_eligible(spec: &ScenarioSpec) -> bool {
    spec.config.validate().is_ok()
        && !spec.config.cpu_enabled
        && spec.config.faults.is_empty()
        && spec.faults.is_empty()
        && spec.steps.iter().all(|s| {
            matches!(
                s,
                Step::Run { .. }
                    | Step::SetRate { .. }
                    | Step::SetTemperature { .. }
                    | Step::MeasureMeanRate { .. }
            )
        })
}

/// Uniform draw in [-1, 1) for one dispersion channel of one lane,
/// derived from the lane seed with the same splitmix mixing as
/// [`derive_seed`] (channel ↦ independent stream).
fn dispersion_draw(lane_seed: u64, channel: u64) -> f64 {
    let bits = derive_seed(lane_seed, channel);
    (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// Applies one lane's dispersion draws to its configuration (see the
/// [`Dispersion`] field table).
fn disperse_config(config: &mut PlatformConfig, d: &Dispersion, lane_seed: u64) {
    let g = &mut config.gyro;
    g.f0 = Hertz(g.f0.0 * (1.0 + d.omega_frac * dispersion_draw(lane_seed, 0)));
    g.q_drive *= 1.0 + d.q_frac * dispersion_draw(lane_seed, 1);
    g.q_sense *= 1.0 + d.q_frac * dispersion_draw(lane_seed, 2);
    g.quadrature_rate =
        DegPerSec(g.quadrature_rate.0 + d.offset_dps * dispersion_draw(lane_seed, 3));
    config.charge_gain *= 1.0 + d.gain_frac * dispersion_draw(lane_seed, 4);
}

/// Expands every Monte-Carlo spec into its dispersed lanes, in input
/// order. Lane `i` of a spec becomes scenario `{name}/mc{i}` with seed
/// `derive_seed(base, expanded_index)` — `base` being the spec's seed
/// override or its config seed — and a configuration perturbed by the
/// spec's [`Dispersion`] drawn from that same lane seed. Returns the
/// expanded list plus, per expanded index, the input index of the
/// Monte-Carlo parent (`None` for plain scenarios): the grouping key for
/// batched fleet execution.
fn expand_monte_carlo<S: Into<Scenario>>(scenarios: Vec<S>) -> (Vec<Scenario>, Vec<Option<usize>>) {
    let mut expanded = Vec::with_capacity(scenarios.len());
    let mut parents = Vec::with_capacity(scenarios.len());
    for (parent, scenario) in scenarios.into_iter().map(Into::into).enumerate() {
        let monte_carlo = match &scenario {
            Scenario::Platform(spec) => spec.monte_carlo.map(|mc| (spec, mc)),
            Scenario::Channel(_) => None,
        };
        let Some((spec, (lanes, dispersion))) = monte_carlo else {
            expanded.push(scenario);
            parents.push(None);
            continue;
        };
        let base = spec.seed.unwrap_or(spec.config.seed);
        for lane in 0..lanes {
            let lane_seed = derive_seed(base, expanded.len() as u64);
            let mut s = spec.clone();
            s.monte_carlo = None;
            s.name = format!("{}/mc{lane}", spec.name);
            s.seed = Some(lane_seed);
            disperse_config(&mut s.config, &dispersion, lane_seed);
            expanded.push(Scenario::Platform(s));
            parents.push(Some(parent));
        }
    }
    (expanded, parents)
}

/// Advances a fleet by `seconds` — identical tick rounding to [`run_for`]
/// — in [`RUN_BLOCK_TICKS`] chunks so a pending watchdog cancellation is
/// observed between chunks.
fn fleet_run_for(
    fleet: &mut PlatformFleet,
    dsp_rate: f64,
    seconds: f64,
    ctx: AttemptCtx<'_>,
) -> Result<(), Cancelled> {
    let mut ticks = (seconds * dsp_rate).round() as u64;
    while ticks > 0 {
        ctx.check()?;
        let block = ticks.min(RUN_BLOCK_TICKS);
        fleet.step_block(block);
        ticks -= block;
    }
    Ok(())
}

/// Runs one attempt of a group of Monte-Carlo sibling lanes batched on a
/// [`PlatformFleet`]: the SoA transcription of [`run_platform_attempt`]
/// restricted to the fleet-safe step vocabulary ([`fleet_eligible`]).
/// Outcomes are byte-identical to running each lane through the scalar
/// path — the fleet's determinism contract. If the built platforms turn out
/// fleet-ineligible after all (e.g. an armed recorder), the lanes fall
/// back to scalar execution inside this same attempt, with identical
/// results.
fn run_fleet_attempt(
    lanes: &[(usize, ScenarioSpec)],
    ctx: AttemptCtx<'_>,
) -> Result<Vec<ScenarioOutcome>, ScenarioError> {
    let dummy_hits = AtomicUsize::new(0);
    let mut outs = Vec::with_capacity(lanes.len());
    let mut platforms = Vec::with_capacity(lanes.len());
    for (index, spec) in lanes {
        let mut config = spec.config.clone();
        let seed = spec.effective_seed(*index);
        config.seed = seed;
        // Eligibility guarantees empty fault plans, so the scalar path's
        // fault-class scrape is vacuous here.
        outs.push(ScenarioOutcome::started(&spec.name, *index, seed));
        platforms.push(Platform::new(config));
    }
    let mut fleet = match PlatformFleet::new(platforms) {
        Ok(fleet) => fleet,
        // Grouping is an optimistic fast path: anything the fleet's own
        // eligibility check rejects runs scalar in this same slot.
        Err(_ineligible) => {
            return lanes
                .iter()
                .map(|(index, spec)| {
                    run_platform_attempt(*index, 0, spec, None, &dummy_hits, None, ctx)
                        .map(|(out, _)| out)
                })
                .collect();
        }
    };
    // Monte-Carlo siblings share their parent's steps, duration, and DSP
    // rate; only seeds and dispersed physical parameters differ.
    let spec0 = &lanes[0].1;
    let dsp_rate = spec0.config.dsp_rate.0;
    let timed_out = |_: Cancelled| ctx.timed_out();
    let mut acc = vec![0.0; lanes.len()];
    for step in &spec0.steps {
        match step {
            Step::Run { seconds } => {
                fleet_run_for(&mut fleet, dsp_rate, *seconds, ctx).map_err(timed_out)?;
            }
            Step::SetRate { dps } => fleet.for_each_platform(|p| p.set_rate(DegPerSec(*dps))),
            Step::SetTemperature { celsius } => {
                fleet.for_each_platform(|p| p.set_temperature(Celsius(*celsius)));
            }
            Step::MeasureMeanRate { label, window_s } => {
                // Mirrors [`mean_rate`] tick-for-tick, accumulating every
                // lane from the same lockstep sweep.
                let ticks = ((window_s * dsp_rate).round() as u64).max(1);
                acc.iter_mut().for_each(|a| *a = 0.0);
                for i in 0..ticks {
                    if i % HEARTBEAT_TICKS == 0 {
                        ctx.check().map_err(timed_out)?;
                    }
                    fleet.step();
                    for (lane, a) in acc.iter_mut().enumerate() {
                        *a += fleet.rate_output_dps(lane);
                    }
                }
                for (lane, out) in outs.iter_mut().enumerate() {
                    out.metrics.push((label.clone(), acc[lane] / ticks as f64));
                }
            }
            other => unreachable!("non-fleet step `{}` grouped onto a fleet", other.label()),
        }
    }
    if fleet.time() < spec0.duration_s {
        let remaining = spec0.duration_s - fleet.time();
        fleet_run_for(&mut fleet, dsp_rate, remaining, ctx).map_err(timed_out)?;
    }
    let mut members = fleet.into_platforms();
    for (out, p) in outs.iter_mut().zip(&mut members) {
        out.transitions.extend(scrape_transitions(p));
        out.capture = p.take_capture();
        if p.recorder().is_some() {
            out.metrics.push((
                "recorder_triggered".into(),
                f64::from(u8::from(out.capture.is_some())),
            ));
        }
    }
    Ok(outs)
}

/// The quarantined outcome of a scenario that failed every attempt.
fn poisoned_outcome(
    index: usize,
    name: &str,
    seed: u64,
    errors: Vec<ScenarioError>,
) -> ScenarioOutcome {
    ScenarioOutcome {
        attempt_errors: errors,
        status: ScenarioStatus::Poisoned,
        ..ScenarioOutcome::started(name, index, seed)
    }
}

/// Ticks per cancellation check inside tick-stepped measurement loops.
pub(crate) const HEARTBEAT_TICKS: u64 = 1024;

/// Ticks per [`Platform::step_block`] chunk inside [`run_for`].
const RUN_BLOCK_TICKS: u64 = 4096;

/// Marker error: the watchdog cancelled this attempt.
pub(crate) struct Cancelled;

/// Per-attempt-slot watchdog state.
struct WatchdogSlot {
    armed: AtomicBool,
    cancelled: AtomicBool,
    armed_at_ms: AtomicU64,
    heartbeat_ms: AtomicU64,
}

/// State shared between workers and the scanner thread.
struct WatchdogShared {
    slots: Vec<WatchdogSlot>,
    epoch: Instant,
    deadline: Duration,
    shutdown: AtomicBool,
}

impl WatchdogShared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Deadline enforcement for scenario attempts: workers arm a slot when an
/// attempt starts and heartbeat from cancellation points; a scanner
/// thread marks slots whose attempt has outlived the deadline, and the
/// worker observes the mark cooperatively (at step boundaries and run
/// chunks) — the pool keeps draining while an overrunner winds down.
struct Watchdog {
    shared: Arc<WatchdogShared>,
    scanner: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(slots: usize, deadline_s: f64) -> Self {
        let shared = Arc::new(WatchdogShared {
            slots: (0..slots)
                .map(|_| WatchdogSlot {
                    armed: AtomicBool::new(false),
                    cancelled: AtomicBool::new(false),
                    armed_at_ms: AtomicU64::new(0),
                    heartbeat_ms: AtomicU64::new(0),
                })
                .collect(),
            epoch: Instant::now(),
            deadline: Duration::from_secs_f64(deadline_s.max(0.0)),
            shutdown: AtomicBool::new(false),
        });
        let scan = Arc::clone(&shared);
        let scanner = std::thread::spawn(move || {
            let deadline_ms = scan.deadline.as_millis() as u64;
            while !scan.shutdown.load(Ordering::SeqCst) {
                let now = scan.now_ms();
                for slot in &scan.slots {
                    if slot.armed.load(Ordering::SeqCst)
                        && now.saturating_sub(slot.armed_at_ms.load(Ordering::SeqCst)) > deadline_ms
                    {
                        slot.cancelled.store(true, Ordering::SeqCst);
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        Self {
            shared,
            scanner: Some(scanner),
        }
    }

    fn deadline_s(&self) -> f64 {
        self.shared.deadline.as_secs_f64()
    }

    fn arm(&self, slot: usize) {
        let s = &self.shared.slots[slot];
        let now = self.shared.now_ms();
        s.cancelled.store(false, Ordering::SeqCst);
        s.armed_at_ms.store(now, Ordering::SeqCst);
        s.heartbeat_ms.store(now, Ordering::SeqCst);
        s.armed.store(true, Ordering::SeqCst);
    }

    fn disarm(&self, slot: usize) {
        self.shared.slots[slot].armed.store(false, Ordering::SeqCst);
    }

    fn heartbeat(&self, slot: usize) {
        self.shared.slots[slot]
            .heartbeat_ms
            .store(self.shared.now_ms(), Ordering::SeqCst);
    }

    fn cancelled(&self, slot: usize) -> bool {
        self.shared.slots[slot].cancelled.load(Ordering::SeqCst)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.scanner.take() {
            let _ = handle.join();
        }
    }
}

/// A worker's handle on the watchdog for one scenario attempt (no-op when
/// the watchdog is unarmed).
#[derive(Clone, Copy)]
pub(crate) struct AttemptCtx<'a> {
    watchdog: Option<&'a Watchdog>,
    slot: usize,
}

impl AttemptCtx<'_> {
    /// A context with no watchdog (warm-prefix execution, tests).
    const NONE: AttemptCtx<'static> = AttemptCtx {
        watchdog: None,
        slot: 0,
    };

    fn arm(&self) {
        if let Some(w) = self.watchdog {
            w.arm(self.slot);
        }
    }

    fn disarm(&self) {
        if let Some(w) = self.watchdog {
            w.disarm(self.slot);
        }
    }

    /// Heartbeats and observes a pending cancellation.
    pub(crate) fn check(&self) -> Result<(), Cancelled> {
        match self.watchdog {
            Some(w) => {
                w.heartbeat(self.slot);
                if w.cancelled(self.slot) {
                    Err(Cancelled)
                } else {
                    Ok(())
                }
            }
            None => Ok(()),
        }
    }

    /// Whether the slot has been cancelled (no heartbeat side effect).
    fn cancelled(&self) -> bool {
        self.watchdog.is_some_and(|w| w.cancelled(self.slot))
    }

    fn deadline_s(&self) -> Option<f64> {
        self.watchdog.map(Watchdog::deadline_s)
    }

    /// The error a cancelled attempt reports: the configured deadline,
    /// never measured wall time.
    fn timed_out(&self) -> ScenarioError {
        ScenarioError::TimedOut {
            deadline_s: self.deadline_s().unwrap_or(0.0),
        }
    }
}

/// One cached settle: the checkpoint taken after the settle prefix plus
/// the metrics those prefix steps recorded (replayed into every outcome
/// that restores this entry) and whether the prefix aborted (bring-up
/// failure: the remaining steps are skipped, exactly as on a cold run).
struct WarmEntry {
    checkpoint: Vec<u8>,
    metrics: Vec<(String, f64)>,
    /// Supervisor transitions the prefix produced. Checkpoints skip
    /// telemetry, so a restored platform starts with an empty event log;
    /// replaying these keeps warm outcomes byte-identical to cold ones.
    transitions: Vec<(&'static str, &'static str)>,
    aborted: bool,
}

/// Supervisor `(from, to)` transition pairs retained in the event log.
fn scrape_transitions(p: &Platform) -> Vec<(&'static str, &'static str)> {
    p.telemetry()
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::SupervisorTransition { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect()
}

/// Keyed settle-checkpoint store shared by all campaign workers.
///
/// Each key maps to a [`OnceLock`]: the first scenario to claim it runs
/// the settle prefix while any siblings with the same key block, then
/// everyone restores the one checkpoint.
#[derive(Default)]
struct WarmCache {
    entries: Mutex<HashMap<u64, Arc<OnceLock<WarmEntry>>>>,
}

impl WarmCache {
    fn slot(&self, key: u64) -> Arc<OnceLock<WarmEntry>> {
        self.entries
            .lock()
            .expect("warm cache poisoned")
            .entry(key)
            .or_default()
            .clone()
    }
}

/// Number of leading steps that form the scenario's settle prefix:
/// bring-up, environment and calibration, but no measurement and no rate
/// stimulus. [`Step::SetRate`] ends the prefix because the applied rate
/// is what varies across a rate table — settling happens at zero rate so
/// sibling scenarios can share it. `Measure*`, `Capture*` and
/// [`Step::FaultResponse`] end it because their work is the measurement
/// itself.
fn settle_prefix_len(steps: &[Step]) -> usize {
    steps
        .iter()
        .take_while(|s| {
            matches!(
                s,
                Step::ArmWatchdog { .. }
                    | Step::WaitReady { .. }
                    | Step::WaitSupervisorNormal { .. }
                    | Step::Run { .. }
                    | Step::SetTemperature { .. }
                    | Step::FreezeAgcDrive { .. }
                    | Step::TrimRebalancePhase { .. }
            )
        })
        .count()
}

/// Warm-start cache key: the effective configuration digest (which covers
/// the effective seed and the merged fault specs) mixed with a canonical
/// encoding of the settle-prefix steps.
fn warm_key(config: &PlatformConfig, prefix: &[Step]) -> u64 {
    let canon = format!("{:#018x}|{prefix:?}", checkpoint::config_digest(config));
    fnv1a64(canon.as_bytes())
}

/// Runs the settle prefix cold and packages the result for the cache.
///
/// Uncancellable by design ([`AttemptCtx::NONE`]): the produced entry is
/// shared by every sibling scenario with the same key, so it must never
/// be a partial artifact of one worker's deadline.
fn warm_prefix(config: &PlatformConfig, prefix: &[Step]) -> WarmEntry {
    let mut p = Platform::new(config.clone());
    let mut out = ScenarioOutcome::started("", 0, config.seed);
    let mut scratch = Scratch::default();
    let mut aborted = false;
    for step in prefix {
        match apply_step(&mut p, step, &mut out, &mut scratch, AttemptCtx::NONE) {
            Ok(true) => {}
            // `Err(Cancelled)` is unreachable with a null context; treat
            // it like an abort for totality.
            Ok(false) | Err(Cancelled) => {
                aborted = true;
                break;
            }
        }
    }
    WarmEntry {
        checkpoint: checkpoint::save(&p),
        metrics: out.metrics,
        transitions: scrape_transitions(&p),
        aborted,
    }
}

/// Mixes the config seed with the scenario index (splitmix64 finalizer) so
/// sibling scenarios decorrelate while staying thread-count independent.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-scenario interpreter state carried between steps.
#[derive(Default)]
struct Scratch {
    /// Sensitivity from the last static-transfer measurement (V per °/s).
    sensitivity: Option<f64>,
}

/// Runs one attempt of one scenario of either kind.
///
/// `Err` means the attempt was cancelled by the watchdog (a panic
/// propagates to the caller's `catch_unwind` instead); `Ok` carries the
/// outcome plus whether the warm cache hit. Chaos injections fire before
/// the platform or channel is built, so an injected attempt never
/// perturbs simulation state.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    index: usize,
    attempt: u32,
    scenario: &Scenario,
    cache: Option<&WarmCache>,
    hits: &AtomicUsize,
    collector: Option<&TraceCollector>,
    ctx: AttemptCtx<'_>,
    chaos: Option<&ChaosPlan>,
) -> Result<(ScenarioOutcome, bool), ScenarioError> {
    if let Some(plan) = chaos {
        match plan.decide(index, attempt) {
            ChaosInjection::Panic => {
                panic!("chaos: injected worker panic (scenario {index}, attempt {attempt})")
            }
            ChaosInjection::Stall => {
                // A hung worker: sleeps until the watchdog cancels the
                // slot, capped so unsupervised chaos runs still end. The
                // recorded deadline is the configured limit (min of
                // watchdog deadline and cap), never measured time.
                let cap = plan.stall_cap_s.max(0.0);
                let limit = ctx.deadline_s().map_or(cap, |d| d.min(cap));
                let t0 = Instant::now();
                while !ctx.cancelled() && t0.elapsed().as_secs_f64() < cap {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err(ScenarioError::TimedOut { deadline_s: limit });
            }
            ChaosInjection::None => {}
        }
    }
    match scenario {
        Scenario::Platform(spec) => {
            run_platform_attempt(index, attempt, spec, cache, hits, collector, ctx)
        }
        Scenario::Channel(sc) => {
            let (trace, span) = scenario_span(collector, index, &sc.name, attempt);
            let (out, sim_end) =
                run_channel_scenario(index, sc, ctx).map_err(|Cancelled| ctx.timed_out())?;
            if let (Some(mut tr), Some(c)) = (trace, collector) {
                tr.end(span, sim_end);
                c.merge(tr);
            }
            Ok((out, false))
        }
    }
}

/// Opens a scenario's span on its own track (`index + 1`), annotated with
/// the attempt number on retries; `(None, NULL)` when tracing is off.
fn scenario_span(
    collector: Option<&TraceCollector>,
    index: usize,
    name: &str,
    attempt: u32,
) -> (Option<TraceRecorder>, SpanId) {
    let Some(c) = collector else {
        return (None, SpanId::NULL);
    };
    let mut tr = c.recorder(index as u64 + 1);
    let span = tr.begin(format!("scenario:{name}"), 0.0);
    if attempt > 0 {
        tr.annotate(span, "attempt", attempt.to_string());
    }
    (Some(tr), span)
}

/// Runs one attempt of a full-platform scenario (see [`run_attempt`]).
fn run_platform_attempt(
    index: usize,
    attempt: u32,
    spec: &ScenarioSpec,
    cache: Option<&WarmCache>,
    hits: &AtomicUsize,
    collector: Option<&TraceCollector>,
    ctx: AttemptCtx<'_>,
) -> Result<(ScenarioOutcome, bool), ScenarioError> {
    let mut config = spec.config.clone();
    for fault in spec.faults.specs() {
        config.faults.push(*fault);
    }
    let seed = spec.effective_seed(index);
    config.seed = seed;
    let fault_classes = {
        let mut classes: Vec<&'static str> = Vec::new();
        for fault in config.faults.specs() {
            let label = fault.kind.label();
            if !classes.contains(&label) {
                classes.push(label);
            }
        }
        classes
    };

    let mut out = ScenarioOutcome {
        fault_classes,
        ..ScenarioOutcome::started(&spec.name, index, seed)
    };
    let (mut trace, span) = scenario_span(collector, index, &spec.name, attempt);
    if let Err(e) = config.validate() {
        // An invalid spec is a scenario result, not a campaign abort.
        out.metrics.push(("config_valid".into(), 0.0));
        out.series.push((format!("error: {e}"), Vec::new()));
        if let Some(mut tr) = trace.take() {
            tr.annotate(span, "config_valid", "false");
            tr.end(span, 0.0);
            if let Some(c) = collector {
                c.merge(tr);
            }
        }
        return Ok((out, false));
    }

    let prefix = cache.map_or(0, |_| settle_prefix_len(&spec.steps));
    let mut scratch = Scratch::default();
    let mut warm_hit = false;
    // Warm-cache waits (blocking on a sibling's settle prefix) are not
    // this scenario's own work: exclude them from the deadline budget by
    // disarming around the cache access and re-arming after.
    if prefix > 0 {
        ctx.disarm();
    }
    let (mut p, aborted, resume_at) = match cache {
        Some(cache) if prefix > 0 => {
            let slot = cache.slot(warm_key(&config, &spec.steps[..prefix]));
            let mut warmed_here = false;
            let entry = slot.get_or_init(|| {
                warmed_here = true;
                warm_prefix(&config, &spec.steps[..prefix])
            });
            match checkpoint::restore(config.clone(), &entry.checkpoint) {
                Ok(p) => {
                    warm_hit = !warmed_here;
                    if warm_hit {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    out.metrics.extend(entry.metrics.iter().cloned());
                    // Checkpoints skip telemetry: replay the prefix's
                    // transitions so warm outcomes match cold ones.
                    out.transitions.extend(entry.transitions.iter().copied());
                    (p, entry.aborted, prefix)
                }
                // A key collision between different configs is caught by
                // the checkpoint's config digest; fall back to a cold run.
                Err(_) => (Platform::new(config), false, 0),
            }
        }
        _ => (Platform::new(config), false, 0),
    };
    if prefix > 0 {
        ctx.arm();
    }
    if let Some(mut tr) = trace.take() {
        tr.annotate(span, "warm", if warm_hit { "hit" } else { "miss" });
        p.attach_trace(tr);
    }
    let mut cancelled = false;
    if !aborted {
        for step in &spec.steps[resume_at..] {
            let t_begin = p.time();
            let step_span = p
                .trace_mut()
                .map_or(SpanId::NULL, |tr| tr.begin(step.label(), t_begin));
            let step_result = apply_step(&mut p, step, &mut out, &mut scratch, ctx);
            let t_end = p.time();
            if let Some(tr) = p.trace_mut() {
                tr.end(step_span, t_end);
            }
            match step_result {
                Ok(true) => {}
                Ok(false) => break,
                Err(Cancelled) => {
                    cancelled = true;
                    break;
                }
            }
        }
    }
    if !cancelled && p.time() < spec.duration_s {
        let remaining = spec.duration_s - p.time();
        cancelled = run_for(&mut p, remaining, ctx).is_err();
    }
    if cancelled {
        // The attempt's trace recorder dies with the platform: only
        // completed attempts contribute spans.
        return Err(ctx.timed_out());
    }
    // Deterministic observability results: transitions, capture, and (when
    // a recorder was armed) whether it fired.
    out.transitions.extend(scrape_transitions(&p));
    out.capture = p.take_capture();
    if p.recorder().is_some() {
        out.metrics.push((
            "recorder_triggered".into(),
            f64::from(u8::from(out.capture.is_some())),
        ));
    }
    if let Some(mut tr) = p.take_trace() {
        tr.end(span, p.time());
        if let Some(c) = collector {
            c.merge(tr);
        }
    }
    Ok((out, warm_hit))
}

/// Advances `p` by `seconds` — identical tick rounding to
/// [`Platform::run`] — in [`RUN_BLOCK_TICKS`] chunks so a pending
/// watchdog cancellation is observed between chunks.
fn run_for(p: &mut Platform, seconds: f64, ctx: AttemptCtx<'_>) -> Result<(), Cancelled> {
    let mut ticks = (seconds * p.config().dsp_rate.0).round() as u64;
    while ticks > 0 {
        ctx.check()?;
        let block = ticks.min(RUN_BLOCK_TICKS);
        p.step_block(block);
        ticks -= block;
    }
    Ok(())
}

/// Steps `p` until `pred` holds or `timeout_s` elapses; returns the
/// simulation time at which the predicate first held. Heartbeats (and
/// observes cancellation) every [`HEARTBEAT_TICKS`] ticks.
fn run_until(
    p: &mut Platform,
    timeout_s: f64,
    ctx: AttemptCtx<'_>,
    mut pred: impl FnMut(&Platform) -> bool,
) -> Result<Option<f64>, Cancelled> {
    let ticks = (timeout_s * p.config().dsp_rate.0).round() as u64;
    for i in 0..ticks {
        if i % HEARTBEAT_TICKS == 0 {
            ctx.check()?;
        }
        p.step();
        if pred(p) {
            return Ok(Some(p.time()));
        }
    }
    Ok(None)
}

/// Mean rate output (°/s) over `window_s`.
fn mean_rate(p: &mut Platform, window_s: f64, ctx: AttemptCtx<'_>) -> Result<f64, Cancelled> {
    let ticks = ((window_s * p.config().dsp_rate.0).round() as u64).max(1);
    let mut acc = 0.0;
    for i in 0..ticks {
        if i % HEARTBEAT_TICKS == 0 {
            ctx.check()?;
        }
        p.step();
        acc += p.rate_output_dps();
    }
    Ok(acc / ticks as f64)
}

/// Runs one step; `Ok(false)` means the remaining steps must be skipped
/// (bring-up failure), `Err(Cancelled)` that the watchdog cancelled the
/// attempt. Long uncancellable measurement primitives observe a pending
/// cancellation at their boundary ([`AttemptCtx::check`]); tick-stepped
/// loops observe it every [`HEARTBEAT_TICKS`] ticks.
#[allow(clippy::too_many_lines)]
fn apply_step(
    p: &mut Platform,
    step: &Step,
    out: &mut ScenarioOutcome,
    scratch: &mut Scratch,
    ctx: AttemptCtx<'_>,
) -> Result<bool, Cancelled> {
    let push = |out: &mut ScenarioOutcome, name: &str, value: f64| {
        out.metrics.push((name.to_owned(), value));
    };
    match step {
        Step::ArmWatchdog { timeout_cycles } => {
            p.bus_mut().watchdog.write16(1, *timeout_cycles);
            p.bus_mut().watchdog.write16(0, 1);
        }
        Step::WaitReady { timeout_s } => {
            ctx.check()?;
            match p.wait_for_ready(*timeout_s) {
                Some(t) => {
                    push(out, "locked", 1.0);
                    push(out, "turn_on_s", t.0);
                }
                None => {
                    push(out, "locked", 0.0);
                    return Ok(false);
                }
            }
        }
        Step::WaitSupervisorNormal { timeout_s } => {
            match run_until(p, *timeout_s, ctx, |p| {
                p.supervisor().state() == SupervisorState::Normal
            })? {
                Some(t) => push(out, "supervisor_normal_s", t),
                None => {
                    push(out, "supervisor_normal_s", -1.0);
                    return Ok(false);
                }
            }
        }
        Step::Run { seconds } => run_for(p, *seconds, ctx)?,
        Step::SetRate { dps } => p.set_rate(DegPerSec(*dps)),
        Step::SetTemperature { celsius } => p.set_temperature(Celsius(*celsius)),
        Step::FreezeAgcDrive { resettle_s } => {
            let settled_drive = p.chain().drive();
            let mut frozen = p.chain().config().clone();
            frozen.agc.max_drive = settled_drive;
            frozen.agc.kp = 0.0;
            frozen.agc.ki = 1.0e6; // integrator pegs at max_drive = fixed drive
            *p.chain_mut() = ConditioningChain::new(frozen);
            run_for(p, *resettle_s, ctx)?;
        }
        Step::TrimRebalancePhase {
            probe_rate_dps,
            iterations,
        } => {
            ctx.check()?;
            let phase = trim_rebalance_phase(p, *probe_rate_dps, *iterations);
            push(out, "rebalance_phase_rad", phase);
        }
        Step::MeasureMeanRate { label, window_s } => {
            let mean = mean_rate(p, *window_s, ctx)?;
            push(out, label, mean);
        }
        Step::MeasureSensitivity {
            label,
            rate_dps,
            settle_s,
            samples,
        } => {
            ctx.check()?;
            p.set_rate(DegPerSec(*rate_dps));
            let plus = stats::mean(&p.sample_rate_output(*settle_s, *samples));
            p.set_rate(DegPerSec(-rate_dps));
            let minus = stats::mean(&p.sample_rate_output(*settle_s, *samples));
            p.set_rate(DegPerSec(0.0));
            push(out, label, (plus - minus) / (2.0 * rate_dps));
        }
        Step::MeasureLinearity {
            label,
            rates,
            dwell_s,
            settle_s,
            samples,
        } => {
            let mut outs = Vec::with_capacity(rates.len());
            for &r in rates {
                p.set_rate(DegPerSec(r));
                run_for(p, *dwell_s, ctx)?;
                outs.push(stats::mean(&p.sample_rate_output(*settle_s, *samples)));
            }
            p.set_rate(DegPerSec(0.0));
            let full_scale = rates.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            let fit = stats::linear_fit(rates, &outs);
            let pct = fit.max_residual / (fit.slope.abs() * full_scale) * 100.0;
            push(out, label, pct);
        }
        Step::MeasureStaticTransfer {
            rate_points,
            samples_per_point,
        } => {
            ctx.check()?;
            let mut cfg = CharacterizationConfig::default();
            cfg.rate_points.clone_from(rate_points);
            cfg.samples_per_point = *samples_per_point;
            let t = measure_static_transfer(p, &cfg, 25.0);
            scratch.sensitivity = Some(t.sensitivity);
            push(out, "sensitivity_v_per_dps", t.sensitivity);
            push(out, "null_v", t.null);
            push(out, "nonlinearity_pct_fs", t.nonlinearity_pct_fs);
        }
        Step::MeasureNoiseDensity { samples } => {
            ctx.check()?;
            let mut cfg = CharacterizationConfig::default();
            cfg.noise_samples = *samples;
            let sensitivity = scratch.sensitivity.unwrap_or(0.005);
            let noise = measure_noise_density(p, &cfg, sensitivity);
            push(out, "noise_density_dps_rthz", noise);
        }
        Step::CaptureZeroRate {
            label,
            seconds,
            settle_s,
        } => {
            ctx.check()?;
            let fs = p.output_sample_rate();
            let n = (seconds * fs).round() as usize;
            let volts = p.sample_output(*settle_s, n);
            // Nominal transfer: 5 mV/°/s around the 2.5 V null.
            let rate: Vec<f64> = volts.iter().map(|v| (v - 2.5) / 0.005).collect();
            push(out, &format!("{label}_fs_hz"), fs);
            out.series.push((label.clone(), rate));
        }
        Step::FaultResponse {
            t_inject_s,
            t_clear_s,
            detect_budget_s,
            recover_budget_s,
            measure_recovery,
        } => {
            let baseline = mean_rate(p, 0.05, ctx)?;
            push(out, "baseline_dps", baseline);
            // Detection: first departure from Normal after injection.
            let detect_window = (t_inject_s - p.time()).max(0.0) + detect_budget_s;
            let detected_at = run_until(p, detect_window, ctx, |p| {
                p.supervisor().state() != SupervisorState::Normal
            })?;
            match detected_at {
                Some(t) => {
                    push(out, "detected", 1.0);
                    push(out, "detection_latency_s", t - t_inject_s);
                }
                None => push(out, "detected", 0.0),
            }
            if detected_at.is_some() && *measure_recovery {
                // Recovery: first return to Normal after the fault clears.
                let remaining = (t_clear_s - p.time()).max(0.0) + recover_budget_s;
                match run_until(p, remaining, ctx, |p| {
                    p.supervisor().state() == SupervisorState::Normal
                })? {
                    Some(t) => {
                        push(out, "recovered", 1.0);
                        push(out, "recovery_time_s", (t - t_clear_s).max(0.0));
                        push(
                            out,
                            "residual_rate_dps",
                            (mean_rate(p, 0.1, ctx)? - baseline).abs(),
                        );
                    }
                    None => push(out, "recovered", 0.0),
                }
            }
            push(out, "final_state_code", p.supervisor().state().code());
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascp_sim::fault::FaultKind;

    fn quick_cfg() -> PlatformConfig {
        PlatformConfig::builder().quiet().build().expect("valid")
    }

    /// Runner with `threads` workers and otherwise default options.
    fn runner(threads: usize) -> CampaignRunner {
        CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(threads)
                .build()
                .expect("valid options"),
        )
    }

    fn quick_scenarios() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("a", quick_cfg())
                .with_step(Step::Run { seconds: 0.02 })
                .with_step(Step::SetRate { dps: 80.0 })
                .with_step(Step::MeasureMeanRate {
                    label: "mean_dps".into(),
                    window_s: 0.01,
                }),
            ScenarioSpec::new("b", quick_cfg())
                .with_faults({
                    let mut f = FaultPlan::new();
                    f.one_shot(FaultKind::PllUnlock, 0.01, 0.005);
                    f
                })
                .with_duration(0.03)
                .with_step(Step::Run { seconds: 0.01 }),
        ]
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let serial = runner(1).run(quick_scenarios());
        let parallel = runner(4).run(quick_scenarios());
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn duration_floor_extends_the_run() {
        let report = runner(1).run(quick_scenarios());
        // Scenario "b" runs 0.01 s of steps but has a 0.03 s floor; its
        // fault fired inside the floor, so the plan saw activity.
        assert_eq!(report.outcomes[1].name, "b");
    }

    #[test]
    fn seed_derivation_is_per_index_and_overridable() {
        let cfg = quick_cfg();
        let specs = vec![
            ScenarioSpec::new("x", cfg.clone()),
            ScenarioSpec::new("y", cfg.clone()),
            ScenarioSpec::new("z", cfg).with_seed(42),
        ];
        let report = runner(2).run(specs);
        assert_ne!(report.outcomes[0].seed, report.outcomes[1].seed);
        assert_eq!(report.outcomes[2].seed, 42);
    }

    #[test]
    fn invalid_config_becomes_an_outcome_not_a_panic() {
        let mut spec = ScenarioSpec::new("bad", quick_cfg());
        spec.config.analog_oversample = 0;
        let report = runner(1).run(vec![spec]);
        assert_eq!(report.outcomes[0].metric("config_valid"), Some(0.0));
    }

    /// Sixteen scenarios sharing one settle recipe (same config, same
    /// explicit seed, same lock prefix) but measuring different rates.
    fn shared_settle_scenarios() -> Vec<ScenarioSpec> {
        (0..16)
            .map(|i| {
                let dps = f64::from(i) * 20.0 - 150.0;
                ScenarioSpec::new(format!("rate_{i}"), quick_cfg())
                    .with_seed(7)
                    .with_step(Step::Run { seconds: 0.03 })
                    .with_step(Step::SetRate { dps })
                    .with_step(Step::MeasureMeanRate {
                        label: "mean_dps".into(),
                        window_s: 0.005,
                    })
            })
            .collect()
    }

    #[test]
    fn warm_start_is_byte_identical_to_cold() {
        let cold = runner(2).run(shared_settle_scenarios());
        let warm = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(2)
                .warm_start(true)
                .build()
                .expect("valid options"),
        )
        .run(shared_settle_scenarios());
        assert_eq!(cold.warm_hits, 0);
        assert_eq!(warm.warm_hits, 15, "15 of 16 scenarios must hit the cache");
        assert_eq!(cold.outcomes, warm.outcomes);
        assert_eq!(cold.to_csv(), warm.to_csv());
    }

    #[test]
    fn warm_start_report_is_identical_across_thread_counts() {
        let runs: Vec<_> = [1, 2, 4]
            .iter()
            .map(|&t| {
                CampaignRunner::with_options(
                    CampaignOptions::builder()
                        .threads(t)
                        .warm_start(true)
                        .build()
                        .expect("valid options"),
                )
                .run(shared_settle_scenarios())
            })
            .collect();
        assert_eq!(runs[0].outcomes, runs[1].outcomes);
        assert_eq!(runs[0].outcomes, runs[2].outcomes);
        assert_eq!(runs[0].to_csv(), runs[1].to_csv());
        assert_eq!(runs[0].to_csv(), runs[2].to_csv());
    }

    #[test]
    fn derived_seeds_never_share_the_warm_cache() {
        // Without an explicit seed, every scenario's effective seed (and
        // so its warm key) differs: the cache must not conflate them.
        let specs: Vec<_> = (0..4)
            .map(|i| {
                ScenarioSpec::new(format!("s{i}"), quick_cfg())
                    .with_step(Step::Run { seconds: 0.01 })
                    .with_step(Step::MeasureMeanRate {
                        label: "m".into(),
                        window_s: 0.002,
                    })
            })
            .collect();
        let cold = runner(1).run(specs.clone());
        let warm = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(1)
                .warm_start(true)
                .build()
                .expect("valid options"),
        )
        .run(specs);
        assert_eq!(warm.warm_hits, 0);
        assert_eq!(cold.outcomes, warm.outcomes);
    }

    #[test]
    fn csv_and_telemetry_carry_the_metrics() {
        let report = runner(1).run(quick_scenarios());
        let csv = report.to_csv();
        assert!(csv.starts_with("scenario,metric,value,status\n"));
        assert!(csv.contains("a,mean_dps,"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",ok")));
        let snap = report.to_telemetry();
        assert_eq!(snap.wall_time_s, 0.0);
        assert!(snap.gauge("a.mean_dps").is_some());
        assert_eq!(snap.counter("campaign.retries_total"), 0);
        assert_eq!(snap.counter("campaign.poisoned_scenarios"), 0);
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_expire() {
        let plan = ChaosPlan::new(0xC0FFEE);
        for index in 0..64 {
            assert_eq!(plan.decide(index, 0), plan.decide(index, 0));
            assert_eq!(plan.decide(index, 1), ChaosInjection::None);
        }
        let wider = plan.clone().with_persist_attempts(2);
        for index in 0..64 {
            assert_eq!(wider.decide(index, 1), wider.decide(index, 0));
            assert_eq!(wider.decide(index, 2), ChaosInjection::None);
        }
    }

    #[test]
    fn scenario_error_taxonomy_is_stable() {
        let panicked = ScenarioError::Panicked {
            message: "boom".into(),
        };
        let timed_out = ScenarioError::TimedOut { deadline_s: 1.5 };
        assert_eq!(panicked.label(), "panicked");
        assert_eq!(timed_out.label(), "timed_out");
        assert_eq!(ScenarioError::Missing.label(), "missing");
        assert_eq!(panicked.code(), 1.0);
        assert_eq!(timed_out.code(), 2.0);
        assert_eq!(ScenarioError::Missing.code(), 3.0);
        assert!(panicked.to_string().contains("boom"));
        assert!(timed_out.to_string().contains("1.5"));
    }

    /// A chaos seed whose decision for scenario 0 is `wanted`.
    fn chaos_seed_with(wanted: ChaosInjection) -> u64 {
        (0..1024)
            .find(|&s| ChaosPlan::new(s).decide(0, 0) == wanted)
            .expect("some seed produces the wanted injection")
    }

    #[test]
    fn poisoned_scenarios_ship_as_failed_rows_not_aborts() {
        let seed = chaos_seed_with(ChaosInjection::Panic);
        let report = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(2)
                .retries(0)
                .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05))
                .build()
                .expect("valid options"),
        )
        .run(quick_scenarios());
        assert_eq!(report.outcomes.len(), 2, "pool must drain past the panic");
        let poisoned = &report.outcomes[0];
        assert!(poisoned.failed());
        assert!(poisoned.metrics.is_empty());
        assert_eq!(poisoned.attempt_errors.len(), 1);
        assert_eq!(poisoned.attempt_errors[0].label(), "panicked");
        let csv = report.to_csv();
        assert!(csv.contains("a,scenario_error,1,poisoned"));
        assert!(csv.contains("a,scenario_attempts,1,poisoned"));
        assert_eq!(report.poisoned(), report.failed_scenarios().len());
        assert_eq!(report.panics_total(), 1);
        assert_eq!(
            report.to_telemetry().counter("campaign.poisoned_scenarios"),
            report.poisoned() as u64
        );
    }

    #[test]
    fn retry_makes_chaos_byte_identical_to_undisturbed() {
        let seed = chaos_seed_with(ChaosInjection::Panic);
        let clean = runner(2).run(quick_scenarios());
        let chaotic = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(2)
                .retries(1)
                .backoff_ms(1)
                .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05))
                .build()
                .expect("valid options"),
        )
        .run(quick_scenarios());
        assert_eq!(chaotic.poisoned(), 0, "one retry must absorb the chaos");
        assert!(chaotic.retries_total() >= 1, "chaos must have fired");
        assert_eq!(clean.to_csv(), chaotic.to_csv());
        for (a, b) in clean.outcomes.iter().zip(&chaotic.outcomes) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.seed, b.seed, "retry must not re-derive the seed");
        }
    }

    #[test]
    fn options_builder_validates_each_field() {
        let err = |b: CampaignOptionsBuilder| b.build().expect_err("invalid").to_string();
        assert!(err(CampaignOptions::builder().threads(0)).contains("threads"));
        assert!(err(CampaignOptions::builder().deadline_s(0.0)).contains("deadline_s"));
        assert!(err(CampaignOptions::builder().deadline_s(f64::NAN)).contains("deadline_s"));
        assert!(err(CampaignOptions::builder().backoff_ms(60_001)).contains("backoff_ms"));
        assert!(
            err(CampaignOptions::builder().chaos(ChaosPlan::new(1).with_stall_cap_s(f64::NAN)))
                .contains("stall_cap_s")
        );
        let o = CampaignOptions::builder()
            .threads(2)
            .retries(3)
            .backoff_ms(20)
            .deadline_s(4.0)
            .fleet(false)
            .build()
            .expect("valid");
        assert_eq!(o.threads(), 2);
        assert_eq!(o.max_retries(), 3);
        assert_eq!(o.backoff_ms(), 20);
        assert_eq!(o.deadline_s(), Some(4.0));
        assert!(!o.fleet());
        assert!(
            CampaignOptions::default().fleet(),
            "fleet batching defaults on"
        );
    }

    /// A five-lane Monte-Carlo spec dispersing every supported parameter,
    /// using only the fleet-safe step vocabulary.
    fn mc_spec() -> ScenarioSpec {
        ScenarioSpec::new("mc", quick_cfg())
            .with_step(Step::Run { seconds: 0.02 })
            .with_step(Step::SetRate { dps: 60.0 })
            .with_step(Step::MeasureMeanRate {
                label: "mean_dps".into(),
                window_s: 0.01,
            })
            .monte_carlo(
                5,
                Dispersion::none()
                    .with_omega_frac(0.02)
                    .with_q_frac(0.05)
                    .with_offset_dps(10.0)
                    .with_gain_frac(0.03),
            )
    }

    #[test]
    fn monte_carlo_expands_into_distinct_dispersed_lanes() {
        let report = runner(1).run(vec![mc_spec()]);
        assert_eq!(report.outcomes.len(), 5);
        for (lane, out) in report.outcomes.iter().enumerate() {
            assert_eq!(out.name, format!("mc/mc{lane}"));
            assert!(!out.failed());
        }
        let seeds: HashSet<u64> = report.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds.len(), 5, "per-lane seeds must be distinct");
        let means: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.metric("mean_dps").expect("measured"))
            .collect();
        for pair in means.windows(2) {
            assert_ne!(pair[0], pair[1], "dispersion must perturb the physics");
        }
    }

    #[test]
    fn fleet_execution_is_byte_identical_to_scalar() {
        let scalar = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(1)
                .fleet(false)
                .build()
                .expect("valid"),
        )
        .run(vec![mc_spec()]);
        for threads in [1, 4] {
            let fleet = runner(threads).run(vec![mc_spec()]);
            assert_eq!(scalar.outcomes, fleet.outcomes);
            assert_eq!(scalar.to_csv(), fleet.to_csv());
        }
    }

    #[test]
    fn spec_seed_override_still_disperses_lanes() {
        // A spec-level seed replaces the *base* of the per-lane stream,
        // not the lanes' seeds: lane `e` still draws
        // `derive_seed(base, e)`, so lanes stay distinct.
        let spec = mc_spec().with_seed(42);
        let a = runner(1).run(vec![spec.clone()]);
        let b = runner(2).run(vec![spec]);
        assert_eq!(a.to_csv(), b.to_csv());
        let seeds: Vec<u64> = a.outcomes.iter().map(|o| o.seed).collect();
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, derive_seed(42, lane as u64));
        }
        assert_eq!(seeds.iter().collect::<HashSet<_>>().len(), 5);
        let means: Vec<f64> = a
            .outcomes
            .iter()
            .map(|o| o.metric("mean_dps").expect("measured"))
            .collect();
        for pair in means.windows(2) {
            assert_ne!(pair[0], pair[1], "seeded lanes must still disperse");
        }
    }

    #[test]
    fn mixed_campaign_interleaves_scalar_and_fleet_units() {
        // Plain scenario + Monte-Carlo population + faulted scenario:
        // only the population batches; outcomes keep expanded order.
        let mut specs = quick_scenarios();
        specs.insert(1, mc_spec());
        let fleet = runner(2).run(specs.clone());
        let scalar = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(2)
                .fleet(false)
                .build()
                .expect("valid"),
        )
        .run(specs);
        assert_eq!(fleet.outcomes.len(), 7);
        assert_eq!(fleet.outcomes[0].name, "a");
        assert_eq!(fleet.outcomes[1].name, "mc/mc0");
        assert_eq!(fleet.outcomes[5].name, "mc/mc4");
        assert_eq!(fleet.outcomes[6].name, "b");
        assert_eq!(fleet.outcomes, scalar.outcomes);
        assert_eq!(fleet.to_csv(), scalar.to_csv());
    }

    #[test]
    fn monte_carlo_campaign_resumes_byte_identically() {
        let path =
            std::env::temp_dir().join(format!("ascp_mc_resume_{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let first = runner(2)
            .resume(vec![mc_spec()], &path)
            .expect("fresh journaled run");
        assert_eq!(first.resumed, 0);
        let second = runner(2).resume(vec![mc_spec()], &path).expect("resume");
        assert_eq!(second.resumed, 5, "every expanded lane must preload");
        assert_eq!(first.to_csv(), second.to_csv());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn planner_batches_eligible_sibling_lanes() {
        let (expanded, parents) = expand_monte_carlo(vec![mc_spec()]);
        let work: Vec<(usize, Scenario)> = expanded.into_iter().enumerate().collect();
        let units = runner(1).plan_units(work.clone(), &parents);
        assert_eq!(units.len(), 1);
        let WorkUnit::Fleet(lanes) = &units[0] else {
            panic!("mc lanes must batch onto one fleet unit");
        };
        assert_eq!(lanes.len(), 5);
        // The batched lanes must be genuinely fleet-able, not silently
        // falling back to scalar at attempt time.
        let platforms: Vec<Platform> = lanes
            .iter()
            .map(|(index, spec)| {
                let mut config = spec.config.clone();
                config.seed = spec.effective_seed(*index);
                Platform::new(config)
            })
            .collect();
        assert!(
            PlatformFleet::new(platforms).is_ok(),
            "dispersed mc lanes must be fleet-eligible"
        );
        // Warm-start and fleet(false) both force every lane scalar.
        for options in [
            CampaignOptions::builder().warm_start(true),
            CampaignOptions::builder().fleet(false),
        ] {
            let scalar_runner = CampaignRunner::with_options(options.build().expect("valid"));
            let units = scalar_runner.plan_units(work.clone(), &parents);
            assert_eq!(units.len(), 5);
            assert!(units.iter().all(|u| matches!(u, WorkUnit::Single(..))));
        }
    }

    #[test]
    fn exhausted_fleet_group_poisons_every_lane_with_the_shared_history() {
        // A population far too long for a 1 ms deadline: the lockstep
        // batch times out on every attempt and fails whole.
        let spec = mc_spec().with_step(Step::Run { seconds: 60.0 });
        let options = CampaignOptions::builder()
            .threads(1)
            .retries(1)
            .backoff_ms(1)
            .deadline_s(0.001)
            .build()
            .expect("valid");
        let runner = CampaignRunner::with_options(options);
        let (expanded, parents) = expand_monte_carlo(vec![spec.clone()]);
        let units = runner.plan_units(expanded.into_iter().enumerate().collect(), &parents);
        assert!(
            matches!(&units[..], [WorkUnit::Fleet(lanes)] if lanes.len() == 5),
            "the population must run as one fleet unit"
        );
        let report = runner.run(vec![spec]);
        let history = vec![ScenarioError::TimedOut { deadline_s: 0.001 }; 2];
        assert_eq!(report.outcomes.len(), 5);
        for (lane, out) in report.outcomes.iter().enumerate() {
            assert_eq!(out.name, format!("mc/mc{lane}"));
            assert_eq!(out.index, lane);
            assert_eq!(out.status, ScenarioStatus::Poisoned);
            assert_eq!(out.attempt_errors, history, "lane {lane}");
            assert!(out.metrics.is_empty());
        }
        assert_eq!(report.poisoned(), 5);
    }

    #[test]
    fn planner_splits_populations_at_the_fleet_width() {
        let spec = mc_spec().monte_carlo(20, Dispersion::none());
        let (expanded, parents) = expand_monte_carlo(vec![spec]);
        let work: Vec<(usize, Scenario)> = expanded.into_iter().enumerate().collect();
        let units = runner(1).plan_units(work, &parents);
        let widths: Vec<usize> = units.iter().map(|u| u.lane_ids().len()).collect();
        assert_eq!(widths, vec![FLEET_GROUP_MAX, 4]);
    }

    #[test]
    fn dispersion_draws_are_deterministic_and_bounded() {
        for channel in 0..5 {
            let d = dispersion_draw(0xDEAD_BEEF, channel);
            assert_eq!(d, dispersion_draw(0xDEAD_BEEF, channel));
            assert!((-1.0..1.0).contains(&d));
        }
        let distinct: HashSet<u64> = (0..5)
            .map(|c| dispersion_draw(0xDEAD_BEEF, c).to_bits())
            .collect();
        assert_eq!(distinct.len(), 5, "channels must be independent streams");
    }
}
