//! Seeded benchmark of the ASCP simulator.
//!
//! ```sh
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fault_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
#[cfg(test)]
mod tests;
mod workloads;

use layers::{median, quantile, traced_run, PER_LAYER};
use std::time::Instant;
use workloads::{check, execute, setup, Checked, Scale, Workload};

/// End-to-end metrics printed with `--trace 0`, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("campaign_wall_s", "s"),
    ("sim_rate_x", "sim_s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// One set-up sample repeats set-up until this much set-up time has
/// accumulated and reports the mean.
const SETUP_SAMPLE_S: f64 = 0.002;

/// A run measures at least this many workload iterations.
const MIN_ITERATIONS: usize = 3;

/// Exit code for a run whose outputs failed their checks.
const EXIT_CHECK_FAILED: i32 = 1;
/// Exit code for bad arguments or a host that cannot be measured.
const EXIT_USAGE: i32 = 2;

#[derive(Debug)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_cli(&args) {
        Ok(cli) => match run(&cli) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perfbench: {e}");
                EXIT_USAGE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            EXIT_USAGE
        }
    };
    std::process::exit(code);
}

/// Hardware threads the process may use; the campaign runs one worker on
/// each.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run(cli: &Cli) -> Result<i32, String> {
    let threads = nproc();
    println!("manifest: {}", manifest(cli, threads));
    let (out, units) = if cli.trace {
        let t = traced_run(cli.workload, cli.seed, cli.seconds, threads);
        let path = write_trace(cli, &t.trace);
        println!(
            "trace: {} spans -> {}",
            t.trace.spans.len(),
            path.unwrap_or_else(|e| format!("not written ({e})"))
        );
        (t.out, &PER_LAYER[..])
    } else {
        (
            measure(cli.workload, cli.seed, cli.seconds, threads)?,
            &END_TO_END[..],
        )
    };
    let RunOutput {
        metrics,
        checked,
        digests,
        iterations,
    } = out;
    let metrics: Vec<(&str, &str, f64)> = metrics
        .iter()
        .zip(units)
        .map(|(&(name, v), &(listed, unit))| {
            debug_assert_eq!(name, listed);
            (name, unit, v)
        })
        .collect();

    let v = verdict(&checked, &digests);
    if !v.deterministic {
        eprintln!("perfbench: CSV digest differs between iterations: {digests:x?}");
    }
    for f in &checked.failed {
        eprintln!("perfbench: check failed: {f}");
    }
    summary(
        cli,
        &checked,
        digests.first().copied().unwrap_or(0),
        iterations,
        &metrics,
    );
    let json_metrics: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct,
        v.attempted,
        v.failed,
        json_metrics.join(", ")
    );
    Ok(v.exit_code())
}

/// The run's verdict over every checked iteration.
#[derive(Debug, PartialEq)]
struct Verdict {
    correct: bool,
    deterministic: bool,
    attempted: usize,
    failed: usize,
}

impl Verdict {
    fn exit_code(&self) -> i32 {
        if self.correct {
            0
        } else {
            EXIT_CHECK_FAILED
        }
    }
}

/// Outputs are correct when every check passed and every iteration
/// rendered a byte-identical CSV. A digest mismatch counts as a failure.
fn verdict(checked: &Checked, digests: &[u64]) -> Verdict {
    let deterministic = !digests.is_empty() && digests.windows(2).all(|w| w[0] == w[1]);
    let mut failed = checked.failed.len();
    if !deterministic {
        failed = failed.max(1);
    }
    Verdict {
        correct: failed == 0,
        deterministic,
        attempted: checked.attempted.max(failed).max(1),
        failed,
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// What a measured or traced run hands back for printing: metric values
/// in the order of [`END_TO_END`] or [`PER_LAYER`].
pub struct RunOutput {
    pub metrics: Vec<(&'static str, f64)>,
    pub checked: Checked,
    pub digests: Vec<u64>,
    pub iterations: usize,
}

/// The measured run, tracing off: a warm-up iteration, the timed
/// set-ups, then set-up + execution iterations for `seconds`; medians
/// reported.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Result<RunOutput, String> {
    let mut digests = Vec::new();
    let mut checked = Checked::default();
    // One warm-up iteration (checked, not timed) lets the allocator and
    // caches settle before anything is timed.
    let ex = execute(setup(workload, seed, Scale::Full, threads, None), None);
    digests.push(workloads::digest(&ex.csv));
    checked.merge(check(workload, seed, Scale::Full, &ex.report));
    // Set-ups are timed back to back, many per sample: a single
    // sub-millisecond set-up right after a campaign is too short to time
    // steadily. Each one is dropped outside its timed span.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let (mut spent, mut n) = (0.0, 0u32);
            while spent < SETUP_SAMPLE_S {
                let t = Instant::now();
                let prepared = setup(workload, seed, Scale::Full, threads, None);
                spent += t.elapsed().as_secs_f64();
                drop(prepared);
                n += 1;
            }
            spent / f64::from(n)
        })
        .collect();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        let ex = execute(setup(workload, seed, Scale::Full, threads, None), None);
        walls.push(ex.wall_s);
        digests.push(workloads::digest(&ex.csv));
        checked.merge(check(workload, seed, Scale::Full, &ex.report));
    }
    let wall = median(&walls);
    let rss = peak_rss_mib()?;
    println!(
        "iterations: {} walls_s [{}]",
        walls.len(),
        walls
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(RunOutput {
        metrics: vec![
            ("campaign_wall_s", wall),
            ("sim_rate_x", checked.sim_s / wall),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", rss),
        ],
        checked,
        digests,
        iterations: walls.len(),
    })
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Human-readable summary: every end-to-end quantity of the workload,
/// including the simulated-quality results that the JSON line leaves to
/// the output checks.
fn summary(cli: &Cli, c: &Checked, digest: u64, iterations: usize, metrics: &[(&str, &str, f64)]) {
    println!(
        "workload {} seed {}: {iterations} iteration(s), csv fnv1a64 {digest:016x}",
        cli.workload.name(),
        cli.seed
    );
    for (name, unit, v) in metrics {
        println!("  {name:<32} {v:>14.6} {unit}");
    }
    println!("  {:<32} {:>14.6} ratio", "fail_frac", c.fail_frac());
    println!("  {:<32} {:>14.6} sim_s", "simulated_s", c.sim_s);
    if let Some(g) = c.gain_err_pct {
        println!("  {:<32} {g:>14.6} %", "gain_err_pct");
    }
    if !c.detect_ms.is_empty() {
        println!(
            "  {:<32} {:>14.6} sim_ms",
            "detect_ms_p50",
            quantile(&c.detect_ms, 0.5)
        );
        let max = c.detect_ms.iter().copied().fold(f64::MIN, f64::max);
        println!("  {:<32} {max:>14.6} sim_ms", "detect_ms_max");
    }
}

/// Run manifest: what ran, on what.
fn manifest(cli: &Cli, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let nproc = nproc();
    format!(
        "{{\"commit\": \"{commit}\", \"source_fnv1a64\": \"{:016x}\", \"rustc\": \"{rustc}\", \"cpu\": \"{cpu}\", \"nproc\": {nproc}, \"threads\": {threads}, \"seed\": {}, \"workload\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        source_digest(),
        cli.seed,
        cli.workload.name(),
        cli.seconds,
        u8::from(cli.trace)
    )
}

/// First line of a command's output, or `unknown` (the benchmark also runs
/// from plain source trees without git).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.replace('"', "'")))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the simulator's sources as compiled (file paths and
/// contents, in path order): identifies the code when no commit is known.
fn source_digest() -> u64 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        let rel = f.strip_prefix(&root).unwrap_or(&f);
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    ascp_sim::snapshot::fnv1a64(&bytes)
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Writes the traced run's spans as Chrome trace JSON under the
/// benchmark's own `out/` directory.
fn write_trace(cli: &Cli, log: &ascp_sim::telemetry::TraceLog) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace_{}_{}.json", cli.workload.name(), cli.seed));
    std::fs::write(&path, log.to_chrome_json()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}
