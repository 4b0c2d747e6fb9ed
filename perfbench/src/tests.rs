//! Self-tests of the benchmark: determinism of the generators and the
//! report digest, thread-count invariance, metric naming, and that a
//! planted undetectable fault fails the run.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::layers::PER_LAYER;
use crate::workloads::{
    check, check_draw, digest, draw, execute, fault_cases, setup, setup_draw, Draw, FaultCase,
    Scale, Workload,
};
use crate::{parse_cli, verdict, END_TO_END};
use ascp_core::prelude::*;
use ascp_sim::fault::AdcChannel;

fn short_digest(w: Workload, seed: u64, threads: usize) -> u64 {
    digest(&execute(setup(w, seed, Scale::Short, threads, None), None).csv)
}

#[test]
fn same_seed_gives_identical_specs_and_digest() {
    for w in Workload::ALL {
        assert_eq!(
            draw(w, 7, Scale::Full),
            draw(w, 7, Scale::Full),
            "{}",
            w.name()
        );
        assert_eq!(
            short_digest(w, 7, 2),
            short_digest(w, 7, 2),
            "{}: CSV digest",
            w.name()
        );
    }
}

#[test]
fn different_seed_gives_different_specs() {
    for w in Workload::ALL {
        assert_ne!(
            draw(w, 7, Scale::Full),
            draw(w, 8, Scale::Full),
            "{}",
            w.name()
        );
        assert_ne!(
            draw(w, 7, Scale::Short),
            draw(w, 8, Scale::Short),
            "{}",
            w.name()
        );
    }
}

#[test]
fn digest_is_identical_at_one_and_two_threads() {
    for w in Workload::ALL {
        assert_eq!(
            short_digest(w, 11, 1),
            short_digest(w, 11, 2),
            "{}",
            w.name()
        );
    }
}

#[test]
fn short_instances_pass_their_checks() {
    for w in Workload::ALL {
        let ex = execute(setup(w, 5, Scale::Short, 2, None), None);
        let c = check(w, 5, Scale::Short, &ex.report);
        assert!(c.failed.is_empty(), "{}: {:?}", w.name(), c.failed);
        assert!(c.attempted > 0 && c.sim_s > 0.0, "{}", w.name());
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_valid_and_match_the_benchmark_file() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let mut all: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    for name in &all {
        assert!(valid_name(name), "bad metric name {name}");
    }
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "metric names must be unique");

    // BENCHMARK.json at the repository root lists exactly these metrics.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let body = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let mut listed: Vec<&str> = body
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    for w in Workload::ALL {
        let pos = listed.iter().position(|&n| n == w.name());
        listed.remove(pos.unwrap_or_else(|| panic!("workload {} not listed", w.name())));
    }
    listed.sort_unstable();
    assert_eq!(listed, all);
}

#[test]
fn planted_undetectable_fault_fails_the_run() {
    // A stuck ADC LSB hides under the converter noise: the supervisor has
    // nothing to see, so the sweep's detection check must fail.
    let mut cases = fault_cases(3, Scale::Short);
    cases.push(FaultCase {
        kind: FaultKind::AdcStuckBit {
            channel: AdcChannel::Secondary,
            bit: 0,
            value: false,
        },
        ..cases[0].clone()
    });
    let planted = Draw::Faults(cases);
    let ex = execute(setup_draw(planted.clone(), 2, None), None);
    let c = check_draw(&planted, &ex.report);
    assert_eq!(c.failed.len(), 1, "{:?}", c.failed);
    assert!(c.failed[0].starts_with("adc_stuck_bit"), "{:?}", c.failed);
    assert!(c.fail_frac() > 0.0);
    let v = verdict(&c, &[digest(&ex.csv)]);
    assert!(!v.correct);
    assert_eq!(v.failed, 1);
    assert_ne!(v.exit_code(), 0);
}

#[test]
fn a_digest_mismatch_fails_the_run() {
    let c = crate::workloads::Checked {
        attempted: 3,
        ..Default::default()
    };
    assert!(verdict(&c, &[1, 1]).correct);
    let v = verdict(&c, &[1, 2]);
    assert!(!v.correct && v.failed == 1 && v.exit_code() != 0);
}

#[test]
fn cli_rejects_bad_arguments() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_cli(&args(
        "--workload fault_sweep --seed 3 --seconds 10 --trace 1",
    ))
    .expect("valid arguments");
    assert_eq!(ok.workload, Workload::FaultSweep);
    assert!(ok.trace);
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload fault_sweep --seed x --seconds 1 --trace 0",
        "--workload fault_sweep --seed 1 --seconds 0 --trace 0",
        "--workload fault_sweep --seed 1 --seconds 1 --trace 2",
        "--workload fault_sweep --seconds 1",
        "--bogus 1",
    ] {
        assert!(parse_cli(&args(bad)).is_err(), "{bad}");
    }
}
