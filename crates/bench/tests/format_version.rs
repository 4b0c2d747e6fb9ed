//! Files written before the counter-keyed noise streams (format version 1)
//! are refused by the campaign bins: exit code 2 (infrastructure error),
//! a message naming the version, and no CSV.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh working directory per test (the bins write their artifacts
/// under `./target/experiments`).
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ascp_format_version").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// A version-1 header: magic, version 1, an arbitrary digest.
fn v1_header(magic: &[u8; 8]) -> Vec<u8> {
    let mut h = magic.to_vec();
    h.extend_from_slice(&1u32.to_le_bytes());
    h.extend_from_slice(&0x0123_4567_89ab_cdefu64.to_le_bytes());
    h
}

/// Runs `bin` in `dir` and asserts the refusal: exit 2, the version in the
/// error, and no `csv` under `dir/target/experiments`.
fn assert_refused(bin: &str, dir: &Path, args: &[&str], csv: &str) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run bin");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
    assert!(stderr.contains("version 1"), "{bin}: {stderr}");
    assert!(
        !dir.join("target/experiments").join(csv).exists(),
        "{bin} wrote {csv} from a version-1 file"
    );
}

#[test]
fn version_1_journal_is_refused_without_a_csv() {
    let dir = workdir("journal");
    std::fs::write(dir.join("old.journal"), v1_header(b"ASCPJRNL")).expect("write journal");
    assert_refused(
        env!("CARGO_BIN_EXE_fault_campaign"),
        &dir,
        &["--smoke", "--threads", "1", "--journal", "old.journal"],
        "fault_campaign.csv",
    );
}

#[test]
fn version_1_checkpoint_is_refused_without_a_csv() {
    let dir = workdir("checkpoint");
    std::fs::write(dir.join("old.ckpt"), v1_header(b"ASCPCKPT")).expect("write checkpoint");
    assert_refused(
        env!("CARGO_BIN_EXE_stability_allan"),
        &dir,
        &["--resume", "old.ckpt"],
        "stability_allan.csv",
    );
}
