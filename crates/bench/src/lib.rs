//! # bench — the measurement binaries that are not registry scenarios
//!
//! Every paper figure and table is a [`harness::catalog`] scenario, run
//! as `harness run --scenario <name>` (`harness list` prints them all).
//! This crate holds the two binaries that assert rather than plot:
//!
//! | binary | what it checks |
//! |---|---|
//! | `simbench` | simulator events/sec microbenches and the `BENCH/simcore.json` gates |
//! | `live_vs_sim` | measured loopback serving vs queueing models (sim-to-system check: single ≤ partitioned ≤ RSS on both sides) |
//!
//! Both accept `--quick` for a fast low-resolution run.

// Structural pin for detlint's unsafe-hygiene sweep: this crate
// needs no unsafe code, and the compiler now keeps it that way.
#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Directory where figure JSON artifacts are written — the harness's
/// artifact directory (one source of truth; `harness run --scenario`
/// writes to the same place).
pub fn figures_dir() -> PathBuf {
    let dir = harness::figures_dir();
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Serializes `value` to `target/figures/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = figures_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("figure data serializes");
    fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  [wrote {}]", path.display());
}
