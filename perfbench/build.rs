//! Records the toolchain and source revision the benchmark was built
//! from, so every result line carries its host meta.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    Some(s.trim().to_string()).filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit =
        capture("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    // Watch the revision only where there is one: a watched path that does
    // not exist would rerun this script, and rebuild the benchmark, on
    // every invocation.
    for path in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
