//! Records the toolchain and source revision the benchmark was built
//! from, so every result can name them.

use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // Only the repository this package sits in counts, not a git
    // checkout that happens to enclose it.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if repo.join(".git").exists() {
        output(
            "git",
            &["-C", &repo.display().to_string(), "rev-parse", "HEAD"],
        )
    } else {
        None
    }
    .unwrap_or_else(|| "skipped: not built from a git checkout".to_string());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");
    println!("cargo:rustc-env=HOSTBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
