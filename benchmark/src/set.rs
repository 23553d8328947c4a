//! A result set: every workload run once, each in its own process, and
//! gathered into one JSON document that `compare` reads.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::runner::RunOpts;
use crate::workload::WORKLOADS;

/// Schema tag of a result set.
pub const SCHEMA: &str = "oat-benchmark-v1";

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// What the numbers were taken on.
fn machine() -> Json {
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |p| p.get()),
        )
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".to_string(), |s| s.trim().to_string()),
        )
}

/// The last two lines a child run printed: its detail object and its
/// result line.
fn parse_child(stdout: &str) -> Result<(Json, Json), String> {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = Json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = Json::parse(lines.next().ok_or("child printed no detail line")?)?;
    let detail = detail
        .get("detail")
        .cloned()
        .ok_or("detail line lacks `detail`")?;
    Ok((detail, result))
}

fn run_child(workload: &str, opts: &RunOpts, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let (detail, _result) = parse_child(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{workload}: {e} (exit {:?})", out.status.code()))?;
    Ok((detail, out.status.success()))
}

/// Runs every workload (untraced, and traced too when `opts.trace`),
/// each in its own process. Returns the set and whether every run was
/// correct.
pub fn run_all(opts: &RunOpts) -> Result<(Json, bool), String> {
    let mut workloads = Json::obj();
    let mut all_ok = true;
    for w in &WORKLOADS {
        eprintln!("[oat-benchmark] {} ...", w.name);
        let (mut entry, ok) = run_child(w.name, opts, false)?;
        all_ok &= ok;
        if opts.trace {
            eprintln!("[oat-benchmark] {} (traced) ...", w.name);
            let (traced, ok) = run_child(w.name, opts, true)?;
            all_ok &= ok;
            for (key, name) in [
                ("per_layer", "per_layer"),
                ("spans_file", "spans_file"),
                ("problems", "traced_problems"),
                ("correct", "traced_correct"),
            ] {
                if let Some(v) = traced.get(key) {
                    entry.set(name, v.clone());
                }
            }
        }
        workloads.set(w.name, entry);
    }
    let set = Json::obj()
        .with("schema", SCHEMA)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("quick", opts.quick)
        .with("traced", opts.trace)
        .with("machine", machine())
        .with("workloads", workloads);
    Ok((set, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_read_from_the_last_two_lines() {
        let out = "noise\n{\"detail\": {\"workload\": \"x\"}}\n{\"correct\": true}\n\n";
        let (detail, result) = parse_child(out).unwrap();
        assert_eq!(detail.get("workload").and_then(Json::as_str), Some("x"));
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(parse_child("").is_err());
        assert!(parse_child("{\"correct\": true}\n").is_err());
    }
}
