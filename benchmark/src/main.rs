//! `oat-benchmark`: run one workload, run them all, or compare two
//! result sets. `run.sh` builds this and passes its arguments through.

use std::path::PathBuf;
use std::process::ExitCode;

use oat_benchmark::json::Json;
use oat_benchmark::runner::{self, RunOpts};
use oat_benchmark::workload::{self, WORKLOADS};
use oat_benchmark::{compare, contract, set};

const USAGE: &str = "\
usage: oat-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--quick]
                     [--out FILE]
       oat-benchmark compare A.json B.json
       oat-benchmark contract

With --workload, runs that workload in this process and prints its detail
object and then, as the last line, {correct, attempted, failed, metrics}.
Without it, runs every workload (each in its own process) and prints the
result set. Exits nonzero if any output failed its oracle.";

struct Cli {
    workload: Option<String>,
    out: Option<PathBuf>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        out: None,
        opts: RunOpts {
            seed: 42,
            seconds: contract::RUN_SECONDS,
            trace: false,
            quick: false,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => cli.opts.seed = number(&value("--seed")?)?,
            "--seconds" => cli.opts.seconds = number(&value("--seconds")?)?,
            "--out" => cli.out = Some(value("--out")?.into()),
            "--quick" => cli.opts.quick = true,
            "--trace" => {
                // Bare `--trace`, or the driver's `--trace 0|1`.
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=60).contains(&cli.opts.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(cli)
}

fn number(s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("`{s}` is not a whole number"))
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return Ok(true);
        }
        Some("contract") => {
            print!("{}", contract::benchmark_json().to_pretty());
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("compare takes two result sets".into());
            };
            let rows = compare::compare(&read_set(a)?, &read_set(b)?);
            print!("{}", compare::render(&rows));
            return Ok(!rows.iter().any(|r| r.verdict.fails()));
        }
        _ => {}
    }
    let cli = parse(&args)?;
    let Some(name) = &cli.workload else {
        let (set, ok) = set::run_all(&cli.opts)?;
        let text = set.to_pretty();
        if let Some(path) = &cli.out {
            std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        print!("{text}");
        return Ok(ok);
    };
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let result = runner::run(workload, &cli.opts)?;
    for p in &result.problems {
        eprintln!("[oat-benchmark] {}: {p}", workload.name);
    }
    let detail = Json::obj().with("detail", runner::detail(&result, workload, &cli.opts));
    println!("{}", detail.to_line());
    println!("{}", runner::result_line(&result, cli.opts.trace).to_line());
    Ok(result.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oat-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
