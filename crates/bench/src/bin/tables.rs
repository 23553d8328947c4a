//! Regenerates every figure/table of the paper from the implementation.
//!
//! ```text
//! cargo run -p oat-bench --release --bin tables            # everything
//! cargo run -p oat-bench --release --bin tables -- fig5    # one experiment
//! cargo run -p oat-bench --release --bin tables -- --list  # names
//! cargo run -p oat-bench --release --bin tables -- --csv   # CSV output
//! ```

use oat_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    let all = experiments::all();

    if args.iter().any(|a| a == "--list") {
        for (name, _) in &all {
            println!("{name}");
        }
        return;
    }

    let selected: Vec<&(&str, oat_bench::experiments::ExperimentFn)> = if args.is_empty() {
        all.iter().collect()
    } else {
        let picked: Vec<_> = all
            .iter()
            .filter(|(name, _)| args.iter().any(|a| a == name))
            .collect();
        if picked.is_empty() {
            eprintln!("unknown experiment(s) {args:?}; use --list");
            std::process::exit(2);
        }
        picked
    };

    if !csv {
        println!("Online Aggregation over Trees (IPPS 2007) — reproduced figures and tables\n");
    }
    for (name, run) in selected {
        let start = std::time::Instant::now();
        for table in run() {
            if csv {
                println!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
        if !csv {
            // Timings go to stderr, so stdout is deterministic and can be
            // diffed against the archived run in docs/tables_output.txt.
            eprintln!("[{name} regenerated in {:.2?}]", start.elapsed());
            println!();
        }
    }
}
