//! The `oat` binary's argument handling, driven as a user drives it:
//! every subcommand rejects a malformed command line with exit 2 and its
//! usage line, and every `oat` command line in the docs and in `ci.sh`
//! uses only flags that `oat help` declares.

use std::process::{Command, Output};

/// Runs `oat` on the whitespace-separated words of `line`.
fn oat(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oat"))
        .args(line.split_whitespace())
        .output()
        .expect("run the oat binary")
}

#[test]
fn every_subcommand_rejects_a_malformed_command_line() {
    // Every subcommand with the arguments it requires.
    for (name, required) in [
        ("run", "--tree pair --workload uniform:0.5:4"),
        ("trace", "--tree pair --script c@0"),
        ("top", ""),
        ("serve", ""),
        ("chaos", "--tree pair --workload uniform:0.5:4"),
        ("mlap", ""),
        ("query", "sum"),
    ] {
        for (extra, token) in [
            ("--bogus 1", "`--bogus`"),
            ("--policy", "`--policy`"),
            ("--policy rww --policy rww", "`--policy`"),
            ("--policy rww stray", "`stray`"),
        ] {
            let line = format!("{name} {required} {extra}");
            let out = oat(&line);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
            assert!(stderr.contains(token), "{line}: {stderr}");
            assert!(
                stderr.contains(&format!("\n  oat {name} ")),
                "{line}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{line} ran anyway");
        }
    }
}

#[test]
fn a_misspelt_chaos_flag_exits_2_instead_of_injecting_faults() {
    let out = oat("chaos --tree kary:10:2 --workload uniform:0.5:120 --fault none");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--fault`"));
    assert!(out.stdout.is_empty(), "chaos ran anyway");
}

#[test]
fn chaos_kill9_removes_the_wal_directory_it_provisioned() {
    // `--kill9` without `--durability wal:DIR` logs to a fresh directory
    // under the temp dir; the run must leave nothing behind there.
    let tmp = std::env::temp_dir().join(format!("oat-cli-tmpdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create the temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_oat"))
        .args("chaos --tree kary:10:3 --workload uniform:0.5:80 --kill9 2@5".split_whitespace())
        .env("TMPDIR", &tmp)
        .output()
        .expect("run the oat binary");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("read the temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&tmp);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("replays"), "a WAL was in use: {stdout}");
    assert!(left.is_empty(), "left behind in TMPDIR: {left:?}");
}

#[test]
fn run_policy_all_bills_the_six_policies_in_order() {
    let out = oat("run --policy all --tree star:8 --workload zipf:0.3:200:1.0");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let six = [
        "RWW",
        "(1,3)-alg",
        "(2,2)-alg",
        "RandomBreak(1/2)",
        "AlwaysLease",
        "NeverLease",
    ];
    assert_eq!(rows, [&six[..], &["OPT"]].concat());
}

#[test]
fn out_of_range_spec_parameters_exit_2_instead_of_panicking() {
    for (flag, spec) in [
        ("--policy", "ab:0:3"),
        ("--policy", "ab:2:0"),
        ("--policy", "randombreak:0:7"),
        ("--tree", "kary:5:0"),
        ("--tree", "path:0"),
        ("--tree", "star:0"),
        ("--tree", "random:0:1"),
        ("--tree", "caterpillar:0:0"),
        ("--workload", "uniform:1.5:20"),
        ("--workload", "uniform:-0.1:20"),
        ("--workload", "zipf:0.5:20:0"),
        ("--workload", "hotspot:0.5:20:0:0"),
        ("--workload", "hotspot:0.5:20:9:9"),
        ("--workload", "uniform:0.5:0"),
        ("--workload", "singlewriter:0:0"),
    ] {
        // The other two flags keep a valid value.
        let line = [
            ("--tree", "kary:7:2"),
            ("--policy", "rww"),
            ("--workload", "uniform:0.5:20"),
        ]
        .map(|(f, v)| format!("{f} {}", if f == flag { spec } else { v }))
        .join(" ");
        let line = format!("run {line}");
        let out = oat(&line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        assert!(stderr.contains(&format!("`{spec}`")), "{line}: {stderr}");
    }
}

/// Each subcommand form's flags, read from the USAGE block of `oat help`
/// (which the binary generates from the table its parser reads).
fn declared_forms() -> Vec<(String, Vec<String>)> {
    let out = oat("help");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let usage = help.split("USAGE:\n").nth(1).expect("a USAGE block");
    let mut forms: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines().take_while(|l| !l.is_empty()) {
        let mut words = line.split_whitespace();
        if line.starts_with("  oat ") {
            words.next();
            forms.push((words.next().expect("a name").to_string(), Vec::new()));
        }
        let flags = &mut forms.last_mut().expect("a usage line first").1;
        flags.extend(
            words
                .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
                .filter(|w| w.starts_with("--"))
                .map(str::to_string),
        );
    }
    forms
}

/// The words of one shell command, honouring '…' and "…" quotes, up to
/// the end of the command: a backtick (the end of Markdown inline code),
/// a pipe, `;`, `&`, a redirect, a closing `$(…)` or a `#` comment.
fn shell_words(s: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word: Option<String> = None;
    let mut quote = None;
    for c in s.chars() {
        match quote {
            Some(q) if c == q => quote = None,
            Some(_) => word.get_or_insert_with(String::new).push(c),
            None => match c {
                '\'' | '"' => {
                    quote = Some(c);
                    word.get_or_insert_with(String::new);
                }
                '`' | '|' | ';' | '&' | '>' | '<' | ')' => break,
                '#' if word.is_none() => break,
                c if c.is_whitespace() => words.extend(word.take()),
                c => word.get_or_insert_with(String::new).push(c),
            },
        }
    }
    words.extend(word);
    words
}

/// Every `oat SUBCOMMAND …` command in `text` as (line number, words
/// after `oat`), with `\` continuations joined. `oat` counts as the
/// program when it stands alone or ends a path (`./target/release/oat`)
/// and the next word is lower-case letters, so prose like "the oat CLI"
/// and cargo's `--bin oat --example x` are not commands; a `--` after it
/// (`cargo run --bin oat -- run …`) is skipped.
fn oat_commands(text: &str) -> Vec<(usize, Vec<String>)> {
    let mut found = Vec::new();
    let mut joined = String::new();
    let mut start = 0;
    for (i, line) in text.lines().enumerate() {
        if joined.is_empty() {
            start = i + 1;
        }
        match line.strip_suffix('\\') {
            Some(head) => {
                joined.push_str(head);
                joined.push(' ');
                continue;
            }
            None => joined.push_str(line),
        }
        for (at, _) in joined.match_indices("oat ") {
            let standalone = joined[..at]
                .chars()
                .next_back()
                .is_none_or(|c| c.is_whitespace() || "/`(\"'".contains(c));
            if !standalone {
                continue;
            }
            let mut words = shell_words(&joined[at + 4..]);
            if words.first().is_some_and(|w| w == "--") {
                words.remove(0);
            }
            let is_name = |w: &String| w.bytes().all(|b| b.is_ascii_lowercase());
            if words.first().is_some_and(is_name) {
                found.push((start, words));
            }
        }
        joined.clear();
    }
    found
}

#[test]
fn documented_oat_commands_use_declared_flags() {
    let forms = declared_forms();
    let help = String::from_utf8(oat("help").stdout).unwrap();
    let examples = help.split("EXAMPLES:\n").nth(1).expect("an EXAMPLES block");
    let root = env!("CARGO_MANIFEST_DIR");
    // benchmark/README.md is left out: it documents the standalone
    // benchmark package, whose history still names retired subcommands.
    let mut sources = vec![("oat help EXAMPLES".to_string(), examples.to_string())];
    for path in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "docs/TUTORIAL.md",
        ".claude/skills/verify/SKILL.md",
        "ci.sh",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{path}"))
            .unwrap_or_else(|e| panic!("read {path}: {e}"));
        sources.push((path.to_string(), text));
    }
    let mut bad = Vec::new();
    let mut checked = 0;
    for (path, text) in &sources {
        for (line, words) in oat_commands(text) {
            checked += 1;
            let name = &words[0];
            let mine: Vec<&Vec<String>> = forms
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, flags)| flags)
                .collect();
            // `$VAR` words are values, never flags.
            let flags: Vec<&String> = words[1..].iter().filter(|w| w.starts_with("--")).collect();
            let fits = mine
                .iter()
                .any(|declared| flags.iter().all(|f| declared.contains(f)));
            if mine.is_empty() {
                bad.push(format!("{path}:{line}: no subcommand `{name}`"));
            } else if !fits {
                bad.push(format!(
                    "{path}:{line}: `oat {}` uses a flag `oat help` does not declare for `{name}`",
                    words.join(" ")
                ));
            }
        }
    }
    assert!(
        checked > 40,
        "only {checked} oat commands found in the docs"
    );
    assert!(bad.is_empty(), "stale oat commands:\n{}", bad.join("\n"));
}
