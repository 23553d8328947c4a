//! The `oat` binary driven as a user drives it: every subcommand rejects
//! a malformed command line with exit 2 and its usage line, every `oat`
//! command line in the docs and in `ci.sh` uses only flags that
//! `oat help` declares, and every JSON document it emits (`serve`'s
//! `stats` and `metrics`, `oat-trace-v1` and the Chrome trace,
//! `oat-mlap-v1`, `oat-query-v1`) parses and carries the values the run
//! implies.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

use oat_obs::Json;

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
fn a_fault_free_chaos_run_sends_few_standalone_acks() {
    // Acks ride data frames, or go out alone at most once per directed
    // edge per ack deadline (7.5 ms); sending one per delivery cost about
    // 6.2 writes of their own per request on this shape. Without faults
    // no connection is lost, so nothing is re-sent: a gap would sever,
    // and show as a reconnect.
    let line = "chaos --tree kary:31:2 --workload uniform:0.5:2000 --faults none --transport tcp";
    let out = oat(line);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{line}: {stdout}");
    assert!(
        stdout.contains("reconnects 0, retransmits 0"),
        "{line} lost a connection or re-sent frames: {stdout}"
    );
    let acks = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("acks:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{line}: no acks line in {stdout}"));
    assert!(acks < 1.0, "{acks} standalone acks per request");
}

#[test]
fn chaos_prints_a_balanced_placement_with_few_crossing_edges() {
    // Reactors own contiguous preorder blocks, so a binary tree crosses
    // reactors on a handful of edges; dealing nodes by id modulo the pool
    // crossed on half of them. `--threads 2` makes the pool the same on
    // every host.
    let line = "chaos --tree kary:31:2 --workload uniform:0.5:50 --faults none --threads 2";
    let out = oat(line);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{line}: {stdout}");
    let rest = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("placement: "))
        .unwrap_or_else(|| panic!("{line}: no placement line in {stdout}"));
    // "P reactors (a–b nodes each), X of Y tree edges cross reactors"
    let words: Vec<&str> = rest.split_whitespace().collect();
    let num = |w: &str| -> usize {
        w.trim_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .unwrap_or_else(|_| panic!("`{w}` in `{rest}`"))
    };
    let (a, b) = words[2]
        .split_once('–')
        .unwrap_or_else(|| panic!("no a–b range in `{rest}`"));
    let (a, b) = (num(a), num(b));
    let (crossing, edges) = (num(words[5]), num(words[7]));
    assert_eq!(num(words[0]), 2, "{rest}");
    assert!(a <= b && b - a <= 1, "unbalanced: {rest}");
    assert_eq!(edges, 30, "{rest}");
    assert!(2 * crossing < edges, "{rest}");
}

#[test]
fn chaos_keeps_co_resident_edges_out_of_the_kernel() {
    // A tree edge whose two ends share a reactor is a local pipe, so on
    // this shape a request costs about 1.75 `writev` (its response, and
    // the one edge between the two reactors, a socketpair) where a socket
    // on every edge cost about 8.2. With two reactors one edge crosses,
    // and over 80 % of the edge bytes stay in local pipes.
    let line = "chaos --tree kary:31:2 --workload uniform:0.5:2000 --faults none --transport tcp \
                --threads 2";
    let out = oat(line);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{line}: {stdout}");
    let after = |prefix: &str| -> Vec<String> {
        let rest = stdout
            .lines()
            .find_map(|l| l.trim_start().strip_prefix(prefix))
            .unwrap_or_else(|| panic!("{line}: no `{prefix}` line in {stdout}"));
        rest.split_whitespace().map(str::to_owned).collect()
    };
    let num = |w: &str| -> f64 {
        w.trim_end_matches(',')
            .parse()
            .unwrap_or_else(|_| panic!("`{w}` in {stdout}"))
    };
    // "P reactors (a–b nodes each), X of Y tree edges cross reactors"
    assert_eq!(num(&after("placement:")[5]), 1.0, "{stdout}");
    // "W writev, R read, E epoll_wait per request; S % of edge bytes in local pipes"
    let io = after("io:");
    let (writev, read, share) = (num(&io[0]), num(&io[2]), num(&io[8]));
    assert!(writev < 3.0, "{writev} writev per request: {stdout}");
    assert!(read < 3.0, "{read} read per request: {stdout}");
    assert!(share > 80.0, "{share} % in local pipes: {stdout}");
}

#[test]
fn a_misspelt_chaos_flag_exits_2_instead_of_injecting_faults() {
    let out = oat("chaos --tree kary:10:2 --workload uniform:0.5:120 --fault none");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--fault`"));
    assert!(out.stdout.is_empty(), "chaos ran anyway");
}

#[test]
fn the_removed_ring_transport_exits_2_and_names_uds() {
    // Clients reach a node over tcp or uds; `ring` is refused like any
    // other unknown transport, before a cluster starts.
    for line in [
        "chaos --tree kary:10:2 --workload uniform:0.5:120 --faults none --transport ring",
        "query sum --facts 20 --transport ring",
        "serve --tree pair --transport ring",
    ] {
        let out = oat(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.contains("bad --transport `ring`"),
            "{line}: {stderr}"
        );
        assert!(stderr.contains("uds"), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran anyway");
    }
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
fn a_reader_that_leaves_after_one_line_ends_the_output_quietly() {
    // `oat query … | head -1`. The JSON document is larger than a pipe
    // holds, so the write is still blocked when the reader goes, and
    // fails with a broken pipe: the rest of the output is dropped and
    // the run ends with its own verdict, not a panic.
    let flags = "--facts 1000 --json";
    let mut child = Command::new(env!("CARGO_BIN_EXE_oat"))
        .args(["query", "min group by key window tumbling(100ms)"])
        .args(flags.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run the oat binary");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    let out = child.wait_with_output().expect("wait for oat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(first, "{\n");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{flags}: {stderr}");
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

#[test]
fn a_reactor_pool_of_zero_threads_exits_2() {
    let line = "chaos --tree kary:7:2 --workload uniform:0.5:20 --threads 0";
    let out = oat(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
    assert!(stderr.contains("bad --threads `0`"), "{line}: {stderr}");
}

/// Runs `oat` on `args` and returns its stdout; a nonzero exit fails
/// the test with stderr.
fn oat_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_oat"))
        .args(args)
        .output()
        .expect("run the oat binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "oat {}: {stderr}", args.join(" "));
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// Parses one JSON document, failing the test with the text on error.
fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{e}:\n{text}"))
}

fn num(doc: &Json, path: &[&str]) -> u64 {
    let v = doc.at(path).and_then(Json::as_u64);
    v.unwrap_or_else(|| panic!("no count at {path:?}"))
}

fn text<'a>(doc: &'a Json, path: &[&str]) -> &'a str {
    let v = doc.at(path).and_then(Json::as_str);
    v.unwrap_or_else(|| panic!("no string at {path:?}"))
}

#[test]
fn serve_stats_and_metrics_are_json_documents() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_oat"))
        .args(["serve", "--tree", "kary:15:2", "--policy", "rww"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn oat serve");
    let stdin = child.stdin.as_mut().expect("stdin");
    stdin
        .write_all(b"c@0\nw@7=10\nc@0\nstats\nmetrics 1\nmetrics\nquit\n")
        .expect("commands");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    // Each document is pretty-printed: it opens with `{` or `[` at the
    // start of a line and closes with the matching bracket alone on one.
    let mut docs = Vec::new();
    let mut open: Option<(usize, &str)> = None;
    for (i, line) in stdout.lines().enumerate() {
        match (open, line) {
            (None, "{" | "[") => open = Some((i, if line == "{" { "}" } else { "]" })),
            (Some((from, close)), _) if line == close => {
                docs.push(parse(
                    &stdout.lines().collect::<Vec<_>>()[from..=i].join("\n"),
                ));
                open = None;
            }
            _ => {}
        }
    }
    let [stats, one, all] = &docs[..] else {
        panic!("want the stats, metrics 1 and metrics documents:\n{stdout}");
    };
    // stats: 28 directed edges of a 15-node tree, counts that add up.
    let edges = stats.get("edges").expect("edges").items();
    assert_eq!(edges.len(), 28);
    let kinds = ["probe", "response", "update", "release"];
    let by_kind: u64 = kinds.iter().map(|k| num(stats, &["by_kind", k])).sum();
    let per_edge: u64 = edges.iter().flat_map(|e| kinds.map(|k| num(e, &[k]))).sum();
    assert_eq!(num(stats, &["total"]), by_kind);
    assert_eq!(by_kind, per_edge);
    assert!(by_kind > 0, "the combines and the write sent messages");
    // metrics: node 1's document, then all 15 in node order, whose sent
    // totals add up to the stats total.
    assert_eq!(num(one, &["node"]), 1);
    let nodes = all.items();
    assert_eq!(nodes.len(), 15);
    for (i, m) in nodes.iter().enumerate() {
        assert_eq!(num(m, &["node"]), i as u64);
        let sent: u64 = kinds.iter().map(|k| num(m, &["sent", k])).sum();
        assert_eq!(num(m, &["sent", "total"]), sent);
    }
    assert_eq!(nodes[1], *one);
    let sent: u64 = nodes.iter().map(|m| num(m, &["sent", "total"])).sum();
    assert_eq!(sent, by_kind);
}

#[test]
fn trace_writes_oat_trace_v1_and_a_chrome_trace() {
    // A live trace of a 10-node workload (sim replay + faulted pipelined
    // TCP replay): every JSONL line parses, the header counts the events,
    // at least one event of every category was captured, and the Chrome
    // export carries the same events.
    let dir = std::env::temp_dir();
    let jsonl = dir.join(format!("oat-cli-trace-{}.jsonl", std::process::id()));
    let chrome = dir.join(format!("oat-cli-trace-{}.chrome.json", std::process::id()));
    let (jsonl_arg, chrome_arg) = (jsonl.to_str().unwrap(), chrome.to_str().unwrap());
    oat_ok(&[
        "trace",
        "--tree",
        "kary:10:2",
        "--workload",
        "uniform:0.5:80",
        "--pipeline",
        "4",
        "--faults",
        "seed:7,drop:0.02,kill:1-0@3",
        "--out",
        jsonl_arg,
        "--chrome",
        chrome_arg,
    ]);
    let lines = std::fs::read_to_string(&jsonl).expect("read the trace");
    let chrome_text = std::fs::read_to_string(&chrome).expect("read the Chrome trace");
    let _ = (std::fs::remove_file(&jsonl), std::fs::remove_file(&chrome));
    let mut records = lines.lines().map(parse);
    let header = records.next().expect("a header line");
    assert_eq!(text(&header, &["schema"]), "oat-trace-v1");
    let records: Vec<Json> = records.collect();
    assert_eq!(num(&header, &["events"]), records.len() as u64);
    let mut cats = std::collections::BTreeSet::new();
    for r in &records {
        cats.insert(text(r, &["cat"]).to_string());
    }
    for want in ["request", "frame", "lease", "fault", "reactor", "sim"] {
        assert!(cats.contains(want), "category {want} missing: {cats:?}");
    }
    let doc = parse(&chrome_text);
    assert_eq!(text(&doc, &["displayTimeUnit"]), "ms");
    let events = doc.get("traceEvents").expect("traceEvents").items();
    assert_eq!(events.len(), records.len());
    for (e, r) in events.iter().zip(&records) {
        assert_eq!(text(e, &["name"]), text(r, &["kind"]));
        assert_eq!(num(e, &["args", "c"]), num(r, &["c"]));
        let ts_us = e.get("ts").and_then(Json::as_f64).expect("ts");
        assert!((ts_us * 1000.0 - num(r, &["ts_ns"]) as f64).abs() < 1.0);
    }
}

#[test]
fn mlap_json_bills_every_policy_at_least_opt() {
    // Both deadline policies plus the baselines on the adversarial
    // staggered-deadline spider, scored against the exact offline
    // optimum; the lazy policy's unit-weight certificate is zero
    // deadline misses and service ≤ (depth+1)·OPT.
    let out = oat_ok(&[
        "mlap",
        "--workload",
        "adv:3:6",
        "--policy",
        "all",
        "--seed",
        "7",
        "--json",
    ]);
    let doc = parse(&out);
    assert_eq!(text(&doc, &["schema"]), "oat-mlap-v1");
    let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["schema", "model", "workload", "seed", "nodes", "depth", "requests", "opt", "policies"]
    );
    let (opt, depth) = (num(&doc, &["opt"]), num(&doc, &["depth"]));
    assert!(opt > 0);
    let mut names = Vec::new();
    for p in doc.get("policies").expect("policies").items() {
        let keys: Vec<&str> = p.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "name",
                "service_cost",
                "delay_cost",
                "deadline_misses",
                "flushes",
                "messages",
                "total_cost",
                "ratio_vs_opt"
            ]
        );
        let total = num(p, &["total_cost"]);
        assert!(total >= opt, "{} beat OPT", text(p, &["name"]));
        let ratio = p
            .get("ratio_vs_opt")
            .and_then(Json::as_f64)
            .expect("a ratio");
        assert!((ratio - total as f64 / opt as f64).abs() < 1e-9);
        names.push(text(p, &["name"]));
    }
    for want in ["odepth", "odepth-prefetch", "greedy", "eager"] {
        assert!(names.contains(&want), "{want} missing: {names:?}");
    }
    let lazy = &doc.get("policies").unwrap().items()[0];
    assert_eq!(text(lazy, &["name"]), "odepth");
    assert_eq!(num(lazy, &["deadline_misses"]), 0);
    assert!(num(lazy, &["service_cost"]) <= (depth + 1) * opt);
}

#[test]
fn query_json_verdicts_hold_on_every_transport() {
    // A tumbling group-by over a short seeded zipf fact stream on every
    // transport, and runs of both retire rules: `min`/`max` reset or
    // refold shards, `count` cancels evictions at node 0 in the fact's
    // write round. `oat query` exits nonzero itself when a verdict
    // fails; the document must carry them too: finals equal the
    // sequential oracle, coverage and per-key refinement sequences are
    // monotone, and every key refined at least three times.
    let tumbling = "sum group by key window tumbling(100ms)";
    for (transport, query) in [
        ("tcp", tumbling),
        ("uds", tumbling),
        ("tcp", "max group by key window last-10"),
        ("tcp", "min group by key window tumbling(100ms)"),
        ("tcp", "count group by key window last-10"),
    ] {
        let out = oat_ok(&[
            "query",
            query,
            "--stream",
            "zipf",
            "--facts",
            "120",
            "--keys",
            "3",
            "--transport",
            transport,
            "--json",
        ]);
        let doc = parse(&out);
        let at = format!("{transport} `{query}`");
        assert_eq!(text(&doc, &["schema"]), "oat-query-v1", "{at}");
        assert_eq!(text(&doc, &["config", "transport"]), transport, "{at}");
        assert_eq!(num(&doc, &["config", "facts"]), 120, "{at}");
        for verdict in ["oracle_match", "coverage_monotone", "refine_seq_monotone"] {
            assert_eq!(
                doc.get(verdict).and_then(Json::as_bool),
                Some(true),
                "{at}: {verdict}"
            );
        }
        assert!(num(&doc, &["min_partials_per_key"]) >= 3, "{at}");
        let msgs = doc.get("msgs_per_fact").and_then(Json::as_f64);
        assert!(
            msgs.is_some_and(|m| m > 0.0),
            "{at}: msgs_per_fact {msgs:?}"
        );
        let finals = doc.get("finals").expect("finals").items();
        assert!(!finals.is_empty(), "{at}");
        for f in finals {
            assert_eq!(f.get("value"), f.get("oracle"), "{at}");
        }
        let partials = doc.get("partials").expect("partials").items();
        assert_eq!(
            num(&doc, &["refinement", "partials_total"]),
            partials.len() as u64,
            "{at}"
        );
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
