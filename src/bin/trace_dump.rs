//! `trace-dump` — render a flight-recorder trace file.
//!
//! A [`TraceSession`] can be persisted as a `pstack-trace v2` text
//! file (`TraceSnapshot::write_file`; `examples/kv.rs` writes one when
//! `PSTACK_TRACE` names a path). This tool turns that file into
//! something a human or a script can consume:
//!
//! * `trace-dump <file>` — the human view: the collected summary
//!   (per-op latency percentiles, persist economy, the crash→recovery
//!   timeline), same renderer the campaigns use.
//! * `trace-dump <file> --json` — the machine view: the full event
//!   stream plus the summary as JSON on stdout, for jq-style
//!   inspection or the CI schema check.
//! * `trace-dump <file> --validate` — the trace lint: parses the
//!   file, checks the structural invariants (monotone timestamps per
//!   thread, strictly increasing sequence positions, in-bounds label
//!   ids, balanced span/phase enter/exit pairs) and the JSON schema's
//!   required keys, and exits non-zero listing every violation.
//!
//! Exit status: 0 clean, 1 validation findings, 2 usage/parse error.
//!
//! [`TraceSession`]: pstack_telemetry::TraceSession

use std::process::ExitCode;

use pstack::telemetry::TraceSnapshot;

/// Keys every `to_json` document must carry — the schema contract the
/// CI step pins. Renaming one of these is a breaking change for any
/// consumer parsing dumped traces.
const REQUIRED_JSON_KEYS: &[&str] = &[
    "\"version\"",
    "\"labels\"",
    "\"threads\"",
    "\"summary\"",
    "\"ops\"",
    "\"persist_economy\"",
    "\"timeline\"",
    "\"events\"",
    "\"dropped\"",
];

fn usage() -> ExitCode {
    eprintln!("usage: trace-dump <trace-file> [--json | --validate]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, mode) = match args.as_slice() {
        [path] => (path, "summary"),
        [path, flag] if flag == "--json" => (path, "json"),
        [path, flag] if flag == "--validate" => (path, "validate"),
        _ => return usage(),
    };

    let snap = match TraceSnapshot::read_file(path) {
        Ok(snap) => snap,
        Err(e) => {
            eprintln!("trace-dump: {path}: {e}");
            return ExitCode::from(2);
        }
    };

    match mode {
        "json" => {
            println!("{}", snap.to_json());
            ExitCode::SUCCESS
        }
        "validate" => validate(&snap),
        _ => {
            let summary = snap.summary();
            print!("{}", summary.render());
            ExitCode::SUCCESS
        }
    }
}

/// The lint mode: structural invariants plus the JSON schema keys.
fn validate(snap: &TraceSnapshot) -> ExitCode {
    let mut findings: Vec<String> = match snap.validate() {
        Ok(()) => Vec::new(),
        Err(errs) => errs,
    };

    let json = snap.to_json();
    for key in REQUIRED_JSON_KEYS {
        if !json.contains(key) {
            findings.push(format!("json output missing required key {key}"));
        }
    }

    if findings.is_empty() {
        let events: usize = snap.threads.iter().map(|t| t.events.len()).sum();
        println!(
            "trace ok: {} thread(s), {} event(s), {} label(s)",
            snap.threads.len(),
            events,
            snap.labels.len()
        );
        ExitCode::SUCCESS
    } else {
        for finding in &findings {
            eprintln!("trace-dump: {finding}");
        }
        eprintln!("trace-dump: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
