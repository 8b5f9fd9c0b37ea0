//! The `serve` binary: a long-running, budgeted sweep service on stdin.
//!
//! ```text
//! serve [--budget N] [--tick-ms MS] [--workers N] [--emit-outputs]
//!       [executor flags: --cache/--no-cache/--cache-dir/--no-replay]
//! ```
//!
//! Reads protocol lines on stdin (see `prem_serve`), streams `out …` and
//! `err …` responses on stdout, and heartbeats `[serve] tick=…
//! key=value` metric lines on stderr. `stats` replies with the classic
//! counters line plus the full registry snapshot (`metrics <json>`);
//! under `--metrics` the snapshot is also written to
//! `<metrics-dir>/metrics.json` at exit.
//! The executor defaults to the shared persistent cache at
//! `results/.runcache`, so a served sweep deduplicates against every
//! artifact the `figures` binary ever generated — and a second identical
//! batch is pure disk hits, zero live simulation.
//!
//! A well-formed request that does not resolve — an unregistered
//! kernel, or one that breaks a kernel or platform limit — is answered
//! `err <tag> <reason>` on stdout, and the session goes on. A line that
//! does not parse is a hard error: the process prints it and exits
//! nonzero rather than guessing (the codec and store contract). EOF and
//! `quit` both drain the queue before exiting.

use std::io::{self, BufRead, Write};
use std::process::ExitCode;

use prem_harness::{ExecFlags, EXEC_FLAGS_HELP};
use prem_serve::{Command, Response, ServeConfig, SweepService, TickMetrics};

/// The usage listing (the only flag documentation for this binary).
fn usage() -> String {
    format!(
        "serve — budgeted sweep service on stdin (see ARCHITECTURE.md)\n\
         protocol: `req <tag> <request-line>` | flush | stats | quit\n\
         replies: `out <tag> …`, or `err <tag> <reason>` for a refused request\n\
         flags:\n\
           --budget <n>        pool units dispatched per tick (default 4)\n\
           --tick-ms <ms>      warn when a tick's wall time exceeds this\n\
           --workers <n>       executor worker threads per tick (default 1)\n\
           --emit-outputs      append data=<hex> full outputs to responses\n\
         executor flags (shared with figures and bench_matrix):\n{EXEC_FLAGS_HELP}\n"
    )
}

/// Parses the binary's own flags from the non-executor arguments.
fn parse_service_flags(rest: Vec<String>) -> Result<(ServeConfig, bool), String> {
    let mut config = ServeConfig::default();
    let mut emit_outputs = false;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match a.as_str() {
            "--budget" => {
                config.budget = take("--budget")?
                    .parse()
                    .map_err(|_| "--budget needs a positive integer".to_string())?;
                if config.budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
            }
            "--tick-ms" => {
                config.tick_budget_ms = Some(
                    take("--tick-ms")?
                        .parse()
                        .map_err(|_| "--tick-ms needs a number".to_string())?,
                );
            }
            "--workers" => {
                config.workers = take("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
                if config.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--emit-outputs" => emit_outputs = true,
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((config, emit_outputs))
}

/// Prints one drained tick: responses to stdout, metrics to stderr.
fn report_tick(metrics: &TickMetrics, responses: &[Response], emit_outputs: bool) {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for r in responses {
        writeln!(out, "{}", r.line(emit_outputs)).expect("stdout write");
    }
    out.flush().expect("stdout flush");
    eprintln!("[serve] {metrics}");
}

fn main() -> ExitCode {
    let (flags, rest) = match ExecFlags::parse("results/.runcache", std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("serve: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (config, emit_outputs) = match parse_service_flags(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("serve: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let executor = match flags.executor() {
        Ok(executor) => executor,
        Err(e) => {
            eprintln!(
                "serve: cannot open run cache at {}: {e}",
                flags.cache_dir.display()
            );
            return ExitCode::from(1);
        }
    };
    let mut service = SweepService::new(executor, config);

    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("serve: stdin read failed: {e}");
                return ExitCode::from(1);
            }
        };
        let command = match Command::parse(&line) {
            Ok(None) => continue,
            Ok(Some(command)) => command,
            Err(e) => {
                eprintln!("serve: {e}\n  in line: {line}");
                return ExitCode::from(2);
            }
        };
        match command {
            Command::Request { tag, request } => {
                // A refused request fails alone.
                if let Err(e) = service.submit(&tag, request) {
                    println!("err {tag} {e}");
                }
            }
            Command::Flush => {
                let agg = service.drain(|m, r| report_tick(m, r, emit_outputs));
                eprintln!("[serve] flush: {agg}");
            }
            Command::Stats => {
                println!("{}", service.stats_line());
                println!("{}", service.metrics_line());
            }
            Command::Quit => break,
        }
    }
    // EOF or quit: drain whatever is still queued, then report the
    // session-cumulative totals (not just the last drain — a stream that
    // already flushed would otherwise report an empty final summary).
    service.drain(|m, r| report_tick(m, r, emit_outputs));
    eprintln!("[serve] final: {}", service.totals());
    eprintln!("[serve] {}", service.stats_line());
    if flags.metrics_enabled() {
        match flags.write_metrics(service.metrics()) {
            Ok(path) => eprintln!("[serve] metrics snapshot: {}", path.display()),
            Err(e) => {
                eprintln!("serve: cannot write metrics snapshot: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}
