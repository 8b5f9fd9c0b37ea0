//! End-to-end tests of the `serve` binary over a real pipe.
//!
//! These run the actual binary (`CARGO_BIN_EXE_serve`) the way clients
//! use it: an interleaved request stream from two logical clients piped
//! into stdin, responses read back from stdout, tick metrics from
//! stderr. They pin the service's three load-bearing promises:
//! cross-client dedup through the shared executor (`unique` strictly
//! below the request count), store persistence (a second identical batch
//! in a fresh process is *zero* live runs, all disk hits), and budget
//! enforcement (no tick charges more pool units than `--budget`).

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// The interleaved two-client batch: client A and client B overlap on
/// seeds 1/2 (same canonical keys) and each contributes one private
/// seed. Four distinct keys, one derivation family, eight requests.
fn batch() -> String {
    let mut lines = String::new();
    for (client, seeds) in [("a", [1u64, 2, 3]), ("b", [2, 1, 4])] {
        for seed in seeds {
            lines.push_str(&format!(
                "req {client}{seed} v1 kernel=bicg:128x64 platform=tx1 work=llc-r8 \
                 t=16384 seed={seed} scenario=isolation noise=0x0\n"
            ));
        }
    }
    // A duplicate within the stream (same key as a1) rides for free.
    lines.push_str(
        "req a1-again v1 kernel=bicg:128x64 platform=tx1 work=llc-r8 \
         t=16384 seed=1 scenario=isolation noise=0x0\n",
    );
    lines
}

/// Pipes `input` through the serve binary with `args`, asserting exit 0.
fn run_serve(cache_dir: &PathBuf, args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--cache-dir")
        .arg(cache_dir)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve binary");
    child
        .stdin
        .as_mut()
        .expect("child stdin")
        .write_all(input.as_bytes())
        .expect("write request stream");
    let out = child.wait_with_output().expect("wait for serve");
    assert!(
        out.status.success(),
        "serve exited {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Extracts `field=value` integers from a metrics/summary line.
fn field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name}= in: {line}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {name}= in `{line}`: {e}"))
}

#[test]
fn overlapping_clients_dedup_persist_and_respect_the_budget() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-serve-pipe-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let cache_dir = scratch.join("nested/.runcache");

    // Cold pass: budget 1, the batch plus an explicit flush and quit.
    let input = format!("{}flush\nquit\n", batch());
    let out = run_serve(&cache_dir, &["--budget", "1"], &input);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // Every request got exactly one tagged response.
    let tags: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("out "))
        .map(|l| l.split_whitespace().nth(1).expect("response tag"))
        .collect();
    let expected = ["a1", "a2", "a3", "b2", "b1", "b4", "a1-again"];
    assert_eq!(tags.len(), expected.len(), "responses:\n{stdout}");
    for tag in expected {
        assert!(tags.contains(&tag), "no response for {tag}:\n{stdout}");
    }
    // Overlapping keys and the one-seed-wildcarded family dedup: nine
    // lines of client traffic, strictly fewer live runs.
    let flush_line = stderr
        .lines()
        .find(|l| l.contains("flush: plan:"))
        .unwrap_or_else(|| panic!("no flush summary:\n{stderr}"));
    let requested = field(flush_line, "requested");
    let unique = field(flush_line, "unique");
    assert_eq!(requested, 7);
    assert!(unique < requested, "no dedup across clients: {flush_line}");
    // Budget enforcement: every tick heartbeat is a key=value line
    // reporting units= and budget= with units ≤ budget.
    let mut ticks = 0;
    for line in stderr.lines().filter(|l| l.starts_with("[serve] tick=")) {
        assert!(
            field(line, "units") <= field(line, "budget"),
            "tick over budget: {line}"
        );
        ticks += 1;
    }
    assert!(ticks >= 1, "no tick metrics in stderr:\n{stderr}");
    // The store persisted something.
    assert!(cache_dir.is_dir(), "cache dir was not created");

    // Warm pass: the identical batch in a fresh process must execute
    // nothing live — every key is a disk hit (EOF drains, no flush).
    // A trailing `stats` exercises the metrics snapshot wire line.
    let input = format!("{}flush\nstats\n", batch());
    let out = run_serve(&cache_dir, &[], &input);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let metrics_line = stdout
        .lines()
        .find(|l| l.starts_with("metrics {"))
        .unwrap_or_else(|| panic!("no metrics snapshot line:\n{stdout}"));
    assert!(
        metrics_line.contains("\"plan.live_runs\":0")
            && metrics_line.contains("\"schema\":\"prem-obs/v1\""),
        "warm snapshot: {metrics_line}"
    );
    let final_line = stderr
        .lines()
        .find(|l| l.contains("final: plan:"))
        .unwrap_or_else(|| panic!("no final summary:\n{stderr}"));
    assert_eq!(
        field(final_line, "unique"),
        0,
        "warm batch ran live: {final_line}"
    );
    assert_eq!(
        field(final_line, "replayed"),
        0,
        "warm batch replayed: {final_line}"
    );
    assert!(
        field(final_line, "disk-hits") > 0,
        "warm batch not served from disk: {final_line}"
    );

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn emitted_outputs_decode_and_match_across_duplicate_tags() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-serve-emit-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let cache_dir = scratch.join(".runcache");

    let input = "req x v1 kernel=mvt:128 platform=tx1 work=spm t=16384 seed=5 \
                 scenario=isolation noise=0x0\n\
                 req y v1 kernel=mvt:128 platform=tx1 work=spm t=16384 seed=5 \
                 scenario=isolation noise=0x0\n";
    let out = run_serve(&cache_dir, &["--emit-outputs"], input);
    let stdout = String::from_utf8_lossy(&out.stdout);

    let payloads: Vec<prem_core::RunOutput> = stdout
        .lines()
        .filter(|l| l.starts_with("out "))
        .map(|l| {
            let hex = l
                .split("data=")
                .nth(1)
                .unwrap_or_else(|| panic!("no data= in {l}"));
            prem_core::RunOutput::decode(&prem_serve::from_hex(hex).expect("hex payload"))
                .expect("decodable payload")
        })
        .collect();
    assert_eq!(payloads.len(), 2, "responses:\n{stdout}");
    assert_eq!(payloads[0], payloads[1], "same key, different outputs");

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn malformed_lines_are_session_fatal() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-serve-bad-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    for bad in [
        "gibberish\n",
        "req only-a-tag\n",
        "req t v1 kernel=bicg:128x64 platform=pluto work=spm t=16384 seed=1 \
         scenario=isolation noise=0x0\n",
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .arg("--cache-dir")
            .arg(scratch.join(".runcache"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve binary");
        child
            .stdin
            .as_mut()
            .expect("child stdin")
            .write_all(bad.as_bytes())
            .expect("write bad line");
        let out = child.wait_with_output().expect("wait for serve");
        assert!(
            !out.status.success(),
            "serve accepted malformed input: {bad:?}"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn refused_requests_get_err_replies_and_the_rest_are_served() {
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("prem-serve-err-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    // Well-formed lines that break a limit, between valid requests: an
    // SPM interval larger than the TX1 scratchpad (the tiling would fill
    // 98432 of its 98304 bytes), an interval size below bicg's minimum,
    // and a kernel the registry does not know.
    let input = "req a v1 kernel=bicg:128x64 platform=tx1 work=llc-r8 t=16384 seed=1 \
                 scenario=isolation noise=0x0\n\
                 req bad v1 kernel=bicg:1024x1024 platform=tx1 work=spm t=8388608 seed=1 \
                 scenario=isolation noise=0x0\n\
                 req b v1 kernel=mvt:128 platform=tx1 work=spm t=16384 seed=5 \
                 scenario=isolation noise=0x0\n\
                 req z v1 kernel=bicg:128x128 platform=tx1 work=llc-r8 t=0 seed=1 \
                 scenario=isolation noise=0x0\n\
                 req nope v1 kernel=nope:128 platform=tx1 work=spm t=16384 seed=1 \
                 scenario=isolation noise=0x0\n\
                 req c v1 kernel=bicg:128x64 platform=tx1 work=base t=16384 seed=2 \
                 scenario=isolation noise=0x0\n";
    let out = run_serve(&scratch.join(".runcache"), &["--no-cache"], input);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let tags = |kind: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(kind))
            .map(|l| l.split_whitespace().nth(1).expect("reply tag").to_string())
            .collect()
    };
    assert_eq!(tags("err"), ["bad", "z", "nope"], "replies:\n{stdout}");
    let mut served = tags("out");
    served.sort();
    assert_eq!(served, ["a", "b", "c"], "replies:\n{stdout}");
    for (tag, reason) in [
        ("bad", "exceeds the tx1 scratchpad's 98304 B"),
        ("z", "interval size 0 B below minimum"),
        ("nope", "not registered"),
    ] {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("err {tag} ")) && l.contains(reason)),
            "no `{reason}` reply for {tag}:\n{stdout}"
        );
    }

    std::fs::remove_dir_all(&scratch).ok();
}
