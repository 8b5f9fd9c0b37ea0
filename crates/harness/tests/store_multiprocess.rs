//! Two-process shared-store smoke test.
//!
//! The store's multi-process story — per-shard advisory file locks, and
//! append as re-read + merge + atomic rename — is exercised for real
//! here: the test re-invokes its own test binary twice concurrently
//! (filtered to [`writer_role`], activated by the `PREM_STORE_WRITER`
//! env var), each child appending into one shared store directory. Both
//! children write the *same* deterministic run under a shared key (the
//! raced-duplicate path: identical bytes must merge silently) plus one
//! private key each; the parent then verifies every record landed and
//! the store passes a full integrity pass.
//!
//! [`replay_derived_outputs_cross_the_process_boundary`] extends the
//! story to the derivation layer: outputs a replay-enabled executor
//! *derived* (rather than executed) in one process are ordinary disk
//! hits in the next, and still match direct execution.

use std::path::PathBuf;
use std::process::Command;

use prem_core::{NoiseModel, RunOutput, RunWork};
use prem_gpusim::Scenario;
use prem_harness::{
    MatrixPolicy, MatrixScenario, PlanExecutor, PlatformSpec, RunRequest, RunSource, RunStore,
};
use prem_kernels::Bicg;
use prem_memsim::KIB;

/// A small deterministic run; `r` distinguishes writers' private outputs.
fn sample(r: u32) -> (String, RunOutput) {
    let bicg = Bicg::new(64, 64);
    let req = RunRequest {
        kernel: &bicg,
        platform: PlatformSpec::tx1(),
        work: RunWork::PremLlc { r },
        t_bytes: 32 * KIB,
        seed: 11,
        scenario: MatrixScenario::Preset(Scenario::Isolation),
        noise: NoiseModel::tx1(),
    };
    (req.key(), req.execute())
}

/// Child-process body: a no-op under a normal `cargo test` run, a store
/// writer when re-invoked by [`two_processes_share_one_store`].
#[test]
fn writer_role() {
    let Ok(spec) = std::env::var("PREM_STORE_WRITER") else {
        return;
    };
    let (dir, id) = spec.rsplit_once(';').expect("spec is '<dir>;<id>'");
    let id: u32 = id.parse().expect("writer id");
    let store = RunStore::open(dir).expect("child: open shared store");
    let (shared_key, shared_out) = sample(8); // identical in both writers
    let (own_key, own_out) = sample(id); // private per writer
    store
        .append([
            (shared_key.as_str(), &shared_out),
            (own_key.as_str(), &own_out),
        ])
        .expect("child: append");
    assert_eq!(
        store.get(&shared_key).expect("child: get"),
        Some(shared_out)
    );
}

/// A small derivation family: one base key, three policies × two seeds.
fn family(kernel: &Bicg) -> Vec<RunRequest<'_>> {
    let mut reqs = Vec::new();
    for policy in [
        MatrixPolicy::VendorBiased,
        MatrixPolicy::Lru,
        MatrixPolicy::Random,
    ] {
        for seed in [11u64, 23] {
            reqs.push(RunRequest {
                kernel,
                platform: PlatformSpec::tx1().with_policy(policy),
                work: RunWork::PremLlc { r: 8 },
                t_bytes: 32 * KIB,
                seed,
                scenario: MatrixScenario::Preset(Scenario::Isolation),
                noise: NoiseModel::tx1(),
            });
        }
    }
    reqs
}

/// Child-process body for the replay test: executes the derivation family
/// through a store-backed, replay-enabled executor, appending every
/// output — all of them derived — to the shared store.
#[test]
fn replay_writer_role() {
    let Ok(dir) = std::env::var("PREM_STORE_REPLAY_WRITER") else {
        return;
    };
    let kernel = Bicg::new(64, 64);
    let column = family(&kernel);
    let executor = PlanExecutor::new().with_store(RunStore::open(&dir).expect("child: open store"));
    let summary = executor.execute(&column, 2);
    assert_eq!(summary.families, 1, "child: one derivation family");
    assert_eq!(summary.executed, 0, "child: no live run");
    assert_eq!(summary.replayed, column.len());
}

#[test]
fn replay_derived_outputs_cross_the_process_boundary() {
    // A replay-derived output appended by one process must be a plain
    // disk hit in another: the store draws no distinction between live
    // and derived records, because they are bit-identical by the replay
    // equivalence contract — which the direct-execution comparison below
    // re-proves across the process boundary.
    if std::env::var("PREM_STORE_WRITER").is_ok()
        || std::env::var("PREM_STORE_REPLAY_WRITER").is_ok()
    {
        return; // we *are* a writer child
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("prem-store-replay-proc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create shared dir");

    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(&exe)
        .args(["replay_writer_role", "--exact", "--nocapture"])
        .env("PREM_STORE_REPLAY_WRITER", dir.display().to_string())
        .status()
        .expect("run replay writer child");
    assert!(status.success(), "replay writer child failed: {status}");

    let kernel = Bicg::new(64, 64);
    let column = family(&kernel);
    let reader =
        PlanExecutor::new().with_store(RunStore::open(&dir).expect("parent: reopen store"));
    let summary = reader.execute(&column, 2);
    assert_eq!(
        (summary.executed, summary.replayed, summary.hits),
        (0, 0, 0),
        "parent: the whole family must come off disk"
    );
    assert_eq!(summary.disk_hits, column.len());
    for req in &column {
        assert_eq!(
            reader.output(req),
            req.execute(),
            "derived record from the writer process diverged from direct \
             execution for {}",
            req.key()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_processes_share_one_store() {
    if std::env::var("PREM_STORE_WRITER").is_ok() {
        return; // we *are* a writer child; only writer_role works here
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("prem-store-multiproc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create shared dir");

    let exe = std::env::current_exe().expect("test binary path");
    let spawn = |id: u32| {
        Command::new(&exe)
            .args(["writer_role", "--exact", "--nocapture"])
            .env("PREM_STORE_WRITER", format!("{};{id}", dir.display()))
            .spawn()
            .expect("spawn writer child")
    };
    // Both children run concurrently: their appends race on the same
    // segment files and must serialize through the advisory locks.
    let mut children = [spawn(1), spawn(2)];
    for child in &mut children {
        let status = child.wait().expect("wait for writer child");
        assert!(status.success(), "writer child failed: {status}");
    }

    let store = RunStore::open(&dir).expect("parent: open shared store");
    // 3 distinct keys: the shared one (written twice, identical bytes —
    // merged, not duplicated, not conflicting) and one per writer.
    let stats = store.verify().expect("parent: full integrity pass");
    assert_eq!(stats.records, 3, "expected shared + 2 private records");
    let (shared_key, shared_out) = sample(8);
    assert_eq!(store.get(&shared_key).expect("get"), Some(shared_out));
    for id in [1, 2] {
        let (key, out) = sample(id);
        assert_eq!(
            store.get(&key).expect("get"),
            Some(out),
            "writer {id}'s record"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
