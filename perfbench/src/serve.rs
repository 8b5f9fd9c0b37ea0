//! The serve-mixed workload: a closed loop of logical clients against a
//! store-backed `SweepService`, driven from the benchmark's one thread.
//!
//! Each client submits a batch of [`BATCH`] requests and submits its next
//! batch only once every response of the previous one has come back. The
//! request stream of each pass is a pure function of the seed and the
//! pass index. Every pass draws the same number of requests per category
//! and per kernel, so a stream changes which requests share work, not how
//! much work is asked for; how much of it dedup, the memo and replay then
//! save still varies between streams, and a fresh stream per pass lets a
//! run's median average that out instead of fixing it per seed:
//!
//! | category | share | what it exercises |
//! |---|---|---|
//! | what-if siblings | 1/3 | policy × seed variants of one base key per kernel, overlapping across clients: replay families and dedup |
//! | co-runner counts | 1/4 | 0–6 bus-only co-runners on one profile key per kernel: the profile memo |
//! | live-only | 5/24 | SPM, or `cache_thrash` co-runners: live runs and store writes |
//! | repeats | 5/24 | keys a client already got back, or keys pre-seeded into the store: memory and disk reads |

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::time::Instant;

use prem_core::{NoiseModel, RunOutput, RunWork};
use prem_gpusim::{CorunnerProfile, Scenario};
use prem_harness::seed::derive_seed;
use prem_harness::wire::PlatformId;
use prem_harness::{
    CorunnerMix, MatrixPolicy, MatrixScenario, OwnedRunRequest, PlanExecutor, RunStore,
};
use prem_kernels::{suite_small, Kernel, KernelId};
use prem_memsim::KIB;
use prem_report::common::{feasible_spm_kib, t_sweep_spm};
use prem_serve::{ServeConfig, SweepService};

use crate::calib::{self, HostClock};
use crate::layers::{attach_plan_children, hist_sum};
use crate::seeds::Rng;
use crate::trace::{Kind, Trace};
use crate::WORKERS;

/// Logical clients of the closed loop.
pub const CLIENTS: usize = 8;
/// Requests per batch.
pub const BATCH: usize = 6;
/// Batches each client submits per pass.
pub const BATCHES: usize = 7;
/// Pool units a service tick may dispatch.
pub const BUDGET: usize = 4;

/// Requests per category per pass, as multiples of the 14-kernel suite so
/// every kernel appears equally often.
const WHATIF: usize = 8 * 14;
const CORUNNER: usize = 6 * 14;
const LIVE_ONLY: usize = 5 * 14;
const REPEAT: usize = CLIENTS * BATCHES * BATCH - WHATIF - CORUNNER - LIVE_ONLY;

/// LLC seeds the what-if siblings draw from; few, so clients overlap.
const WHATIF_SEEDS: [u64; 2] = [1, 2];

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Category {
    WhatIf,
    Corunner,
    LiveOnly,
    Repeat,
}

/// One request of the stream with the identity the response must carry.
#[derive(Clone, Debug)]
pub struct Tagged {
    pub tag: String,
    pub request: OwnedRunRequest,
    pub key: String,
    pub fingerprint: u64,
}

/// A pass's requests, `batches[client][batch]`.
#[derive(Debug)]
pub struct Stream {
    pub batches: Vec<Vec<Vec<Tagged>>>,
}

impl Stream {
    /// Every request in (client, batch, slot) order.
    pub fn requests(&self) -> impl Iterator<Item = &Tagged> {
        self.batches.iter().flatten().flatten()
    }
}

/// A quick-scale request on the TX1 template with TX1 noise.
fn request(
    kernel: &dyn Kernel,
    policy: Option<MatrixPolicy>,
    work: RunWork,
    t_bytes: usize,
    seed: u64,
    scenario: MatrixScenario,
) -> OwnedRunRequest {
    OwnedRunRequest {
        kernel: KernelId::of(kernel),
        platform: PlatformId::Tx1,
        policy,
        work,
        t_bytes,
        seed,
        scenario,
        noise: NoiseModel::tx1(),
    }
}

/// The LLC interval size of `kernel`: 160 KiB, or its minimum if larger.
fn llc_t(kernel: &dyn Kernel) -> usize {
    (160 * KIB).max(kernel.min_interval_bytes())
}

/// The requests the fixture pre-seeds into the store for `seed`: one
/// isolation run per kernel, alternating baseline and PREM.
pub fn preseed(seed: u64) -> Vec<OwnedRunRequest> {
    let mut rng = Rng::new(derive_seed("perfbench/serve/preseed", seed));
    suite_small()
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let work = if i % 2 == 0 {
                RunWork::Baseline
            } else {
                RunWork::PremLlc { r: 1 }
            };
            let scenario = MatrixScenario::Preset(Scenario::Isolation);
            request(
                k.as_ref(),
                None,
                work,
                llc_t(k.as_ref()),
                rng.below(1_000_000),
                scenario,
            )
        })
        .collect()
}

/// Generates the stream of pass `pass` for `seed`; its repeats draw on
/// `preseed`.
///
/// # Errors
///
/// A generated request whose kernel does not resolve through the registry.
pub fn generate(seed: u64, pass: usize, preseed: &[OwnedRunRequest]) -> io::Result<Stream> {
    let suite = suite_small();
    let mut rng = Rng::new(derive_seed(&format!("perfbench/serve/pass-{pass}"), seed));
    // Per-category kernel orders: each category walks its own seeded
    // permutation round-robin, so every kernel appears equally often.
    let order = |rng: &mut Rng| {
        let mut o: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut o);
        o.into_iter().cycle()
    };
    let (mut w_order, mut c_order, mut l_order) =
        (order(&mut rng), order(&mut rng), order(&mut rng));
    // One co-runner profile key per kernel: a fixed LLC seed each.
    let corunner_seed: Vec<u64> = suite.iter().map(|_| rng.below(1000) + 1).collect();

    let mut categories: Vec<Category> = [
        (Category::WhatIf, WHATIF),
        (Category::Corunner, CORUNNER),
        (Category::LiveOnly, LIVE_ONLY),
        (Category::Repeat, REPEAT),
    ]
    .iter()
    .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
    .collect();
    rng.shuffle(&mut categories);

    let profiles = [
        CorunnerProfile::Membomb,
        CorunnerProfile::Stream,
        CorunnerProfile::Bursty {
            duty: 0.5,
            period_cycles: 80_000.0,
        },
    ];
    let policies = MatrixPolicy::what_if_axis();
    let mut categories = categories.into_iter();
    let mut batches = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut answered: Vec<OwnedRunRequest> = Vec::new();
        let mut client_batches = Vec::with_capacity(BATCHES);
        for batch in 0..BATCHES {
            let mut reqs = Vec::with_capacity(BATCH);
            for _ in 0..BATCH {
                let category = categories.next().expect("category counts cover the stream");
                let req = match category {
                    Category::WhatIf => {
                        let k = suite[w_order.next().expect("cycle")].as_ref();
                        request(
                            k,
                            Some(*rng.pick(&policies)),
                            RunWork::PremLlc { r: 8 },
                            llc_t(k),
                            *rng.pick(&WHATIF_SEEDS),
                            MatrixScenario::Preset(Scenario::Isolation),
                        )
                    }
                    Category::Corunner => {
                        let i = c_order.next().expect("cycle");
                        let k = suite[i].as_ref();
                        let mix = CorunnerMix::uniform(rng.below(7) as usize, *rng.pick(&profiles));
                        let scenario = MatrixScenario::Mix(mix);
                        request(
                            k,
                            None,
                            RunWork::PremLlc { r: 8 },
                            llc_t(k),
                            corunner_seed[i],
                            scenario,
                        )
                    }
                    Category::LiveOnly => {
                        let k = suite[l_order.next().expect("cycle")].as_ref();
                        let seed = rng.below(1_000_000);
                        let spm = feasible_spm_kib(k, &t_sweep_spm());
                        match spm.last() {
                            Some(&t) if rng.below(2) == 0 => request(
                                k,
                                None,
                                RunWork::PremSpm,
                                t * KIB,
                                seed,
                                MatrixScenario::Preset(Scenario::Isolation),
                            ),
                            _ => {
                                let n = rng.below(3) as usize + 1;
                                let mix = CorunnerMix::uniform(n, CorunnerProfile::CacheThrash);
                                let scenario = MatrixScenario::Mix(mix);
                                request(
                                    k,
                                    None,
                                    RunWork::PremLlc { r: 8 },
                                    llc_t(k),
                                    seed,
                                    scenario,
                                )
                            }
                        }
                    }
                    Category::Repeat => {
                        if answered.is_empty() || rng.below(2) == 0 {
                            rng.pick(preseed).clone()
                        } else {
                            rng.pick(&answered).clone()
                        }
                    }
                };
                reqs.push(req);
            }
            let tagged = reqs
                .into_iter()
                .enumerate()
                .map(|(slot, request)| {
                    let resolved = request.clone().resolve()?;
                    let r = resolved.request();
                    Ok(Tagged {
                        tag: format!("c{client}.b{batch}.r{slot}"),
                        key: r.key(),
                        fingerprint: r.fingerprint(),
                        request,
                    })
                })
                .collect::<io::Result<Vec<Tagged>>>()?;
            answered.extend(tagged.iter().map(|t| t.request.clone()));
            client_batches.push(tagged);
        }
        batches.push(client_batches);
    }
    Ok(Stream { batches })
}

/// Executes the pre-seed requests into the store at `dir`.
pub fn seed_store(preseed: &[OwnedRunRequest], dir: &Path) -> io::Result<()> {
    let resolved = preseed
        .iter()
        .map(|r| r.clone().resolve())
        .collect::<io::Result<Vec<_>>>()?;
    let requests: Vec<_> = resolved.iter().map(|r| r.request()).collect();
    PlanExecutor::new()
        .with_store(RunStore::open(dir)?)
        .execute(&requests, WORKERS);
    Ok(())
}

/// Set-up of one pass: the store, the executor and the service. Returns
/// the service and how long `RunStore::open` took (ns).
pub fn setup(store_dir: &Path) -> io::Result<(SweepService, u64)> {
    let t = Instant::now();
    let store = RunStore::open(store_dir)?;
    let open_ns = t.elapsed().as_nanos() as u64;
    let config = ServeConfig {
        budget: BUDGET,
        tick_budget_ms: None,
        workers: WORKERS,
    };
    Ok((
        SweepService::new(PlanExecutor::new().with_store(store), config),
        open_ns,
    ))
}

/// What the driver recorded during one pass.
#[derive(Debug, Default)]
pub struct PassRecord {
    /// Submit and response instants of every response.
    pub latency: Vec<(Instant, Instant)>,
    /// Ticks each response waited in the queue.
    pub wait_ticks: Vec<f64>,
    /// Responses per request, in [`Stream::requests`] order.
    pub answers: Vec<u32>,
    /// Requests whose response carried the wrong key or fingerprint.
    pub mismatched: usize,
    /// Per tick: (dispatched, units, queue depth before).
    pub ticks: Vec<(usize, usize, usize)>,
    /// Outputs of the requests whose index is in the `keep` set.
    pub kept: Vec<(usize, RunOutput)>,
    /// Unique keys answered, with one output each (traced passes only).
    pub outputs: BTreeMap<String, RunOutput>,
}

/// Runs one closed-loop pass of `stream` against `svc`, checkpointing
/// `clock` after each tick. Outputs of the request indices in `keep` are
/// retained for the bit-equality check.
pub fn run_pass(
    stream: &Stream,
    svc: &mut SweepService,
    keep: &[usize],
    trace: &mut Trace,
    clock: &mut HostClock,
) -> io::Result<PassRecord> {
    let flat: Vec<&Tagged> = stream.requests().collect();
    let index: HashMap<&str, usize> = flat
        .iter()
        .enumerate()
        .map(|(i, t)| (t.tag.as_str(), i))
        .collect();
    let client_of = |i: usize| i / (BATCHES * BATCH);
    let mut rec = PassRecord {
        answers: vec![0; flat.len()],
        ..PassRecord::default()
    };
    let mut clients = Clients {
        next_batch: vec![0; CLIENTS],
        outstanding: vec![0; CLIENTS],
        submitted: vec![(Instant::now(), 0); CLIENTS],
    };
    let mut ticks_done = 0u64;
    let mut before = trace.enabled().then(|| svc.metrics().snapshot());
    for client in 0..CLIENTS {
        clients.submit(stream, svc, trace, client, 0)?;
    }
    while svc.queue_depth() > 0 {
        let id = trace.enter("serve.tick", Kind::Layer);
        let (metrics, responses) = svc.tick();
        trace.exit(id);
        let now = Instant::now();
        ticks_done += 1;
        if let Some(prev) = before.as_mut() {
            let snap = trace.span("trace.snapshot", Kind::Layer, || svc.metrics().snapshot());
            let exec_ns = hist_sum(&snap, "plan.execute_ns") - hist_sum(prev, "plan.execute_ns");
            let exec = trace.aggregate(id, "plan.execute", Kind::Container, exec_ns);
            attach_plan_children(trace, exec, &snap, Some(prev));
            *prev = snap;
        }
        rec.ticks
            .push((metrics.dispatched, metrics.units, metrics.queue_before));
        for r in responses {
            let Some(&i) = index.get(r.tag.as_str()) else {
                rec.mismatched += 1;
                continue;
            };
            let client = client_of(i);
            rec.answers[i] += 1;
            if r.key != flat[i].key || r.fingerprint != flat[i].fingerprint {
                rec.mismatched += 1;
            }
            let (at, tick) = clients.submitted[client];
            rec.latency.push((at, now));
            rec.wait_ticks.push((metrics.tick - 1 - tick) as f64);
            clients.outstanding[client] -= 1;
            if keep.contains(&i) {
                rec.kept.push((i, r.output.clone()));
            }
            if trace.enabled() {
                rec.outputs.entry(r.key).or_insert(r.output);
            }
        }
        calib::checkpoint(clock, trace);
        for client in 0..CLIENTS {
            if clients.outstanding[client] == 0 && clients.next_batch[client] < BATCHES {
                clients.submit(stream, svc, trace, client, ticks_done)?;
            }
        }
    }
    Ok(rec)
}

/// Closed-loop client state.
struct Clients {
    next_batch: Vec<usize>,
    outstanding: Vec<usize>,
    /// When and after how many ticks each client's current batch went in.
    submitted: Vec<(Instant, u64)>,
}

impl Clients {
    fn submit(
        &mut self,
        stream: &Stream,
        svc: &mut SweepService,
        trace: &mut Trace,
        client: usize,
        ticks_done: u64,
    ) -> io::Result<()> {
        let batch = &stream.batches[client][self.next_batch[client]];
        self.next_batch[client] += 1;
        self.outstanding[client] = batch.len();
        self.submitted[client] = (Instant::now(), ticks_done);
        for t in batch {
            let id = trace.enter("serve.submit", Kind::Layer);
            svc.submit(t.tag.clone(), t.request.clone())?;
            trace.exit(id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream's bytes: every tag and binary-encoded request, in order.
    fn bytes(s: &Stream) -> Vec<u8> {
        s.requests()
            .flat_map(|t| t.tag.bytes().chain(t.request.encode()))
            .collect()
    }

    #[test]
    fn generator_is_deterministic_in_the_seed_and_pass() {
        let encode =
            |rs: Vec<OwnedRunRequest>| -> Vec<u8> { rs.iter().flat_map(|r| r.encode()).collect() };
        assert_eq!(encode(preseed(5)), encode(preseed(5)));
        assert_ne!(encode(preseed(5)), encode(preseed(6)));
        let pre = preseed(5);
        let a = bytes(&generate(5, 0, &pre).expect("stream"));
        assert_eq!(a, bytes(&generate(5, 0, &pre).expect("stream")));
        assert_ne!(a, bytes(&generate(5, 1, &pre).expect("stream")));
        assert_ne!(a, bytes(&generate(6, 0, &pre).expect("stream")));
    }

    #[test]
    fn stream_has_the_declared_shape_and_unique_tags() {
        let s = generate(1, 0, &preseed(1)).expect("stream");
        assert_eq!(s.requests().count(), CLIENTS * BATCHES * BATCH);
        assert!(s
            .batches
            .iter()
            .all(|c| c.len() == BATCHES && c.iter().all(|b| b.len() == BATCH)));
        let tags: std::collections::HashSet<&str> = s.requests().map(|t| t.tag.as_str()).collect();
        assert_eq!(tags.len(), CLIENTS * BATCHES * BATCH);
        // Clients overlap: fewer distinct keys than requests.
        let keys: std::collections::HashSet<&str> = s.requests().map(|t| t.key.as_str()).collect();
        assert!(keys.len() < tags.len());
    }
}
