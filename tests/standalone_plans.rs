//! Standalone report entry points render from a one-shot plan, not from
//! lazy per-request execution: the plan pins each (kernel, T) tiling for
//! its length, so an entry point tiles each distinct interval size once
//! however many requests share it. A lazy executor (or executing each
//! request on its own) re-tiles for every request, which at paper scale
//! costs milliseconds per run. And an executor that has run an artifact's
//! requests renders it without simulating anything.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use prem_gpu::core::IntervalSpec;
use prem_gpu::harness::PlanExecutor;
use prem_gpu::kernels::{Bicg, Kernel, KernelError, VerifyError};
use prem_gpu::memsim::KIB;
use prem_gpu::report::ablation::{
    adaptive_ablation, adaptive_ablation_with, adaptive_requests, bias_ablation,
    bias_ablation_with, bias_requests, msg_ablation, msg_ablation_with, msg_requests,
    policy_ablation, policy_ablation_with, policy_requests,
};
use prem_gpu::report::fig3::{fig35, fig35_requests};
use prem_gpu::report::interference::interference_sweep;
use prem_gpu::report::Harness;

/// Bicg under a name no other test uses (so it shares no interval-arena
/// entry), counting its tilings.
#[derive(Debug)]
struct EntryPointBicg {
    inner: Bicg,
    name: &'static str,
    tilings: AtomicUsize,
}

impl Kernel for EntryPointBicg {
    fn name(&self) -> &'static str {
        self.name
    }
    fn dims(&self) -> String {
        self.inner.dims()
    }
    fn id_dims(&self) -> Vec<usize> {
        self.inner.id_dims()
    }
    fn dataset_bytes(&self) -> usize {
        self.inner.dataset_bytes()
    }
    fn min_interval_bytes(&self) -> usize {
        self.inner.min_interval_bytes()
    }
    fn intervals(&self, t_bytes: usize) -> Result<Vec<IntervalSpec>, KernelError> {
        self.tilings.fetch_add(1, Ordering::Relaxed);
        self.inner.intervals(t_bytes)
    }
    fn verify(&self, t_bytes: usize) -> Result<(), VerifyError> {
        self.inner.verify(t_bytes)
    }
}

impl EntryPointBicg {
    /// A 128×128 bicg named `name`.
    fn new(name: &'static str) -> Self {
        EntryPointBicg {
            inner: Bicg::new(128, 128),
            name,
            tilings: AtomicUsize::new(0),
        }
    }

    /// How many tilings `render` builds.
    fn tilings_of(&self, render: impl FnOnce()) -> usize {
        self.tilings.store(0, Ordering::Relaxed);
        render();
        self.tilings.load(Ordering::Relaxed)
    }
}

#[test]
fn standalone_entry_points_tile_each_kernel_t_once() {
    let kernel = EntryPointBicg::new("entry-point-bicg");
    let harness = Harness::quick();
    let t = 32 * KIB;

    // One interval size each: 14 sweep requests, 24 policy-ablation
    // requests, 4 bias-ablation requests.
    let sweep = kernel.tilings_of(|| {
        interference_sweep(&kernel, t, 8, 11, 2);
    });
    assert_eq!(sweep, 1, "interference_sweep");
    let policy = kernel.tilings_of(|| {
        policy_ablation(&kernel, &harness, t, &[1, 8]);
    });
    assert_eq!(policy, 1, "policy_ablation");
    let bias = kernel.tilings_of(|| {
        bias_ablation(&kernel, &harness, t, &[1, 3]);
    });
    assert_eq!(bias, 1, "bias_ablation");
    // The MSG ablation's SPM and LLC runs sit at two interval sizes.
    let msg = kernel.tilings_of(|| {
        msg_ablation(&kernel, &harness, t, 2 * t, &[5.0, 50.0]);
    });
    assert_eq!(msg, 2, "msg_ablation");
    let adaptive = kernel.tilings_of(|| {
        adaptive_ablation(&kernel, &harness, t);
    });
    assert_eq!(adaptive, 1, "adaptive_ablation");

    // The breakdown figure spans several interval sizes (baseline, SPM and
    // LLC rows, some of them shared).
    let (spm, llc) = ([32, 48], [32, 64, 160]);
    let distinct: HashSet<usize> = fig35_requests(&kernel, &harness, 8, &spm, &llc)
        .iter()
        .map(|req| req.t_bytes)
        .collect();
    assert!(distinct.len() > 1, "the figure must span several T");
    let fig = kernel.tilings_of(|| {
        fig35(&kernel, &harness, 8, &spm, &llc);
    });
    assert_eq!(fig, distinct.len(), "fig35: one tiling per distinct T");
}

#[test]
fn ablations_render_from_an_executor_that_ran_their_plans() {
    let kernel = EntryPointBicg::new("ablation-render-bicg");
    let harness = Harness::default();
    let (t, rs, msgs, weights) = (32 * KIB, [1, 8], [5.0, 50.0], [1, 3]);
    let executor = PlanExecutor::new();
    let plan = [
        policy_requests(&kernel, &harness, t, &rs),
        msg_requests(&kernel, &harness, t, 2 * t, &msgs),
        adaptive_requests(&kernel, &harness, t),
        bias_requests(&kernel, &harness, t, &weights),
    ]
    .concat();
    executor.execute(&plan, 1);
    let executed = executor.executed_runs();

    let tilings = kernel.tilings_of(|| {
        policy_ablation_with(&kernel, &harness, t, &rs, &executor);
        msg_ablation_with(&kernel, &harness, t, 2 * t, &msgs, &executor);
        adaptive_ablation_with(&kernel, &harness, t, &executor);
        bias_ablation_with(&kernel, &harness, t, &weights, &executor);
    });
    assert_eq!(executor.executed_runs(), executed, "a render simulated");
    assert_eq!(tilings, 0, "a render tiled");
}
