//! Shared interval arenas: tile once per (kernel identity, dims, T) while
//! anyone holds the stream.
//!
//! Tiling a kernel ([`Kernel::intervals`]) materializes its full op
//! stream — for paper-scale problem sizes that is megabytes of
//! [`IntervalSpec`]s, and a merged figure plan requests the *same* tiling
//! hundreds of times: every matrix column shares (kernel, dims, T) across
//! its policy/seed/scenario axes, fig6 sweeps T over a fixed kernel, and
//! every run's profiling pass re-tiles what its timed run just tiled. The
//! arena makes the tiling content-addressed: one build per distinct
//! [`TilingKey`] while any consumer still holds the result.
//!
//! Entries are held through [`Weak`] references, so an arena never *owns*
//! a stream: the moment the last consumer drops its [`Arc`], the tiling is
//! freed and a later request rebuilds it. This bounds arena memory by what
//! callers pin, not by the number of distinct tilings a long process has
//! ever seen — the same bounded-capture discipline the plan layer applies
//! to replay families. It also means the arena shares nothing between
//! consumers that run one after another: sharing is the holders' job.
//! The plan executor holds each key's stream from the first to the last
//! pool unit that needs it within one call, so a plan tiles each key once;
//! nothing stays pinned after the call returns.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use prem_core::IntervalSpec;

use crate::{Kernel, KernelError};

/// A tiling's identity: everything [`Kernel::intervals`] depends on.
/// `id_dims` (the constructor dimensions) rather than the display string
/// keys the kernel, mirroring the wire registry's identity rule.
pub type TilingKey = (&'static str, Vec<usize>, usize);

/// The [`TilingKey`] of `kernel` tiled at `t_bytes`.
pub fn tiling_key(kernel: &dyn Kernel, t_bytes: usize) -> TilingKey {
    (kernel.name(), kernel.id_dims(), t_bytes)
}

/// A content-addressed, weakly-held cache of tiled interval streams.
///
/// Most callers want the process-wide [`shared`] instance; separate
/// arenas exist for tests that need isolated lifetime observation.
#[derive(Debug, Default)]
pub struct IntervalArena {
    entries: Mutex<HashMap<TilingKey, Weak<[IntervalSpec]>>>,
}

impl IntervalArena {
    /// An empty arena.
    pub fn new() -> Self {
        IntervalArena::default()
    }

    /// The tiled interval stream of `kernel` at `t_bytes`: served from the
    /// arena when any live [`Arc`] still pins it, rebuilt (and re-shared)
    /// otherwise.
    ///
    /// The build runs outside the arena lock, so concurrent workers are
    /// never serialized behind tiling; two racing builders of the same key
    /// may both tile, in which case one result wins the slot and both are
    /// correct (tiling is deterministic in the key).
    ///
    /// # Errors
    ///
    /// Exactly the [`Kernel::intervals`] error conditions
    /// ([`KernelError::IntervalTooSmall`]).
    pub fn get(
        &self,
        kernel: &dyn Kernel,
        t_bytes: usize,
    ) -> Result<Arc<[IntervalSpec]>, KernelError> {
        let key = tiling_key(kernel, t_bytes);
        if let Some(live) = self.lock().get(&key).and_then(Weak::upgrade) {
            return Ok(live);
        }
        let built: Arc<[IntervalSpec]> = kernel.intervals(t_bytes)?.into();
        let mut entries = self.lock();
        // A racing builder may have landed while we tiled — share its
        // stream so every consumer of the key holds the same allocation.
        if let Some(live) = entries.get(&key).and_then(Weak::upgrade) {
            return Ok(live);
        }
        // Opportunistic purge: dead weak entries are reclaimed on the
        // (rare) build path, so the map never grows past the set of
        // distinct tilings plus tombstones of the current build wave.
        entries.retain(|_, w| w.strong_count() > 0);
        entries.insert(key, Arc::downgrade(&built));
        Ok(built)
    }

    /// Number of entries whose stream is still alive (pinned by at least
    /// one consumer-held [`Arc`]).
    pub fn live_entries(&self) -> usize {
        self.lock()
            .values()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<TilingKey, Weak<[IntervalSpec]>>> {
        self.entries.lock().expect("interval arena poisoned")
    }
}

/// The process-wide arena every plan-layer tiling goes through.
pub fn shared() -> &'static IntervalArena {
    static SHARED: OnceLock<IntervalArena> = OnceLock::new();
    SHARED.get_or_init(IntervalArena::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bicg;

    #[test]
    fn same_key_shares_one_allocation() {
        let arena = IntervalArena::new();
        let k = Bicg::new(128, 128);
        let a = arena.get(&k, 32 * 1024).expect("tile");
        let b = arena.get(&k, 32 * 1024).expect("tile");
        assert!(Arc::ptr_eq(&a, &b), "one build serves every holder");
        assert_eq!(arena.live_entries(), 1);
        // An equivalent but distinct kernel instance is the same identity.
        let k2 = Bicg::new(128, 128);
        let c = arena.get(&k2, 32 * 1024).expect("tile");
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn distinct_dims_or_t_do_not_alias() {
        let arena = IntervalArena::new();
        let k = Bicg::new(128, 128);
        let other = Bicg::new(192, 160);
        let a = arena.get(&k, 32 * 1024).expect("tile");
        let b = arena.get(&other, 32 * 1024).expect("tile");
        let c = arena.get(&k, 64 * 1024).expect("tile");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(arena.live_entries(), 3);
    }

    #[test]
    fn dropped_streams_are_rebuilt_not_leaked() {
        let arena = IntervalArena::new();
        let k = Bicg::new(128, 128);
        let first = arena.get(&k, 32 * 1024).expect("tile");
        let contents = first.len();
        drop(first);
        assert_eq!(arena.live_entries(), 0, "weak entries die with holders");
        let again = arena.get(&k, 32 * 1024).expect("tile");
        assert_eq!(again.len(), contents, "rebuild is deterministic");
        assert_eq!(arena.live_entries(), 1);
    }

    #[test]
    fn tiling_errors_pass_through() {
        let arena = IntervalArena::new();
        let k = Bicg::new(128, 128);
        assert!(arena.get(&k, 1).is_err(), "too-small T still errors");
    }
}
