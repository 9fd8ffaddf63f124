//! Epoch-pinned model store: zero-downtime rewriter hot-swap.
//!
//! The online-learning loop (crate `qrw-online`) retrains the q2q model
//! concurrently with serving and swaps the frozen result into the
//! runtime. That swap must obey the same invariant the live catalog
//! already enforces for index snapshots ([`super::snapshot`]):
//!
//! > **Torn-swap invariant.** A request never observes a partially
//! > swapped model. Every rewrite the request performs across its whole
//! > degradation-ladder walk comes from exactly one immutable model
//! > epoch, stamped into the response.
//!
//! [`ModelStore`] is the [`SnapshotStore`](super::SnapshotStore) slot-ring
//! protocol applied to models instead of indexes: readers pin one epoch
//! per request with two `SeqCst` RMWs ([`ModelStore::pin`]), the
//! (mutex-serialised) trainer publishes frozen models as new epochs
//! ([`ModelStore::publish`]), and superseded epochs are reclaimed only
//! once their pin count drops to zero. A swap whose checkpoint commit
//! fails is never published — serving degrades to the last good epoch
//! and the failure is counted in [`SwapStats`] for `health_report()`.
//!
//! Epoch numbering starts at 1: a [`SearchResponse`](super::SearchResponse)
//! with `model_epoch == 0` means "served without a model store" (the
//! frozen single-model configuration every earlier layer uses).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use qrw_core::pipeline::QueryRewriter;
use qrw_tensor::sync::Mutex;

/// A rewriter shared across serving threads.
pub type SharedRewriter = Arc<dyn QueryRewriter + Send + Sync>;

/// One immutable published model epoch.
#[derive(Clone)]
pub struct ModelEpoch {
    epoch: u64,
    rewriter: SharedRewriter,
}

impl ModelEpoch {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn rewriter(&self) -> &(dyn QueryRewriter + Send + Sync) {
        self.rewriter.as_ref()
    }
}

impl std::fmt::Debug for ModelEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEpoch")
            .field("epoch", &self.epoch)
            .field("rewriter", &self.rewriter.name())
            .finish()
    }
}

/// One slot of the publication ring (see [`super::snapshot::SnapshotStore`]
/// for the full safety argument; the protocol here is identical, only the
/// payload differs).
struct Slot {
    /// Number of in-flight requests pinning this slot's model.
    pins: AtomicU64,
    /// The model, written only by the (mutex-serialised) publisher and
    /// only while the slot is neither current nor pinned.
    cell: UnsafeCell<Option<Arc<ModelEpoch>>>,
}

/// Counter snapshot of a [`ModelStore`], surfaced through the online
/// loop's `health_report()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Epoch a `pin()` issued now would observe.
    pub current_epoch: u64,
    /// Models published since the store was created (the initial model is
    /// epoch 1 but not counted as a publish).
    pub epochs_published: u64,
    /// Superseded models dropped from the ring.
    pub epochs_reclaimed: u64,
    /// Attempted swaps that failed before publication (e.g. the frozen
    /// checkpoint commit died); serving stayed on the last good epoch.
    pub swap_failures: u64,
    /// Times the publisher had to spin because every non-current slot was
    /// pinned.
    pub publish_stalls: u64,
    /// Reader retries after losing a race with a concurrent publish.
    pub pin_retries: u64,
    /// Pins currently held across all slots.
    pub pinned_now: u64,
}

/// Epoch-pinned model store: single publisher, many lock-free readers.
///
/// # Safety protocol
///
/// Identical to [`SnapshotStore`](super::SnapshotStore) — all atomics are
/// `SeqCst`; a reader announces a pin, re-checks `current`, and only then
/// dereferences the cell; the publisher mutates a cell only under the
/// writer mutex, only for a slot that is neither current nor pinned. See
/// the safety comment on `SnapshotStore` for the full interleaving
/// argument; it transfers verbatim because the payload type plays no role
/// in it.
pub struct ModelStore {
    slots: Box<[Slot]>,
    /// Index of the slot holding the current epoch.
    current: AtomicUsize,
    /// Serialises publish/reclaim. Readers never touch it.
    writer: Mutex<()>,
    /// Epoch of the current model, mirrored for lock-free reporting.
    epoch: AtomicU64,
    next_epoch: AtomicU64,
    epochs_published: AtomicU64,
    epochs_reclaimed: AtomicU64,
    swap_failures: AtomicU64,
    publish_stalls: AtomicU64,
    pin_retries: AtomicU64,
}

// SAFETY: the UnsafeCell contents are only mutated under the writer mutex
// and only for slots no reader can be dereferencing (see the protocol on
// SnapshotStore, which this store mirrors exactly); everything else is
// atomics and Arc.
unsafe impl Send for ModelStore {}
unsafe impl Sync for ModelStore {}

impl ModelStore {
    /// Default ring size, matching the catalog snapshot ring.
    const DEFAULT_SLOTS: usize = 8;

    /// A store serving `initial` as epoch 1.
    pub fn new(initial: SharedRewriter) -> Arc<Self> {
        Self::with_slots(initial, Self::DEFAULT_SLOTS)
    }

    /// A store with an explicit ring size (clamped to at least 2: one
    /// current slot plus one to publish into).
    pub fn with_slots(initial: SharedRewriter, slots: usize) -> Arc<Self> {
        let slots = slots.max(2);
        let store = ModelStore {
            slots: (0..slots)
                .map(|_| Slot { pins: AtomicU64::new(0), cell: UnsafeCell::new(None) })
                .collect(),
            current: AtomicUsize::new(0),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(1),
            next_epoch: AtomicU64::new(2),
            epochs_published: AtomicU64::new(0),
            epochs_reclaimed: AtomicU64::new(0),
            swap_failures: AtomicU64::new(0),
            publish_stalls: AtomicU64::new(0),
            pin_retries: AtomicU64::new(0),
        };
        let first = ModelEpoch { epoch: 1, rewriter: initial };
        // SAFETY: no other thread can hold a reference yet.
        unsafe { *store.slots[0].cell.get() = Some(Arc::new(first)) };
        Arc::new(store)
    }

    /// Pins the current model epoch for the duration of the returned
    /// guard. Lock-free: two `SeqCst` RMWs on the happy path.
    pub fn pin(self: &Arc<Self>) -> PinnedModel {
        loop {
            let idx = self.current.load(SeqCst);
            self.slots[idx].pins.fetch_add(1, SeqCst);
            if self.current.load(SeqCst) == idx {
                // SAFETY: re-check passed with our pin registered, so the
                // publisher cannot be mutating this cell (protocol above).
                let model = unsafe { (*self.slots[idx].cell.get()).clone() }
                    .expect("current slot always holds a model");
                return PinnedModel { store: Arc::clone(self), slot: idx, model };
            }
            // Lost a race with a publish that moved `current`; unpin and
            // retry against the new slot.
            self.slots[idx].pins.fetch_sub(1, SeqCst);
            self.pin_retries.fetch_add(1, SeqCst);
        }
    }

    /// Epoch of the model a `pin()` issued now would observe.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Publishes `rewriter` as the next model epoch, retiring (and
    /// possibly reclaiming) an old slot. Returns the new epoch. Spins
    /// (with `yield_now`, counted in `publish_stalls`) while every
    /// non-current slot is pinned.
    pub fn publish(&self, rewriter: SharedRewriter) -> u64 {
        let _guard = self.writer.lock();
        let epoch = self.next_epoch.fetch_add(1, SeqCst);
        let arc = Arc::new(ModelEpoch { epoch, rewriter });
        loop {
            let cur = self.current.load(SeqCst);
            let victim = (0..self.slots.len())
                .find(|&i| i != cur && self.slots[i].pins.load(SeqCst) == 0);
            let Some(v) = victim else {
                self.publish_stalls.fetch_add(1, SeqCst);
                std::thread::yield_now();
                continue;
            };
            // SAFETY: we hold the writer mutex, slot v is not current and
            // has zero pins; per the protocol no reader can be (or begin)
            // dereferencing it before `current` points at it again.
            let stale = unsafe { (*self.slots[v].cell.get()).take() };
            if stale.is_some() {
                self.epochs_reclaimed.fetch_add(1, SeqCst);
            }
            drop(stale);
            unsafe { *self.slots[v].cell.get() = Some(arc) };
            self.epoch.store(epoch, SeqCst);
            self.current.store(v, SeqCst);
            self.epochs_published.fetch_add(1, SeqCst);
            return epoch;
        }
    }

    /// Eagerly drops superseded models whose slots are unpinned. Returns
    /// how many were reclaimed.
    pub fn reclaim(&self) -> usize {
        let _guard = self.writer.lock();
        let cur = self.current.load(SeqCst);
        let mut freed = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if i == cur || slot.pins.load(SeqCst) != 0 {
                continue;
            }
            // SAFETY: writer mutex held, slot not current, zero pins.
            let stale = unsafe { (*slot.cell.get()).take() };
            if stale.is_some() {
                freed += 1;
                self.epochs_reclaimed.fetch_add(1, SeqCst);
            }
        }
        freed
    }

    /// Records a swap that failed before publication (checkpoint commit
    /// error, freeze failure); serving stays on the last good epoch.
    pub fn record_swap_failure(&self) {
        self.swap_failures.fetch_add(1, SeqCst);
    }

    /// Total pins currently held across all slots.
    pub fn pinned_now(&self) -> u64 {
        self.slots.iter().map(|s| s.pins.load(SeqCst)).sum()
    }

    /// Counter snapshot for `health_report()`.
    pub fn swap_stats(&self) -> SwapStats {
        SwapStats {
            current_epoch: self.epoch.load(SeqCst),
            epochs_published: self.epochs_published.load(SeqCst),
            epochs_reclaimed: self.epochs_reclaimed.load(SeqCst),
            swap_failures: self.swap_failures.load(SeqCst),
            publish_stalls: self.publish_stalls.load(SeqCst),
            pin_retries: self.pin_retries.load(SeqCst),
            pinned_now: self.pinned_now(),
        }
    }
}

/// A pinned model epoch: holds the slot's pin until dropped, keeping the
/// model alive and un-recyclable for the whole request.
pub struct PinnedModel {
    store: Arc<ModelStore>,
    slot: usize,
    model: Arc<ModelEpoch>,
}

impl PinnedModel {
    pub fn epoch(&self) -> u64 {
        self.model.epoch
    }

    pub fn rewriter(&self) -> &(dyn QueryRewriter + Send + Sync) {
        self.model.rewriter()
    }
}

impl Drop for PinnedModel {
    fn drop(&mut self) {
        self.store.slots[self.slot].pins.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A rewriter whose single rewrite names the epoch it was built for,
    /// so a torn swap would be visible as an epoch/output mismatch.
    struct TagRewriter {
        tag: u64,
        name: String,
    }

    impl TagRewriter {
        fn shared(tag: u64) -> SharedRewriter {
            Arc::new(TagRewriter { tag, name: format!("tag-{tag}") })
        }
    }

    impl QueryRewriter for TagRewriter {
        fn rewrite(&self, _query: &[String], _k: usize) -> Vec<Vec<String>> {
            vec![vec![format!("epoch{}", self.tag)]]
        }

        fn name(&self) -> &str {
            &self.name
        }
    }

    fn tag_of(pin: &PinnedModel) -> u64 {
        let out = pin.rewriter().rewrite(&[], 1);
        out[0][0].strip_prefix("epoch").unwrap().parse().unwrap()
    }

    #[test]
    fn pin_sees_the_published_epoch() {
        let store = ModelStore::new(TagRewriter::shared(1));
        let pin1 = store.pin();
        assert_eq!(pin1.epoch(), 1);
        assert_eq!(tag_of(&pin1), 1);

        let e2 = store.publish(TagRewriter::shared(2));
        assert_eq!(e2, 2);
        // The old pin still sees epoch 1.
        assert_eq!(pin1.epoch(), 1);
        assert_eq!(tag_of(&pin1), 1);
        let pin2 = store.pin();
        assert_eq!(pin2.epoch(), 2);
        assert_eq!(tag_of(&pin2), 2);
        assert_eq!(store.current_epoch(), 2);
    }

    #[test]
    fn pinned_epochs_survive_until_unpinned() {
        let store = ModelStore::new(TagRewriter::shared(1));
        let pin = store.pin();
        for t in 2..20 {
            store.publish(TagRewriter::shared(t));
        }
        assert_eq!(pin.epoch(), 1);
        assert_eq!(tag_of(&pin), 1);
        assert_eq!(store.current_epoch(), 19);
        assert_eq!(store.pinned_now(), 1);
        drop(pin);
        assert_eq!(store.pinned_now(), 0);
        let stats = store.swap_stats();
        assert_eq!(stats.epochs_published, 18);
        assert!(store.reclaim() > 0 || stats.epochs_reclaimed > 0);
    }

    #[test]
    fn publish_waits_for_pins_instead_of_tearing() {
        // A 2-slot ring: publishing while both slots are pinned must
        // stall, not overwrite a pinned slot.
        let store = ModelStore::with_slots(TagRewriter::shared(1), 2);
        let pin1 = store.pin();
        store.publish(TagRewriter::shared(2));
        let pin2 = store.pin();
        assert_eq!(pin2.epoch(), 2);

        let s2 = Arc::clone(&store);
        let publisher = std::thread::spawn(move || {
            s2.publish(TagRewriter::shared(3));
        });
        while store.swap_stats().publish_stalls == 0 {
            std::thread::yield_now();
        }
        assert_eq!(store.current_epoch(), 2, "stalled publish must not be visible");
        drop(pin1);
        publisher.join().unwrap();
        assert_eq!(store.current_epoch(), 3);
        assert_eq!(pin2.epoch(), 2, "held pin unaffected by the publish");
        assert_eq!(tag_of(&pin2), 2);
    }

    #[test]
    fn concurrent_pins_always_see_a_whole_model() {
        // Hammer pin/publish from many threads; every pinned model must
        // agree with its stamped epoch (tag == epoch by construction).
        let store = ModelStore::new(TagRewriter::shared(1));
        let stop = Arc::new(AtomicBool::new(false));
        // Publishing starts only once every reader has pinned, so the
        // readers cannot all miss a publisher that finishes first.
        let started = Arc::new(Barrier::new(5));
        let mut readers = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let started = Arc::clone(&started);
            readers.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(SeqCst) {
                    let pin = store.pin();
                    assert_eq!(
                        tag_of(&pin),
                        pin.epoch(),
                        "epoch {} paired with the wrong model",
                        pin.epoch()
                    );
                    seen += 1;
                    if seen == 1 {
                        started.wait();
                    }
                }
                seen
            }));
        }
        started.wait();
        for t in 2..200 {
            store.publish(TagRewriter::shared(t));
        }
        stop.store(true, SeqCst);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        let stats = store.swap_stats();
        assert_eq!(stats.epochs_published, 198);
        assert!(stats.epochs_reclaimed > 0, "ring must recycle superseded models");
        assert_eq!(stats.pinned_now, 0);
    }

    #[test]
    fn swap_failures_are_counted_without_changing_the_epoch() {
        let store = ModelStore::new(TagRewriter::shared(1));
        store.record_swap_failure();
        store.record_swap_failure();
        let stats = store.swap_stats();
        assert_eq!(stats.swap_failures, 2);
        assert_eq!(stats.current_epoch, 1);
        assert_eq!(stats.epochs_published, 0);
        assert_eq!(tag_of(&store.pin()), 1);
    }
}
