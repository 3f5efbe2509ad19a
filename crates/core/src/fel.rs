//! The future event list (FEL).
//!
//! A min-priority queue of events ordered by [`EventKey`]. Every LP owns one
//! FEL; the sequential kernel owns a single global FEL.
//!
//! [`Fel`] is a multi-rung ladder queue (after Tang & Goh's ladder queue;
//! DESIGN.md §4.4). Near-future events are spread over fixed-width time
//! buckets; a promoted bucket is either sorted into a small bottom tier
//! (popped O(1) from the back) or — when too large to sort cheaply —
//! subdivided into a finer child rung; far-future events sit in an unsorted
//! overflow tier until the ladder re-primes. A re-prime of at most
//! `LADDER_THRES` events skips the rungs and sorts straight into the bottom
//! tier. Amortized O(1) per event on both the kernels' windowed access
//! pattern and the sequential kernel's push-one/pop-one pattern.
//!
//! Pops follow the total [`EventKey`] order exactly, which is what makes
//! simulation results deterministic; the differential property suite in
//! `crates/core/tests/proptests.rs` checks every operation against a sorted
//! reference map.

use crate::event::{Event, EventKey};
use crate::time::Time;

/// The FEL implementation a run used, as recorded in
/// [`crate::EngineStats::fel_impl`].
///
/// There is one implementation; the type survives only so run reports
/// (and the repo benchmark, which prints [`FelImpl::name`]) keep naming it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FelImpl {
    /// The multi-rung ladder queue: sorted bottom tier, rung stack of time
    /// buckets, unsorted far-future overflow.
    #[default]
    Ladder,
}

impl FelImpl {
    /// Short display name, used in reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            FelImpl::Ladder => "ladder",
        }
    }
}

/// Number of buckets per rung. Each rung covers `LADDER_BUCKETS`
/// bucket-widths of virtual time; the width is recalibrated from the
/// observed span at every re-prime, and again (divided by this factor)
/// every time an oversized bucket spawns a child rung.
const LADDER_BUCKETS: usize = 32;

/// Promotion threshold: a bucket no larger than this is sorted straight
/// into the bottom tier; a larger one is split into a finer child rung
/// first (unless its width is already 1 ns, the resolution floor). The
/// same bound decides whether a re-prime builds a rung at all, and when a
/// rung-less near tier is folded back into one.
const LADDER_THRES: usize = 64;

/// Depth cap on the rung stack — a backstop against adversarial
/// distributions; widths shrink by `LADDER_BUCKETS`x per level, so real
/// workloads bottom out at width 1 long before this.
const LADDER_MAX_RUNGS: usize = 16;

/// One rung: `LADDER_BUCKETS` fixed-width time buckets with a drain cursor.
struct Rung<P> {
    /// Inclusive lower time bound of bucket 0.
    start: Time,
    /// Bucket width in virtual nanoseconds (>= 1).
    width: u64,
    /// Drain cursor: buckets below this index have been promoted (they are
    /// empty); events in their time range now belong to a deeper rung or
    /// the bottom tier.
    cur: usize,
    /// Events stored in this rung.
    count: usize,
    /// The buckets. `buckets[i]` holds events with
    /// `start + i*width <= ts < start + (i+1)*width` (the last bucket also
    /// absorbs the saturated remainder near `u64::MAX`).
    buckets: Vec<Vec<Event<P>>>,
}

impl<P> Rung<P> {
    /// Lower time bound of the not-yet-promoted region: pushes at or above
    /// it belong to this rung, pushes below it fall through to a deeper
    /// rung or the bottom tier.
    #[inline]
    fn threshold(&self) -> Time {
        Time(
            self.start
                .0
                .saturating_add((self.cur as u64).saturating_mul(self.width)),
        )
    }

    /// Bucket index for `ts` (callers guarantee `ts >= self.start`). The
    /// clamp only engages when the rung's nominal end saturated near
    /// `u64::MAX`; the last bucket then absorbs the tail, which is safe
    /// because it is promoted last and promotion sorts by full key.
    #[inline]
    fn bucket_of(&self, ts: Time) -> usize {
        (((ts.0 - self.start.0) / self.width) as usize).min(LADDER_BUCKETS - 1)
    }
}

/// A future event list: a min-priority queue over the deterministic
/// [`EventKey`] order, stored as a multi-rung ladder queue (see module docs
/// and DESIGN.md §4.4).
///
/// # Examples
///
/// ```
/// use unison_core::{Event, EventKey, Fel, NodeId, Time};
///
/// let mut fel: Fel<&str> = Fel::new();
/// fel.push(Event { key: EventKey::external(Time(20), 1), node: NodeId(0), payload: "b" });
/// fel.push(Event { key: EventKey::external(Time(10), 0), node: NodeId(0), payload: "a" });
/// assert_eq!(fel.pop().unwrap().payload, "a");
/// assert_eq!(fel.pop().unwrap().payload, "b");
/// assert!(fel.is_empty());
/// ```
///
/// Three tiers:
///
/// - **bottom**: a small vector sorted descending by [`EventKey`], popped
///   from the back — the imminent events.
/// - **rungs**: a stack of `Rung`s. `rungs[0]` is the coarsest; each
///   deeper rung subdivides one promoted bucket of its parent, so deeper
///   rungs always cover *earlier* time than the shallower remainders.
/// - **overflow**: unsorted far-future events at or beyond `top_start`
///   (the re-prime horizon), with a cached minimum timestamp.
///
/// # Invariants
///
/// 1. The near tier (`bottom` ∪ `stage`) holds exactly the stored events
///    with `ts < rungs.last().threshold()` (or all events below
///    `top_start` when no rungs exist — the state a small re-prime
///    leaves); `bottom` is sorted descending by key and popped from the
///    back, `stage` holds unsorted recent pushes with `stage_min` caching
///    their minimum key.
/// 2. Within a rung, buckets at or after `cur` cover ascending disjoint
///    time ranges; buckets before `cur` are empty. Each rung's remaining
///    range starts at or after the end of every deeper rung's range.
/// 3. Every overflow event has `ts >= top_start`, and `top_start` only
///    changes at a re-prime (when the bottom and all rungs are empty).
///
/// Together these give the pop rule: the global minimum is at the back of
/// the bottom if non-empty, else in the first non-empty bucket of the
/// deepest non-empty rung, else in the overflow.
///
/// The split rule (`LADDER_THRES`) is what makes the structure robust
/// across access patterns: a promoted bucket small enough to sort goes
/// straight to the bottom (the windowed per-LP pattern), while a huge
/// bucket — e.g. the sequential kernel's single global FEL where one rung
/// would hold tens of thousands of events — is subdivided into a child
/// rung in O(len) instead of being re-sorted on every near-tier insert.
/// The same bound gives the small path (Tang & Goh's bottom rule): a
/// re-prime of at most `LADDER_THRES` events — a fine-grained LP's
/// per-round handful — is sorted straight into the bottom with the
/// horizon at its maximum + 1, never paying for a rung. Its mirror is the
/// fold-back rule: a rung-less near tier that outgrows `LADDER_THRES` is
/// redistributed into a rung at its next flush, so a small re-prime whose
/// horizon sits far out (an RTO timer) cannot leave an unbounded bottom
/// that is re-sorted on every flush.
///
/// Every operation that takes bucket buffers from `pool` hands back as
/// many, so the retained buffers are bounded by the deepest rung stack
/// (`LADDER_BUCKETS` per rung, plus the tier buffers), not by run length.
pub struct Fel<P> {
    /// Imminent events, sorted descending by key; pop from the back.
    bottom: Vec<Event<P>>,
    /// Unsorted pushes below every rung threshold, merged into `bottom`
    /// lazily — only when the next pop would otherwise return a later key.
    /// Keeps batch inserts O(1) per event; the merge sort is bounded
    /// because the split and fold-back rules keep `bottom` near
    /// `LADDER_THRES`.
    stage: Vec<Event<P>>,
    /// Minimum key in `stage`; meaningless when `stage` is empty.
    stage_min: EventKey,
    /// Rung stack: `[0]` coarsest, last = deepest (earliest remaining).
    rungs: Vec<Rung<P>>,
    /// Far-future tier: unsorted events at or beyond the re-prime horizon.
    overflow: Vec<Event<P>>,
    /// Cached minimum timestamp in `overflow` (`Time::MAX` when empty).
    overflow_min: Time,
    /// The re-prime horizon: pushes at or above it go to the overflow.
    top_start: Time,
    /// Recycled bucket buffers (capacity retained across rung churn).
    pool: Vec<Vec<Event<P>>>,
    /// Memoized minimum timestamp stored in any rung (`Time::MAX` when the
    /// rungs are empty); `None` when stale. [`Fel::next_ts`] is called
    /// once per LP per round by the kernels' window planning, and without
    /// the memo each call re-scans the deepest rung's front bucket. Pushes
    /// keep the memo exact (`min`); structural changes — promotion, rung
    /// spawn — invalidate it.
    rung_min_memo: std::cell::Cell<Option<Time>>,
    /// Total stored events.
    len: usize,
}

impl<P> Default for Fel<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Fel<P> {
    /// Creates an empty FEL.
    pub fn new() -> Self {
        Fel {
            bottom: Vec::new(),
            stage: Vec::new(),
            stage_min: EventKey {
                ts: Time::MAX,
                sender_ts: Time::MAX,
                sender_lp: crate::event::LpId(u32::MAX),
                seq: u64::MAX,
            },
            rungs: Vec::new(),
            overflow: Vec::new(),
            overflow_min: Time::MAX,
            top_start: Time::ZERO,
            pool: Vec::new(),
            rung_min_memo: std::cell::Cell::new(Some(Time::MAX)),
            len: 0,
        }
    }

    /// Inserts an event.
    ///
    /// The FEL insert is the simulator's allocation chokepoint, which makes
    /// it the natural site for the simulated-OOM fault hook: an armed
    /// [`crate::fault::FaultKind::AllocFail`] panics here as if the backing
    /// allocation had failed (compiled out without `fault-inject`).
    #[inline]
    pub fn push(&mut self, ev: Event<P>) {
        #[cfg(feature = "fault-inject")]
        crate::fault::alloc_check();
        self.insert(ev);
    }

    /// Bulk insert: a straight routing pass (every event is appended to its
    /// tier unsorted); sorting happens lazily on pop — which is what makes
    /// the receive phase's batched mailbox-to-FEL hand-off cheap.
    pub fn extend(&mut self, events: impl IntoIterator<Item = Event<P>>) {
        for ev in events {
            self.insert(ev);
        }
    }

    /// [`Fel::push`] without the fault hook, which counts pushes, not
    /// bulk-inserted events.
    #[inline]
    fn insert(&mut self, ev: Event<P>) {
        self.len += 1;
        let ts = ev.key.ts;
        if ts >= self.top_start {
            self.overflow_min = self.overflow_min.min(ts);
            self.overflow.push(ev);
            return;
        }
        // Coarsest-first walk: each deeper rung covers an earlier range
        // (invariant 2), so the first rung whose remaining range contains
        // `ts` is the right one. The stack is almost always 1-2 deep.
        for r in &mut self.rungs {
            if ts >= r.threshold() {
                let idx = r.bucket_of(ts);
                r.count += 1;
                r.buckets[idx].push(ev);
                // A push can only lower the rung minimum, so the memo
                // stays exact without a rescan.
                self.rung_min_memo
                    .set(self.rung_min_memo.get().map(|m| m.min(ts)));
                return;
            }
        }
        // Below every rung cursor: the event is imminent — stage it for a
        // lazy merge into the sorted bottom.
        if self.stage.is_empty() || ev.key < self.stage_min {
            self.stage_min = ev.key;
        }
        self.stage.push(ev);
    }

    /// Removes and returns the event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<P>> {
        loop {
            if !self.stage.is_empty()
                && (self.bottom.is_empty()
                    // INVARIANT: `bottom` is non-empty on this branch.
                    || self.stage_min < self.bottom.last().expect("bottom non-empty").key)
            {
                self.flush_stage();
            }
            if let Some(ev) = self.bottom.pop() {
                self.len -= 1;
                return Some(ev);
            }
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
    }

    /// Removes and returns the next event only if its timestamp is strictly
    /// below `bound`.
    ///
    /// This is [`Fel::pop`] restricted to events with `ts < bound` — the
    /// kernel's per-round drain loop. Deciding from tier *lower bounds*
    /// alone (bottom back, `stage_min`, the next bucket's start, the
    /// cached overflow minimum) keeps the no-more-work answer cheap: a
    /// failing call never scans bucket contents the way [`Fel::next_ts`]
    /// must, so the round-boundary probe is O(1) amortized.
    ///
    /// The stage is flushed only when a staged event is actually *due*
    /// (`stage_min.ts < bound`), not merely earlier than the bottom head:
    /// keys order by `ts` first, so a staged event at or after `bound` can
    /// never precede a poppable bottom event. Arrivals that are not yet
    /// poppable therefore accumulate unsorted across calls and are merged
    /// in one sort when the bound reaches them — under the asynchronous
    /// kernel's trickle of small cross-LP deliveries this is the
    /// difference between one `bottom` sort per grant window and one per
    /// sweep (DESIGN.md §4.8).
    pub fn pop_below(&mut self, bound: Time) -> Option<Event<P>> {
        loop {
            let stage_due = !self.stage.is_empty() && self.stage_min.ts < bound;
            if let Some(ev) = self.bottom.last() {
                if stage_due && self.stage_min < ev.key {
                    self.flush_stage();
                    continue;
                }
                if ev.key.ts >= bound {
                    return None;
                }
                // INVARIANT: `last()` above proved `bottom` non-empty.
                let ev = self.bottom.pop().expect("bottom non-empty");
                self.len -= 1;
                return Some(ev);
            }
            if stage_due {
                self.flush_stage();
                continue;
            }
            if !self.stage.is_empty() {
                // Staged events are all at/after `bound`, and every rung
                // and overflow event is at/after the deepest rung
                // threshold (`top_start` when no rung exists), which lies
                // above the staged range — nothing below `bound` exists.
                return None;
            }
            if self.len == 0 || self.settle() >= bound {
                return None;
            }
            // The next bucket starts below `bound`, so it may hold a
            // qualifying event: promote it (the cursor work `settle` just
            // did makes the nested call inside `refill` O(1)) and re-check.
            // A small re-prime inside `settle` already filled the bottom.
            if self.bottom.is_empty() {
                self.refill();
            }
        }
    }

    /// Merges the staged pushes into the sorted bottom. Appending then
    /// re-sorting keeps the allocation and lets pdqsort exploit the
    /// existing descending run; the split rule bounds `bottom`, so the
    /// sort stays small. With no rung to bound it (after a small
    /// re-prime), a near tier past `LADDER_THRES` is folded back into a
    /// rung instead, leaving `bottom` empty for the caller to refill.
    fn flush_stage(&mut self) {
        if self.rungs.is_empty() && self.bottom.len() + self.stage.len() > LADDER_THRES {
            self.fold_back();
            return;
        }
        self.bottom.append(&mut self.stage);
        self.bottom
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
    }

    /// The fold-back rule: redistributes the whole rung-less near tier
    /// into a fresh rung spanning from its minimum up to the re-prime
    /// horizon, which every near event lies below (invariant 1). The
    /// overflow is untouched and `top_start` keeps its value. A flush
    /// only happens once the staged minimum precedes the bottom head, so
    /// `stage_min` is the near tier's minimum.
    fn fold_back(&mut self) {
        debug_assert!(self.rungs.is_empty() && !self.stage.is_empty());
        debug_assert!(self.bottom.last().is_none_or(|e| self.stage_min < e.key));
        let start = self.stage_min.ts;
        let width = (self.top_start.0 - 1 - start.0) / LADDER_BUCKETS as u64 + 1;
        let mut events = self.pool.pop().unwrap_or_default();
        events.append(&mut self.bottom);
        events.append(&mut self.stage);
        self.spawn_rung(start, width, events);
    }

    /// Retires spent rungs, re-primes from the overflow when the whole
    /// rung stack is spent, and advances the deepest live rung's cursor to
    /// its first non-empty bucket. Returns that bucket's lower time bound —
    /// the earliest timestamp any tier below the (empty) near tier can
    /// still hold — or, when a small re-prime filled `bottom`, the
    /// timestamp of its head. Caller guarantees the near tier is empty and
    /// `len > 0`.
    fn settle(&mut self) -> Time {
        loop {
            // Retire spent rungs (recycling their bucket buffers).
            while self.rungs.last().is_some_and(|r| r.count == 0) {
                // INVARIANT: the `last()` check above guarantees a rung.
                let r = self.rungs.pop().expect("rung stack non-empty");
                for mut b in r.buckets {
                    b.clear();
                    self.pool.push(b);
                }
            }
            let Some(ri) = self.rungs.len().checked_sub(1) else {
                // `len > 0` with every rung spent: the events must be in
                // the overflow tier.
                self.reprime();
                if let Some(ev) = self.bottom.last() {
                    return ev.key.ts;
                }
                continue;
            };
            // INVARIANT: `count > 0` implies a non-empty bucket at or
            // after `cur` (invariant 2), so the cursor stays in bounds.
            while self.rungs[ri].buckets[self.rungs[ri].cur].is_empty() {
                self.rungs[ri].cur += 1;
            }
            return self.rungs[ri].threshold();
        }
    }

    /// Refills the empty bottom tier: promotes the next non-empty bucket
    /// of the deepest rung — splitting it into a child rung when it is too
    /// big to sort cheaply — or re-primes from the overflow when every
    /// rung is spent.
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.stage.is_empty());
        loop {
            self.settle();
            if !self.bottom.is_empty() {
                // A small re-prime sorted the overflow straight in.
                return;
            }
            let depth = self.rungs.len();
            let ri = depth - 1;
            let replacement = self.pool.pop().unwrap_or_default();
            let r = &mut self.rungs[ri];
            let bucket_start = r.threshold();
            let bucket_width = r.width;
            let mut bucket = std::mem::replace(&mut r.buckets[r.cur], replacement);
            r.count -= bucket.len();
            // The promoted bucket held the rung minimum (invariant 2).
            self.rung_min_memo.set(None);
            // Advance the cursor *before* anything re-enters this range:
            // pushes into it now fall through to the child rung or bottom.
            r.cur += 1;
            if bucket.len() > LADDER_THRES && bucket_width > 1 && depth < LADDER_MAX_RUNGS {
                self.spawn_rung(
                    bucket_start,
                    bucket_width / LADDER_BUCKETS as u64 + 1,
                    bucket,
                );
                continue;
            }
            self.bottom.append(&mut bucket);
            self.pool.push(bucket);
            self.bottom
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
            return;
        }
    }

    /// Pushes a new deepest rung covering `LADDER_BUCKETS` buckets of
    /// `width` ns from `start` and distributes `events` into them.
    /// Consumes the event buffer into the pool.
    fn spawn_rung(&mut self, start: Time, width: u64, mut events: Vec<Event<P>>) {
        let mut buckets: Vec<Vec<Event<P>>> = (0..LADDER_BUCKETS)
            .map(|_| self.pool.pop().unwrap_or_default())
            .collect();
        let count = events.len();
        for ev in events.drain(..) {
            let idx = (((ev.key.ts.0 - start.0) / width) as usize).min(LADDER_BUCKETS - 1);
            buckets[idx].push(ev);
        }
        self.pool.push(events);
        self.rung_min_memo.set(None);
        self.rungs.push(Rung {
            start,
            width,
            cur: 0,
            count,
            buckets,
        });
    }

    /// Rebases the ladder on the overflow tier: recalibrates the bucket
    /// width from the observed span, moves the re-prime horizon up, and
    /// redistributes every overflow event into a fresh rung 0. Nothing
    /// that is currently stored re-overflows, so a far outlier is
    /// rescanned at most once per re-prime horizon.
    ///
    /// Small path: at most `LADDER_THRES` events are sorted straight into
    /// the empty bottom (the two buffers swap roles) with the horizon at
    /// their maximum + 1 — unless that maximum is `Time::MAX`, whose
    /// horizon would not fit.
    fn reprime(&mut self) {
        debug_assert!(self.rungs.is_empty() && self.bottom.is_empty() && self.stage.is_empty());
        debug_assert!(!self.overflow.is_empty());
        let mut omin = Time::MAX;
        let mut omax = Time::ZERO;
        for ev in &self.overflow {
            omin = omin.min(ev.key.ts);
            omax = omax.max(ev.key.ts);
        }
        self.overflow_min = Time::MAX;
        if self.overflow.len() <= LADDER_THRES && omax < Time::MAX {
            self.top_start = Time(omax.0 + 1);
            std::mem::swap(&mut self.bottom, &mut self.overflow);
            self.bottom
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
            return;
        }
        let width = ((omax.0 - omin.0) / LADDER_BUCKETS as u64) + 1;
        self.top_start = Time(
            omin.0
                .saturating_add(width.saturating_mul(LADDER_BUCKETS as u64)),
        );
        // The overflow keeps a pooled buffer, so the one handed to the rung
        // (and from there to the pool) is a swap, not a net addition.
        let events = std::mem::replace(&mut self.overflow, self.pool.pop().unwrap_or_default());
        self.spawn_rung(omin, width, events);
    }

    /// Key of the next event, if any: the minimum over all tiers, found
    /// without mutating the structure.
    pub fn peek_key(&self) -> Option<EventKey> {
        // Invariant 1: the near tier (`bottom` ∪ `stage`) precedes every
        // rung and overflow event in time.
        let near = match (self.bottom.last(), self.stage.is_empty()) {
            (Some(ev), false) => Some(ev.key.min(self.stage_min)),
            (Some(ev), true) => Some(ev.key),
            (None, false) => Some(self.stage_min),
            (None, true) => None,
        };
        if near.is_some() {
            return near;
        }
        for r in self.rungs.iter().rev() {
            if r.count > 0 {
                // Invariant 2: the first non-empty bucket of the deepest
                // non-empty rung holds the global minimum.
                for b in &r.buckets[r.cur..] {
                    if !b.is_empty() {
                        return b.iter().map(|e| e.key).min();
                    }
                }
            }
        }
        self.overflow.iter().map(|e| e.key).min()
    }

    /// Timestamp of the next event, or [`Time::MAX`] when empty. Cheaper
    /// than [`Fel::peek_key`]: the cached `overflow_min` avoids the overflow
    /// scan, and bucket scans only need the minimum `ts`, not the full key.
    pub fn next_ts(&self) -> Time {
        if let Some(ev) = self.bottom.last() {
            let near = ev.key.ts;
            return if self.stage.is_empty() {
                near
            } else {
                near.min(self.stage_min.ts)
            };
        }
        if !self.stage.is_empty() {
            return self.stage_min.ts;
        }
        let rung_min = self.rung_min_memo.get().unwrap_or_else(|| {
            let mut m = Time::MAX;
            'scan: for r in self.rungs.iter().rev() {
                if r.count > 0 {
                    for b in &r.buckets[r.cur..] {
                        if !b.is_empty() {
                            // Invariant 2: the first non-empty bucket of the
                            // deepest non-empty rung holds the rung minimum.
                            // INVARIANT: non-empty bucket — `min` yields a
                            // value.
                            m = b.iter().map(|e| e.key.ts).min().expect("non-empty bucket");
                            break 'scan;
                        }
                    }
                }
            }
            self.rung_min_memo.set(Some(m));
            m
        });
        rung_min.min(self.overflow_min)
    }

    /// Number of stored events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the FEL holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored events with timestamp strictly below `bound`.
    ///
    /// Used by the `ByPendingEvents` scheduling metric; linear in the FEL
    /// size.
    pub fn count_below(&self, bound: Time) -> usize {
        self.iter().filter(|e| e.key.ts < bound).count()
    }

    /// Iterates over all stored events in *unspecified* (tier) order.
    ///
    /// Checkpointing sorts the yielded events by key before writing them, so
    /// the on-disk image is independent of the storage layout (DESIGN.md
    /// §4.4: canonical snapshot order).
    pub fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.bottom
            .iter()
            .chain(self.stage.iter())
            .chain(self.rungs.iter().flat_map(|r| r.buckets.iter().flatten()))
            .chain(self.overflow.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LpId, NodeId};

    fn ev(ts: u64, lp: u32, seq: u64) -> Event<u64> {
        Event {
            key: EventKey {
                ts: Time(ts),
                sender_ts: Time(ts.saturating_sub(1)),
                sender_lp: LpId(lp),
                seq,
            },
            node: NodeId(0),
            payload: ts.wrapping_mul(1000).wrapping_add(seq),
        }
    }

    #[test]
    fn pops_in_key_order() {
        let mut fel: Fel<u64> = Fel::new();
        fel.push(ev(5, 0, 0));
        fel.push(ev(1, 0, 1));
        fel.push(ev(3, 0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| fel.pop().map(|e| e.ts().0)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn simultaneous_events_use_tie_break() {
        let mut fel: Fel<u64> = Fel::new();
        fel.push(ev(7, 2, 9));
        fel.push(ev(7, 1, 3));
        fel.push(ev(7, 1, 2));
        assert_eq!(fel.pop().unwrap().key.seq, 2);
        // A tie pushed after the first pop still orders by key; it lands
        // on the last timestamp below the horizon of the small re-prime
        // that pop performed.
        fel.push(ev(7, 0, 5));
        assert_eq!(fel.pop().unwrap().key.sender_lp, LpId(0));
        assert_eq!(fel.pop().unwrap().key.seq, 3);
        assert_eq!(fel.pop().unwrap().key.sender_lp, LpId(2));
    }

    #[test]
    fn next_ts_of_empty_is_max() {
        let fel: Fel<u64> = Fel::new();
        assert_eq!(fel.next_ts(), Time::MAX);
        assert_eq!(fel.peek_key(), None);
    }

    #[test]
    fn pop_below_respects_bound() {
        let mut fel: Fel<u64> = Fel::new();
        fel.push(ev(10, 0, 0));
        assert!(fel.pop_below(Time(10)).is_none());
        assert!(fel.pop_below(Time(11)).is_some());
    }

    #[test]
    fn count_below() {
        let mut fel: Fel<u64> = Fel::new();
        for t in [1u64, 5, 9, 13] {
            fel.push(ev(t, 0, t));
        }
        assert_eq!(fel.count_below(Time(9)), 2);
        assert_eq!(fel.count_below(Time(100)), 4);
        assert_eq!(fel.count_below(Time(0)), 0);
    }

    #[test]
    fn extend_matches_push() {
        let mut fel: Fel<u64> = Fel::new();
        fel.extend((0..50u64).rev().map(|t| ev(t, 0, t)));
        fel.extend((50..100u64).map(|t| ev(t, 0, t)));
        assert_eq!(fel.len(), 100);
        let order: Vec<u64> = std::iter::from_fn(|| fel.pop().map(|e| e.ts().0)).collect();
        assert_eq!(order, (0..100u64).collect::<Vec<_>>());
    }

    /// Windowed drain interleaved with pushes — the kernels' actual access
    /// pattern: exercises stage flushes, bucket advances and re-primes.
    #[test]
    fn windowed_drain_interleaved_with_pushes() {
        let mut rng = crate::rng::Rng::new(42);
        let mut fel: Fel<u64> = Fel::new();
        let mut expected: Vec<EventKey> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..20 {
            for _ in 0..50 {
                let ts = rng.next_below(100_000);
                let e = ev(ts, (seq % 5) as u32, seq);
                expected.push(e.key);
                fel.push(e);
                seq += 1;
            }
            let bound = Time(rng.next_below(120_000));
            while let Some(e) = fel.pop_below(bound) {
                assert!(e.key.ts < bound);
            }
        }
        // Drain the rest; total pop order must be the sorted key order.
        let mut popped: Vec<EventKey> = Vec::new();
        // Replay: collect everything popped so far by re-running is
        // complex; instead verify the remaining pops are sorted and the
        // total count matches.
        while let Some(e) = fel.pop() {
            popped.push(e.key);
        }
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert!(fel.is_empty());
        assert_eq!(fel.next_ts(), Time::MAX);
    }

    /// The ladder's far-future tier: events clustered now plus a lone
    /// far-out event (the classic stop-event shape) must still pop in
    /// order across multiple re-primes.
    #[test]
    fn ladder_far_outlier_pops_in_order() {
        let mut fel: Fel<u64> = Fel::new();
        fel.push(ev(u64::MAX / 2, 0, 999));
        for t in 0..100u64 {
            fel.push(ev(t, 0, t));
        }
        for t in 0..100u64 {
            assert_eq!(fel.pop().unwrap().key.ts, Time(t));
        }
        // Second cluster after the first is fully drained.
        for t in 1_000_000..1_000_050u64 {
            fel.push(ev(t, 0, t));
        }
        for t in 1_000_000..1_000_050u64 {
            assert_eq!(fel.pop().unwrap().key.ts, Time(t));
        }
        assert_eq!(fel.pop().unwrap().key.ts, Time(u64::MAX / 2));
        assert!(fel.pop().is_none());
    }

    /// Retained bucket buffers are bounded by the rung stack, not by run
    /// length: thousands of push/drain cycles, each forcing a re-prime
    /// (small or rung-building, by batch size), must not grow the pool.
    #[test]
    fn ladder_pool_is_bounded_across_reprimes() {
        let mut rng = crate::rng::Rng::new(11);
        let mut l: Fel<u64> = Fel::new();
        let mut seq = 0u64;
        for cycle in 0..10_000u64 {
            // Every batch lies past the previous horizon, so it lands in
            // the overflow and the drain must re-prime.
            let base = cycle * 10_000;
            for _ in 0..1 + rng.next_below(2 * LADDER_THRES as u64) {
                l.push(ev(base + rng.next_below(5_000), 0, seq));
                seq += 1;
            }
            while l.pop().is_some() {}
            assert!(
                l.pool.len() <= LADDER_BUCKETS * LADDER_MAX_RUNGS + 4,
                "pool grew to {} buffers after {} cycles",
                l.pool.len(),
                cycle + 1
            );
        }
    }

    #[test]
    fn iter_yields_every_event_once() {
        let mut fel: Fel<u64> = Fel::new();
        for t in 0..200u64 {
            fel.push(ev(t * 997 % 50_000, 0, t));
        }
        // Pop a few to move the ladder cursor, then check iter coverage.
        for _ in 0..20 {
            fel.pop();
        }
        let mut seqs: Vec<u64> = fel.iter().map(|e| e.key.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs.len(), 180);
        seqs.dedup();
        assert_eq!(seqs.len(), 180, "iter must not duplicate events");
    }
}
