//! The farm's virtual-time priority queue: a flat, index-addressed binary
//! min-heap specialized to [`Event`](crate::farm::Event).
//!
//! The previous implementation wrapped `std::collections::BinaryHeap` with a
//! reversed `Ord` on `Event`. That works, but every comparison pays the
//! reversal shim and the generic heap cannot preallocate around the farm's
//! known event population (≈ one dispatch + one lease expiry per outstanding
//! chunk). This queue compares `(time, rank)` directly in ascending order
//! and keeps its storage as one flat `Vec` the engine sizes up front.
//!
//! Ordering contract: `Event`'s comparator is *total on content* — the
//! tie-break rank includes the lease id / workstation index — so any
//! conforming min-heap pops the identical sequence for the same multiset of
//! pushed events. Events comparing equal are bit-identical copies of each
//! other, which makes pop order indistinguishable even among "ties". The
//! `queue_pops_like_reference_binary_heap` proptest in `farm.rs` holds this
//! queue to the old `BinaryHeap` ordering, NaN times and rank ties included.

use crate::farm::Event;
use std::cmp::Ordering;

/// Ascending `(time, rank)` — the pop order of the old reversed-`Ord`
/// `BinaryHeap`. `total_cmp` keeps NaN times ordered after every finite
/// time instead of comparing `Equal` to everything.
#[inline]
pub(crate) fn cmp_events(a: &Event, b: &Event) -> Ordering {
    a.time
        .total_cmp(&b.time)
        .then_with(|| a.kind.rank().cmp(&b.kind.rank()))
}

/// Flat binary min-heap of farm events.
pub(crate) struct EventQueue {
    heap: Vec<Event>,
}

impl EventQueue {
    /// An empty queue with room for `cap` events before reallocating.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self {
            heap: Vec::with_capacity(cap),
        }
    }

    /// Number of pending events (used by the ordering tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Unordered view of the pending events (the snapshot encoder sorts).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.heap.iter()
    }

    pub(crate) fn push(&mut self, event: Event) {
        self.heap.push(event);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the minimum-`(time, rank)` event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let min = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp_events(&self.heap[i], &self.heap[parent]) == Ordering::Less {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < n && cmp_events(&self.heap[right], &self.heap[left]) == Ordering::Less {
                child = right;
            }
            if cmp_events(&self.heap[child], &self.heap[i]) == Ordering::Less {
                self.heap.swap(child, i);
                i = child;
            } else {
                break;
            }
        }
    }
}

impl FromIterator<Event> for EventQueue {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        let mut q = EventQueue { heap: Vec::new() };
        for e in iter {
            q.push(e);
        }
        q
    }
}
