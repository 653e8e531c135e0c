//! Calendar event queue of the cost engine.
//!
//! [`EventQueue`] is a drop-in replacement for the
//! `BinaryHeap<Reverse<u128>>` the cost engine's event loop used to run
//! on, keyed by the same packed `(time << 64) | discriminant` event keys
//! (see `cost::pack`). It exploits what a generic heap cannot: scheduler
//! time advances (near-)monotonically, most pushes are already the
//! minimum (a header's next hop), and the rest cluster in a narrow
//! window ahead of the present.
//!
//! * **Hot slot.** One key that is ≤ every other queued key, popped
//!   first. A push takes the empty slot when an O(1) test proves it is
//!   the minimum: the current cycle is drained (no `front` spill
//!   either), and the key is earlier than the earliest occupied ring
//!   cycle and below the overflow minimum. An empty queue passes the
//!   test. A smaller key displaces the slot's key into the calendar. On
//!   sparse traffic most events never touch the calendar; on dense
//!   traffic the current cycle is rarely drained, so the test costs one
//!   comparison. (Also accepting keys below the current cycle's next
//!   key measured slower on both kinds of traffic.)
//! * **Calendar.** A ring of `WINDOW` per-cycle buckets holding only
//!   the **low 64 bits** of their keys (the time is the bucket's). A
//!   1024-bit occupancy bitmap and a cached earliest occupied cycle
//!   find the next bucket in O(1). The current cycle is sorted once on
//!   adoption (pushes arrive in near-ascending pop order, hitting the
//!   sort's presorted fast path) and drains by a bare cursor, with a
//!   tiny side heap absorbing same-cycle pushes that arrive mid-drain.
//! * **Overflow.** Events beyond the ring horizon go to a real `u128`
//!   heap and stay there until their cycle is the present: the next
//!   cycle is the earlier of the next ring cycle and the overflow
//!   minimum, and only the keys at that cycle are adopted. When the
//!   overflow minimum comes first it pops straight from the heap, and
//!   the present moves up to it.
//!
//! The contract, pinned by a property test against the binary heap and
//! by the repository's bit-exactness suites, is that the pop sequence is
//! **identical** to the binary heap's: keys are drawn in ascending
//! `u128` order no matter how pushes interleave, including same-cycle
//! pushes while that cycle drains and (defensively) pushes behind the
//! current cycle, which land in a small sorted `front` spill and still
//! pop in exact order. Since the engine's keys form a total order (a
//! packet has at most one pending event), any correct min-queue yields
//! the same simulation; this one is merely faster.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ring capacity in cycles. Push deltas in the engine are bounded by
/// `n_flits·tl + tr` and successor `comp_cycles`; anything farther
/// ahead waits in the `u128` overflow heap.
const WINDOW: u64 = 1024;
const MASK: u64 = WINDOW - 1;
/// Words of the ring's occupancy bitmap.
const WORDS: usize = (WINDOW / 64) as usize;

#[inline]
fn time_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// A growable binary min-heap over `u64` intra-cycle key halves, with
/// hole-based sifting.
#[derive(Debug, Clone, Default)]
struct MinHeap64(Vec<u64>);

impl MinHeap64 {
    #[inline]
    fn peek(&self) -> Option<u64> {
        self.0.first().copied()
    }

    #[inline]
    fn push(&mut self, x: u64) {
        let v = &mut self.0;
        v.push(x);
        let mut i = v.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            // noc-verify: allow(PANIC01) — p < i < len by the heap index arithmetic
            let pv = v[p];
            if pv <= x {
                break;
            }
            // noc-verify: allow(PANIC01) — i and p are in-bounds heap positions
            v[i] = pv;
            i = p;
        }
        // noc-verify: allow(PANIC01) — i is an in-bounds heap position
        v[i] = x;
    }

    #[inline]
    fn pop(&mut self) -> Option<u64> {
        let v = &mut self.0;
        let min = v.first().copied()?;
        // noc-verify: allow(PANIC01) — the heap is non-empty here
        let last = v[v.len() - 1];
        v.truncate(v.len() - 1);
        let len = v.len();
        if len > 0 {
            let mut i = 0usize;
            loop {
                let l = 2 * i + 1;
                if l >= len {
                    break;
                }
                let r = l + 1;
                // noc-verify: allow(PANIC01) — l (and r when taken) checked against len above
                let c = if r < len && v[r] < v[l] { r } else { l };
                // noc-verify: allow(PANIC01) — c < len by construction
                let cv = v[c];
                if cv >= last {
                    break;
                }
                // noc-verify: allow(PANIC01) — i < len: it held a value this iteration
                v[i] = cv;
                i = c;
            }
            // noc-verify: allow(PANIC01) — i < len: the hole the loop maintained
            v[i] = last;
        }
        Some(min)
    }
}

/// See the module docs. `Default`/`clear` leave the ring unallocated;
/// the first push into it materializes it, and buffers are retained
/// across runs so a warmed queue allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue {
    len: usize,
    /// The hot slot: when set, ≤ every key in the calendar.
    hot: Option<u128>,
    /// Cycle the drain belongs to. Ring events lie in
    /// `(cur, cur + WINDOW]`, overflow events after `cur`, `front`
    /// events before it.
    cur: u64,
    /// Low key halves at time `cur`, sorted ascending once on adoption
    /// and consumed through `drain_pos` as plain array reads.
    drain: Vec<u64>,
    drain_pos: usize,
    /// Same-cycle pushes that arrive *while* `cur` drains. In the
    /// engine's traffic these are the immediately-next events (a packet
    /// re-queueing at the present), so this heap stays tiny.
    side: MinHeap64,
    /// Defensive spill: full keys before `cur`, sorted descending so the
    /// global minimum pops from the back. In the engine's (monotone)
    /// traffic this stays empty.
    front: Vec<u128>,
    /// `WINDOW` per-cycle buckets of low key halves; slot `t & MASK`
    /// holds time `t`.
    ring: Vec<Vec<u64>>,
    /// Total events parked in the ring.
    ring_items: usize,
    /// Bit `t & MASK` is set iff the ring holds events at time `t`.
    occupied: [u64; WORDS],
    /// Earliest occupied ring cycle; `u64::MAX` when the ring is empty.
    ring_min: u64,
    /// Events beyond the ring horizon (full keys).
    overflow: BinaryHeap<Reverse<u128>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            len: 0,
            hot: None,
            cur: 0,
            drain: Vec::new(),
            drain_pos: 0,
            side: MinHeap64::default(),
            front: Vec::new(),
            ring: Vec::new(),
            ring_items: 0,
            occupied: [0; WORDS],
            ring_min: u64::MAX,
            overflow: BinaryHeap::new(),
        }
    }
}

impl EventQueue {
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.hot = None;
        self.cur = 0;
        self.drain.clear();
        self.drain_pos = 0;
        self.side.0.clear();
        self.front.clear();
        if self.ring_items > 0 {
            for slot in &mut self.ring {
                slot.clear();
            }
            self.ring_items = 0;
            self.occupied = [0; WORDS];
            self.ring_min = u64::MAX;
        }
        self.overflow.clear();
    }

    #[inline]
    pub(crate) fn push(&mut self, key: u128) {
        match self.hot {
            Some(hot) if key < hot => {
                self.file(hot);
                self.hot = Some(key);
            }
            Some(_) => self.file(key),
            None if self.is_calendar_min(key) => self.hot = Some(key),
            None => self.file(key),
        }
        self.len += 1;
    }

    /// O(1) test that `key` is below every calendar key: the current
    /// cycle is drained, `key` is earlier than the earliest occupied
    /// ring cycle and below the overflow minimum. Under dense traffic
    /// the first comparison fails, so the test costs one branch.
    #[inline]
    fn is_calendar_min(&self, key: u128) -> bool {
        self.drain_pos == self.drain.len()
            && self.side.0.is_empty()
            && self.front.is_empty()
            && time_of(key) < self.ring_min
            && self.overflow.peek().is_none_or(|r| key < r.0)
    }

    /// Files `key` into the calendar: ring, overflow, side heap or spill.
    #[inline]
    fn file(&mut self, key: u128) {
        let t = time_of(key);
        if t > self.cur {
            if t - self.cur <= WINDOW {
                if self.ring.is_empty() {
                    self.ring.resize_with(WINDOW as usize, Vec::new);
                }
                let i = (t & MASK) as usize;
                // noc-verify: allow(PANIC01) — slot index is masked to the ring length
                self.ring[i].push(key as u64);
                self.ring_items += 1;
                if let Some(word) = self.occupied.get_mut(i / 64) {
                    *word |= 1 << (i % 64);
                }
                self.ring_min = self.ring_min.min(t);
            } else {
                self.overflow.push(Reverse(key));
            }
        } else if t == self.cur {
            self.side.push(key as u64);
        } else {
            // Behind the present: keep `front` sorted descending so the
            // back is always the global minimum.
            let pos = self.front.partition_point(|&k| k > key);
            self.front.insert(pos, key);
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u128> {
        if let Some(key) = self.hot.take() {
            self.len -= 1;
            return Some(key);
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if let Some(&spill) = self.front.last() {
            // The spill is only beaten by a smaller same-cycle key.
            match self.bucket_peek_low() {
                Some(low) if self.key_at_cur(low) < spill => {
                    self.bucket_pop_low();
                    return Some(self.key_at_cur(low));
                }
                _ => {
                    self.front.pop();
                    return Some(spill);
                }
            }
        }
        if let Some(low) = self.bucket_pop_low() {
            return Some(self.key_at_cur(low));
        }
        // The bucket is drained, so an overflow minimum before every ring
        // cycle is the minimum. Unless more overflow keys share its
        // cycle, the present moves up to it, so that later keys within
        // `WINDOW` of it land in the ring.
        if let Some(&Reverse(key)) = self.overflow.peek() {
            let t = time_of(key);
            if t < self.ring_min {
                self.overflow.pop();
                if self.overflow.peek().is_none_or(|r| time_of(r.0) > t) {
                    self.cur = t;
                }
                return Some(key);
            }
        }
        self.advance();
        let low = self.bucket_pop_low()?;
        Some(self.key_at_cur(low))
    }

    #[inline]
    fn key_at_cur(&self, low: u64) -> u128 {
        ((self.cur as u128) << 64) | low as u128
    }

    #[inline]
    fn bucket_peek_low(&self) -> Option<u64> {
        let d = self.drain.get(self.drain_pos).copied();
        match (d, self.side.peek()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    #[inline]
    fn bucket_pop_low(&mut self) -> Option<u64> {
        match (self.drain.get(self.drain_pos).copied(), self.side.peek()) {
            (Some(a), Some(b)) if b < a => self.side.pop(),
            (Some(a), _) => {
                self.drain_pos += 1;
                Some(a)
            }
            (None, Some(_)) => self.side.pop(),
            (None, None) => None,
        }
    }

    /// Moves the present to the earlier of the next ring cycle and the
    /// overflow minimum and adopts the events at that cycle into the
    /// drain. Called only when `front` and the bucket are drained but
    /// the calendar holds events.
    fn advance(&mut self) {
        debug_assert!(self.ring_items > 0 || !self.overflow.is_empty());
        let ring_next = (self.ring_items > 0).then_some(self.ring_min);
        let over_next = self.overflow.peek().map(|r| time_of(r.0));
        let t = match (ring_next, over_next) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return,
        };
        self.cur = t;
        debug_assert!(self.side.peek().is_none());
        self.drain.clear();
        self.drain_pos = 0;
        if ring_next == Some(t) {
            let i = (t & MASK) as usize;
            // noc-verify: allow(PANIC01) — slot index is masked to the ring length
            let slot = &mut self.ring[i];
            self.ring_items -= slot.len();
            // The spent drain buffer (just cleared) becomes the slot's
            // new empty buffer; capacities recycle across cycles.
            std::mem::swap(&mut self.drain, slot);
            if let Some(word) = self.occupied.get_mut(i / 64) {
                *word &= !(1 << (i % 64));
            }
            self.ring_min = self.next_occupied();
        }
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if time_of(key) != t {
                break;
            }
            self.drain.push(key as u64);
            self.overflow.pop();
        }
        // Pushes arrive in (near-)ascending pop order, so this is the
        // sort's precomputed-pattern fast path most cycles.
        self.drain.sort_unstable();
    }

    /// Earliest occupied ring cycle after `cur` (`u64::MAX` when the
    /// ring is empty), from the occupancy bitmap: at most `WORDS + 1`
    /// word reads, starting at the slot of `cur + 1` and wrapping.
    fn next_occupied(&self) -> u64 {
        if self.ring_items == 0 {
            return u64::MAX;
        }
        let start = ((self.cur + 1) & MASK) as usize;
        let (first, bit) = (start / 64, start % 64);
        for i in 0..=WORDS {
            let w = (first + i) % WORDS;
            let mut bits = self.occupied.get(w).copied().unwrap_or(0);
            if i == 0 {
                bits &= !0 << bit;
            } else if i == WORDS {
                bits &= (1 << bit) - 1;
            }
            if bits != 0 {
                let pos = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                return self.cur + 1 + (pos.wrapping_sub(start as u64) & MASK);
            }
        }
        debug_assert!(false, "ring_items > 0 but the bitmap is empty");
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: plain binary heap.
    fn drain_both(mut ops: Vec<(bool, u128)>) {
        let mut q = EventQueue::default();
        let mut h: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
        for (is_pop, key) in ops.drain(..) {
            if is_pop {
                assert_eq!(q.pop(), h.pop().map(|r| r.0));
                assert_eq!(q.len(), h.len());
            } else {
                q.push(key);
                h.push(Reverse(key));
            }
        }
        while let Some(k) = q.pop() {
            assert_eq!(Some(k), h.pop().map(|r| r.0));
        }
        assert!(h.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    fn key(t: u64, low: u64) -> u128 {
        ((t as u128) << 64) | low as u128
    }

    #[test]
    fn matches_binary_heap_on_monotone_traffic() {
        // Simulates the engine's pattern: bursts at a cycle, pops that
        // push to same or future cycles.
        let mut ops = Vec::new();
        for p in 0..200u64 {
            ops.push((false, key(8, p << 34)));
        }
        for step in 0..1200u64 {
            ops.push((true, 0));
            let t = 8 + step / 2;
            ops.push((false, key(t + (step % 37), (step % 97) << 20 | step)));
        }
        for _ in 0..400 {
            ops.push((true, 0));
        }
        drain_both(ops);
    }

    #[test]
    fn matches_binary_heap_beyond_window_and_behind_present() {
        let mut ops = Vec::new();
        // Far-future keys (overflow), then near keys, then pops that
        // reach the overflow; includes pushes behind the present.
        for p in 0..32u64 {
            ops.push((false, key(10_000 + p * 700, p)));
        }
        for p in 0..32u64 {
            ops.push((false, key(5 + p, p << 34)));
        }
        for _ in 0..20 {
            ops.push((true, 0));
        }
        // Behind the present by now.
        ops.push((false, key(3, 7)));
        ops.push((false, key(0, 1)));
        for _ in 0..50 {
            ops.push((true, 0));
        }
        drain_both(ops);
    }

    #[test]
    fn same_cycle_pushes_while_draining_pop_in_order() {
        let mut q = EventQueue::default();
        for low in [50u64, 10, 30] {
            q.push(key(4, low));
        }
        assert_eq!(q.pop(), Some(key(4, 10)));
        // Same-cycle insert below and above the drained point.
        q.push(key(4, 5));
        q.push(key(4, 40));
        assert_eq!(q.pop(), Some(key(4, 5)));
        assert_eq!(q.pop(), Some(key(4, 30)));
        assert_eq!(q.pop(), Some(key(4, 40)));
        assert_eq!(q.pop(), Some(key(4, 50)));
        assert_eq!(q.pop(), None);
    }

    /// Cases for the property test; override with `NOC_FUZZ_CASES` (the
    /// scheduled CI fuzz job runs 2000).
    fn fuzz_cases() -> u64 {
        std::env::var("NOC_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Random push/pop/clear sequences shaped like the engine's traffic,
    /// checked step by step against a binary heap: bursts at one cycle,
    /// +1..+3 hop chains, keys beyond `WINDOW` (and at its edge),
    /// same-cycle pushes while the cycle drains, pushes behind the
    /// present, and `clear` mid-run.
    #[test]
    fn matches_binary_heap_on_random_engine_shaped_traffic() {
        for case in 0..fuzz_cases() {
            let mut rng = case.wrapping_mul(0x9E37_79B9) ^ 0x51ED;
            let mut q = EventQueue::default();
            let mut h: BinaryHeap<Reverse<u128>> = BinaryHeap::new();
            // Time of the last popped key.
            let mut now = 0u64;
            let steps = 100 + splitmix(&mut rng) % 900;
            for step in 0..steps {
                let r = splitmix(&mut rng);
                let low = splitmix(&mut rng) % (1 << 40);
                let mut keys = Vec::new();
                match r % 20 {
                    0..=7 => {
                        let got = q.pop();
                        assert_eq!(got, h.pop().map(|r| r.0), "case {case} step {step}");
                        if let Some(k) = got {
                            now = (k >> 64) as u64;
                        }
                        assert_eq!(q.len(), h.len(), "case {case} step {step}");
                    }
                    8..=9 => {
                        let t = now + (r >> 8) % 4;
                        for i in 0..1 + (r >> 16) % 12 {
                            keys.push(key(t, low ^ (i << 34)));
                        }
                    }
                    10..=12 => keys.push(key(now + 1 + (r >> 8) % 3, low)),
                    13 => keys.push(key(now + WINDOW + (r >> 8) % 5000, low)),
                    14 => keys.push(key(now + WINDOW - 1 + (r >> 8) % 3, low)),
                    15..=16 => keys.push(key(now, low)),
                    17 => keys.push(key(now.saturating_sub((r >> 8) % 40), low)),
                    18 => keys.push(key(now + (r >> 8) % (4 * WINDOW), low)),
                    _ => {
                        if (r >> 8).is_multiple_of(8) {
                            q.clear();
                            h.clear();
                            now = 0;
                        }
                    }
                }
                for k in keys {
                    q.push(k);
                    h.push(Reverse(k));
                }
            }
            while let Some(k) = q.pop() {
                assert_eq!(Some(k), h.pop().map(|r| r.0), "case {case} final drain");
            }
            assert!(h.pop().is_none(), "case {case}");
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn clear_resets_a_warmed_queue() {
        let mut q = EventQueue::default();
        for p in 0..64u64 {
            q.push(key(p * 50, p));
        }
        for _ in 0..10 {
            q.pop();
        }
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        q.push(key(2, 9));
        assert_eq!(q.pop(), Some(key(2, 9)));
    }
}
