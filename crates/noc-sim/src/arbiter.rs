//! Round-robin arbitration.
//!
//! Virtual-channel allocation and switch allocation both resolve
//! multi-requester conflicts with rotating-priority (round-robin)
//! arbiters, the structure used by the canonical 4-stage VC router.
//! Requests arrive as a `u64` bitmask (bit `i` = requester `i`), the
//! same masks the router keeps its pipeline state in.

use serde::{Deserialize, Serialize};

/// Largest requester count a mask arbiter supports (one `u64` bit each).
pub const MAX_REQUESTERS: usize = 64;

/// A rotating-priority arbiter over `n ≤ 64` requesters.
///
/// Fairness property: a requester that keeps requesting is granted within
/// `n` invocations regardless of competing requesters.
///
/// # Example
///
/// ```
/// use noc_sim::arbiter::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(4);
/// assert_eq!(arb.grant_mask(0b0011), Some(0));
/// // Priority rotates past the last winner.
/// assert_eq!(arb.grant_mask(0b0011), Some(1));
/// assert_eq!(arb.grant_mask(0b0011), Some(0));
/// assert_eq!(arb.grant_mask(0), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index with the highest priority on the next grant.
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_REQUESTERS`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        assert!(
            n <= MAX_REQUESTERS,
            "arbiter over {n} requesters exceeds the {MAX_REQUESTERS}-bit request mask"
        );
        Self { n, next: 0 }
    }

    /// Number of requester slots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`; arbiters have at least one slot.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grants one of the requests set in `mask`, rotating priority past
    /// the winner. Returns `None` when `mask == 0`.
    ///
    /// The winner is the lowest set bit at or above the priority pointer,
    /// wrapping to the lowest set bit overall — exactly the first hit of
    /// a scan `next, next + 1, …, n − 1, 0, …, next − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has a bit set at or above `self.len()`.
    #[inline]
    pub fn grant_mask(&mut self, mask: u64) -> Option<usize> {
        assert!(
            mask.checked_shr(self.n as u32).unwrap_or(0) == 0,
            "request mask {mask:#x} exceeds {} requesters",
            self.n
        );
        if mask == 0 {
            return None;
        }
        let upper = mask & (u64::MAX << self.next);
        let idx = if upper != 0 { upper } else { mask }.trailing_zeros() as usize;
        self.next = if idx + 1 == self.n { 0 } else { idx + 1 };
        Some(idx)
    }

    /// Resets the priority pointer (used when re-seeding experiments).
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_requester_always_wins() {
        let mut arb = RoundRobinArbiter::new(3);
        for _ in 0..10 {
            assert_eq!(arb.grant_mask(0b010), Some(1));
        }
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant_mask(0), None);
    }

    #[test]
    fn grants_rotate_fairly() {
        let mut arb = RoundRobinArbiter::new(3);
        let seq: Vec<_> = (0..6).map(|_| arb.grant_mask(0b111).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn starvation_freedom_within_n_rounds() {
        let mut arb = RoundRobinArbiter::new(4);
        // Requester 3 keeps requesting while everyone else also requests.
        let mut granted = false;
        for _ in 0..4 {
            if arb.grant_mask(0b1111) == Some(3) {
                granted = true;
            }
        }
        assert!(granted, "requester 3 starved");
    }

    #[test]
    fn full_width_arbiter_wraps() {
        let mut arb = RoundRobinArbiter::new(64);
        assert_eq!(arb.grant_mask(1 << 63), Some(63));
        assert_eq!(
            arb.grant_mask((1 << 63) | 1),
            Some(0),
            "pointer wrapped to 0"
        );
        assert_eq!(arb.grant_mask(u64::MAX), Some(1));
    }

    #[test]
    fn reset_restores_initial_priority() {
        let mut arb = RoundRobinArbiter::new(2);
        arb.grant_mask(0b11);
        arb.reset();
        assert_eq!(arb.grant_mask(0b11), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_size_panics() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "64-bit request mask")]
    fn oversize_arbiter_panics() {
        let _ = RoundRobinArbiter::new(65);
    }

    #[test]
    #[should_panic(expected = "exceeds 2 requesters")]
    fn out_of_range_request_panics() {
        let mut arb = RoundRobinArbiter::new(2);
        let _ = arb.grant_mask(0b100);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The grant, when present, is always an asserted request.
        #[test]
        fn grant_is_a_requester(n in 1usize..65, raw in any::<u64>()) {
            let mask = if n == 64 { raw } else { raw & ((1 << n) - 1) };
            let mut arb = RoundRobinArbiter::new(n);
            match arb.grant_mask(mask) {
                Some(idx) => prop_assert!(mask & (1 << idx) != 0),
                None => prop_assert_eq!(mask, 0),
            }
        }

        /// Over n consecutive all-request rounds every index is granted
        /// exactly once (perfect fairness).
        #[test]
        fn all_requesters_served_in_n_rounds(n in 1usize..12) {
            let mut arb = RoundRobinArbiter::new(n);
            let all = (1u64 << n) - 1;
            let mut seen = vec![false; n];
            for _ in 0..n {
                let g = arb.grant_mask(all).expect("requests asserted");
                prop_assert!(!seen[g], "index granted twice in one rotation");
                seen[g] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
