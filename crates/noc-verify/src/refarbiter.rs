//! Reference round-robin arbiter: the slice-scan form of rotating
//! priority, for differential testing against the production
//! `noc_sim::arbiter::RoundRobinArbiter`.
//!
//! The production arbiter takes its requests as a `u64` bitmask and
//! picks the winner with a masked `trailing_zeros`. This one keeps the
//! original loop: it probes `next, next + 1, …` modulo `n` over a
//! `&[bool]` request vector and takes the first asserted slot.
//! [`RefRouter`](crate::refrouter::RefRouter) and
//! [`RefNetwork`](crate::refnet::RefNetwork) arbitrate with it, so the
//! differential oracle cross-checks every VA and SA grant of the
//! production kernel, and the arbiter-equivalence tests diff the two
//! exhaustively.

/// A rotating-priority arbiter over `n` requesters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefArbiter {
    n: usize,
    /// Index with the highest priority on the next grant.
    next: usize,
}

impl RefArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        Self { n, next: 0 }
    }

    /// Grants one of the asserted requests, rotating priority past the
    /// winner. Returns `None` when no request is asserted.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len()` is not the requester count.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        for offset in 0..self.n {
            let idx = (self.next + offset) % self.n;
            if requests[idx] {
                self.next = (idx + 1) % self.n;
                return Some(idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_rotate_fairly() {
        let mut arb = RefArbiter::new(3);
        let all = [true, true, true];
        let seq: Vec<_> = (0..6).map(|_| arb.grant(&all).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(arb.grant(&[false; 3]), None);
        assert_eq!(
            arb.grant(&all),
            Some(0),
            "an empty grant leaves the pointer"
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_request_size_panics() {
        let mut arb = RefArbiter::new(2);
        let _ = arb.grant(&[true]);
    }
}
