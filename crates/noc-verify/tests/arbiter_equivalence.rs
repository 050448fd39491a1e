//! Arbiter-equivalence wall: the production mask arbiter
//! (`noc_sim::arbiter::RoundRobinArbiter::grant_mask`, a masked
//! `trailing_zeros`) against the reference slice scan ([`RefArbiter`]).
//!
//! For a request set and a priority-pointer position the two must grant
//! the same requester (or both none) and leave the same pointer. The
//! pointer is read back black-box: a clone granted the full request set
//! returns it. Every `n ≤ 14`, pointer and request mask is swept in
//! every `cargo test`; the sweep up to `n ≤ 20` (every `V`-slot SA
//! input arbiter and every 5-port × 4-VC VA arbiter of the paper
//! router) is `#[ignore]`d for debug builds and run in release by the
//! kernel-equivalence CI job via `-- --include-ignored`. A proptest
//! drives both through random grant sequences up to the 64-requester
//! mask width.

use noc_sim::arbiter::RoundRobinArbiter;
use proptest::prelude::*;
use rlnoc_verify::RefArbiter;

/// The pair of arbiters over `n` requesters with the priority pointer
/// at `pointer`, reached by granting the lone requester just before it.
fn at_pointer(n: usize, pointer: usize) -> (RoundRobinArbiter, RefArbiter) {
    let last = (pointer + n - 1) % n;
    let mut prod = RoundRobinArbiter::new(n);
    let mut reference = RefArbiter::new(n);
    let mut lone = vec![false; n];
    lone[last] = true;
    assert_eq!(prod.grant_mask(1 << last), Some(last));
    assert_eq!(reference.grant(&lone), Some(last));
    (prod, reference)
}

fn full_mask(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// The priority pointer of each arbiter: the winner of a full request
/// (`all` is `n` times `true`).
fn pointers(prod: &RoundRobinArbiter, reference: &RefArbiter, all: &[bool]) -> (usize, usize) {
    let p = prod
        .clone()
        .grant_mask(full_mask(prod.len()))
        .expect("full request");
    let r = reference.clone().grant(all).expect("full request");
    (p, r)
}

/// Sweeps every pointer position and request mask for arbiters of
/// `1..=max_n` requesters.
fn exhaustive_sweep(max_n: usize) {
    for n in 1..=max_n {
        let bases: Vec<_> = (0..n).map(|p| at_pointer(n, p)).collect();
        let all = vec![true; n];
        let mut requests = vec![false; n];
        for mask in 0..=full_mask(n) {
            for (i, r) in requests.iter_mut().enumerate() {
                *r = mask >> i & 1 == 1;
            }
            for (pointer, (prod, reference)) in bases.iter().enumerate() {
                let (mut prod, mut reference) = (prod.clone(), reference.clone());
                let got = prod.grant_mask(mask);
                let want = reference.grant(&requests);
                assert_eq!(
                    got, want,
                    "n={n} pointer={pointer} mask={mask:#b}: winner differs"
                );
                let (p, r) = pointers(&prod, &reference, &all);
                assert_eq!(
                    p, r,
                    "n={n} pointer={pointer} mask={mask:#b}: next pointer differs"
                );
            }
        }
    }
}

#[test]
fn every_mask_and_pointer_agrees_up_to_14_requesters() {
    exhaustive_sweep(14);
}

#[test]
#[ignore = "exhaustive sweep; run in release via the kernel-equivalence CI job"]
fn every_mask_and_pointer_agrees_up_to_20_requesters() {
    exhaustive_sweep(20);
}

#[test]
fn pointer_positions_are_reached_on_both() {
    for n in 1..=20 {
        for pointer in 0..n {
            let (prod, reference) = at_pointer(n, pointer);
            assert_eq!(
                pointers(&prod, &reference, &vec![true; n]),
                (pointer, pointer)
            );
        }
    }
}

proptest! {
    /// Random grant sequences over up to 64 requesters: the two arbiters
    /// agree on every winner and on the pointer after every step.
    #[test]
    fn grant_sequences_agree_up_to_64_requesters(
        n in 1usize..65,
        raw in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let mut prod = RoundRobinArbiter::new(n);
        let mut reference = RefArbiter::new(n);
        let all = vec![true; n];
        for (step, word) in raw.iter().enumerate() {
            // Thin the requests on alternate steps so single-requester
            // and wrap-around grants show up alongside dense ones.
            let mask = match step % 3 {
                0 => *word,
                1 => word & word.rotate_left(17) & word.rotate_left(41),
                _ => 1 << (word % 64),
            } & full_mask(n);
            let requests: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            prop_assert_eq!(prod.grant_mask(mask), reference.grant(&requests));
            let (p, r) = pointers(&prod, &reference, &all);
            prop_assert_eq!(p, r);
        }
    }
}
