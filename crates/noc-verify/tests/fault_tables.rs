//! Table-equivalence wall for fault-adaptive routing: the production
//! up*/down* builder (`noc_sim::routing::FaultRoutes::compute`, which
//! compiles the live topology into a CSR adjacency) against the
//! reference oracle ([`RefFaultRoutes`], the three-pass form).
//!
//! For every `(current, dst)` pair the two must agree on `next_hop` and
//! `reachable`, and they must agree on `unreachable_pairs`. Covered:
//!
//! * random router and link kill sets across the whole zoo (mesh,
//!   torus, folded torus, 3D mesh), partitions included;
//! * every prefix of the benchmark's own fault schedules (a 16×16 torus
//!   losing 100 links, an 8×8 mesh losing 40);
//! * edge cases — every node dead, a single live node, isolated live
//!   nodes, a clean bisection — and the 32×32 / 8×8×4 radix bounds.

use noc_fault::hardfault::{HardFault, HardFaultSchedule};
use noc_sim::routing::FaultRoutes;
use noc_sim::topology::{Direction, NodeId, Topo, MAX_PORTS};
use proptest::prelude::*;
use rlnoc_verify::RefFaultRoutes;

/// Dead-router and dead-link masks over one topology, kept the way the
/// network keeps them: a link kill marks both channel ends, a router
/// kill marks the router and every incident link.
struct Faulted {
    topo: Topo,
    node_dead: Vec<bool>,
    link_dead: Vec<[bool; MAX_PORTS]>,
}

impl Faulted {
    fn healthy(topo: Topo) -> Self {
        let n = topo.num_nodes();
        Self {
            topo,
            node_dead: vec![false; n],
            link_dead: vec![[false; MAX_PORTS]; n],
        }
    }

    /// Applies raw kill draws: each value picks a node (low bits) and,
    /// for links, a compass port (high bits).
    fn with_kills(topo: Topo, routers: &[u64], links: &[u64]) -> Self {
        let mut f = Self::healthy(topo);
        let n = topo.num_nodes() as u64;
        let compass = topo.compass();
        for &raw in links {
            let dir = compass[((raw >> 32) % compass.len() as u64) as usize];
            f.kill_link(NodeId((raw % n) as u16), dir);
        }
        for &raw in routers {
            f.kill_router(NodeId((raw % n) as u16));
        }
        f
    }

    fn kill_link(&mut self, node: NodeId, dir: Direction) {
        self.link_dead[node.index()][dir.index()] = true;
        if let Some(peer) = self.topo.neighbor(node, dir) {
            self.link_dead[peer.index()][dir.opposite().index()] = true;
        }
    }

    fn kill_router(&mut self, node: NodeId) {
        self.node_dead[node.index()] = true;
        for &dir in self.topo.compass() {
            self.kill_link(node, dir);
        }
    }

    fn apply(&mut self, fault: HardFault) {
        match fault {
            HardFault::Link { node, dir } => self.kill_link(NodeId(node), dir),
            HardFault::Router { node } => self.kill_router(NodeId(node)),
        }
    }

    /// Builds both tables with the network's own liveness closure and
    /// demands entry-for-entry agreement; returns the unreachable-pair
    /// count.
    fn assert_tables_agree(&self, label: &str) -> u64 {
        let alive: Vec<bool> = self.node_dead.iter().map(|&d| !d).collect();
        let link_alive = |u: NodeId, d: Direction| !self.link_dead[u.index()][d.index()];
        let prod = FaultRoutes::compute(self.topo, &alive, link_alive);
        let oracle = RefFaultRoutes::compute(self.topo, &alive, link_alive);
        for u in self.topo.nodes() {
            for dst in self.topo.nodes() {
                assert_eq!(
                    prod.next_hop(u, dst),
                    oracle.next_hop(u, dst),
                    "{label} ({}): next hop {u}→{dst}",
                    self.topo.encode()
                );
                assert_eq!(
                    prod.reachable(u, dst),
                    oracle.reachable(u, dst),
                    "{label} ({}): reachable {u}→{dst}",
                    self.topo.encode()
                );
            }
        }
        assert_eq!(
            prod.unreachable_pairs(),
            oracle.unreachable_pairs(),
            "{label} ({}): unreachable pairs",
            self.topo.encode()
        );
        prod.unreachable_pairs()
    }
}

fn zoo_topo(kind: usize, w: u16, h: u16, d: u16) -> Topo {
    match kind % 4 {
        0 => Topo::mesh(w, h),
        1 => Topo::torus(w, h),
        2 => Topo::ftorus(w, h),
        _ => Topo::mesh3d(w, h, d),
    }
}

proptest! {
    /// Random kill sets over every zoo member up to 8×8 (×3 deep). Up
    /// to 24 link kills and 3 router kills partition the small shapes
    /// regularly.
    #[test]
    fn production_tables_match_the_oracle_under_random_kills(
        kind in 0usize..4,
        w in 2u16..9,
        h in 2u16..9,
        d in 2u16..4,
        routers in proptest::collection::vec(any::<u64>(), 0..4),
        links in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let f = Faulted::with_kills(zoo_topo(kind, w, h, d), &routers, &links);
        f.assert_tables_agree("random kills");
    }
}

#[test]
fn random_kills_reach_partitions() {
    // The property above must actually see partitioned topologies.
    let partitioned = (0..64u64)
        .filter(|&i| {
            let links: Vec<u64> = (0..12)
                .map(|j| rand::seed_stream(i, j) ^ (i << 40))
                .collect();
            let f = Faulted::with_kills(Topo::mesh(4, 4), &[], &links);
            f.assert_tables_agree("partition census") > 0
        })
        .count();
    assert!(partitioned > 0, "no kill set partitioned the 4×4 mesh");
}

/// Checks the tables after every entry of `schedule`.
fn assert_every_prefix_agrees(schedule: &HardFaultSchedule, label: &str) {
    let mut f = Faulted::healthy(schedule.topo);
    f.assert_tables_agree(label);
    for (i, entry) in schedule.entries.iter().enumerate() {
        f.apply(entry.fault);
        f.assert_tables_agree(&format!("{label}, prefix {}", i + 1));
    }
}

#[test]
fn every_prefix_of_the_benchmark_schedules_agrees() {
    // The fault-churn workload's shapes and seed derivation: a 16×16
    // torus losing 100 links and an 8×8 mesh losing 40, inside the
    // measured window, for the default and the held-out seed.
    for seed in [31, 4242] {
        for (topo, links, stream) in [(Topo::torus(16, 16), 100, 2), (Topo::mesh(8, 8), 40, 1)] {
            let schedule = HardFaultSchedule::random(
                topo,
                links,
                0,
                (200, 2_200),
                rand::seed_stream(seed, stream),
            );
            assert_eq!(schedule.entries.len(), links, "{}", topo.encode());
            assert_every_prefix_agrees(&schedule, &format!("seed {seed}"));
        }
    }
}

#[test]
fn every_prefix_agrees_with_router_kills() {
    let schedule = HardFaultSchedule::random(Topo::torus(8, 8), 20, 6, (0, 1_000), 7);
    assert_every_prefix_agrees(&schedule, "torus 8x8 links+routers");
    let schedule = HardFaultSchedule::random(Topo::mesh3d(4, 4, 4), 24, 4, (0, 1_000), 9);
    assert_every_prefix_agrees(&schedule, "3d 4x4x4 links+routers");
}

#[test]
fn every_node_dead() {
    for topo in [Topo::mesh(4, 4), Topo::torus(3, 5), Topo::mesh3d(2, 2, 2)] {
        let mut f = Faulted::healthy(topo);
        for u in topo.nodes() {
            f.kill_router(u);
        }
        assert_eq!(f.assert_tables_agree("all dead"), 0);
        let routes = FaultRoutes::compute(topo, &vec![false; topo.num_nodes()], |_, _| false);
        for u in topo.nodes() {
            assert!(!routes.reachable(u, u));
        }
    }
}

#[test]
fn one_node_left_alive() {
    for topo in [Topo::mesh(4, 4), Topo::ftorus(4, 3), Topo::mesh3d(3, 2, 2)] {
        let survivor = NodeId(topo.num_nodes() as u16 / 2);
        let mut f = Faulted::healthy(topo);
        for u in topo.nodes().filter(|&u| u != survivor) {
            f.kill_router(u);
        }
        assert_eq!(f.assert_tables_agree("one survivor"), 0);
    }
}

#[test]
fn isolated_live_nodes() {
    // Cut every link of a few live routers: each becomes a component of
    // one, unreachable from the rest but still routing to itself.
    for topo in [Topo::mesh(5, 5), Topo::torus(4, 4), Topo::mesh3d(3, 3, 2)] {
        let mut f = Faulted::healthy(topo);
        let isolated = [NodeId(0), NodeId(topo.num_nodes() as u16 - 1), NodeId(5)];
        for &u in &isolated {
            for &dir in topo.compass() {
                f.kill_link(u, dir);
            }
        }
        let live = topo.num_nodes() as u64;
        let expected = isolated.len() as u64 * (live - 1) * 2
            - isolated.len() as u64 * (isolated.len() as u64 - 1);
        assert_eq!(f.assert_tables_agree("isolated"), expected);
    }
}

#[test]
fn bisected_mesh() {
    // Cut every vertical link between rows 1 and 2 of a 6×4 mesh: two
    // 12-node halves, 2·12·12 unreachable ordered pairs.
    let topo = Topo::mesh(6, 4);
    let mut f = Faulted::healthy(topo);
    for x in 0..6 {
        f.kill_link(topo.node_at(x, 1), Direction::South);
    }
    assert_eq!(f.assert_tables_agree("bisected"), 2 * 12 * 12);
}

#[test]
fn radix_bounds_agree() {
    // The largest shapes the u16 node index admits in the zoo.
    let mesh = Faulted::with_kills(
        Topo::mesh(32, 32),
        &[3, 517, 1000],
        &(0..80)
            .map(|i| rand::seed_stream(32, i))
            .collect::<Vec<_>>(),
    );
    mesh.assert_tables_agree("mesh 32x32");
    let cube = Faulted::with_kills(
        Topo::mesh3d(8, 8, 4),
        &[11, 200],
        &(0..60)
            .map(|i| rand::seed_stream(84, i))
            .collect::<Vec<_>>(),
    );
    cube.assert_tables_agree("3d 8x8x4");
}
