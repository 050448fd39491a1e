//! The virtual-channel router microarchitecture.
//!
//! Each router implements the canonical 4-stage pipeline:
//!
//! 1. **BW** — buffer write: an arriving flit spends at least one cycle in
//!    its input VC FIFO.
//! 2. **RC** — route computation: the head flit of an idle VC computes its
//!    output port (X-Y routing).
//! 3. **VA** — virtual-channel allocation: the packet competes for a free
//!    VC on the chosen output port (round-robin arbitration).
//! 4. **SA/ST** — switch allocation and traversal: per-cycle separable
//!    (input-first, then output) arbitration for the crossbar, followed by
//!    link traversal.
//!
//! The inter-router mechanics (flit arrival, ejection, credits, ARQ
//! acknowledgements) are orchestrated by
//! [`Network`](crate::network::Network); this module owns the per-router
//! state and the RC/VA stages.

use crate::arbiter::RoundRobinArbiter;
use crate::config::NocConfig;
use crate::flit::{Flit, FlitArena, FlitRef, PacketId};
use crate::routing::{FaultRoutes, RouteTable};
use crate::topology::{Direction, NodeId, VcClass};
use noc_coding::arq::{RetransmitBuffer, SequenceNumber};
use std::collections::VecDeque;

/// A flit resident in an input VC buffer, stamped with its arrival cycle
/// so the pipeline can enforce the buffer-write stage. The flit body
/// lives in the network's [`FlitArena`]; the FIFO moves 16-byte entries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedFlit {
    pub flit: FlitRef,
    pub arrived_at: u64,
}

/// Input VC pipeline state.
///
/// The `NeedsVa`/`Active` variants record which packet owns the VC so
/// the hard-fault purge can release channels whose packet was doomed by
/// a link/router failure without scanning FIFO contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet assigned.
    Idle,
    /// Route computed; awaiting an output VC admissible for the hop's
    /// date-line class (always [`VcClass::Any`] off-torus).
    NeedsVa {
        out_port: Direction,
        class: VcClass,
        packet: PacketId,
    },
    /// Output VC held; flits flow through SA.
    Active {
        out_port: Direction,
        out_vc: u8,
        packet: PacketId,
    },
}

/// One input virtual channel.
#[derive(Debug, Clone)]
pub(crate) struct InputVc {
    pub fifo: VecDeque<BufferedFlit>,
    pub state: VcState,
    /// Go-back-N gate: when a flit with this sequence number was rejected,
    /// later flits on this VC are auto-rejected until its retransmission
    /// arrives (preserves per-VC flit order under hop-level ARQ).
    pub awaiting_retx: Option<SequenceNumber>,
}

impl InputVc {
    fn new() -> Self {
        Self {
            fifo: VecDeque::new(),
            state: VcState::Idle,
            awaiting_retx: None,
        }
    }

    /// An input VC counts as occupied for the buffer-utilization feature
    /// when it holds flits or an active packet.
    pub(crate) fn occupied(&self) -> bool {
        !self.fifo.is_empty() || self.state != VcState::Idle
    }
}

/// Credit/allocation state of one output VC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutputVc {
    pub allocated: bool,
    pub credits: u8,
}

/// A NACKed flit waiting for priority resend on its output port. Holds
/// an arena handle: the resend copy is re-materialized into a fresh
/// slot when the NACK is processed, while the pristine canonical copy
/// stays in the [`RetransmitBuffer`] by value (the wire-side slot is
/// mutated in place by fault draws, so it can never be shared with the
/// buffered original).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRetransmit {
    pub flit: FlitRef,
    pub out_vc: u8,
    pub seq: SequenceNumber,
}

/// One output port: its VC credit state, the ARQ retransmit buffer, and
/// the link-busy horizon used by operation modes 2 and 3.
#[derive(Debug, Clone)]
pub(crate) struct OutputPort {
    pub vcs: Vec<OutputVc>,
    /// Earliest cycle at which the port may transmit again.
    pub next_free: u64,
    /// Copies of unacknowledged flits sent on ECC-enabled links.
    pub retx_buffer: RetransmitBuffer<(Flit, u8)>,
    /// NACKed flits queued for priority resend.
    pub retx_pending: VecDeque<PendingRetransmit>,
}

/// A router: `P` input ports of `V` VCs each, `P` output ports, and
/// the arbiters for VA and SA. `P` is the topology's port count (5 on
/// planar networks, 7 with vertical links).
#[derive(Debug, Clone)]
pub struct Router {
    pub(crate) id: NodeId,
    /// All input VCs in one dense slab, indexed `port * vcs_per_port +
    /// vc`. Flat layout keeps the per-cycle pipeline scans on one
    /// contiguous allocation (and iteration order identical to the old
    /// port-major nesting).
    pub(crate) inputs: Vec<InputVc>,
    /// VCs per input port (`inputs.len() == num_ports * vcs_per_port`).
    pub(crate) vcs_per_port: usize,
    /// Ports on this router, including `Local` — fixed by the topology.
    pub(crate) num_ports: usize,
    /// `outputs[port]`.
    pub(crate) outputs: Vec<OutputPort>,
    /// Per output port, over `num_ports * V` flattened input VCs.
    pub(crate) va_arbiters: Vec<RoundRobinArbiter>,
    /// Per input port, over its `V` VCs.
    pub(crate) sa_input_arbiters: Vec<RoundRobinArbiter>,
    /// Per output port, over the `num_ports` input ports.
    pub(crate) sa_output_arbiters: Vec<RoundRobinArbiter>,
    /// Incrementally maintained count of occupied input VCs, updated at
    /// every FIFO push/pop and VC release. Lets the per-cycle phases
    /// skip idle routers entirely instead of rescanning `P × V` VCs.
    pub(crate) occupied_vcs: u32,
    /// Pipeline-stage membership as bitmasks over the flat input-VC
    /// index `port * V + vc` (`P × V ≤ 64`, enforced by
    /// [`NocConfig::validate`]). The stages walk set bits in ascending
    /// order — the order of a full slab scan — so a zero mask skips a
    /// stage exactly, and a non-zero one visits only the VCs that can
    /// act. Maintained at enqueue, RC promotion, VA grant, and SA tail
    /// release; rebuilt by rescan after hard-fault purges.
    ///
    /// `rc_mask`: idle VCs holding a buffered flit (RC candidates).
    pub(crate) rc_mask: u64,
    /// VCs in [`VcState::NeedsVa`] (VA requesters).
    pub(crate) va_mask: u64,
    /// VCs in [`VcState::Active`] (the only VCs that can assert SA
    /// requests).
    pub(crate) active_mask: u64,
    /// Output ports whose NACK resend queue (`retx_pending`) is
    /// non-empty, bit `port`.
    pub(crate) resend_mask: u8,
}

impl Router {
    /// Builds an empty router for node `id` under `config`.
    pub(crate) fn new(id: NodeId, config: &NocConfig) -> Self {
        let v = config.vcs_per_port as usize;
        let num_ports = config.mesh.num_ports();
        let inputs = (0..num_ports * v).map(|_| InputVc::new()).collect();
        let outputs = (0..num_ports)
            .map(|p| OutputPort {
                vcs: (0..v)
                    .map(|_| OutputVc {
                        allocated: false,
                        // The ejection port drains into the core; model it
                        // as never back-pressured.
                        credits: if p == Direction::Local.index() {
                            u8::MAX
                        } else {
                            config.vc_depth
                        },
                    })
                    .collect(),
                next_free: 0,
                retx_buffer: RetransmitBuffer::new(config.retransmit_buffer_depth),
                retx_pending: VecDeque::new(),
            })
            .collect();
        Self {
            id,
            inputs,
            vcs_per_port: v,
            num_ports,
            outputs,
            va_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports * v))
                .collect(),
            sa_input_arbiters: (0..num_ports).map(|_| RoundRobinArbiter::new(v)).collect(),
            sa_output_arbiters: (0..num_ports)
                .map(|_| RoundRobinArbiter::new(num_ports))
                .collect(),
            occupied_vcs: 0,
            rc_mask: 0,
            va_mask: 0,
            active_mask: 0,
            resend_mask: 0,
        }
    }

    /// Ports on this router, including `Local`.
    #[cfg_attr(not(any(test, feature = "verify")), allow(dead_code))]
    #[inline]
    pub(crate) fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// The input VC at `(port, vc)`.
    #[inline]
    pub(crate) fn input(&self, port: usize, vc: usize) -> &InputVc {
        &self.inputs[port * self.vcs_per_port + vc]
    }

    /// Mutable access to the input VC at `(port, vc)`.
    #[inline]
    pub(crate) fn input_mut(&mut self, port: usize, vc: usize) -> &mut InputVc {
        &mut self.inputs[port * self.vcs_per_port + vc]
    }

    /// The slice of input VCs belonging to `port`.
    #[cfg_attr(not(any(test, feature = "verify")), allow(dead_code))]
    #[inline]
    pub(crate) fn port_vcs(&self, port: usize) -> &[InputVc] {
        let v = self.vcs_per_port;
        &self.inputs[port * v..(port + 1) * v]
    }

    /// Mutable slice of input VCs belonging to `port`.
    #[inline]
    pub(crate) fn port_vcs_mut(&mut self, port: usize) -> &mut [InputVc] {
        let v = self.vcs_per_port;
        &mut self.inputs[port * v..(port + 1) * v]
    }

    /// Appends a flit handle to an input VC FIFO, maintaining the
    /// occupied-VC count and the RC mask. All buffer writes go through
    /// here.
    pub(crate) fn enqueue(&mut self, in_port: usize, vc: usize, flit: FlitRef, arrived_at: u64) {
        let flat = in_port * self.vcs_per_port + vc;
        let ivc = &mut self.inputs[flat];
        if !ivc.occupied() {
            self.occupied_vcs += 1;
        }
        if ivc.state == VcState::Idle && ivc.fifo.is_empty() {
            self.rc_mask |= 1 << flat;
        }
        ivc.fifo.push_back(BufferedFlit { flit, arrived_at });
    }

    /// Queues a NACKed flit for priority resend on `port`, marking the
    /// port in the resend mask.
    pub(crate) fn push_resend(&mut self, port: usize, pending: PendingRetransmit) {
        self.outputs[port].retx_pending.push_back(pending);
        self.resend_mask |= 1 << port;
    }

    /// Pops the next priority resend on `port`, clearing the port's
    /// resend-mask bit when its queue empties.
    pub(crate) fn pop_resend(&mut self, port: usize) -> Option<PendingRetransmit> {
        let queue = &mut self.outputs[port].retx_pending;
        let pending = queue.pop_front();
        if queue.is_empty() {
            self.resend_mask &= !(1 << port);
        }
        pending
    }

    /// `(occupied_vcs, rc_mask, va_mask, active_mask, resend_mask)` as
    /// maintained incrementally.
    pub(crate) fn stage_state(&self) -> (u32, u64, u64, u64, u8) {
        (
            self.occupied_vcs,
            self.rc_mask,
            self.va_mask,
            self.active_mask,
            self.resend_mask,
        )
    }

    /// The same tuple as [`stage_state`](Self::stage_state), re-derived
    /// from scratch by scanning every input VC and output port.
    pub(crate) fn rescan_stage_state(&self) -> (u32, u64, u64, u64, u8) {
        let (mut occupied, mut rc, mut va, mut active, mut resend) = (0u32, 0u64, 0u64, 0u64, 0u8);
        for (flat, vc) in self.inputs.iter().enumerate() {
            if vc.occupied() {
                occupied += 1;
            }
            let bit = 1u64 << flat;
            match vc.state {
                VcState::Idle if !vc.fifo.is_empty() => rc |= bit,
                VcState::Idle => {}
                VcState::NeedsVa { .. } => va |= bit,
                VcState::Active { .. } => active |= bit,
            }
        }
        for (port, out) in self.outputs.iter().enumerate() {
            if !out.retx_pending.is_empty() {
                resend |= 1 << port;
            }
        }
        (occupied, rc, va, active, resend)
    }

    /// Debug cross-check of the incremental pipeline-stage masks against
    /// a full rescan (compiled out in release).
    pub(crate) fn debug_check_stage_counters(&self) {
        if cfg!(debug_assertions) {
            debug_assert_eq!(
                self.stage_state(),
                self.rescan_stage_state(),
                "pipeline-stage masks diverged at {}",
                self.id
            );
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of currently occupied input VCs (the RL buffer-utilization
    /// feature). O(1): the count is maintained incrementally at every
    /// FIFO push/pop; debug builds cross-check it against a full rescan.
    pub fn occupied_input_vcs(&self) -> usize {
        debug_assert_eq!(
            self.occupied_vcs as usize,
            self.inputs.iter().filter(|vc| vc.occupied()).count(),
            "incremental occupied-VC count diverged at {}",
            self.id
        );
        self.occupied_vcs as usize
    }

    /// Total flits currently buffered across all input VC FIFOs — a
    /// point-in-time congestion measure sampled by the telemetry layer
    /// at control-epoch boundaries.
    pub fn buffered_flits(&self) -> u64 {
        self.inputs.iter().map(|vc| vc.fifo.len() as u64).sum()
    }

    /// Route computation: idle input VCs whose head flit has completed its
    /// buffer-write stage compute their output port via the precomputed
    /// route table — or, once hard faults are active, via the
    /// fault-adaptive up*/down* table.
    ///
    /// A head flit whose destination is unreachable on the live topology
    /// keeps its VC idle and reports its packet id into `doomed`; the
    /// network purges every flit of that packet right after the RC phase.
    pub(crate) fn rc_stage(
        &mut self,
        cycle: u64,
        routes: &RouteTable,
        fault: Option<&FaultRoutes>,
        arena: &FlitArena,
        doomed: &mut Vec<(PacketId, bool)>,
    ) {
        self.debug_check_stage_counters();
        // Set bits come out in ascending flat index, the port-major order
        // of a full slab scan, so `doomed` fills in the same order.
        let mut candidates = self.rc_mask;
        while candidates != 0 {
            let flat = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let vc = &mut self.inputs[flat];
            let front = vc.fifo.front().expect("RC candidate holds a flit");
            if front.arrived_at >= cycle {
                continue; // still in the BW stage
            }
            let flit = &arena[front.flit];
            debug_assert!(
                flit.kind.is_head(),
                "non-head flit {:?} at front of idle VC",
                flit.kind
            );
            let (out_port, class) = match fault {
                None => routes.next_hop_class(self.id, flit.dst),
                // Up*/down* recovery routes are deadlock-free by rank
                // monotonicity alone; they place no VC restriction.
                Some(f) => match f.next_hop(self.id, flit.dst) {
                    Some(dir) => (dir, VcClass::Any),
                    None => {
                        doomed.push((flit.packet, !flit.class.is_control()));
                        continue;
                    }
                },
            };
            vc.state = VcState::NeedsVa {
                out_port,
                class,
                packet: flit.packet,
            };
            self.rc_mask &= !(1 << flat);
            self.va_mask |= 1 << flat;
        }
    }

    /// Rebuilds the occupied-VC count and the stage masks by rescanning
    /// every input VC and output port. Only used after a hard-fault
    /// purge rewrites FIFO, VC and resend state wholesale, where
    /// incremental maintenance is not worth the complexity.
    pub(crate) fn recount_stage_counters(&mut self) {
        (
            self.occupied_vcs,
            self.rc_mask,
            self.va_mask,
            self.active_mask,
            self.resend_mask,
        ) = self.rescan_stage_state();
    }

    /// Virtual-channel allocation: one grant per output port per cycle.
    ///
    /// Returns the number of allocations performed (for the power model).
    pub(crate) fn va_stage(&mut self) -> u64 {
        self.debug_check_stage_counters();
        if self.va_mask == 0 {
            return 0; // no requester: arbiters and output VCs untouched
        }
        // One pass over the requesters sorts them into a request mask
        // per (output port, VC class); the flat VC index *is* the
        // arbiter's `port * V + vc` request index. A requester targets
        // exactly one port, and a grant at an earlier port removes the
        // winner only from that port's request set, so the masks stay
        // valid across the loop.
        let mut requests = [[0u64; 3]; crate::topology::MAX_PORTS];
        let mut requesters = self.va_mask;
        while requesters != 0 {
            let flat = requesters.trailing_zeros() as usize;
            requesters &= requesters - 1;
            let VcState::NeedsVa {
                out_port, class, ..
            } = self.inputs[flat].state
            else {
                unreachable!("va_mask marks only NeedsVa VCs");
            };
            requests[out_port.index()][class.index()] |= 1 << flat;
        }
        let mut allocations = 0;
        // Index-driven: `out_p` addresses `requests`, `self.outputs`,
        // and `self.va_arbiters` in parallel.
        #[allow(clippy::needless_range_loop)]
        for out_p in 0..self.num_ports {
            let wanted = &requests[out_p];
            if wanted == &[0; 3] {
                continue;
            }
            // Still one grant per output port per cycle: the first class
            // (in Any, Lo, Hi order) with both a requester and a free
            // output VC in its admissible range competes; off-torus every
            // requester is `Any` over the full range, so this degenerates
            // to the classic first-free-VC scan.
            let mut chosen = None;
            for class in VcClass::ALL {
                let mask = wanted[class.index()];
                if mask == 0 {
                    continue;
                }
                let range = class.vc_range(self.vcs_per_port as u8);
                if let Some(free) = self.outputs[out_p].vcs[range.clone()]
                    .iter()
                    .position(|o| !o.allocated)
                {
                    chosen = Some((mask, range.start + free));
                    break;
                }
            }
            let Some((mask, free_vc)) = chosen else {
                continue;
            };
            let winner = self.va_arbiters[out_p]
                .grant_mask(mask)
                .expect("a request was asserted");
            let VcState::NeedsVa { packet, .. } = self.inputs[winner].state else {
                unreachable!("VA winner must be in NeedsVa");
            };
            self.inputs[winner].state = VcState::Active {
                out_port: Direction::from_index(out_p),
                out_vc: free_vc as u8,
                packet,
            };
            self.va_mask &= !(1 << winner);
            self.active_mask |= 1 << winner;
            self.outputs[out_p].vcs[free_vc].allocated = true;
            allocations += 1;
        }
        allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Packet, PacketClass, PacketId};
    use crate::topology::{Topo, NUM_PORTS};
    use noc_coding::crc::Crc32;

    fn test_config() -> NocConfig {
        NocConfig::builder().mesh(4, 4).build()
    }

    fn head_flit(src: NodeId, dst: NodeId) -> Flit {
        Packet {
            id: PacketId(1),
            src,
            dst,
            num_flits: 4,
            class: PacketClass::Data,
            injected_at: 0,
            payload_seed: 7,
        }
        .make_flit(0, 0, &Crc32::new())
    }

    #[test]
    fn new_router_is_empty() {
        let r = Router::new(NodeId(5), &test_config());
        assert_eq!(r.id(), NodeId(5));
        assert_eq!(r.occupied_input_vcs(), 0);
        assert_eq!(r.inputs.len(), NUM_PORTS * 4);
        assert_eq!(r.vcs_per_port, 4);
        assert_eq!(r.outputs[0].vcs[0].credits, 4);
        assert_eq!(
            r.outputs[Direction::Local.index()].vcs[0].credits,
            u8::MAX,
            "ejection port is never back-pressured"
        );
    }

    #[test]
    fn rc_waits_for_buffer_write_stage() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 10);
        let mut doomed = Vec::new();
        // Same cycle: still in BW.
        r.rc_stage(10, &routes, None, &arena, &mut doomed);
        assert_eq!(r.input(Direction::Local.index(), 0).state, VcState::Idle);
        // Next cycle: RC fires, X-first routing goes east.
        r.rc_stage(11, &routes, None, &arena, &mut doomed);
        assert_eq!(
            r.input(Direction::Local.index(), 0).state,
            VcState::NeedsVa {
                out_port: Direction::East,
                class: VcClass::Any,
                packet: PacketId(1)
            }
        );
        assert!(doomed.is_empty());
    }

    #[test]
    fn rc_assigns_dateline_class_on_torus() {
        let config = NocConfig::builder().topology(Topo::torus(4, 4)).build();
        let topo = config.mesh;
        let routes = RouteTable::new(topo);
        let mut arena = FlitArena::new();
        // Router (3, 0) sending to (1, 0): East across the wrap link.
        let mut r = Router::new(topo.node_at(3, 0), &config);
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(
            r.input(Direction::Local.index(), 0).state,
            VcState::NeedsVa {
                out_port: Direction::East,
                class: VcClass::Lo,
                packet: PacketId(1)
            }
        );
    }

    #[test]
    fn va_respects_dateline_vc_halves() {
        let config = NocConfig::builder().topology(Topo::torus(4, 4)).build();
        let topo = config.mesh;
        let routes = RouteTable::new(topo);
        let mut arena = FlitArena::new();
        let mut r = Router::new(topo.node_at(3, 0), &config);
        // A Lo-class requester (wraps the date line) on East.
        let f = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
        let VcState::Active { out_vc, .. } = r.input(Direction::Local.index(), 0).state else {
            panic!("requester must be granted");
        };
        assert!(
            VcClass::Lo.admits(out_vc as usize, config.vcs_per_port),
            "Lo-class hop got VC {out_vc} outside the low half"
        );
        // Exhaust the low half (VCs 0..2 of 4): a further Lo requester
        // stalls even though the high half is free.
        let g = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 1, g, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
        let h = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(1, 0)));
        r.enqueue(Direction::Local.index(), 2, h, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 0, "low half exhausted: Lo requester waits");
        // A Hi-class requester (no wrap) still gets a high-half VC.
        let k = arena.alloc(head_flit(topo.node_at(3, 0), topo.node_at(2, 0)));
        r.enqueue(Direction::Local.index(), 3, k, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        assert_eq!(r.va_stage(), 1);
        let VcState::Active {
            out_vc, out_port, ..
        } = r.input(Direction::Local.index(), 3).state
        else {
            panic!("Hi requester must be granted");
        };
        assert_eq!(out_port, Direction::West, "3→2 is one hop west, no wrap");
        assert!(VcClass::Hi.admits(out_vc as usize, config.vcs_per_port));
    }

    #[test]
    fn va_allocates_one_vc_per_output_per_cycle() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // Two input VCs both want East.
        for vc in 0..2 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, f, 0);
        }
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        let granted = r.va_stage();
        assert_eq!(granted, 1, "one VA grant per output port per cycle");
        let active = r
            .port_vcs(Direction::Local.index())
            .iter()
            .filter(|vc| matches!(vc.state, VcState::Active { .. }))
            .count();
        assert_eq!(active, 1);
        // Second cycle: the other one gets a (different) VC.
        let granted = r.va_stage();
        assert_eq!(granted, 1);
        let vcs: Vec<u8> = r
            .port_vcs(Direction::Local.index())
            .iter()
            .filter_map(|vc| match vc.state {
                VcState::Active { out_vc, .. } => Some(out_vc),
                _ => None,
            })
            .collect();
        assert_eq!(vcs.len(), 2);
        assert_ne!(vcs[0], vcs[1], "distinct output VCs");
    }

    #[test]
    fn va_exhausts_output_vcs() {
        let config = test_config();
        let mesh = config.mesh;
        let routes = RouteTable::new(mesh);
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        // 5 requesters for East across two input ports, only 4 output VCs.
        for vc in 0..4 {
            let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(3, 0)));
            r.enqueue(Direction::Local.index(), vc, f, 0);
        }
        let f = arena.alloc(head_flit(mesh.node_at(0, 1), mesh.node_at(3, 0)));
        r.enqueue(Direction::West.index(), 0, f, 0);
        r.rc_stage(1, &routes, None, &arena, &mut Vec::new());
        let mut total = 0;
        for _ in 0..8 {
            total += r.va_stage();
        }
        assert_eq!(total, 4, "only 4 output VCs exist on East");
    }

    #[test]
    fn occupied_vcs_counts_active_and_buffered() {
        let config = test_config();
        let mesh = config.mesh;
        let mut arena = FlitArena::new();
        let mut r = Router::new(mesh.node_at(0, 0), &config);
        assert_eq!(r.occupied_input_vcs(), 0);
        let f = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 0, f, 0);
        assert_eq!(r.occupied_input_vcs(), 1);
        // A second flit on the same VC does not double-count.
        let g = arena.alloc(head_flit(mesh.node_at(0, 0), mesh.node_at(1, 0)));
        r.enqueue(0, 0, g, 1);
        assert_eq!(r.occupied_input_vcs(), 1);
    }
}
