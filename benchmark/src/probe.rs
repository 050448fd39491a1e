//! The traced backend: the production `Network<FaultTolerantProtocol>`
//! behind the public `SimBackend` / `BatchSimBackend` seam, with every
//! call into the data plane timed from outside the program.
//!
//! Timings go to a per-thread accumulator. One campaign task (or one
//! lockstep batch) runs entirely on one worker thread, so the worker
//! drains the accumulator with [`take`] after each task and gets exactly
//! that task's share. Getters (`cycle`, `stats`, `epoch_stats`,
//! `counters`, `is_quiescent`) are not timed: they return references or
//! flags, and their cost counts as control-plane self time.

use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::{HardFaultEvent, Network, SharedTables};
use noc_sim::stats::{EventCounters, NetworkStats, RouterEpochStats};
use noc_sim::topology::NodeId;
use rlnoc_core::backend::{BatchSimBackend, SimBackend};
use rlnoc_core::modes::OperationMode;
use rlnoc_core::protocol::FaultTolerantProtocol;
use rlnoc_telemetry::Telemetry;
use std::cell::RefCell;
use std::time::Instant;

/// Host time (ns) and call counts per data-plane layer, for one task or
/// summed over many.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `step` on cycles without a scheduled hard-fault event.
    pub step_ns: u64,
    pub step_calls: u64,
    /// Routers × steps: over fault-free steps, and over every step.
    pub step_router_cycles: u64,
    pub router_cycles: u64,
    /// `step` on cycles that apply scheduled hard-fault events.
    pub fault_step_ns: u64,
    pub fault_step_calls: u64,
    pub fault_events: u64,
    pub offer_ns: u64,
    pub offer_calls: u64,
    /// Setters, resets, epoch flushes and error-probability reads.
    pub control_ns: u64,
    pub control_calls: u64,
    /// `build` and `build_with_shared`.
    pub build_ns: u64,
    pub build_calls: u64,
    pub make_shared_ns: u64,
}

impl Layers {
    /// Every timed backend call, ns.
    pub fn backend_ns(&self) -> u64 {
        self.step_ns
            + self.fault_step_ns
            + self.offer_ns
            + self.control_ns
            + self.build_ns
            + self.make_shared_ns
    }

    pub fn add(&mut self, o: &Layers) {
        self.step_ns += o.step_ns;
        self.step_calls += o.step_calls;
        self.step_router_cycles += o.step_router_cycles;
        self.router_cycles += o.router_cycles;
        self.fault_step_ns += o.fault_step_ns;
        self.fault_step_calls += o.fault_step_calls;
        self.fault_events += o.fault_events;
        self.offer_ns += o.offer_ns;
        self.offer_calls += o.offer_calls;
        self.control_ns += o.control_ns;
        self.control_calls += o.control_calls;
        self.build_ns += o.build_ns;
        self.build_calls += o.build_calls;
        self.make_shared_ns += o.make_shared_ns;
    }
}

thread_local! {
    static LAYERS: RefCell<Layers> = RefCell::new(Layers::default());
}

/// Returns and clears this thread's accumulator.
pub fn take() -> Layers {
    LAYERS.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

fn record(f: impl FnOnce(&mut Layers)) {
    LAYERS.with(|l| f(&mut l.borrow_mut()));
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times a control-plane call into the backend.
fn control<R>(f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = ns_since(t0);
    record(|l| {
        l.control_ns += ns;
        l.control_calls += 1;
    });
    r
}

/// The production backend with its calls timed.
pub struct Probe {
    net: Network<FaultTolerantProtocol>,
    routers: u64,
    /// `(cycle, events applied at that cycle)`, ascending.
    fault_cycles: Vec<(u64, u64)>,
    next_fault: usize,
}

impl Probe {
    fn wrap(net: Network<FaultTolerantProtocol>, noc: &NocConfig, t0: Instant) -> Self {
        let ns = ns_since(t0);
        record(|l| {
            l.build_ns += ns;
            l.build_calls += 1;
        });
        Self {
            net,
            routers: noc.mesh.num_nodes() as u64,
            fault_cycles: Vec::new(),
            next_fault: 0,
        }
    }
}

impl SimBackend for Probe {
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let t0 = Instant::now();
        let net = <Network<FaultTolerantProtocol> as SimBackend>::build(
            noc,
            timing,
            variation,
            protocol_seed,
            network_seed,
        );
        Self::wrap(net, &noc, t0)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        control(|| SimBackend::set_telemetry(&mut self.net, telemetry));
    }

    fn set_hard_faults(&mut self, events: Vec<HardFaultEvent>) {
        self.fault_cycles.clear();
        for ev in &events {
            match self.fault_cycles.last_mut() {
                Some((cycle, n)) if *cycle == ev.cycle => *n += 1,
                _ => self.fault_cycles.push((ev.cycle, 1)),
            }
        }
        self.fault_cycles.sort_unstable();
        self.next_fault = 0;
        control(|| SimBackend::set_hard_faults(&mut self.net, events));
    }

    fn cycle(&self) -> u64 {
        SimBackend::cycle(&self.net)
    }

    fn offer(&mut self, src: NodeId, dst: NodeId) {
        let t0 = Instant::now();
        SimBackend::offer(&mut self.net, src, dst);
        let ns = ns_since(t0);
        record(|l| {
            l.offer_ns += ns;
            l.offer_calls += 1;
        });
    }

    fn step(&mut self) {
        // The network applies every event due by this cycle at the
        // start of this step.
        let cycle = SimBackend::cycle(&self.net);
        let mut events = 0;
        while let Some(&(at, n)) = self.fault_cycles.get(self.next_fault) {
            if at > cycle {
                break;
            }
            events += n;
            self.next_fault += 1;
        }
        let t0 = Instant::now();
        SimBackend::step(&mut self.net);
        let ns = ns_since(t0);
        let routers = self.routers;
        record(|l| {
            l.router_cycles += routers;
            if events > 0 {
                l.fault_step_ns += ns;
                l.fault_step_calls += 1;
                l.fault_events += events;
            } else {
                l.step_ns += ns;
                l.step_calls += 1;
                l.step_router_cycles += routers;
            }
        });
    }

    fn is_quiescent(&self) -> bool {
        SimBackend::is_quiescent(&self.net)
    }

    fn stats(&self) -> &NetworkStats {
        SimBackend::stats(&self.net)
    }

    fn reset_stats(&mut self) {
        control(|| SimBackend::reset_stats(&mut self.net));
    }

    fn epoch_stats(&self) -> &[RouterEpochStats] {
        SimBackend::epoch_stats(&self.net)
    }

    fn finish_epoch(&mut self) {
        control(|| SimBackend::finish_epoch(&mut self.net));
    }

    fn reset_epoch_stats(&mut self) {
        control(|| SimBackend::reset_epoch_stats(&mut self.net));
    }

    fn counters(&self) -> &[EventCounters] {
        SimBackend::counters(&self.net)
    }

    fn raw_error_probabilities(&self) -> Vec<f64> {
        control(|| SimBackend::raw_error_probabilities(&self.net))
    }

    fn set_mode(&mut self, node: usize, mode: OperationMode) {
        control(|| SimBackend::set_mode(&mut self.net, node, mode));
    }

    fn set_all_modes(&mut self, mode: OperationMode) {
        control(|| SimBackend::set_all_modes(&mut self.net, mode));
    }

    fn set_temperatures(&mut self, temps: &[f64]) {
        control(|| SimBackend::set_temperatures(&mut self.net, temps));
    }

    fn set_utilizations(&mut self, utils: &[f64]) {
        control(|| SimBackend::set_utilizations(&mut self.net, utils));
    }
}

impl BatchSimBackend for Probe {
    type Shared = SharedTables;

    fn make_shared(noc: &NocConfig) -> SharedTables {
        let t0 = Instant::now();
        let shared = <Network<FaultTolerantProtocol> as BatchSimBackend>::make_shared(noc);
        let ns = ns_since(t0);
        record(|l| {
            l.make_shared_ns += ns;
        });
        shared
    }

    fn build_with_shared(
        shared: &SharedTables,
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let t0 = Instant::now();
        let net = <Network<FaultTolerantProtocol> as BatchSimBackend>::build_with_shared(
            shared,
            noc,
            timing,
            variation,
            protocol_seed,
            network_seed,
        );
        Self::wrap(net, &noc, t0)
    }
}
