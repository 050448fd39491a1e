//! The simulation-backend seam used by the verification harness.
//!
//! [`Experiment`](crate::experiment::Experiment) normally drives the
//! optimized [`Network<FaultTolerantProtocol>`] kernel. To let an
//! independently written reference simulator reuse the *entire*
//! experiment pipeline (pre-training curriculum, control epochs, energy
//! and thermal accounting, report assembly), the runner is generic over
//! this trait: everything the control plane ever asks of the data plane,
//! and nothing else.
//!
//! The contract is strictly behavioral — a conforming backend fed the
//! same seeds and setter calls must produce the same statistics streams.
//! `rlnoc-verify` exploits this by running the optimized backend and a
//! deliberately slow reference backend through
//! [`Experiment::run_with_backend`](crate::experiment::Experiment::run_with_backend)
//! and diffing the resulting [`ExperimentReport`]s field by field.

use crate::modes::OperationMode;
use crate::protocol::FaultTolerantProtocol;
use noc_fault::hardfault::HardFaultSchedule;
use noc_fault::timing::TimingErrorModel;
use noc_fault::variation::VariationMap;
use noc_sim::config::NocConfig;
use noc_sim::network::{HardFaultEvent, Network, SharedTables};
use noc_sim::stats::{EventCounters, NetworkStats, RouterEpochStats};
use noc_sim::topology::{NodeId, Topo};
use rlnoc_telemetry::Telemetry;
use std::sync::Mutex;

/// A cycle-accurate data-plane implementation the experiment runner can
/// drive. See the [module docs](self) for the behavioral contract.
pub trait SimBackend {
    /// Constructs the backend. `protocol_seed` and `network_seed` are
    /// the exact values the default backend feeds to
    /// [`FaultTolerantProtocol::new`] and [`Network::new`]; a reference
    /// backend must consume them identically so fault and payload RNG
    /// streams line up draw for draw.
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self;

    /// Installs a telemetry handle. Observation-only: enabled vs
    /// disabled telemetry must not change any report field.
    fn set_telemetry(&mut self, telemetry: &Telemetry);

    /// Installs a permanent hard-fault schedule before the first step.
    /// Each event must take effect at the start of its cycle's `step`,
    /// before event processing; an empty schedule must leave the
    /// backend exactly on its zero-fault path.
    fn set_hard_faults(&mut self, events: Vec<HardFaultEvent>);

    /// Current simulation cycle.
    fn cycle(&self) -> u64;

    /// Offers a data packet from `src` to `dst`.
    fn offer(&mut self, src: NodeId, dst: NodeId);

    /// Advances one clock cycle.
    fn step(&mut self);

    /// `true` when no packet or flit remains anywhere in the system.
    fn is_quiescent(&self) -> bool;

    /// Cumulative network statistics.
    fn stats(&self) -> &NetworkStats;

    /// Clears cumulative statistics and energy counters.
    fn reset_stats(&mut self);

    /// Per-router statistics for the current control epoch.
    ///
    /// Callers that need exact `cycles` values must call
    /// [`finish_epoch`](Self::finish_epoch) first: backends may defer
    /// per-cycle bookkeeping that is uniform across routers (the
    /// optimized kernel batches the per-router `cycles` bump) until
    /// flushed at an epoch boundary.
    fn epoch_stats(&self) -> &[RouterEpochStats];

    /// Flushes any deferred per-cycle epoch bookkeeping so
    /// [`epoch_stats`](Self::epoch_stats) is exact. Backends that
    /// sample eagerly need not override the default no-op.
    fn finish_epoch(&mut self) {}

    /// Resets per-router epoch statistics.
    fn reset_epoch_stats(&mut self);

    /// Cumulative per-router energy event counters.
    fn counters(&self) -> &[EventCounters];

    /// Per-router raw (mode-independent) error probabilities — the
    /// supervised labels for the decision-tree baseline. Called once per
    /// pre-training epoch, so an uncached per-node recompute is fine.
    fn raw_error_probabilities(&self) -> Vec<f64>;

    /// Sets router `node`'s operation mode.
    fn set_mode(&mut self, node: usize, mode: OperationMode);

    /// Sets every router's operation mode.
    fn set_all_modes(&mut self, mode: OperationMode);

    /// Updates per-router temperatures (°C) from the thermal model.
    fn set_temperatures(&mut self, temps: &[f64]);

    /// Updates per-router mean output-link utilizations (flits/cycle).
    fn set_utilizations(&mut self, utils: &[f64]);
}

/// A [`SimBackend`] whose replicate lanes can share immutable tables.
///
/// `BatchSim` — the batched execution engine behind
/// [`Experiment::run_batch`](crate::experiment::Experiment::run_batch)
/// — steps K lanes of one campaign cell in lockstep. Lanes differ only
/// in their seeds, so everything derived from the topology and the
/// hard-fault schedule (route tables, neighbor tables, post-fault
/// reroute tables) is identical across lanes and is built once per
/// [`SharedRegistry`] through [`make_shared`](Self::make_shared): once
/// per call of the batch entry points, and once per campaign run under
/// `rlnoc-runner`, whose registry spans every lockstep group and
/// singleton task of the run. The sharing must be invisible: a backend
/// built by [`build_with_shared`](Self::build_with_shared) must be
/// byte-identical in behavior to one built by [`SimBackend::build`] —
/// the lane-equivalence test wall checks exactly this.
pub trait BatchSimBackend: SimBackend + Sized {
    /// Immutable state shared by every lane of a batch. Cloning must be
    /// cheap (reference-counted) and must alias, not copy.
    type Shared: Clone;

    /// Builds the shared tables for one campaign cell's topology.
    fn make_shared(noc: &NocConfig) -> Self::Shared;

    /// [`SimBackend::build`], but aliasing `shared` instead of
    /// rebuilding per-lane copies of the immutable tables.
    fn build_with_shared(
        shared: &Self::Shared,
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self;
}

/// Shared tables for the lanes of one scope (a batch call, or a whole
/// campaign run), one [`BatchSimBackend::Shared`] per distinct
/// (mesh, rendered hard-fault schedule) pair.
///
/// The key is semantic — the schedule's rendered text, not its `Arc` —
/// so lanes with different schedules or meshes never alias one
/// another's tables, while every lane of a pair resolves the same
/// instance however the lanes are grouped. The registry lives exactly as
/// long as its owner keeps it: tables never outlive the run that built
/// them, so repeated runs each pay their own builds.
pub struct SharedRegistry<B: BatchSimBackend = Network<FaultTolerantProtocol>> {
    entries: Mutex<Vec<(RegistryKey, B::Shared)>>,
}

/// A [`SharedRegistry`] key: the mesh and the rendered schedule (empty
/// when fault-free).
type RegistryKey = (Topo, String);

impl<B: BatchSimBackend> SharedRegistry<B> {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The tables for `noc`'s mesh under `schedule`, built on first
    /// request and aliased by every later one.
    pub(crate) fn tables(
        &self,
        noc: &NocConfig,
        schedule: Option<&HardFaultSchedule>,
    ) -> B::Shared {
        let key = (
            noc.mesh,
            schedule.map(HardFaultSchedule::to_text).unwrap_or_default(),
        );
        let mut entries = self.entries.lock().expect("shared-table registry poisoned");
        if let Some((_, tables)) = entries.iter().find(|(k, _)| *k == key) {
            return tables.clone();
        }
        let tables = B::make_shared(noc);
        entries.push((key, tables.clone()));
        tables
    }
}

impl<B: BatchSimBackend> Default for SharedRegistry<B> {
    fn default() -> Self {
        Self::new()
    }
}

/// The production backend: the optimized kernel behind every figure.
impl SimBackend for Network<FaultTolerantProtocol> {
    fn build(
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let protocol = FaultTolerantProtocol::new(noc.mesh, timing, variation, protocol_seed);
        Network::new(noc, protocol, network_seed)
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        Network::set_telemetry(self, telemetry);
    }

    fn set_hard_faults(&mut self, events: Vec<HardFaultEvent>) {
        Network::set_hard_faults(self, events);
    }

    fn cycle(&self) -> u64 {
        Network::cycle(self)
    }

    fn offer(&mut self, src: NodeId, dst: NodeId) {
        Network::offer(self, src, dst);
    }

    fn step(&mut self) {
        Network::step(self);
    }

    fn is_quiescent(&self) -> bool {
        Network::is_quiescent(self)
    }

    fn stats(&self) -> &NetworkStats {
        Network::stats(self)
    }

    fn reset_stats(&mut self) {
        Network::reset_stats(self);
    }

    fn epoch_stats(&self) -> &[RouterEpochStats] {
        Network::epoch_stats_raw(self)
    }

    fn finish_epoch(&mut self) {
        Network::finish_epoch(self);
    }

    fn reset_epoch_stats(&mut self) {
        Network::reset_epoch_stats(self);
    }

    fn counters(&self) -> &[EventCounters] {
        Network::counters(self)
    }

    fn raw_error_probabilities(&self) -> Vec<f64> {
        self.protocol().raw_error_probabilities().to_vec()
    }

    fn set_mode(&mut self, node: usize, mode: OperationMode) {
        self.protocol_mut().set_mode(node, mode);
    }

    fn set_all_modes(&mut self, mode: OperationMode) {
        self.protocol_mut().set_all_modes(mode);
    }

    fn set_temperatures(&mut self, temps: &[f64]) {
        self.protocol_mut().set_temperatures(temps);
    }

    fn set_utilizations(&mut self, utils: &[f64]) {
        self.protocol_mut().set_utilizations(utils);
    }
}

impl BatchSimBackend for Network<FaultTolerantProtocol> {
    type Shared = SharedTables;

    fn make_shared(noc: &NocConfig) -> SharedTables {
        SharedTables::new(noc.mesh)
    }

    fn build_with_shared(
        shared: &SharedTables,
        noc: NocConfig,
        timing: TimingErrorModel,
        variation: VariationMap,
        protocol_seed: u64,
        network_seed: u64,
    ) -> Self {
        let protocol = FaultTolerantProtocol::new(noc.mesh, timing, variation, protocol_seed);
        Network::with_shared(noc, protocol, network_seed, shared)
    }
}
