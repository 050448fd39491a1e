//! The benchmark's metric sets. Every workload reports every metric of
//! a set; a layer a workload does not exercise reports 0 there.

use crate::probe::Layers;
use crate::report::{median, ms, quantile, Checks};
use rlnoc_core::ExperimentReport;
use rlnoc_runner::CheckpointDir;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics (the `--trace 0` run). See README.md for each
/// metric's definition per workload.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub wall_s: f64,
    pub setup_s: f64,
    pub router_cycles_per_s: f64,
    pub peak_heap_mb: f64,
    pub result_p50_ms: f64,
    pub result_p99_ms: f64,
    pub results_per_s: f64,
    pub ok_frac: f64,
    pub sim_rl_latency_vs_crc: f64,
    pub sim_rl_efficiency_vs_crc: f64,
    pub sim_delivered_frac: f64,
}

impl EndToEnd {
    pub fn list(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("wall_s", self.wall_s, "s"),
            ("setup_s", self.setup_s, "s"),
            ("router_cycles_per_s", self.router_cycles_per_s, "1/s"),
            ("peak_heap_mb", self.peak_heap_mb, "MiB"),
            ("result_p50_ms", self.result_p50_ms, "ms"),
            ("result_p99_ms", self.result_p99_ms, "ms"),
            ("results_per_s", self.results_per_s, "1/s"),
            ("ok_frac", self.ok_frac, "frac"),
            ("sim_rl_latency_vs_crc", self.sim_rl_latency_vs_crc, "ratio"),
            (
                "sim_rl_efficiency_vs_crc",
                self.sim_rl_efficiency_vs_crc,
                "ratio",
            ),
            ("sim_delivered_frac", self.sim_delivered_frac, "frac"),
        ]
    }
}

/// Per-layer metrics (the `--trace 1` run).
#[derive(Debug, Default)]
pub struct PerLayer {
    pub sim_step_s: f64,
    pub sim_step_calls: f64,
    pub sim_step_ns_per_router_cycle: f64,
    pub sim_offer_s: f64,
    pub sim_offer_calls: f64,
    pub sim_control_io_s: f64,
    pub sim_control_io_calls: f64,
    pub sim_build_s: f64,
    pub sim_build_calls: f64,
    pub sim_make_shared_s: f64,
    pub hardfault_step_s: f64,
    pub hardfault_step_calls: f64,
    pub hardfault_events: f64,
    pub routing_mesh_p50_ms: f64,
    pub routing_torus_p50_ms: f64,
    pub routing_compute_calls: f64,
    pub core_self_s: f64,
    pub core_self_share: f64,
    pub core_packets_delivered: f64,
    pub core_flits_delivered: f64,
    pub core_reroute_events: f64,
    pub runner_tasks: f64,
    pub runner_busy_s: f64,
    pub runner_idle_s: f64,
    pub runner_task_p50_s: f64,
    pub runner_task_max_s: f64,
    pub checkpoint_store_p50_ms: f64,
    pub checkpoint_store_p99_ms: f64,
    pub checkpoint_load_p50_ms: f64,
    pub checkpoint_bytes: f64,
    pub serve_submit_rtt_p50_ms: f64,
    pub serve_submit_rtt_p99_ms: f64,
    pub serve_result_rtt_p50_ms: f64,
    pub serve_backlog_max: f64,
    pub serve_refused: f64,
    pub loadgen_lag_p99_ms: f64,
    pub loadgen_sent: f64,
    pub trace_overhead_frac: f64,
}

impl PerLayer {
    pub fn list(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("sim.step_s", self.sim_step_s, "s"),
            ("sim.step_calls", self.sim_step_calls, "count"),
            (
                "sim.step_ns_per_router_cycle",
                self.sim_step_ns_per_router_cycle,
                "ns",
            ),
            ("sim.offer_s", self.sim_offer_s, "s"),
            ("sim.offer_calls", self.sim_offer_calls, "count"),
            ("sim.control_io_s", self.sim_control_io_s, "s"),
            ("sim.control_io_calls", self.sim_control_io_calls, "count"),
            ("sim.build_s", self.sim_build_s, "s"),
            ("sim.build_calls", self.sim_build_calls, "count"),
            ("sim.make_shared_s", self.sim_make_shared_s, "s"),
            ("hardfault.step_s", self.hardfault_step_s, "s"),
            ("hardfault.step_calls", self.hardfault_step_calls, "count"),
            ("hardfault.events", self.hardfault_events, "count"),
            (
                "routing.compute_ms.mesh8x8.p50",
                self.routing_mesh_p50_ms,
                "ms",
            ),
            (
                "routing.compute_ms.torus16x16.p50",
                self.routing_torus_p50_ms,
                "ms",
            ),
            ("routing.compute_calls", self.routing_compute_calls, "count"),
            ("core.self_s", self.core_self_s, "s"),
            ("core.self_share", self.core_self_share, "frac"),
            (
                "core.packets_delivered",
                self.core_packets_delivered,
                "count",
            ),
            ("core.flits_delivered", self.core_flits_delivered, "count"),
            ("core.reroute_events", self.core_reroute_events, "count"),
            ("runner.tasks", self.runner_tasks, "count"),
            ("runner.busy_s", self.runner_busy_s, "s"),
            ("runner.idle_s", self.runner_idle_s, "s"),
            ("runner.task_p50_s", self.runner_task_p50_s, "s"),
            ("runner.task_max_s", self.runner_task_max_s, "s"),
            (
                "checkpoint.store_ms.p50",
                self.checkpoint_store_p50_ms,
                "ms",
            ),
            (
                "checkpoint.store_ms.p99",
                self.checkpoint_store_p99_ms,
                "ms",
            ),
            ("checkpoint.load_ms.p50", self.checkpoint_load_p50_ms, "ms"),
            ("checkpoint.bytes", self.checkpoint_bytes, "bytes"),
            (
                "serve.submit_rtt_ms.p50",
                self.serve_submit_rtt_p50_ms,
                "ms",
            ),
            (
                "serve.submit_rtt_ms.p99",
                self.serve_submit_rtt_p99_ms,
                "ms",
            ),
            (
                "serve.result_rtt_ms.p50",
                self.serve_result_rtt_p50_ms,
                "ms",
            ),
            ("serve.backlog_max", self.serve_backlog_max, "count"),
            ("serve.refused", self.serve_refused, "count"),
            ("loadgen.lag_ms.p99", self.loadgen_lag_p99_ms, "ms"),
            ("loadgen.sent", self.loadgen_sent, "count"),
            ("trace.overhead_frac", self.trace_overhead_frac, "frac"),
        ]
    }

    /// Fills the backend, control-plane and runner metrics from traced
    /// rounds of the same work. Every time comes from one round, the one
    /// with the median wall time, so the layer times, `core.self_s`,
    /// `runner.busy_s` and `runner.idle_s` add up exactly. Counts must
    /// repeat exactly across rounds.
    pub fn set_traced(&mut self, rounds: &[TracedRound], jobs: usize, checks: &mut Checks) {
        let counts = |l: &Layers| {
            (
                l.step_calls,
                l.offer_calls,
                l.control_calls,
                l.build_calls,
                l.fault_events,
            )
        };
        for r in &rounds[1..] {
            checks.check(counts(&r.layers) == counts(&rounds[0].layers), || {
                "traced call counts differ between rounds".to_string()
            });
        }
        for r in rounds {
            for (task_s, layers) in r.task_s.iter().zip(&r.task_layers) {
                let own = task_s - secs(layers.backend_ns());
                checks.check(own >= 0.0, || {
                    format!("a task's timed backend calls exceed its time ({own} s self)")
                });
            }
        }
        let mut by_wall: Vec<&TracedRound> = rounds.iter().collect();
        by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let r = by_wall[by_wall.len() / 2];
        let l = &r.layers;
        self.sim_step_s = secs(l.step_ns);
        self.sim_step_calls = l.step_calls as f64;
        self.sim_step_ns_per_router_cycle = l.step_ns as f64 / l.step_router_cycles.max(1) as f64;
        self.sim_offer_s = secs(l.offer_ns);
        self.sim_offer_calls = l.offer_calls as f64;
        self.sim_control_io_s = secs(l.control_ns);
        self.sim_control_io_calls = l.control_calls as f64;
        self.sim_build_s = secs(l.build_ns);
        self.sim_build_calls = l.build_calls as f64;
        self.sim_make_shared_s = secs(l.make_shared_ns);
        self.hardfault_step_s = secs(l.fault_step_ns);
        self.hardfault_step_calls = l.fault_step_calls as f64;
        self.hardfault_events = l.fault_events as f64;

        let busy: f64 = r.task_s.iter().sum();
        self.core_self_s = busy - secs(l.backend_ns());
        self.core_self_share = self.core_self_s / busy;
        self.runner_tasks = r.tasks as f64;
        self.runner_busy_s = busy;
        self.runner_idle_s = jobs as f64 * r.wall_s - busy;
        self.runner_task_p50_s = median(&r.task_s);
        self.runner_task_max_s = r.task_s.iter().copied().fold(0.0, f64::max);
    }

    /// Work counts from the workload's reports.
    pub fn set_core_counts(&mut self, reports: &[&ExperimentReport]) {
        self.core_packets_delivered = reports.iter().map(|r| r.packets_delivered as f64).sum();
        self.core_flits_delivered = reports.iter().map(|r| r.flits_delivered as f64).sum();
        self.core_reroute_events = reports.iter().map(|r| r.reroute_events as f64).sum();
    }

    pub fn set_checkpoint(&mut self, c: &CheckpointTimes) {
        self.checkpoint_store_p50_ms = median(&c.store_ms);
        self.checkpoint_store_p99_ms =
            quantile(&c.store_ms, crate::report::tail_q(c.store_ms.len()));
        self.checkpoint_load_p50_ms = median(&c.load_ms);
        self.checkpoint_bytes = c.bytes as f64;
    }
}

pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// One traced execution of a workload's tasks on `jobs` workers: the
/// summed layer times, and per queue item its host time and layers.
#[derive(Debug, Default)]
pub struct TracedRound {
    pub layers: Layers,
    pub task_s: Vec<f64>,
    pub task_layers: Vec<Layers>,
    pub tasks: usize,
    pub wall_s: f64,
}

impl TracedRound {
    /// Appends another execution's items (e.g. the next cell of the
    /// same round, run after this one).
    pub fn merge(&mut self, other: TracedRound) {
        self.layers.add(&other.layers);
        self.task_s.extend(other.task_s);
        self.task_layers.extend(other.task_layers);
        self.tasks += other.tasks;
        self.wall_s += other.wall_s;
    }

    pub fn push(&mut self, task_s: f64, layers: Layers) {
        self.layers.add(&layers);
        self.task_s.push(task_s);
        self.task_layers.push(layers);
    }
}

/// Timed `CheckpointDir::store` / `load` calls.
#[derive(Debug, Default)]
pub struct CheckpointTimes {
    pub store_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub bytes: u64,
}

/// Stores and reloads every report of a workload through
/// `CheckpointDir` under `dir`, one checkpoint set per
/// `(campaign fingerprint, reports)` entry, timing each call. A reload
/// must equal the stored report.
pub fn checkpoint_replay(
    dir: &Path,
    campaigns: &[(u64, &[ExperimentReport])],
    checks: &mut Checks,
) -> CheckpointTimes {
    let mut t = CheckpointTimes::default();
    for &(fingerprint, reports) in campaigns {
        let ckpt = CheckpointDir::open(dir, fingerprint, reports.len())
            .expect("scratch checkpoint directory must open");
        for (index, report) in reports.iter().enumerate() {
            let t0 = Instant::now();
            let stored = ckpt.store(index, report);
            t.store_ms.push(ms(t0.elapsed()));
            checks.check(stored.is_ok(), || {
                format!("checkpoint store failed: {stored:?}")
            });
            let path = ckpt.path().join(format!("task-{index:04}.ckpt"));
            t.bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
        for (index, report) in reports.iter().enumerate() {
            let t0 = Instant::now();
            let loaded = ckpt.load(index);
            t.load_ms.push(ms(t0.elapsed()));
            checks.check(loaded.as_ref() == Some(report), || {
                format!("checkpoint {index} did not reload the stored report")
            });
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    t
}
