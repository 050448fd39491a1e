//! The two simulation workloads, `paper_figures` and `fault_churn`:
//! campaigns run through `RunnerConfig::run_campaign` for the
//! end-to-end figures, and through a mirror of its schedule on the
//! traced backend for the per-layer split.

use crate::metrics::{checkpoint_replay, EndToEnd, PerLayer, TracedRound};
use crate::probe::{self, Probe};
use crate::report::{digest, median, ms, quantile, tail_q, Checks};
use crate::Args;
use noc_fault::hardfault::{HardFault, HardFaultSchedule};
use noc_sim::config::NocConfig;
use noc_sim::network::SharedTables;
use noc_sim::routing::FaultRoutes;
use noc_sim::topology::{Direction, NodeId, Topo};
use noc_sim::traffic::TrafficPattern;
use rlnoc_core::benchmarks::PhaseSpec;
use rlnoc_core::campaign::{Campaign, CampaignResult, CampaignTask};
use rlnoc_core::{ErrorControlScheme, Experiment, ExperimentReport, WorkloadProfile};
use rlnoc_runner::{pool, RunnerConfig};
use rlnoc_serve::render_result_text;
use rlnoc_telemetry::Telemetry;
use std::cmp::Reverse;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads for every campaign (the reference box has 2 cores).
const JOBS: usize = 2;

/// Pre-training for the learning schemes in `paper_figures`, shortened
/// from the paper's 600 K cycles so one campaign fits a run several
/// times over. With the measured window capped below, pre-training is
/// still most of the campaign's simulated cycles.
const PAPER_PRETRAIN: u64 = 20_000;
const PAPER_WARMUP: u64 = 1_000;
const PAPER_MEASURE: u64 = 4_000;

/// `fault_churn` timeline: link failures land uniformly inside the
/// measured window, under sparse uniform load.
const CHURN_WARMUP: u64 = 200;
const CHURN_MEASURE: u64 = 2_000;
const CHURN_RATE: f64 = 0.002;
const CHURN_BATCH: usize = 8;

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// One campaign of a workload, with the runner configuration it runs
/// under. The configuration is spelled out, never read from the
/// environment.
struct Cell {
    name: &'static str,
    campaign: Campaign,
    runner: RunnerConfig,
}

fn runner(batch: usize) -> RunnerConfig {
    RunnerConfig {
        jobs: JOBS,
        snapshot_dir: None,
        resume: false,
        batch,
        telemetry: Telemetry::disabled(),
    }
}

/// The paper grid: 11 PARSEC profiles × 4 schemes on the 8×8 mesh.
fn paper_cells(seed: u64) -> Vec<Cell> {
    let mut campaign = Campaign::paper_default();
    campaign.seed = seed;
    campaign.pretrain_cycles = PAPER_PRETRAIN;
    campaign.warmup_cycles = PAPER_WARMUP;
    campaign.measure_cycles = Some(PAPER_MEASURE);
    vec![Cell {
        name: "paper8x8",
        campaign,
        runner: runner(1),
    }]
}

fn sparse_uniform() -> WorkloadProfile {
    WorkloadProfile {
        name: "sparse",
        phases: vec![PhaseSpec {
            cycles: CHURN_MEASURE,
            injection_rate: CHURN_RATE,
            pattern: TrafficPattern::UniformRandom,
        }],
        duration_cycles: CHURN_MEASURE,
    }
}

fn churn_cell(name: &'static str, topo: Topo, links: usize, replicates: usize, seed: u64) -> Cell {
    let schedule = HardFaultSchedule::random(
        topo,
        links,
        0,
        (CHURN_WARMUP, CHURN_WARMUP + CHURN_MEASURE),
        seed,
    );
    let campaign = Campaign {
        schemes: vec![ErrorControlScheme::StaticCrc],
        workloads: vec![sparse_uniform()],
        noc: NocConfig::builder().topology(topo).build(),
        seed,
        replicates,
        pretrain_cycles: 0,
        warmup_cycles: CHURN_WARMUP,
        measure_cycles: Some(CHURN_MEASURE),
        drain_limit: 20_000,
        hard_faults: Some(Arc::new(schedule)),
        customize: None,
        telemetry: Telemetry::disabled(),
    };
    Cell {
        name,
        campaign,
        runner: runner(CHURN_BATCH),
    }
}

/// Dense link failures on an 8×8 mesh (X-Y until the first fault) and
/// on a 16×16 torus (table routing, 4× the routers). Lane counts are
/// whole lockstep groups for both workers; the torus cell carries most
/// of the time and most of the results, so the result percentiles
/// describe it rather than straddle the two cells.
fn churn_cells(seed: u64) -> Vec<Cell> {
    vec![
        churn_cell(
            "mesh8x8",
            Topo::mesh(8, 8),
            40,
            16,
            rand::seed_stream(seed, 1),
        ),
        churn_cell(
            "torus16x16",
            Topo::torus(16, 16),
            100,
            32,
            rand::seed_stream(seed, 2),
        ),
    ]
}

/// Builds the workload's cells and everything handed to the runner
/// before the first simulated cycle (tasks, experiments, and for
/// lockstep cells the shared tables), `SETUP_REPS` times; returns the
/// last build and the median build time.
fn setup(build: fn(u64) -> Vec<Cell>, seed: u64) -> (Vec<Cell>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        cells = build(seed);
        for cell in &cells {
            let experiments: Vec<Experiment> = cell
                .campaign
                .tasks()
                .iter()
                .map(|t| cell.campaign.experiment(t))
                .collect();
            std::hint::black_box(experiments);
            std::hint::black_box(cell.campaign.fingerprint());
            if cell.runner.batch > 1 {
                std::hint::black_box(SharedTables::new(cell.campaign.noc.mesh));
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    (cells, median(&times))
}

/// A campaign run on the traced backend.
struct Traced {
    reports: Vec<ExperimentReport>,
    round: TracedRound,
}

/// The runner's batch grouping: replicate lanes of one
/// (workload, scheme) cell, in scheduling order, chunked by `batch`.
/// Mirrors `rlnoc_runner::runner::batch_groups`, which is private.
fn batch_groups(pending: Vec<CampaignTask>, batch: usize) -> Vec<Vec<CampaignTask>> {
    let mut cells: Vec<((usize, ErrorControlScheme), Vec<CampaignTask>)> = Vec::new();
    for task in pending {
        let key = (task.workload, task.scheme);
        match cells.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lanes)) => lanes.push(task),
            None => cells.push((key, vec![task])),
        }
    }
    cells
        .into_iter()
        .flat_map(|(_, lanes)| {
            lanes
                .chunks(batch.max(1))
                .map(<[CampaignTask]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Runs `cell` with `RunnerConfig::run_campaign`'s schedule (learning
/// tasks first, lockstep groups of `batch` lanes, `jobs` workers) on the
/// traced backend, through `Experiment::run_with_backend` and
/// `Experiment::run_batch_inspect_with_backend`.
fn run_traced(cell: &Cell) -> Traced {
    let campaign = &cell.campaign;
    let t0 = Instant::now();
    let mut pending = campaign.tasks();
    pending.sort_by_key(|t| (Reverse(t.scheme.is_learning()), t.index));
    let groups = batch_groups(pending, cell.runner.batch);
    let done = pool::run_indexed(
        groups,
        cell.runner.jobs,
        &Telemetry::disabled(),
        |_, group| {
            probe::take();
            let start = Instant::now();
            let reports: Vec<ExperimentReport> = if group.len() == 1 {
                vec![campaign.experiment(&group[0]).run_with_backend::<Probe>()]
            } else {
                let lanes = group.iter().map(|t| campaign.experiment(t)).collect();
                Experiment::run_batch_inspect_with_backend::<Probe>(lanes)
                    .into_iter()
                    .map(|(report, _)| report)
                    .collect()
            };
            let trace = (start.elapsed().as_secs_f64(), probe::take());
            let indexed: Vec<(usize, ExperimentReport)> =
                group.iter().map(|t| t.index).zip(reports).collect();
            (indexed, trace)
        },
    );
    let mut round = TracedRound {
        wall_s: t0.elapsed().as_secs_f64(),
        ..TracedRound::default()
    };
    let mut slots: Vec<Option<ExperimentReport>> = vec![None; campaign.tasks().len()];
    for (indexed, (task_s, layers)) in done {
        round.tasks += indexed.len();
        for (index, report) in indexed {
            slots[index] = Some(report);
        }
        round.push(task_s, layers);
    }
    Traced {
        reports: slots
            .into_iter()
            .map(|s| s.expect("every task ran"))
            .collect(),
        round,
    }
}

/// A production round: every cell through `run_campaign_with`, timing
/// each task's report from the campaign's start.
struct Round {
    texts: Vec<String>,
    wall_s: f64,
    result_ms: Vec<f64>,
}

fn run_production(cells: &[Cell]) -> Round {
    let t0 = Instant::now();
    let mut texts = Vec::with_capacity(cells.len());
    let mut result_ms = Vec::new();
    for cell in cells {
        let start = Instant::now();
        let done: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
        let result = cell.runner.run_campaign_with(&cell.campaign, &|_, _| {
            done.lock()
                .expect("result clock lock")
                .push(start.elapsed());
        });
        result_ms.extend(
            done.into_inner()
                .expect("result clock lock")
                .into_iter()
                .map(ms),
        );
        texts.push(render_result_text(&result.reports));
    }
    Round {
        texts,
        wall_s: t0.elapsed().as_secs_f64(),
        result_ms,
    }
}

/// The workload's cells, the median setup time, and a warm-up round on
/// the traced backend that yields the reference reports and the exact
/// simulated router-cycle count (both deterministic per seed).
fn prepare(args: &Args, checks: &mut Checks) -> (Vec<Cell>, f64, Vec<Traced>, Vec<String>) {
    let build = if args.workload == "paper_figures" {
        paper_cells
    } else {
        churn_cells
    };
    let (cells, setup_s) = setup(build, args.seed);
    let reference: Vec<Traced> = cells.iter().map(run_traced).collect();
    let texts: Vec<String> = reference
        .iter()
        .map(|t| render_result_text(&t.reports))
        .collect();
    for ((cell, t), text) in cells.iter().zip(&reference).zip(&texts) {
        check_reports(cell, &t.reports, checks);
        eprintln!(
            "{}: {} reports, digest {:016x}",
            cell.name,
            t.reports.len(),
            digest(text.as_bytes())
        );
    }
    (cells, setup_s, reference, texts)
}

/// Timed rounds on the production path, each checked against the
/// reference reports.
pub fn end_to_end(args: &Args, checks: &mut Checks) -> EndToEnd {
    let (cells, setup_s, reference, texts) = prepare(args, checks);
    let router_cycles: u64 = reference.iter().map(|t| t.round.layers.router_cycles).sum();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut walls = Vec::new();
    let mut result_ms = Vec::new();
    while walls.len() < 3 || Instant::now() < deadline {
        let round = run_production(&cells);
        check_texts(&cells, &round.texts, &texts, "production", checks);
        walls.push(round.wall_s);
        result_ms.extend(round.result_ms);
    }
    let wall_s = median(&walls);
    let q = tail_q(result_ms.len());
    eprintln!(
        "{} rounds, {} results, result tail quantile {q:.3}",
        walls.len(),
        result_ms.len()
    );
    let reports: Vec<&ExperimentReport> = reference.iter().flat_map(|t| &t.reports).collect();
    let (lat, eff) = rl_vs_crc(&cells, &reference);
    EndToEnd {
        wall_s,
        setup_s,
        router_cycles_per_s: router_cycles as f64 / wall_s,
        peak_heap_mb: crate::heap::peak_mb(),
        result_p50_ms: median(&result_ms),
        result_p99_ms: quantile(&result_ms, q),
        results_per_s: reports.len() as f64 / wall_s,
        ok_frac: 0.0,
        sim_rl_latency_vs_crc: lat,
        sim_rl_efficiency_vs_crc: eff,
        sim_delivered_frac: delivered_frac(&reports),
    }
}

fn check_texts(cells: &[Cell], got: &[String], want: &[String], what: &str, checks: &mut Checks) {
    for (cell, (got, want)) in cells.iter().zip(got.iter().zip(want)) {
        checks.check(got == want, || {
            format!(
                "{}: {what} reports differ from the reference round",
                cell.name
            )
        });
    }
}

/// Every task delivered traffic, and hard faults applied exactly where
/// a schedule exists.
fn check_reports(cell: &Cell, reports: &[ExperimentReport], checks: &mut Checks) {
    let faulty = cell.campaign.hard_faults.is_some();
    for r in reports {
        checks.check(r.packets_delivered > 0, || {
            format!(
                "{}: {} {} delivered nothing",
                cell.name, r.workload, r.scheme
            )
        });
        checks.check((r.hard_fault_events > 0) == faulty, || {
            format!(
                "{}: {} hard-fault events with a schedule: {faulty}",
                cell.name, r.hard_fault_events
            )
        });
    }
}

/// Figs. 8 and 9 geomeans (RL over CRC) over the cells that run both
/// schemes; 1.0 (the empty geomean) when none does.
fn rl_vs_crc(cells: &[Cell], rounds: &[Traced]) -> (f64, f64) {
    let mut lat = Vec::new();
    let mut eff = Vec::new();
    for (cell, round) in cells.iter().zip(rounds) {
        let schemes = &cell.campaign.schemes;
        if !(schemes.contains(&ErrorControlScheme::ProposedRl)
            && schemes.contains(&ErrorControlScheme::StaticCrc))
        {
            continue;
        }
        let result = CampaignResult {
            reports: round.reports.clone(),
        };
        lat.push(
            result.geomean_normalized(ErrorControlScheme::ProposedRl, |r| r.avg_latency_cycles),
        );
        eff.push(
            result.geomean_normalized(ErrorControlScheme::ProposedRl, |r| r.energy_efficiency()),
        );
    }
    (geomean(&lat), geomean(&eff))
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Delivered ÷ (offered + refused as unreachable), over every report.
pub fn delivered_frac(reports: &[&ExperimentReport]) -> f64 {
    let delivered: u64 = reports.iter().map(|r| r.packets_delivered).sum();
    let offered: u64 = reports
        .iter()
        .map(|r| r.packets_injected + r.packets_refused_unreachable)
        .sum();
    delivered as f64 / offered.max(1) as f64
}

/// The traced run: alternating production and traced rounds (traced
/// reports must be byte-identical), then reroute and checkpoint
/// replays.
pub fn per_layer(args: &Args, checks: &mut Checks) -> PerLayer {
    let (cells, _, reference, texts) = prepare(args, checks);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain_walls = Vec::new();
    let mut rounds: Vec<TracedRound> = Vec::new();
    while rounds.len() < 2 || Instant::now() < deadline {
        plain_walls.push(run_production(&cells).wall_s);
        let traced: Vec<Traced> = cells.iter().map(run_traced).collect();
        let got: Vec<String> = traced
            .iter()
            .map(|t| render_result_text(&t.reports))
            .collect();
        check_texts(&cells, &got, &texts, "traced", checks);
        let mut round = TracedRound::default();
        for t in traced {
            round.merge(t.round);
        }
        rounds.push(round);
    }
    let mut p = PerLayer::default();
    p.set_traced(&rounds, JOBS, checks);
    let reports: Vec<&ExperimentReport> = reference.iter().flat_map(|t| &t.reports).collect();
    p.set_core_counts(&reports);
    // Every task outlives its schedule, so the probe's fault steps must
    // account for every scheduled event of every task.
    let scheduled: usize = cells
        .iter()
        .filter_map(|c| {
            let schedule = c.campaign.hard_faults.as_ref()?;
            Some(schedule.entries.len() * c.campaign.tasks().len())
        })
        .sum();
    checks.check(rounds[0].layers.fault_events == scheduled as u64, || {
        format!(
            "probe saw {} hard-fault events, the schedules hold {scheduled}",
            rounds[0].layers.fault_events
        )
    });
    let (mesh_ms, torus_ms, calls) = reroute_replay(&cells, &reference, checks);
    p.routing_mesh_p50_ms = median(&mesh_ms);
    p.routing_torus_p50_ms = median(&torus_ms);
    p.routing_compute_calls = calls as f64;
    let stored: Vec<(u64, &[ExperimentReport])> = cells
        .iter()
        .zip(&reference)
        .map(|(cell, t)| (cell.campaign.fingerprint(), t.reports.as_slice()))
        .collect();
    p.set_checkpoint(&checkpoint_replay(
        &args.scratch.join("checkpoints"),
        &stored,
        checks,
    ));
    let traced_walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    p.trace_overhead_frac = median(&traced_walls) / median(&plain_walls) - 1.0;
    if args.workload == "paper_figures" {
        crate::serve::serve_pass(args, &cells[0].campaign, &texts[0], checks, &mut p);
    }
    p
}

/// Liveness after each batch of same-cycle schedule entries, with
/// `FaultRoutes::compute` timed on each prefix alone (no evacuation, no
/// cache). Returns per-compute times for the mesh and torus cells and
/// the number of computes per replay. The table after the last prefix
/// must leave as many pairs unreachable as the cell's reports state.
fn reroute_replay(
    cells: &[Cell],
    reference: &[Traced],
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>, usize) {
    const REPS: usize = 5;
    let mut mesh_ms = Vec::new();
    let mut torus_ms = Vec::new();
    let mut calls = 0;
    for (cell, traced) in cells.iter().zip(reference) {
        let Some(schedule) = &cell.campaign.hard_faults else {
            continue;
        };
        let topo = schedule.topo;
        let n = topo.num_nodes();
        let mut prefixes: Vec<(Vec<bool>, Vec<[bool; 7]>)> = Vec::new();
        let mut node_dead = vec![false; n];
        let mut link_dead = vec![[false; 7]; n];
        let entries = &schedule.entries;
        for (i, e) in entries.iter().enumerate() {
            kill(topo, e.fault, &mut node_dead, &mut link_dead);
            if entries.get(i + 1).is_none_or(|next| next.cycle != e.cycle) {
                prefixes.push((node_dead.clone(), link_dead.clone()));
            }
        }
        calls += prefixes.len();
        let mut last = 0;
        let out = if topo.has_wraparound() {
            &mut torus_ms
        } else {
            &mut mesh_ms
        };
        for _ in 0..REPS {
            for (dead_nodes, dead_links) in &prefixes {
                let alive: Vec<bool> = dead_nodes.iter().map(|d| !d).collect();
                let t0 = Instant::now();
                let routes = FaultRoutes::compute(topo, &alive, |node: NodeId, dir: Direction| {
                    !dead_links[node.index()][dir.index()]
                });
                out.push(ms(t0.elapsed()));
                last = std::hint::black_box(routes).unreachable_pairs();
            }
        }
        for r in &traced.reports {
            checks.check(r.unreachable_pairs == last, || {
                format!(
                    "{}: replayed routes leave {last} pairs unreachable, the report {}",
                    cell.name, r.unreachable_pairs
                )
            });
        }
    }
    (mesh_ms, torus_ms, calls)
}

fn kill(topo: Topo, fault: HardFault, node_dead: &mut [bool], link_dead: &mut [[bool; 7]]) {
    let mut cut = |node: NodeId, dir: Direction| {
        link_dead[node.index()][dir.index()] = true;
        if let Some(peer) = topo.neighbor(node, dir) {
            link_dead[peer.index()][dir.opposite().index()] = true;
        }
    };
    match fault {
        HardFault::Link { node, dir } => cut(NodeId(node), dir),
        HardFault::Router { node } => {
            node_dead[usize::from(node)] = true;
            for &dir in topo.compass() {
                cut(NodeId(node), dir);
            }
        }
    }
}
