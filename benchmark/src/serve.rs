//! `serve_open_loop`: an in-process `rlnoc-serve` with two workers,
//! driven by one generator thread over one TCP connection in two
//! phases.
//!
//! 1. Open loop: arrivals at a fixed rate, mostly `CampaignSpec::tiny`
//!    with every `QUICK_EVERY`-th a `CampaignSpec::quick`, spread over
//!    three tenants at priorities 1, 2 and 4. Each campaign is timed
//!    from its due time to its final state.
//! 2. Backlog: a staged backlog of tiny campaigns on a paused server,
//!    released and drained at full speed (the capacity measurement),
//!    with the fair-share order check of the service load test.
//!
//! The workload runs by name but is not in `BENCHMARK.json`: its times
//! are bound by filesystem metadata latency, which on the reference box
//! swings several-fold between runs (see README.md). The traced run of
//! `paper_figures` measures the service layer through [`serve_pass`].

use crate::metrics::{checkpoint_replay, EndToEnd, PerLayer, TracedRound};
use crate::probe::{self, Probe};
use crate::report::{digest, median, ms, quantile, tail_q, Checks};
use crate::sim::{delivered_frac, geomean};
use crate::Args;
use noc_sim::network::Network;
use rlnoc_core::backend::SimBackend;
use rlnoc_core::campaign::CampaignTask;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_core::{Campaign, ErrorControlScheme, ExperimentReport, FaultTolerantProtocol};
use rlnoc_runner::{parse_report, pool};
use rlnoc_serve::{render_result_text, CampaignState, Client, Server, ServerConfig};
use rlnoc_telemetry::Telemetry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The service load test's tenants and priorities.
const TENANTS: [(&str, u32); 3] = [("alpha", 1), ("bravo", 2), ("charlie", 4)];
/// Service worker threads.
const JOBS: usize = 2;
/// Open-loop arrival rate, campaigns per second.
const RATE: f64 = 100.0;
/// One arrival in `QUICK_EVERY` is a `quick` campaign (8 tasks on a
/// 4×4 mesh with pre-training, together about a quarter of the
/// workers' time): the head-of-line load fair share must absorb. The
/// rest are tiny, so the median stays off the blocked path and the tail
/// sits on it.
const QUICK_EVERY: usize = 25;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Tiny campaigns staged per backlog round.
const BACKLOG: usize = 600;
/// In the traced run, the open loop samples the server's backlog after
/// every this many arrivals (10 times a second).
const BACKLOG_SAMPLE_EVERY: usize = 10;
/// How often the service pass samples the task backlog.
const BACKLOG_POLL: Duration = Duration::from_millis(5);
/// Standalone `Campaign::run` spot checks per run (tiny, plus one quick).
const SPOT_CHECKS: usize = 8;
/// Server start-ups timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// How long a phase may wait for its campaigns to turn final.
const FINAL_TIMEOUT: Duration = Duration::from_secs(60);

/// One submitted campaign.
struct Arrival {
    tenant: &'static str,
    priority: u32,
    spec: CampaignSpec,
    text: String,
    id: String,
}

impl Arrival {
    fn new(tenant: usize, spec: CampaignSpec) -> Self {
        let (tenant, priority) = TENANTS[tenant];
        Self {
            tenant,
            priority,
            text: spec.to_text(),
            id: spec.campaign_id().expect("generated specs are valid"),
            spec,
        }
    }
}

/// The open-loop arrival list for `n` arrivals: tenants round-robin,
/// a fixed share of quick campaigns at fixed positions, and campaign
/// contents drawn from the seed. The load pattern is therefore the same
/// for every seed.
fn open_arrivals(seed: u64, n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| {
            let spec_seed = rand::seed_stream(seed, i as u64);
            let spec = if i % QUICK_EVERY == QUICK_EVERY / 2 {
                CampaignSpec::quick(spec_seed)
            } else {
                CampaignSpec::tiny(spec_seed)
            };
            Arrival::new(i % TENANTS.len(), spec)
        })
        .collect()
}

/// The staged backlog: tiny campaigns round-robin over the tenants.
fn backlog_arrivals(seed: u64) -> Vec<Arrival> {
    (0..BACKLOG)
        .map(|i| {
            let spec_seed = rand::seed_stream(seed ^ 0xBAC0_1065, i as u64);
            Arrival::new(i % TENANTS.len(), CampaignSpec::tiny(spec_seed))
        })
        .collect()
}

/// A running server with its own state directory and one client
/// connection.
struct Service {
    server: Server,
    client: Client,
    dir: PathBuf,
}

impl Service {
    /// Starts a server on a fresh state directory.
    fn start(root: &Path, paused: bool) -> Self {
        static STARTS: AtomicUsize = AtomicUsize::new(0);
        let dir = root.join(format!("serve{}", STARTS.fetch_add(1, Ordering::Relaxed)));
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: JOBS,
            dir: dir.clone(),
            telemetry: Telemetry::disabled(),
            start_paused: paused,
        })
        .expect("the service must start in the scratch directory");
        let client =
            Client::connect(&server.addr().to_string()).expect("the client must connect locally");
        Self {
            server,
            client,
            dir,
        }
    }

    /// Stops the server and deletes its state.
    fn stop(self) {
        drop(self.client);
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Waits until every registered campaign is final; `false` on
    /// timeout.
    fn wait_final(&self) -> bool {
        let deadline = Instant::now() + FINAL_TIMEOUT;
        while !self.server.all_final() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Tasks of non-final campaigns not yet completed.
    fn backlog(&self) -> usize {
        self.server
            .statuses()
            .iter()
            .filter(|s| !s.state.is_final())
            .map(|s| s.total - s.completed)
            .sum()
    }

    /// Fetches a done campaign's result text.
    fn result(&mut self, a: &Arrival, rtt_ms: &mut Vec<f64>) -> Option<String> {
        let t0 = Instant::now();
        let text = self.client.result(a.tenant, &a.id).ok();
        rtt_ms.push(ms(t0.elapsed()));
        text
    }
}

/// Per-phase client-side observations.
#[derive(Default)]
struct Wire {
    submit_rtt_ms: Vec<f64>,
    result_rtt_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    refused: u64,
    backlog_max: usize,
}

impl Wire {
    /// The `serve.*` metrics of `p`.
    fn fill(&self, p: &mut PerLayer) {
        let rtt = &self.submit_rtt_ms;
        p.serve_submit_rtt_p50_ms = median(rtt);
        p.serve_submit_rtt_p99_ms = quantile(rtt, tail_q(rtt.len()));
        p.serve_result_rtt_p50_ms = median(&self.result_rtt_ms);
        p.serve_backlog_max = self.backlog_max as f64;
        p.serve_refused = self.refused as f64;
    }
}

/// Submits `a`; counts a refusal as a failed operation.
fn submit(svc: &mut Service, a: &Arrival, wire: &mut Wire, checks: &mut Checks) {
    let t0 = Instant::now();
    let ack = svc.client.submit(a.tenant, a.priority, &a.text);
    wire.submit_rtt_ms.push(ms(t0.elapsed()));
    let ok = matches!(&ack, Ok(ack) if ack.campaign == a.id);
    if !ok {
        wire.refused += 1;
    }
    checks.check(ok, || format!("submit of {} refused: {ack:?}", a.id));
}

/// Every submitted campaign must be done with all its tasks.
fn check_all_done(
    svc: &Service,
    expected: usize,
    checks: &mut Checks,
) -> HashMap<(String, String), Duration> {
    let statuses = svc.server.statuses();
    checks.check(statuses.len() == expected, || {
        format!(
            "{} campaigns registered, {expected} submitted",
            statuses.len()
        )
    });
    let mut latency = HashMap::new();
    for s in statuses {
        let done = s.state == CampaignState::Done && s.completed == s.total;
        checks.check(done, || {
            format!(
                "{}/{} ended {:?} with {}/{} tasks",
                s.tenant, s.id, s.state, s.completed, s.total
            )
        });
        if let Some(l) = s.latency {
            latency.insert((s.tenant, s.id), l);
        }
    }
    latency
}

/// The open-loop phase: sends `arrivals` at `RATE` from one thread;
/// returns due-to-final latencies (ms) and the served result texts.
fn open_loop(
    args: &Args,
    arrivals: &[Arrival],
    wire: &mut Wire,
    track: bool,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<String>) {
    let mut svc = Service::start(&args.scratch, false);
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let t0 = Instant::now();
    let mut sent_at = Vec::with_capacity(arrivals.len());
    for (i, a) in arrivals.iter().enumerate() {
        let due = t0 + gap * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        wire.lag_ms.push(ms(send - due));
        submit(&mut svc, a, wire, checks);
        sent_at.push(send - due);
        if track && i % BACKLOG_SAMPLE_EVERY == 0 {
            wire.backlog_max = wire.backlog_max.max(svc.backlog());
        }
    }
    let finished = svc.wait_final();
    checks.check(finished, || {
        "open-loop campaigns did not all finish".to_string()
    });
    let server_latency = check_all_done(&svc, arrivals.len(), checks);
    // Due → final: the generator's lag plus the server's submit → final
    // clock (which starts when the submission registers, just after
    // the send).
    let latency_ms = arrivals
        .iter()
        .zip(&sent_at)
        .filter_map(|(a, lag)| {
            server_latency
                .get(&(a.tenant.to_string(), a.id.clone()))
                .map(|l| ms(*lag + *l))
        })
        .collect();
    let texts = arrivals
        .iter()
        .map(|a| svc.result(a, &mut wire.result_rtt_ms).unwrap_or_default())
        .collect();
    svc.stop();
    (latency_ms, texts)
}

/// One backlog round: stage every campaign on a paused server, then
/// release and drain. Returns the drain time and the served result
/// texts.
fn backlog_round(
    args: &Args,
    arrivals: &[Arrival],
    wire: &mut Wire,
    checks: &mut Checks,
) -> (f64, Vec<String>) {
    let mut svc = Service::start(&args.scratch, true);
    let t0 = Instant::now();
    for a in arrivals {
        submit(&mut svc, a, wire, checks);
    }
    let drain = Instant::now();
    svc.server.resume();
    let finished = svc.wait_final();
    let drain_s = drain.elapsed().as_secs_f64();
    eprintln!(
        "backlog round: staged in {:.3} s, drained in {drain_s:.3} s",
        (drain - t0).as_secs_f64()
    );
    checks.check(finished, || "backlog did not drain".to_string());
    check_all_done(&svc, arrivals.len(), checks);
    check_fair_share(&svc.server.completion_log(), arrivals.len(), checks);
    let texts = arrivals
        .iter()
        .map(|a| svc.result(a, &mut wire.result_rtt_ms).unwrap_or_default())
        .collect();
    svc.stop();
    (drain_s, texts)
}

/// The load test's fair-share rule: over the contended window (after a
/// 10% ramp, up to half the campaigns), completions must not invert
/// priority order.
fn check_fair_share(log: &[(String, String)], total: usize, checks: &mut Checks) {
    let ramp = total / 10;
    let contended = total / 2;
    let mut counts = [0usize; 3];
    for (tenant, _) in log.iter().skip(ramp).take(contended - ramp) {
        if let Some(i) = TENANTS.iter().position(|(t, _)| t == tenant) {
            counts[i] += 1;
        }
    }
    checks.check(counts[0] <= counts[1] && counts[1] <= counts[2], || {
        format!("fair-share violation: contended completions by priority 1/2/4 = {counts:?}")
    });
}

/// Parses a served result text back into reports.
fn parse_result(text: &str) -> Option<Vec<ExperimentReport>> {
    let mut reports = Vec::new();
    let mut body = String::new();
    for line in text.lines() {
        if line.starts_with("task ") {
            body.clear();
        } else if line == "end" {
            body.push_str("end\n");
            reports.push(parse_report(&body).ok()?);
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    Some(reports)
}

/// Median of `SETUP_REPS` service start-ups (state directory, listener,
/// worker pool, client connection) plus building the phase's specs.
fn setup(args: &Args) -> (f64, Vec<Arrival>, Vec<Arrival>) {
    let n_open = ((args.seconds as f64 * OPEN_SHARE * RATE) as usize).max(1);
    let mut times = Vec::new();
    let mut specs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let open = open_arrivals(args.seed, n_open);
        let backlog = backlog_arrivals(args.seed);
        let svc = Service::start(&args.scratch, false);
        times.push(t0.elapsed().as_secs_f64());
        svc.stop();
        specs = Some((open, backlog));
    }
    let (open, backlog) = specs.expect("at least one setup repetition");
    (median(&times), open, backlog)
}

/// Runs each backlog campaign's tasks standalone on backend `B`, on
/// `JOBS` workers, in submission order: the simulation work the
/// service does for the backlog, without the service. Returns the
/// rendered results and the per-task trace (all zeros off the traced
/// backend).
fn replay<B: SimBackend>(campaigns: &[Campaign]) -> (Vec<String>, TracedRound) {
    let items: Vec<(usize, CampaignTask)> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(c, campaign)| campaign.tasks().into_iter().map(move |t| (c, t)))
        .collect();
    let t0 = Instant::now();
    let done = pool::run_indexed(items, JOBS, &Telemetry::disabled(), |_, (c, task)| {
        probe::take();
        let start = Instant::now();
        let report = campaigns[c].experiment(&task).run_with_backend::<B>();
        (c, report, start.elapsed().as_secs_f64(), probe::take())
    });
    let mut round = TracedRound {
        wall_s: t0.elapsed().as_secs_f64(),
        ..TracedRound::default()
    };
    let mut reports: Vec<Vec<ExperimentReport>> = vec![Vec::new(); campaigns.len()];
    for (c, report, task_s, layers) in done {
        round.tasks += 1;
        round.push(task_s, layers);
        reports[c].push(report);
    }
    (
        reports.iter().map(|r| render_result_text(r)).collect(),
        round,
    )
}

/// Served results against standalone `Campaign::run`, byte for byte,
/// on a sample of open-loop campaigns that includes one quick campaign.
fn spot_check(arrivals: &[Arrival], served: &[String], checks: &mut Checks) {
    let step = (arrivals.len() / SPOT_CHECKS).max(1);
    let mut picks: Vec<usize> = (0..arrivals.len())
        .step_by(step)
        .take(SPOT_CHECKS)
        .collect();
    if let Some(q) = arrivals.iter().position(|a| a.spec.schemes.len() > 1) {
        picks.push(q);
    }
    for i in picks {
        let standalone = arrivals[i]
            .spec
            .to_campaign()
            .expect("generated specs are valid")
            .run();
        checks.check(render_result_text(&standalone.reports) == served[i], || {
            format!(
                "served result of {} differs from a standalone run",
                arrivals[i].id
            )
        });
    }
}

/// Reports of every served campaign; a result that fails to parse
/// fails its check.
fn served_reports(served: &[String], checks: &mut Checks) -> Vec<Vec<ExperimentReport>> {
    served
        .iter()
        .map(|text| {
            let parsed = parse_result(text).filter(|r| !r.is_empty());
            checks.check(parsed.is_some(), || {
                "a served result did not parse".to_string()
            });
            parsed.unwrap_or_default()
        })
        .collect()
}

/// Figs. 8/9-style RL-over-CRC geomeans across the quick campaigns'
/// (campaign, workload) pairs.
fn rl_vs_crc(campaigns: &[Vec<ExperimentReport>]) -> (f64, f64) {
    let mut lat = Vec::new();
    let mut eff = Vec::new();
    for reports in campaigns {
        for crc in reports
            .iter()
            .filter(|r| r.scheme == ErrorControlScheme::StaticCrc)
        {
            if let Some(rl) = reports
                .iter()
                .find(|r| r.scheme == ErrorControlScheme::ProposedRl && r.workload == crc.workload)
            {
                lat.push(rl.avg_latency_cycles / crc.avg_latency_cycles);
                eff.push(rl.energy_efficiency() / crc.energy_efficiency());
            }
        }
    }
    (geomean(&lat), geomean(&eff))
}

pub fn end_to_end(args: &Args, checks: &mut Checks) -> EndToEnd {
    let (setup_s, open, backlog) = setup(args);
    // Reference for the backlog: every campaign standalone on the traced
    // backend, which also counts its simulated router-cycles.
    let (reference, traced) = replay::<Probe>(&campaigns(&backlog));
    let mut wire = Wire::default();
    let (latency_ms, open_texts) = open_loop(args, &open, &mut wire, false, checks);
    spot_check(&open, &open_texts, checks);
    let open_reports = served_reports(&open_texts, checks);
    eprintln!(
        "open loop: {} campaigns, digest {:016x}, generator lag p99 {:.3} ms",
        open.len(),
        digest(open_texts.concat().as_bytes()),
        quantile(&wire.lag_ms, 0.99)
    );

    let deadline =
        Instant::now() + Duration::from_secs_f64(args.seconds as f64 * (1.0 - OPEN_SHARE));
    let mut drains = Vec::new();
    while drains.len() < 3 || Instant::now() < deadline {
        let (drain_s, texts) = backlog_round(args, &backlog, &mut wire, checks);
        checks.check(texts == reference, || {
            "served backlog results differ from standalone runs".to_string()
        });
        drains.push(drain_s);
    }
    eprintln!(
        "backlog: {} rounds of {} campaigns, digest {:016x}",
        drains.len(),
        backlog.len(),
        digest(reference.concat().as_bytes())
    );
    let q = tail_q(latency_ms.len());
    eprintln!(
        "{} open-loop latencies, tail quantile {q:.3}",
        latency_ms.len()
    );
    let drain_s = median(&drains);
    let refs: Vec<&ExperimentReport> = open_reports.iter().flatten().collect();
    let (lat, eff) = rl_vs_crc(&open_reports);
    EndToEnd {
        wall_s: drain_s,
        setup_s,
        router_cycles_per_s: traced.layers.router_cycles as f64 / drain_s,
        peak_heap_mb: crate::heap::peak_mb(),
        result_p50_ms: median(&latency_ms),
        result_p99_ms: quantile(&latency_ms, q),
        results_per_s: backlog.len() as f64 / drain_s,
        ok_frac: 0.0,
        sim_rl_latency_vs_crc: lat,
        sim_rl_efficiency_vs_crc: eff,
        sim_delivered_frac: delivered_frac(&refs),
    }
}

pub fn per_layer(args: &Args, checks: &mut Checks) -> PerLayer {
    let (_, open, backlog) = setup(args);
    let mut wire = Wire::default();
    let (_, open_texts) = open_loop(args, &open, &mut wire, true, checks);
    served_reports(&open_texts, checks);
    let lag_p99 = quantile(&wire.lag_ms, 0.99);
    let (_, served) = backlog_round(args, &backlog, &mut wire, checks);

    // The service's simulation work for the backlog, replayed outside
    // it: production and traced backends alternate, and the traced
    // results must equal the served ones byte for byte.
    let campaigns = campaigns(&backlog);
    let deadline =
        Instant::now() + Duration::from_secs_f64(args.seconds as f64 * (1.0 - OPEN_SHARE));
    let mut plain = Vec::new();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || Instant::now() < deadline {
        plain.push(
            replay::<Network<FaultTolerantProtocol>>(&campaigns)
                .1
                .wall_s,
        );
        let (texts, round) = replay::<Probe>(&campaigns);
        checks.check(texts == served, || {
            "traced replay differs from served results".to_string()
        });
        rounds.push(round);
    }
    let mut p = PerLayer::default();
    p.set_traced(&rounds, JOBS, checks);
    let reports = served_reports(&served, checks);
    p.set_core_counts(&reports.iter().flatten().collect::<Vec<_>>());
    let stored: Vec<(u64, &[ExperimentReport])> = campaigns
        .iter()
        .zip(&reports)
        .map(|(c, r)| (c.fingerprint(), r.as_slice()))
        .collect();
    p.set_checkpoint(&checkpoint_replay(
        &args.scratch.join("checkpoints"),
        &stored,
        checks,
    ));
    wire.fill(&mut p);
    p.loadgen_lag_p99_ms = lag_p99;
    p.loadgen_sent = open.len() as f64;
    let traced: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    p.trace_overhead_frac = median(&traced) / median(&plain) - 1.0;
    p
}

/// Serves `campaign` through an in-process service as one submission
/// and fills the service metrics of `p`: the submit and result round
/// trips, the most tasks queued (sampled every `BACKLOG_POLL`) and
/// refusals. The served result must equal `expected` (the runner's
/// reports) byte for byte.
pub fn serve_pass(
    args: &Args,
    campaign: &Campaign,
    expected: &str,
    checks: &mut Checks,
    p: &mut PerLayer,
) {
    let spec =
        CampaignSpec::from_campaign(campaign).expect("the campaign is expressible as a spec");
    let arrival = Arrival::new(0, spec);
    let mut svc = Service::start(&args.scratch, false);
    let mut wire = Wire::default();
    submit(&mut svc, &arrival, &mut wire, checks);
    let deadline = Instant::now() + FINAL_TIMEOUT;
    while !svc.server.all_final() && Instant::now() < deadline {
        wire.backlog_max = wire.backlog_max.max(svc.backlog());
        std::thread::sleep(BACKLOG_POLL);
    }
    check_all_done(&svc, 1, checks);
    let served = svc.result(&arrival, &mut wire.result_rtt_ms);
    checks.check(served.as_deref() == Some(expected), || {
        "the served campaign differs from the runner's reports".to_string()
    });
    svc.stop();
    wire.fill(p);
}

fn campaigns(arrivals: &[Arrival]) -> Vec<Campaign> {
    arrivals
        .iter()
        .map(|a| a.spec.to_campaign().expect("generated specs are valid"))
        .collect()
}
