//! CI determinism check for the parallel campaign runner.
//!
//! Runs a reduced campaign three ways and demands identical results:
//!
//! 1. serially through `Campaign::run`,
//! 2. in parallel through the runner (`RLNOC_JOBS` workers, default 2,
//!    honoring `RLNOC_BATCH`),
//! 3. batched through `BatchSim` (8 lockstep lanes per replicate
//!    group),
//! 4. resumed from a half-populated checkpoint directory (simulating a
//!    campaign killed midway),
//! 5. hard-faulted with 3 replicates at batch 2 — a lockstep pair plus
//!    a singleton per cell, all sharing the run's reroute tables.
//!
//! Exits non-zero on any mismatch, so CI fails when a change breaks the
//! byte-identical parallel/serial contract or checkpoint round-tripping.

use rlnoc_core::campaign::Campaign;
use rlnoc_core::{HardFaultSchedule, WorkloadProfile};
use rlnoc_runner::{CheckpointDir, RunnerConfig};
use rlnoc_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn check_campaign() -> Campaign {
    let mut campaign = Campaign::quick();
    campaign.workloads = vec![WorkloadProfile::blackscholes(), WorkloadProfile::canneal()];
    campaign.pretrain_cycles = 4_000;
    campaign.measure_cycles = Some(4_000);
    campaign
}

/// [`check_campaign`] with 3 replicates and links failing mid-run, so
/// batch 2 splits every cell into a lockstep pair and a singleton.
fn faulted_campaign() -> Campaign {
    let mut campaign = check_campaign();
    campaign.replicates = 3;
    campaign.hard_faults = Some(Arc::new(HardFaultSchedule::random(
        campaign.noc.mesh,
        4,
        0,
        (500, 6_000),
        11,
    )));
    campaign
}

fn main() -> ExitCode {
    let campaign = check_campaign();
    let env = RunnerConfig::from_env();
    let jobs = env.jobs.max(2);
    let batch = env.batch;
    println!(
        "runner_check: {} tasks, {} workers, batch {}",
        campaign.tasks().len(),
        jobs,
        batch
    );

    let serial = campaign.run();

    let telemetry = Telemetry::enabled();
    let parallel = RunnerConfig {
        jobs,
        snapshot_dir: None,
        resume: false,
        batch,
        telemetry: telemetry.clone(),
    }
    .run_campaign(&campaign);
    if parallel != serial {
        eprintln!("FAIL: parallel ({jobs} workers, batch {batch}) result differs from serial run");
        return ExitCode::FAILURE;
    }
    println!(
        "parallel == serial ({} tasks completed)",
        telemetry.counter("runner.tasks_completed").get()
    );

    // BatchSim leg: replicate groups run as lockstep lanes, whatever
    // the environment asked for.
    let batched = RunnerConfig {
        jobs,
        batch: 8,
        ..RunnerConfig::serial()
    }
    .run_campaign(&campaign);
    if batched != serial {
        eprintln!("FAIL: batched (8-lane) result differs from serial run");
        return ExitCode::FAILURE;
    }
    println!("batched == serial (8-lane lockstep groups)");

    // Kill/resume: pre-populate half the checkpoints from the serial
    // run, then resume — only the other half may execute, and the merged
    // result must still match.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rlnoc-runner-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let total = serial.reports.len();
    let ckpt = match CheckpointDir::open(&dir, campaign.fingerprint(), total) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL: cannot open checkpoint dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (index, report) in serial.reports.iter().enumerate().take(total / 2) {
        if let Err(e) = ckpt.store(index, report) {
            eprintln!("FAIL: cannot store checkpoint {index}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let resume_telemetry = Telemetry::enabled();
    let resumed = RunnerConfig {
        jobs,
        snapshot_dir: Some(dir.clone()),
        resume: true,
        batch,
        telemetry: resume_telemetry.clone(),
    }
    .run_campaign(&campaign);
    let _ = std::fs::remove_dir_all(&dir);
    if resumed != serial {
        eprintln!("FAIL: resumed result differs from uninterrupted serial run");
        return ExitCode::FAILURE;
    }
    let restored = resume_telemetry.counter("runner.tasks_resumed").get();
    let executed = resume_telemetry.counter("runner.tasks_completed").get();
    if restored != (total / 2) as u64 || executed != (total - total / 2) as u64 {
        eprintln!(
            "FAIL: resume accounting off: {restored} restored, {executed} executed, {total} total"
        );
        return ExitCode::FAILURE;
    }
    println!("resume == serial ({restored} restored, {executed} executed)");

    // Faulted leg: ragged lockstep groups and singletons resolve one
    // set of reroute tables for the whole run.
    let faulted = faulted_campaign();
    let faulted_serial = faulted.run();
    if !faulted_serial
        .reports
        .iter()
        .any(|r| r.hard_fault_events > 0)
    {
        eprintln!("FAIL: no faulted task took a fault inside its measured window");
        return ExitCode::FAILURE;
    }
    let faulted_batched = RunnerConfig {
        jobs,
        batch: 2,
        ..RunnerConfig::serial()
    }
    .run_campaign(&faulted);
    if faulted_batched != faulted_serial {
        eprintln!("FAIL: faulted batch-2 result differs from serial run");
        return ExitCode::FAILURE;
    }
    println!(
        "faulted == serial ({} tasks, batch 2)",
        faulted_serial.reports.len()
    );
    println!("runner_check: OK");
    ExitCode::SUCCESS
}
