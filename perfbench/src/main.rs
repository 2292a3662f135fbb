//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --server PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it spawns the release `graphserve`, sets the workload
//! up over HTTP, drives a fixed, seed-determined request sequence over
//! loopback in a closed loop, one request at a time, checks every answer
//! and prints the end-to-end metrics: set-up time and memory, and the CPU
//! time each request costs the server and the client. With `--trace 1` it repeats a
//! prefix of the same sequence on the wire and then replays it in process
//! with spans around every call into a layer, and prints the per-layer
//! metrics. The last stdout line is the JSON result; `NOTES.md` explains
//! every metric.

mod client;
mod plan;
mod proc;
mod replay;
mod report;
mod trace;
mod wire;

use plan::{Plan, Workload};
use proc::Server;
use report::{median, percentile, Metrics};
use std::path::{Path, PathBuf};
use wire::{Reference, Sample, Tally};

pub struct Args {
    pub server: PathBuf,
    pub work: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut work = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A server that finished set-up, with what set-up cost.
pub struct Ready {
    pub server: Server,
    /// Seconds from spawn until the model was ready.
    pub setup_s: f64,
    /// `VmHWM` at the end of set-up, in MiB.
    pub setup_rss_mb: f64,
}

pub fn state_dir(work: &Path, tag: &str) -> PathBuf {
    work.join(format!("state-{tag}"))
}

/// `PUT`s a model fit; it must answer 201.
fn put(addr: std::net::SocketAddr, target: &str, body: &[u8]) -> Result<(), String> {
    let reply = client::send(addr, &client::raw_request("PUT", target, body))?;
    (reply.status == 201)
        .then_some(())
        .ok_or_else(|| format!("PUT {target} → {} {}", reply.status, reply.text()))
}

/// Spawns the server from a clean state directory and sets it up. Set-up
/// ends when the model is ready: the `PUT` fit answered, or, for
/// `--demo`, the server listening (it fits before it binds). The writer
/// probe's models are fitted afterwards, outside the timed set-up.
pub fn set_up(args: &Args, plan: &Plan, tally: &mut Tally) -> Result<Ready, String> {
    let state = state_dir(&args.work, "server");
    let _ = std::fs::remove_dir_all(&state);
    let server = Server::spawn(
        &args.server,
        &plan.server_args(&state),
        &args.work.join("servers"),
    )?;
    if let Some((target, body)) = &plan.fit {
        let outcome = put(server.addr, target, body);
        let failed = outcome.is_err();
        tally.record(outcome);
        if failed {
            return Err("the workload's fit failed".into());
        }
    }
    let setup_s = server.spawned.elapsed().as_secs_f64();
    let setup_rss_mb = server.hwm_mib();
    for (target, body) in &plan.probe_fits {
        tally.record(put(server.addr, target, body));
    }
    Ok(Ready {
        server,
        setup_s,
        setup_rss_mb,
    })
}

/// Rounds per run. Each round sets a fresh server up and sends it the
/// whole request sequence, so the same request meets the same state in
/// every round. `setup_s` is the median of the rounds' set-ups, and a
/// request's CPU time the median of its rounds.
const ROUNDS: usize = 3;

fn untraced(args: &Args, plan: &Plan, tally: &mut Tally) -> Result<Metrics, String> {
    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut setup_rss_mb: f64 = 0.0;
    let mut peak_rss_mb: f64 = 0.0;
    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let ready = set_up(args, plan, tally)?;
        let addr = ready.server.addr;
        let reference = Reference::warm_up(plan, addr, tally);
        ready.server.reset_hwm()?;
        let wire = wire::run(plan, &reference, &ready.server, tally);
        let peak = ready.server.hwm_mib();
        wire::final_checks(plan, addr, &wire.acked_points, tally);
        drop(ready.server);
        eprintln!(
            "round {round}: set-up {:.3} s (VmHWM {:.1} MiB); {} reads and {} writes in {:.2} s (VmHWM {peak:.1} MiB)",
            ready.setup_s,
            ready.setup_rss_mb,
            wire.reads.len(),
            wire.writes.len(),
            wire.wall.as_secs_f64()
        );
        setup_s.push(ready.setup_s);
        // The fit's threads allocate at once, and how far their peaks
        // overlap varies from one set-up to the next; the largest is what
        // the workload can need.
        setup_rss_mb = setup_rss_mb.max(ready.setup_rss_mb);
        peak_rss_mb = peak_rss_mb.max(peak);
        rounds.push(wire);
    }

    let samples_file = args.work.join(format!(
        "samples-{}-{}.csv",
        plan.workload.name(),
        args.seed
    ));
    if let Err(e) = wire::write_csv(&rounds, &samples_file) {
        eprintln!("{}: {e}", samples_file.display());
    }
    let (reads, writes) = wire::median_of_rounds(&rounds);
    for route in plan::ROUTES {
        let of_route: Vec<&Sample> = reads
            .iter()
            .chain(&writes)
            .filter(|s| s.route == route)
            .collect();
        if of_route.is_empty() {
            continue;
        }
        let wall: Vec<f64> = of_route.iter().map(|s| s.total_ms).collect();
        let cpu: Vec<f64> = of_route.iter().map(|s| s.cpu_ms).collect();
        eprintln!(
            "  {route:<14} n={:<6} CPU p50={:.3} p99={:.3} ms   wall p50={:.3} p99={:.3} ms",
            of_route.len(),
            percentile(&cpu, 50.0),
            percentile(&cpu, 99.0),
            percentile(&wall, 50.0),
            percentile(&wall, 99.0)
        );
    }

    let cpu_of = |samples: &[Sample], route: Option<&str>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| route.is_none_or(|r| s.route == r))
            .map(|s| s.cpu_ms)
            .collect()
    };
    let read_cpu = cpu_of(&reads, None);
    let render_cpu = cpu_of(&reads, Some("render"));
    let ingest_cpu = cpu_of(&writes, Some("ingest"));

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("setup_rss_mb", setup_rss_mb, "MiB");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put(
        "ok_frac",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        "frac",
    );
    m.put(
        "query_per_cpu_s",
        read_cpu.len() as f64 / (read_cpu.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("query_cpu_p50_ms", percentile(&read_cpu, 50.0), "ms");
    m.put("query_cpu_p99_ms", percentile(&read_cpu, 99.0), "ms");
    m.put("render_cpu_p50_ms", percentile(&render_cpu, 50.0), "ms");
    m.put("render_cpu_p98_ms", percentile(&render_cpu, 98.0), "ms");
    m.put(
        "ingest_pts_per_cpu_s",
        (ingest_cpu.len() * plan::CHUNK) as f64 / (ingest_cpu.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("ingest_cpu_p50_ms", percentile(&ingest_cpu, 50.0), "ms");
    m.put("ingest_cpu_p99_ms", percentile(&ingest_cpu, 99.0), "ms");
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = proc::check_no_leaked(&args.work.join("servers")) {
        eprintln!("perfbench: {e}");
        std::process::exit(3);
    }
    let plan = plan::build(args.workload, args.seed, args.seconds, args.trace);
    let mut tally = Tally::default();
    let outcome = if args.trace {
        replay::run(&args, &plan, &mut tally)
    } else {
        untraced(&args, &plan, &mut tally)
    };
    for tag in ["server", "b", "c", "u"] {
        let _ = std::fs::remove_dir_all(state_dir(&args.work, tag));
    }
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            for msg in &tally.messages {
                eprintln!("  failure: {msg}");
            }
            std::process::exit(1);
        }
    };
    metrics.log();
    for msg in &tally.messages {
        eprintln!("  failure: {msg}");
    }
    let missing = metrics.missing();
    if !missing.is_empty() {
        eprintln!("  unmeasured: {}", missing.join(", "));
    }
    let correct = tally.failed == 0 && missing.is_empty();
    println!(
        "{}",
        metrics.result_line(correct, tally.attempted, tally.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
