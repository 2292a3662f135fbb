//! The loopback phases: warm-up, the measured request sequence (one
//! request at a time, each timed in wall-clock and in CPU time), and the
//! answer checks folded into `ok_frac`.

use crate::client::{fnv64, raw_request, send, Reply};
use crate::plan::{cadence, Plan, ReadOp, Step, WriteOp, BATCH_ROWS, CHUNK, POOL, RENDER_BUDGET};
use crate::proc::{first_cpu, pin, thread_cpu_ns, Server};
use crate::report::median;
use graphserve::json::Json;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Operations attempted and those that failed, with the first few
/// failure messages for the log.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub route: &'static str,
    /// The writer that sent it (0 for reads).
    pub writer: usize,
    /// Position in the plan's read sequence, or in its writer's sequence.
    pub index: usize,
    /// Position in the run's [`Plan::steps`] order.
    pub step: usize,
    pub connect_ms: f64,
    pub ttfb_ms: f64,
    pub total_ms: f64,
    /// CPU time the request cost, the server's (all its threads) and the
    /// client thread's, from before `connect` until the answer was read.
    pub cpu_ms: f64,
    pub hash: u64,
    /// Ingest response flags.
    pub refreshed: bool,
    pub compacted: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn json(reply: &Reply) -> Result<Json, String> {
    Json::parse(reply.text()).map_err(|e| format!("unparseable body ({e})"))
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number {key:?}"))
}

fn finite_array(v: &Json, key: &str) -> Result<usize, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array {key:?}"))?;
    if arr.is_empty() || arr.iter().any(|x| !x.as_f64().is_some_and(f64::is_finite)) {
        return Err(format!("{key:?} is empty or holds a non-finite value"));
    }
    Ok(arr.len())
}

/// A render's `x-render-elements` is within the budget.
fn check_elements(reply: &Reply) -> Result<(), String> {
    let elements: usize = reply
        .header("x-render-elements")
        .and_then(|v| v.parse().ok())
        .ok_or("render without x-render-elements")?;
    (elements > 0 && elements <= RENDER_BUDGET)
        .then_some(())
        .ok_or_else(|| format!("render emitted {elements} elements, budget {RENDER_BUDGET}"))
}

/// Status and shape of a read answer.
pub fn check_read(plan: &Plan, op: &ReadOp, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{} → {} {}",
            op.route(),
            reply.status,
            reply.text()
        ));
    }
    match *op {
        ReadOp::Render => {
            check_elements(reply)?;
            if !reply.body.starts_with(b"<svg") || !reply.text().trim_end().ends_with("</svg>") {
                return Err("render body is not an SVG document".into());
            }
            Ok(())
        }
        ReadOp::Score(_) => finite_array(&json(reply)?, "scores").map(drop),
        ReadOp::Features(_) => finite_array(&json(reply)?, "features").map(drop),
        ReadOp::Predict(_) => {
            let c = num(&json(reply)?, "cluster")?;
            (c >= 0.0 && (c as usize) < plan.k && c.fract() == 0.0)
                .then_some(())
                .ok_or_else(|| format!("cluster {c} out of range"))
        }
        ReadOp::Graphoid { cluster, .. } => {
            let v = json(reply)?;
            if num(&v, "cluster")? as usize != cluster
                || v.get("nodes").and_then(Json::as_arr).is_none()
                || v.get("edges").and_then(Json::as_arr).is_none()
            {
                return Err("graphoid answer has the wrong shape".into());
            }
            Ok(())
        }
        ReadOp::Batch(_) => {
            let v = json(reply)?;
            let rows = v
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("batch without results")?;
            (rows.len() == BATCH_ROWS)
                .then_some(())
                .ok_or_else(|| format!("batch returned {} rows", rows.len()))
        }
        ReadOp::StreamStatus => json(reply)?
            .get("active")
            .map(drop)
            .ok_or_else(|| "stream-status without active".into()),
    }
}

/// Reference answers taken before the measured phase: the single-predict
/// body of every pool series (batch rows must match them bit for bit)
/// and, on a model nothing writes to, the hash of every distinct read
/// (every later answer must repeat it).
pub struct Reference {
    predict: Vec<String>,
    hashes: HashMap<u64, u64>,
    fixed_model: bool,
}

impl Reference {
    /// Sends every distinct read of the plan once.
    pub fn warm_up(plan: &Plan, addr: SocketAddr, tally: &mut Tally) -> Reference {
        let mut reference = Reference {
            predict: vec![String::new(); POOL],
            hashes: HashMap::new(),
            fixed_model: !plan.durable,
        };
        let mut seen = HashSet::new();
        // The single predicts come first, so every batch can be checked
        // against them.
        let distinct = (0..POOL)
            .map(ReadOp::Predict)
            .chain(plan.reads.iter().copied());
        for op in distinct {
            let (method, target, body) = plan.read_request(&op);
            let raw = raw_request(method, &target, &body);
            let key = fnv64(&raw);
            if !seen.insert(key) {
                continue;
            }
            match send(addr, &raw) {
                Ok(reply) => {
                    let checked = check_read(plan, &op, &reply)
                        .and_then(|()| reference.check_batch(&op, &reply));
                    if checked.is_ok() {
                        if let ReadOp::Predict(i) = op {
                            reference.predict[i] = reply.text().to_string();
                        }
                        reference.hashes.insert(key, fnv64(&reply.body));
                    }
                    tally.record(checked);
                }
                Err(e) => tally.record(Err(e)),
            }
        }
        reference
    }

    /// Checks a measured read. On a model nothing writes to, the answer
    /// must repeat the warm-up answer, which already passed the shape and
    /// batch checks: comparing hashes covers both. Otherwise the shape is
    /// checked, and batch rows against the single answers.
    pub fn check(
        &self,
        plan: &Plan,
        op: &ReadOp,
        raw: &[u8],
        reply: &Reply,
        hash: u64,
    ) -> Result<(), String> {
        if let ReadOp::Render = op {
            check_elements(reply)?;
        }
        if self.fixed_model && !matches!(op, ReadOp::StreamStatus) {
            return (reply.status == 200 && self.hashes.get(&fnv64(raw)) == Some(&hash))
                .then_some(())
                .ok_or_else(|| format!("{} answer changed on an unchanged model", op.route()));
        }
        check_read(plan, op, reply)?;
        self.check_batch(op, reply)
    }

    /// A batch's rows must be bit-identical to the single-predict answers
    /// of the same series.
    fn check_batch(&self, op: &ReadOp, reply: &Reply) -> Result<(), String> {
        let ReadOp::Batch(start) = *op else {
            return Ok(());
        };
        let mut expected = String::from("{\"results\":[");
        for r in 0..BATCH_ROWS {
            if r > 0 {
                expected.push(',');
            }
            expected.push_str(&self.predict[(start + r) % POOL]);
        }
        expected.push_str("]}");
        (reply.text() == expected)
            .then_some(())
            .ok_or_else(|| "batch rows differ from the single predict answers".into())
    }
}

/// Checks an ingest answer against the cadence arithmetic and, for a
/// `stream-status` on the writer's connection, the running totals.
fn check_write(
    op: &WriteOp,
    appended_so_far: usize,
    reply: &Reply,
) -> Result<(bool, bool), String> {
    if reply.status != 200 {
        return Err(format!("write → {} {}", reply.status, reply.text()));
    }
    let v = json(reply)?;
    match op {
        WriteOp::Ingest { n, series, .. } => {
            let want = cadence(*n);
            let flag = |k: &str| match v.get(k) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("ingest answer without {k:?}")),
            };
            let (refreshed, compacted) = (flag("refreshed")?, flag("compacted")?);
            if num(&v, "series")? as usize != *series
                || num(&v, "appended")? as usize != CHUNK
                || refreshed != want.refreshed
                || compacted != want.compacted
            {
                return Err(format!(
                    "ingest #{n} answer {} breaks the cadence",
                    reply.text()
                ));
            }
            Ok((refreshed, compacted))
        }
        WriteOp::StreamStatus => {
            let points = num(&v, "points_total")? as usize;
            if points != appended_so_far * CHUNK {
                return Err(format!(
                    "stream-status reports {points} points after {} acknowledged",
                    appended_so_far * CHUNK
                ));
            }
            Ok((false, false))
        }
    }
}

/// Everything one loopback pass measured.
pub struct Wire {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    /// Wall time of the whole sequence.
    pub wall: Duration,
    /// Points the server acknowledged, per writer.
    pub acked_points: Vec<u64>,
}

/// Sends one request and times it: wall-clock on the client, and the CPU
/// time of the server process and of this thread around the exchange.
/// With one request in flight, the server's CPU time in that interval is
/// this request's.
fn timed_send(server: &Server, raw: &[u8]) -> (Result<Reply, String>, f64) {
    let (s0, c0) = (server.cpu_ns(), thread_cpu_ns());
    let reply = send(server.addr, raw);
    let (s1, c1) = (server.cpu_ns(), thread_cpu_ns());
    let cpu_ns = s1.saturating_sub(s0) + c1.saturating_sub(c0);
    (reply, cpu_ns as f64 / 1e6)
}

/// Runs the plan's steps one at a time on one connection after another
/// (the server closes each), in [`Plan::steps`] order, and checks every
/// answer.
///
/// The server's threads and the client thread share one CPU meanwhile:
/// with a single request in flight nothing runs in parallel anyway, and
/// on one CPU the hand-offs between client, acceptor and worker are
/// local wake-ups instead of cross-CPU interrupts, whose cost on a
/// virtual machine depends on how busy the host is. The batch and refresh
/// fan-outs then share that CPU too; their CPU time is the same.
pub fn run(plan: &Plan, reference: &Reference, server: &Server, tally: &mut Tally) -> Wire {
    let cpu = first_cpu();
    if let Err(e) = server.pin(cpu) {
        tally.record(Err(e));
    }
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Err(e) = pin(0, cpu) {
                    tally.record(Err(e));
                }
                run_steps(plan, reference, server, tally)
            })
            .join()
            .expect("the client thread panicked")
    })
}

fn run_steps(plan: &Plan, reference: &Reference, server: &Server, tally: &mut Tally) -> Wire {
    let mut reads = Vec::with_capacity(plan.reads.len());
    let mut writes = Vec::new();
    let mut acked = vec![0usize; plan.writers.len()];
    let t0 = Instant::now();
    for (position, step) in plan.steps().into_iter().enumerate() {
        let (route, raw, writer, index) = match step {
            Step::Read(i) => {
                let op = &plan.reads[i];
                let (method, target, body) = plan.read_request(op);
                (op.route(), raw_request(method, &target, &body), 0, i)
            }
            Step::Write(w, i) => {
                let op = &plan.writers[w][i];
                let (method, target, body) = plan.write_request(w, op);
                let route = match op {
                    WriteOp::Ingest { .. } => "ingest",
                    WriteOp::StreamStatus => "stream_status",
                };
                (route, raw_request(method, &target, &body), w, i)
            }
        };
        let (reply, cpu_ms) = timed_send(server, &raw);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(e));
                continue;
            }
        };
        let hash = fnv64(&reply.body);
        let (mut refreshed, mut compacted) = (false, false);
        match step {
            Step::Read(i) => {
                tally.record(reference.check(plan, &plan.reads[i], &raw, &reply, hash));
            }
            Step::Write(w, i) => {
                let op = &plan.writers[w][i];
                let checked = check_write(op, acked[w], &reply);
                (refreshed, compacted) = checked.clone().unwrap_or((false, false));
                tally.record(checked.map(drop));
                if matches!(op, WriteOp::Ingest { .. }) && reply.status == 200 {
                    acked[w] += 1;
                }
            }
        }
        let sample = Sample {
            route,
            writer,
            index,
            step: position,
            connect_ms: ms(reply.connect),
            ttfb_ms: ms(reply.ttfb),
            total_ms: ms(reply.total),
            cpu_ms,
            hash,
            refreshed,
            compacted,
        };
        match step {
            Step::Read(_) => reads.push(sample),
            Step::Write(..) => writes.push(sample),
        }
    }
    Wire {
        reads,
        writes,
        wall: t0.elapsed(),
        acked_points: acked.iter().map(|&a| (a * CHUNK) as u64).collect(),
    }
}

/// Each request's median over the rounds, reads and writes apart. A
/// request sends the same bytes to the same server state in every round,
/// so the rounds differ only in what else the host ran: a median keeps a
/// request's figure from following one round that ran slow, or one that
/// ran fast (the host's cores run identical work up to a fifth faster at
/// times). CPU and wall-clock times are each the median of the rounds
/// the request succeeded in; a failure is already counted.
pub fn median_of_rounds(rounds: &[Wire]) -> (Vec<Sample>, Vec<Sample>) {
    let pick = |of: fn(&Wire) -> &Vec<Sample>| -> Vec<Sample> {
        let mut by_step: HashMap<usize, Vec<&Sample>> = HashMap::new();
        for s in rounds.iter().flat_map(of) {
            by_step.entry(s.step).or_default().push(s);
        }
        let mut v: Vec<Sample> = by_step
            .into_values()
            .map(|runs| {
                let of_runs =
                    |f: fn(&Sample) -> f64| median(&runs.iter().map(|s| f(s)).collect::<Vec<_>>());
                Sample {
                    cpu_ms: of_runs(|s| s.cpu_ms),
                    total_ms: of_runs(|s| s.total_ms),
                    ..runs[0].clone()
                }
            })
            .collect();
        v.sort_by_key(|s| s.step);
        v
    };
    (pick(|w| &w.reads), pick(|w| &w.writes))
}

/// Writes every sample of every round, in the order sent, as CSV: round,
/// step, route, writer, index, wall-clock and CPU milliseconds.
pub fn write_csv(rounds: &[Wire], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "round,step,route,writer,index,total_ms,cpu_ms")?;
    for (round, wire) in rounds.iter().enumerate() {
        let mut samples: Vec<&Sample> = wire.reads.iter().chain(&wire.writes).collect();
        samples.sort_by_key(|s| s.step);
        for s in samples {
            writeln!(
                out,
                "{round},{},{},{},{},{},{}",
                s.step, s.route, s.writer, s.index, s.total_ms, s.cpu_ms
            )?;
        }
    }
    out.flush()
}

/// A plain GET whose answer must be 200.
pub fn get(addr: SocketAddr, target: &str) -> Result<Reply, String> {
    let reply = send(addr, &raw_request("GET", target, b""))?;
    if reply.status != 200 {
        return Err(format!("GET {target} → {} {}", reply.status, reply.text()));
    }
    Ok(reply)
}

/// One counter of the server's plain-text `/metrics`.
pub fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok())?
    })
}

/// End-of-run checks, per writer: `stream-status` holds exactly the
/// acknowledged points, and the streaming counters, with the durability
/// counters from `/metrics`, equal what the cadence arithmetic says the
/// fixed writer sequences must leave (the fixed-work guard).
pub fn final_checks(plan: &Plan, addr: SocketAddr, acked_points: &[u64], tally: &mut Tally) {
    let wants: Vec<_> = plan
        .appends
        .iter()
        .map(|&a| crate::plan::expected(a, plan.durable))
        .collect();
    for (w, &acked) in acked_points.iter().enumerate() {
        let want = wants[w];
        let status = get(
            addr,
            &format!("/models/{}/stream-status", plan.writer_model(w)),
        )
        .and_then(|r| json(&r));
        tally.record(status.and_then(|v| {
            let got = |key: &str| num(&v, key).map(|x| x as u64);
            let points = got("points_total")?;
            if points != acked {
                return Err(format!("points_total {points} != {acked} acknowledged"));
            }
            let seen = (points, got("refreshes")?, got("compactions")?);
            (seen == (want.points_total, want.refreshes, want.compactions))
                .then_some(())
                .ok_or_else(|| {
                    format!("fixed-work guard: (points, refreshes, compactions) {seen:?}, cadence arithmetic {want:?}")
                })
        }));
    }
    tally.record(get(addr, "/metrics").and_then(|r| {
        let text = r.text();
        let counter = |name: &str| metric(text, name).ok_or_else(|| format!("/metrics lacks {name}"));
        let seen_wal = (
            counter("graphserve_wal_records_written_total")?,
            counter("graphserve_wal_syncs_total")?,
            counter("graphserve_snapshots_written_total")?,
        );
        let expect = wants.iter().fold((0, 0, 0), |(r, y, n), w| {
            (r + w.wal_records, y + w.wal_syncs, n + w.snapshots)
        });
        (seen_wal == expect)
            .then_some(())
            .ok_or_else(|| format!("fixed-work guard: (WAL records, syncs, snapshots) {seen_wal:?}, cadence arithmetic {expect:?}"))
    }));
}
