//! Workload definitions and the seeded, fixed request sequences they run.
//!
//! Everything a run sends is generated here from `--seed` before the first
//! request, so two runs with the same seed send byte-identical requests in
//! the same order. The number of requests is fixed by the workload and
//! `--seconds` (a nominal rate times the run length), never by a clock.

use datasets::cbf::{cbf, cbf_series, CbfClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~1,000 series fitted over `PUT`, read-only mix.
    Explore1k,
    /// The server's built-in demo model, read-only mix.
    DemoSmall,
    /// ~300 series with a durable streaming writer next to a reader.
    IngestDurable,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "explore_1k" => Some(Workload::Explore1k),
            "demo_small" => Some(Workload::DemoSmall),
            "ingest_durable" => Some(Workload::IngestDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore1k => "explore_1k",
            Workload::DemoSmall => "demo_small",
            Workload::IngestDurable => "ingest_durable",
        }
    }
}

/// Streaming cadences passed to the server (and to the in-process
/// replay). With `CHUNK` points per append: a refresh every 4th append
/// (25 % of appends), a compaction every 16th (6.25 %), a durable snapshot
/// every 8th (12.5 %) — no share sits near the 50 % or 1 % boundaries the
/// reported percentiles fall on.
pub const CHUNK: usize = 16;
pub const REFRESH_EVERY: usize = 64;
pub const COMPACT_EVERY: usize = 4;
pub const SNAPSHOT_EVERY: u64 = 2;
/// Series the single writer appends to, round-robin.
pub const WRITER_SERIES: usize = 4;
/// A `stream-status` read follows every this many appends on the writer's
/// connection.
pub const STATUS_EVERY: usize = 16;
/// Rows of the batch-predict request.
pub const BATCH_ROWS: usize = 16;
/// Distinct query series per run.
pub const POOL: usize = 48;
/// Element budget of the render requests (the server's default).
pub const RENDER_BUDGET: usize = 20_000;

/// The model every read targets.
pub fn model_name(w: Workload) -> &'static str {
    match w {
        Workload::DemoSmall => "demo",
        _ => "bench",
    }
}

/// The read-only workloads' ingest probe: two writers, each appending to
/// a model of its own, so the model under the read mix never changes and
/// no model has two writers (see the two-writer defect in `NOTES.md`).
/// Both are the demo data set (30 CBF series × 128), fitted over `PUT`
/// after set-up.
pub const PROBE_MODELS: [&str; 2] = ["probe0", "probe1"];
pub const PROBE_K: usize = 3;
pub const PROBE_LENGTHS: usize = 3;
pub const PROBE_SEED: u64 = 42;

/// `PUT` target and JSON body that fit `ds` as `name`.
fn fit_request(
    name: &str,
    ds: &tscore::Dataset,
    k: usize,
    n_lengths: usize,
    seed: u64,
) -> (String, Vec<u8>) {
    let mut body = String::with_capacity(ds.len() * ds.max_len() * 20);
    body.push('[');
    for (i, s) in ds.series().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&graphserve::json::f64s_to_json(s.values()));
    }
    body.push(']');
    (
        format!("/models/{name}?k={k}&n_lengths={n_lengths}&seed={seed}"),
        body.into_bytes(),
    )
}

/// One read request.
#[derive(Debug, Clone, Copy)]
pub enum ReadOp {
    Score(usize),
    Predict(usize),
    Features(usize),
    Graphoid {
        cluster: usize,
        lambda: bool,
    },
    Render,
    /// Batch predict over `BATCH_ROWS` pool series starting at this offset.
    Batch(usize),
    StreamStatus,
}

/// Route labels, in reporting order (the server's `/metrics` labels).
pub const ROUTES: [&str; 8] = [
    "score",
    "predict",
    "features",
    "graphoid",
    "render",
    "batch",
    "ingest",
    "stream_status",
];

impl ReadOp {
    pub fn route(&self) -> &'static str {
        match self {
            ReadOp::Score(_) => "score",
            ReadOp::Predict(_) => "predict",
            ReadOp::Features(_) => "features",
            ReadOp::Graphoid { .. } => "graphoid",
            ReadOp::Render => "render",
            ReadOp::Batch(_) => "batch",
            ReadOp::StreamStatus => "stream_status",
        }
    }
}

/// One operation of the writer's connection.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Append `points` to `series`; `n` is the append's 0-based position
    /// in the writer's sequence.
    Ingest {
        n: usize,
        series: usize,
        points: Vec<f64>,
    },
    StreamStatus,
}

/// What the cadence arithmetic says append `n` (0-based) must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    pub refreshed: bool,
    pub compacted: bool,
    /// A durable snapshot is due (only written with a state directory).
    pub snapshot: bool,
}

pub fn cadence(n: usize) -> Cadence {
    let per_refresh = REFRESH_EVERY / CHUNK;
    let refreshed = (n + 1).is_multiple_of(per_refresh);
    let r = (n + 1) / per_refresh;
    Cadence {
        refreshed,
        compacted: refreshed && r.is_multiple_of(COMPACT_EVERY),
        snapshot: refreshed && (r as u64).is_multiple_of(SNAPSHOT_EVERY),
    }
}

/// End-of-run counts a fixed writer sequence of `appends` must leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub points_total: u64,
    pub refreshes: u64,
    pub compactions: u64,
    pub wal_records: u64,
    pub wal_syncs: u64,
    pub snapshots: u64,
}

pub fn expected(appends: usize, durable: bool) -> Expected {
    let refreshes = (appends / (REFRESH_EVERY / CHUNK)) as u64;
    let d = u64::from(durable);
    Expected {
        points_total: (appends * CHUNK) as u64,
        refreshes,
        compactions: refreshes / COMPACT_EVERY as u64,
        wal_records: d * appends as u64,
        // `--wal-sync-every 1`: one fsync per record.
        wal_syncs: d * appends as u64,
        // The initial snapshot written at fit, plus one per due refresh.
        snapshots: d * (1 + refreshes / SNAPSHOT_EVERY),
    }
}

/// Everything one run sends.
pub struct Plan {
    pub workload: Workload,
    /// `PUT /models/bench?…` target and body, `None` for `--demo`.
    pub fit: Option<(String, Vec<u8>)>,
    /// `PUT /models/probe…?…` of the read-only workloads' probe models.
    pub probe_fits: Vec<(String, Vec<u8>)>,
    /// Fit-time dataset parameters (for the in-process replay).
    pub k: usize,
    pub n_lengths: usize,
    pub fit_seed: u64,
    /// Query series (JSON bodies are pre-rendered in `pool_json`).
    pub pool: Vec<Vec<f64>>,
    pub pool_json: Vec<String>,
    /// The read sequence.
    pub reads: Vec<ReadOp>,
    /// Each writer's sequence, one model per writer.
    pub writers: Vec<Vec<WriteOp>>,
    /// Whether the writer appends to the model the reads query
    /// (`ingest_durable`) or to probe models of its own (the read-only
    /// workloads).
    pub durable: bool,
    /// Appends per writer.
    pub appends: Vec<usize>,
}

/// One request of a run: read `i`, or writer `w`'s operation `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Read(usize),
    Write(usize, usize),
}

/// Read mix per cycle, as (op kind, count): 0 score, 1 predict,
/// 2 features, 3 graphoid, 4 render, 5 batch, 6 stream-status.
///
/// Measured CPU-time p50s order the routes features < score < predict <
/// graphoid < render < batch on `explore_1k` (0.29, 0.38, 0.65, 2.4, 6.3
/// and 8.3 ms). The shares are 15 %, 20 %, 25 %, 10 %, 27.5 % and 2.5 %
/// in that order, so the median sits 60 % of the way into predict's mode
/// (the cumulative shares around it are 35 % and 60 %), and batch, the
/// slowest route, holds 2.5 %: the 99th percentile of all reads falls near
/// the middle of batch's mode rather than at one of its edges (at 1 % it
/// would sit on the edge with render, at 5 % in batch's upper tail).
/// Renders hold 27.5 %, enough for ten samples beyond their own 98th
/// percentile (see `read_rate`).
const READ_MIX: [(u8, usize); 6] = [(2, 6), (0, 8), (1, 10), (3, 4), (4, 11), (5, 1)];

/// The ingest workload's reads also poll `stream-status`. Measured
/// CPU-time p50s: stream-status 0.18 ms, features 0.32 ms, predict and
/// score 0.41 ms, graphoid 0.94 ms, batch 4.2 ms, render 4.5 ms. The point
/// queries and stream-status hold 65 % of the reads, so the median sits
/// inside the predict/score mode (cumulative 15 % to 65 %); render and
/// batch form one mode holding the top 30 %, so the 99th percentile falls
/// inside it, and renders hold 27.5 %.
const INGEST_READ_MIX: [(u8, usize); 7] =
    [(6, 2), (2, 4), (1, 10), (0, 10), (3, 2), (4, 11), (5, 1)];

/// Reads per second of `--seconds`: each round of a run issues
/// `seconds × rate` reads, rounded up to whole cycles of the mix. At 20
/// seconds that is 1,840 reads, 506 of them renders, so the renders' 98th
/// percentile keeps ten samples beyond it.
fn read_rate(w: Workload) -> f64 {
    match w {
        Workload::DemoSmall => 500.0,
        _ => 92.0,
    }
}

/// Appends per second of `--seconds`, per round: `ingest_durable`'s
/// writer, and the read-only workloads' probe (both writers together).
/// At 20 seconds a round sends more than 1,000 appends, so the 99th
/// percentile keeps ten beyond it. Each refresh rescores the whole
/// history of every open series, so a writer's cost grows with the
/// square of its length.
const APPEND_RATE: f64 = 52.0;

/// The training sets are fixed, so every seed serves the same model and
/// only the traffic varies with `--seed`: a model's size sets the cost of
/// every request, and a seed-drawn model would move the figures between
/// runs as much as a code change could.
const DATA_SEED: u64 = 7;

/// Generates the plan. `seconds` scales the fixed request counts;
/// `trace` selects the shorter prefix the traced replay repeats in
/// process.
pub fn build(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_6a7a_b1e5_0001);
    let (per_class, len, k, n_lengths) = match workload {
        Workload::Explore1k => (334, 256, 3, 5),
        Workload::DemoSmall => (10, 128, 3, 3),
        Workload::IngestDurable => (100, 256, 3, 5),
    };
    let fit_seed = match workload {
        Workload::DemoSmall => 42,
        _ => DATA_SEED,
    };
    let fit = match workload {
        Workload::DemoSmall => None,
        _ => Some(fit_request(
            model_name(workload),
            &cbf(per_class, len, DATA_SEED),
            k,
            n_lengths,
            fit_seed,
        )),
    };
    let probe_fits = match workload {
        Workload::IngestDurable => Vec::new(),
        _ => PROBE_MODELS
            .iter()
            .map(|name| {
                fit_request(
                    name,
                    &cbf(10, 128, PROBE_SEED),
                    PROBE_K,
                    PROBE_LENGTHS,
                    PROBE_SEED,
                )
            })
            .collect(),
    };

    let classes = [CbfClass::Cylinder, CbfClass::Bell, CbfClass::Funnel];
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|i| cbf_series(classes[i % 3], len, &mut rng))
        .collect();
    let pool_json = pool
        .iter()
        .map(|s| graphserve::json::f64s_to_json(s))
        .collect();

    let seconds = seconds.max(1) as f64;
    // The traced run sends half a round: one wire pass, three in-process
    // passes and a second fit have to fit in about the time of a run.
    let trace_share = if trace { 0.5 } else { 1.0 };
    let mix: &[(u8, usize)] = match workload {
        Workload::IngestDurable => &INGEST_READ_MIX,
        _ => &READ_MIX,
    };
    let cycle_len: usize = mix.iter().map(|(_, n)| n).sum();
    let n_reads = ((read_rate(workload) * seconds * trace_share) as usize).max(cycle_len);
    let cycles = n_reads.div_ceil(cycle_len);
    let mut reads = Vec::with_capacity(cycles * cycle_len);
    for _ in 0..cycles {
        let mut cycle: Vec<u8> = mix
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        // Fisher–Yates, so consecutive cycles interleave routes differently.
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.gen_range(0..=i));
        }
        for kind in cycle {
            let s = rng.gen_range(0..POOL);
            reads.push(match kind {
                0 => ReadOp::Score(s),
                1 => ReadOp::Predict(s),
                2 => ReadOp::Features(s),
                3 => ReadOp::Graphoid {
                    cluster: rng.gen_range(0..k),
                    lambda: rng.gen_range(0..2) == 1,
                },
                4 => ReadOp::Render,
                5 => ReadOp::Batch(s),
                _ => ReadOp::StreamStatus,
            });
        }
    }

    let durable = workload == Workload::IngestDurable;
    let n_writers = if durable { 1 } else { PROBE_MODELS.len() };
    let appends = (APPEND_RATE * seconds * trace_share) as usize / n_writers;
    // Whole compaction periods, so every run ends on the same boundary.
    let period = COMPACT_EVERY * REFRESH_EVERY / CHUNK;
    let appends = vec![appends.div_ceil(period).max(1) * period; n_writers];
    let writers: Vec<Vec<WriteOp>> = appends
        .iter()
        .map(|&appends| {
            let mut streams: Vec<Vec<f64>> = vec![Vec::new(); WRITER_SERIES];
            let mut ops = Vec::with_capacity(appends + appends / STATUS_EVERY);
            for n in 0..appends {
                let series = n % WRITER_SERIES;
                let stream = &mut streams[series];
                while stream.len() < CHUNK {
                    let class = classes[rng.gen_range(0..3)];
                    stream.extend(cbf_series(class, len, &mut rng));
                }
                let points: Vec<f64> = stream.drain(..CHUNK).collect();
                ops.push(WriteOp::Ingest { n, series, points });
                if (n + 1).is_multiple_of(STATUS_EVERY) {
                    ops.push(WriteOp::StreamStatus);
                }
            }
            ops
        })
        .collect();
    Plan {
        workload,
        fit,
        probe_fits,
        k,
        n_lengths,
        fit_seed,
        pool,
        pool_json,
        reads,
        writers,
        durable,
        appends,
    }
}

impl Plan {
    /// The order a run sends its requests in, one at a time: the writers'
    /// operations (round-robin over the writers, each writer's own order
    /// kept) spread evenly through the read sequence. The wire run and the
    /// in-process replay both follow it, so every request meets the same
    /// server state in both, and in every run of a seed.
    pub fn steps(&self) -> Vec<Step> {
        let longest = self.writers.iter().map(Vec::len).max().unwrap_or(0);
        let writes: Vec<Step> = (0..longest)
            .flat_map(|i| {
                (0..self.writers.len())
                    .filter(move |&w| i < self.writers[w].len())
                    .map(move |w| Step::Write(w, i))
            })
            .collect();
        let n_reads = self.reads.len();
        let mut steps = Vec::with_capacity(n_reads + writes.len());
        let mut next_write = 0;
        for r in 0..n_reads {
            // Writes 0..j go before read r, with j = ⌈r · writes / reads⌉.
            while next_write * n_reads < r * writes.len() {
                steps.push(writes[next_write]);
                next_write += 1;
            }
            steps.push(Step::Read(r));
        }
        steps.extend_from_slice(&writes[next_write..]);
        steps
    }

    /// Method, target and body of a read.
    pub fn read_request(&self, op: &ReadOp) -> (&'static str, String, Vec<u8>) {
        let m = model_name(self.workload);
        match *op {
            ReadOp::Score(i) => (
                "POST",
                format!("/models/{m}/score?context=5"),
                self.pool_json[i].clone().into_bytes(),
            ),
            ReadOp::Predict(i) => (
                "POST",
                format!("/models/{m}/predict"),
                self.pool_json[i].clone().into_bytes(),
            ),
            ReadOp::Features(i) => (
                "POST",
                format!("/models/{m}/features"),
                self.pool_json[i].clone().into_bytes(),
            ),
            ReadOp::Graphoid { cluster, lambda } => (
                "GET",
                format!(
                    "/models/{m}/graphoid?cluster={cluster}&kind={}&threshold=0.5",
                    if lambda { "lambda" } else { "gamma" }
                ),
                Vec::new(),
            ),
            ReadOp::Render => (
                "GET",
                format!(
                    "/models/{m}/render?format=svg&detail=auto&layout=auto&budget={RENDER_BUDGET}"
                ),
                Vec::new(),
            ),
            ReadOp::Batch(start) => {
                let mut body = String::from("[");
                for r in 0..BATCH_ROWS {
                    if r > 0 {
                        body.push(',');
                    }
                    body.push_str(&self.pool_json[(start + r) % POOL]);
                }
                body.push(']');
                (
                    "POST",
                    format!("/models/{m}/batch?op=predict"),
                    body.into_bytes(),
                )
            }
            ReadOp::StreamStatus => ("GET", format!("/models/{m}/stream-status"), Vec::new()),
        }
    }

    /// The model writer `w` appends to.
    pub fn writer_model(&self, w: usize) -> &'static str {
        if self.durable {
            model_name(self.workload)
        } else {
            PROBE_MODELS[w]
        }
    }

    /// Method, target and body of writer `w`'s operation.
    pub fn write_request(&self, w: usize, op: &WriteOp) -> (&'static str, String, Vec<u8>) {
        let m = self.writer_model(w);
        match op {
            WriteOp::Ingest { series, points, .. } => {
                let body = format!(
                    "{{\"series\":{series},\"points\":{}}}",
                    graphserve::json::f64s_to_json(points)
                );
                ("POST", format!("/models/{m}/ingest"), body.into_bytes())
            }
            WriteOp::StreamStatus => ("GET", format!("/models/{m}/stream-status"), Vec::new()),
        }
    }

    /// The server's command-line flags besides address and port file.
    pub fn server_args(&self, state_dir: &std::path::Path) -> Vec<String> {
        let mut args = vec![
            "--workers".to_string(),
            "2".to_string(),
            "--refresh-every".to_string(),
            REFRESH_EVERY.to_string(),
            "--compact-every".to_string(),
            COMPACT_EVERY.to_string(),
        ];
        if self.workload == Workload::DemoSmall {
            args.push("--demo".to_string());
        }
        if self.durable {
            args.extend([
                "--state-dir".to_string(),
                state_dir.display().to_string(),
                "--wal-sync-every".to_string(),
                "1".to_string(),
                "--snapshot-every".to_string(),
                SNAPSHOT_EVERY.to_string(),
            ]);
        }
        args
    }
}
