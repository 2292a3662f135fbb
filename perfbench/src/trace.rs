//! In-memory spans for the traced replay.
//!
//! A span records its layer (the module whose public function it wraps),
//! its operation, start and end, its parent and the request it belongs
//! to. Spans live in a thread-local buffer while the replay runs and are
//! written out when it ends. With tracing off, [`span`] costs one
//! thread-local flag check.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the root.
    pub parent: u32,
    pub request: u32,
    /// Duration minus what the span's children cover; set by [`take`].
    pub self_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        request: 0,
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Tags the spans that follow with a request id.
pub fn set_request(id: u32) {
    TRACER.with(|t| t.borrow_mut().request = id);
}

/// Closes its span on drop.
pub struct Guard {
    index: Option<u32>,
}

/// Opens a span; it closes when the returned guard drops.
pub fn span(layer: &'static str, op: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return Guard { index: None };
        }
        let index = t.spans.len() as u32;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.stack.last().copied().unwrap_or(u32::MAX);
        let request = t.request;
        t.spans.push(Span {
            layer,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            self_ns: 0,
        });
        t.stack.push(index);
        Guard { index: Some(index) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let end = t.epoch.elapsed().as_nanos() as u64;
                t.spans[index as usize].end_ns = end;
                t.stack.pop();
            });
        }
    }
}

/// Runs `f` inside a span. The result passes through `black_box`, so the
/// measured call cannot be optimised away when its result goes unused.
pub fn timed<T>(layer: &'static str, op: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(layer, op);
    std::hint::black_box(f())
}

/// Nanoseconds one span costs to open, close and record: the median of
/// 20 rounds of `n / 20` empty spans. Call it while no span is recorded;
/// the probe spans are dropped again.
pub fn span_cost_ns(n: usize) -> f64 {
    let per_round = (n / 20).max(1);
    let was = TRACER.with(|t| t.borrow().enabled);
    set_enabled(true);
    let mut rounds: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_round {
                drop(std::hint::black_box(span("trace", "probe")));
            }
            let ns = t0.elapsed().as_nanos() as f64 / per_round as f64;
            TRACER.with(|t| t.borrow_mut().spans.clear());
            ns
        })
        .collect();
    set_enabled(was);
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// Takes every recorded span, leaving the buffer empty, with each span's
/// self time filled in (parent indices refer to the returned buffer).
pub fn take() -> Vec<Span> {
    let mut spans = TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans));
    for s in spans.iter_mut() {
        s.self_ns = s.dur_ns();
    }
    for i in 0..spans.len() {
        let parent = spans[i].parent;
        if parent != u32::MAX {
            let d = spans[i].dur_ns();
            let p = &mut spans[parent as usize];
            p.self_ns = p.self_ns.saturating_sub(d);
        }
    }
    spans
}

/// Durations in µs of the spans `layer`/`op`.
pub fn durations_us(spans: &[Span], layer: &str, op: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.op == op)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self time per layer in ms.
pub fn self_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let own = s.self_ns as f64 / 1e6;
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, v)) => *v += own,
            None => out.push((s.layer, own)),
        }
    }
    out
}

/// Writes buffers returned by [`take`] as one CSV,
/// `index,request,parent,layer,op,start_ns,end_ns,self_ns`; parent indices
/// are renumbered into the combined file.
pub fn write_csv(buffers: &[&[Span]], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index,request,parent,layer,op,start_ns,end_ns,self_ns")?;
    let mut i = 0usize;
    for buffer in buffers {
        let base = i;
        for s in buffer.iter() {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                (base + s.parent as usize).to_string()
            };
            writeln!(
                out,
                "{i},{},{parent},{},{},{},{},{}",
                s.request, s.layer, s.op, s.start_ns, s.end_ns, s.self_ns
            )?;
            i += 1;
        }
    }
    out.flush()
}
