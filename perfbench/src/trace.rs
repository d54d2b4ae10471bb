//! In-memory span recording for the traced run.
//!
//! Spans come only from the benchmark's own code: wrappers around calls
//! into the crates' public functions, and [`SpanSink`], which turns the
//! engine's existing `time(phase, nanos)` callbacks into child spans
//! ending "now". Nothing is added inside the program. Spans stay in
//! memory until the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use modsoc_metrics::{Counter, MetricsSink, Phase, COUNTER_COUNT};

/// Layer name of every engine call span.
pub const ENGINE_SPAN: &str = "atpg.run";

/// One closed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<name>`, e.g. `atpg.podem_phase`.
    pub layer: &'static str,
    /// Small per-process thread number.
    pub thread: u64,
    /// The unit (SOC or request) this span worked for; spans of one
    /// unit share it.
    pub unit: u64,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's span thread number.
fn thread_number() -> u64 {
    THREAD.with(|t| *t)
}

/// Spans plus engine counters, shared by every recorder of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Vec<AtomicU64>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: (0..COUNTER_COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a closed span on the calling thread.
    pub fn record(&self, layer: &'static str, unit: u64, start: u64, end: u64) {
        let span = Span {
            layer,
            thread: thread_number(),
            unit,
            start,
            end,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, layer: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(layer, unit, start, self.now());
        out
    }

    /// Add to an engine counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of an engine counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Layer name for a pipeline or engine phase.
#[must_use]
pub fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::IndexBuild => "netlist.index_build",
        Phase::FaultEnumerate => "atpg.fault_enumerate",
        Phase::FaultCollapse => "atpg.fault_collapse",
        Phase::RandomPhase => "atpg.random_phase",
        Phase::PodemPhase => "atpg.podem_phase",
        Phase::StaticCompaction => "atpg.static_compaction",
        Phase::CoverageRepair => "atpg.coverage_repair",
        Phase::ReverseCompaction => "atpg.reverse_compaction",
        Phase::FinalAccounting => "atpg.final_accounting",
        Phase::Flatten => "netlist.flatten",
        Phase::ModularDispatch => "core.modular_dispatch",
        Phase::MonolithicAtpg => "core.monolithic",
        Phase::TdvAnalysis => "core.tdv_analysis",
        Phase::TamPack => "tam.pack_phase",
        _ => "other.phase",
    }
}

/// A [`MetricsSink`] that turns each `time(phase, nanos)` callback into
/// a span ending now, on the calling thread, and forwards counters to
/// the log.
#[derive(Debug, Clone)]
pub struct SpanSink {
    log: Arc<SpanLog>,
    unit: u64,
}

impl SpanSink {
    /// A sink recording spans for `unit` into `log`.
    #[must_use]
    pub fn new(log: Arc<SpanLog>, unit: u64) -> SpanSink {
        SpanSink { log, unit }
    }
}

impl MetricsSink for SpanSink {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.log.add(counter, delta);
    }

    fn time(&self, phase: Phase, nanos: u64) {
        let end = self.log.now();
        self.log.record(
            phase_layer(phase),
            self.unit,
            end.saturating_sub(nanos),
            end,
        );
    }
}

/// How far before its parent's start a span may begin and still nest in
/// it. A span made from a `time(phase, nanos)` callback is placed at
/// `[now − nanos, now]`, late by the callback's own delay, so a closure
/// span opened right after the phase timer started can seem to begin a
/// few nanoseconds before its enclosing phase. Ends need no slack: a
/// callback reads the clock before anything that encloses it ends.
const NEST_TOLERANCE_NS: u64 = 5_000;

/// Whether `c` nests in `p`: on the same thread, ending inside it, and
/// starting inside it up to [`NEST_TOLERANCE_NS`] — a span that ends by
/// the time `p` starts is an earlier sibling. The shorter span is the
/// child (ties go to the earlier-recorded span as the parent), so
/// nesting is never mutual.
fn nests_in(spans: &[Span], c: usize, p: usize) -> bool {
    let (cs, ps) = (&spans[c], &spans[p]);
    cs.thread == ps.thread
        && cs.start + NEST_TOLERANCE_NS >= ps.start
        && cs.end > ps.start
        && cs.end <= ps.end
        && (cs.nanos(), p) < (ps.nanos(), c)
}

/// Direct parent of every span on its own thread, or `None`.
///
/// Spans are visited per thread in start order with a stack of open
/// ancestors. A visited span that turns out to enclose spans already on
/// the stack (it started a few nanoseconds later, see
/// [`NEST_TOLERANCE_NS`]) adopts them and they are reopened above it.
#[must_use]
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let s = &spans[i];
        (s.thread, s.start, std::cmp::Reverse(s.end), i)
    });
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let mut adopted = Vec::new();
        while let Some(&top) = open.last() {
            if nests_in(spans, i, top) {
                break;
            }
            open.pop();
            if nests_in(spans, top, i) {
                adopted.push(top);
            }
        }
        parent[i] = open.last().copied();
        open.push(i);
        while let Some(t) = adopted.pop() {
            if parent[t].is_none_or(|p| !nests_in(spans, p, i)) {
                parent[t] = Some(i);
            }
            open.push(t);
        }
    }
    parent
}

/// Self time of every span, in input order: its duration minus the part
/// of it covered by its children on the same thread (their union,
/// clipped to it). Work a span hands to another thread does not reduce
/// its self time — that thread's spans carry their own.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (c, p) in parents(spans).into_iter().enumerate() {
        if let Some(p) = p {
            children[p].push((spans[c].start, spans[c].end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// Time in `[lo, hi)` during which exactly one span of `layer` is open,
/// across all threads.
#[must_use]
pub fn exactly_one_open(spans: &[Span], layer: &str, lo: u64, hi: u64) -> u64 {
    let mut edges: Vec<(u64, i64)> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .flat_map(|s| [(s.start.clamp(lo, hi), 1), (s.end.clamp(lo, hi), -1)])
        .collect();
    // Closings sort before openings at the same instant.
    edges.sort_unstable();
    let mut open = 0i64;
    let mut last = lo;
    let mut total = 0;
    for (t, delta) in edges {
        if open == 1 {
            total += t - last;
        }
        open += delta;
        last = t;
    }
    total
}

/// Chrome trace-event JSON for `spans` (load in a trace viewer). Each
/// event carries its index, its same-thread parent's index, and its
/// unit; an engine span on a pool thread links to its experiment through
/// the unit.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .zip(parents(spans))
        .enumerate()
        .map(|(i, (s, parent))| {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{}}}}}",
                s.layer,
                s.thread,
                s.start as f64 / 1e3,
                s.nanos() as f64 / 1e3,
                s.unit
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span with edges in microseconds (the nesting tolerance is
    /// 5 µs, so the fixtures keep their edges well apart).
    fn us(layer: &'static str, thread: u64, start: u64, end: u64) -> Span {
        span(layer, thread, start * 1_000, end * 1_000)
    }

    fn span(layer: &'static str, thread: u64, start: u64, end: u64) -> Span {
        Span {
            layer,
            thread,
            unit: 0,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_subtract_once() {
        // unit [0,100) on thread 0 holds dispatch [10,40) and mono
        // [50,90); mono holds the engine [55,85) which holds two phases.
        let spans = vec![
            us("core.experiment", 0, 0, 100),
            us("core.modular_dispatch", 0, 10, 40),
            us("core.monolithic", 0, 50, 90),
            us("atpg.run", 0, 55, 85),
            us("atpg.random_phase", 0, 56, 60),
            us("atpg.podem_phase", 0, 60, 80),
        ];
        assert_eq!(
            self_times(&spans),
            vec![30_000, 30_000, 10_000, 6_000, 4_000, 20_000]
        );
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(
            total, 100_000,
            "self times of one thread tile its busy time"
        );
    }

    #[test]
    fn cross_thread_spans_do_not_reduce_the_parent() {
        // Dispatch waits on thread 0 while two workers run engines.
        let spans = vec![
            us("core.modular_dispatch", 0, 0, 50),
            us("atpg.run", 1, 5, 45),
            us("atpg.podem_phase", 1, 10, 30),
            us("atpg.run", 2, 5, 25),
        ];
        assert_eq!(self_times(&spans), vec![50_000, 20_000, 20_000, 20_000]);
    }

    #[test]
    fn overlapping_siblings_are_covered_once() {
        // Two children recorded from phase callbacks may overlap by a
        // clock tick; the parent loses their union, not their sum.
        let spans = vec![
            us("atpg.run", 0, 0, 100),
            us("atpg.random_phase", 0, 10, 50),
            us("atpg.podem_phase", 0, 40, 70),
        ];
        assert_eq!(self_times(&spans)[0], 40_000);
    }

    #[test]
    fn identical_intervals_nest_in_recording_order() {
        // A wrapper span and the phase it wraps can share both edges;
        // only the later-recorded one counts as the child.
        let spans = vec![span("a", 0, 0, 10), span("b", 0, 0, 10)];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), 10);
    }

    #[test]
    fn enclosing_phase_callback_contains_the_closure_span() {
        // Emulates the pipeline: the phase timer starts, the closure
        // records its own span, then the phase reports its duration.
        let log = Arc::new(SpanLog::default());
        let sink = SpanSink::new(Arc::clone(&log), 0);
        let timer = Instant::now();
        log.span(ENGINE_SPAN, 0, || std::hint::black_box(0));
        sink.time(
            Phase::MonolithicAtpg,
            u64::try_from(timer.elapsed().as_nanos()).expect("short"),
        );
        let spans = log.spans();
        assert_eq!(parents(&spans), vec![Some(1), None]);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].nanos());
    }

    #[test]
    fn a_late_enclosing_span_adopts_the_open_closure_span() {
        // The phase span was placed 40 ns after the closure span it
        // encloses began; the closure span's own phase must stay under
        // it, and the enclosing span under the experiment.
        let spans = vec![
            span("core.experiment", 0, 0, 1_000_000),
            span("atpg.run", 0, 100, 900_000),
            span("atpg.podem_phase", 0, 200_000, 800_000),
            span("core.monolithic", 0, 140, 900_100),
        ];
        assert_eq!(parents(&spans), vec![None, Some(3), Some(1), Some(0)]);
        let selfs = self_times(&spans);
        assert_eq!(selfs[2], 600_000);
        assert_eq!(selfs[1], 899_900 - 600_000);
        // The 40 ns the closure span seems to start early count twice.
        assert_eq!(selfs.iter().sum::<u64>(), 1_000_040);
    }

    #[test]
    fn an_early_enclosed_phase_still_nests() {
        // A dispatch span placed a few nanoseconds before the experiment
        // span that encloses it.
        let spans = vec![
            span("core.modular_dispatch", 0, 90, 500_000),
            span("core.experiment", 0, 100, 1_000_000),
        ];
        assert_eq!(parents(&spans), vec![Some(1), None]);
        assert_eq!(self_times(&spans)[1], 999_900 - 499_900);
    }

    #[test]
    fn serial_tail_counts_exactly_one_open() {
        let spans = vec![
            span("atpg.run", 1, 0, 40),
            span("atpg.run", 2, 10, 30),
            span("atpg.run", 0, 50, 80),
        ];
        // Exactly one engine open: [0,10) + [30,40) + [50,80) = 50.
        assert_eq!(exactly_one_open(&spans, "atpg.run", 0, 100), 50);
    }
}
