//! End-to-end benchmark of the modsoc reproduction pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload soc2_cold|paper_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run sets up its inputs from the
//! seed (several times, reporting the median set-up time), then performs
//! a fixed amount of work sized from `--seconds` in a closed loop and
//! checks every output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the first half of the units untraced and then again
//! traced, checks that tracing changed no output, and prints the
//! per-layer metrics. The last stdout line is one JSON object; any wrong
//! output makes the exit code nonzero. `SPEC.json` beside this package
//! records seeds, digests, test-quality floors and what each metric
//! means.

#![forbid(unsafe_code)]

mod common;
mod paper_sweep;
mod serve_segment;
mod soc2_cold;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use modsoc_metrics::Counter;
use modsoc_perfbench::outcome::failed_frac;
use modsoc_perfbench::stats::{median, tail};
use modsoc_perfbench::trace::{self, Span, SpanLog, ENGINE_SPAN};
use modsoc_perfbench::{procfs, timed_store};

use common::Section;

/// Set-ups per run: at least [`SETUP_MIN_REPEATS`], and more while
/// they have taken less than [`SETUP_MIN_SECONDS`] in total, so that
/// millisecond set-ups get a median over many samples. `setup_s` is the
/// median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 200;

/// Scratch directory (stores, trace files), relative to the working
/// directory.
const WORK_DIR: &str = ".perfbench_tmp";

/// One workload's prepared inputs.
pub trait Workload {
    /// Units the full run performs.
    fn units(&self) -> usize;
    /// Perform the first `units` units as one timed section.
    fn run(&mut self, units: usize, log: Option<&Arc<SpanLog>>) -> Result<Section, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Prepare `args.workload`, tracing the set-up when `log` is given.
fn setup(args: &Args, log: Option<&Arc<SpanLog>>) -> Result<Box<dyn Workload>, String> {
    let scaled = |rate: f64| ((args.seconds * rate).round() as usize).max(1);
    Ok(match args.workload.as_str() {
        "soc2_cold" => Box::new(soc2_cold::Soc2Cold::setup(
            args.seed,
            scaled(soc2_cold::UNITS_PER_S),
            jobs(),
            log,
        )?),
        "paper_sweep" => Box::new(paper_sweep::PaperSweep::setup(
            args.seed,
            scaled(paper_sweep::PASSES_PER_S),
            jobs(),
            Path::new(WORK_DIR),
            log,
        )?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (soc2_cold, paper_sweep)"
            ))
        }
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn report_checks(section: &Section, label: &str) -> bool {
    for note in &section.notes {
        println!("{label}: {note}");
    }
    for e in &section.errors {
        eprintln!("{label}: FAIL {e}");
    }
    let rate = failed_frac(section.failed, section.attempted);
    println!(
        "{label}: failed_frac {rate} ({} of {} units)",
        section.failed, section.attempted
    );
    match tail(&section.latencies_ms) {
        Some(t) => println!(
            "{label}: unit_tail_ms {:.3} at p{} ({} samples, {} beyond)",
            t.value, t.percentile, t.samples, t.beyond
        ),
        None => println!(
            "{label}: unit_tail_ms omitted ({} samples; p90 needs 100)",
            section.latencies_ms.len()
        ),
    }
    section.errors.is_empty() && section.failed == 0
}

/// The section's wall time as rounds × median round time, so that a
/// stall of the shared host during one round does not swing it.
fn steady_wall(s: &Section) -> f64 {
    if s.rounds.is_empty() {
        s.wall_s
    } else {
        s.rounds.len() as f64 * median(&s.rounds)
    }
}

fn end_to_end(setup_s: f64, s: &Section) -> Result<Vec<Metric>, String> {
    let wall = steady_wall(s);
    let mut rounds = s.rounds.clone();
    rounds.sort_by(f64::total_cmp);
    let quartiles: Vec<String> = (0..=4)
        .filter_map(|q| rounds.get(q * rounds.len().saturating_sub(1) / 4))
        .map(|r| format!("{r:.3}"))
        .collect();
    println!(
        "run: wall {:.3} s measured, {wall:.3} s as {} rounds x median round (round min/quartiles/max {} s)",
        s.wall_s,
        s.rounds.len(),
        quartiles.join("/")
    );
    Ok(vec![
        ("setup_s".into(), setup_s, "s"),
        ("wall_s".into(), wall, "s"),
        ("cpu_s".into(), s.cpu_s, "s"),
        (
            "units_per_s".into(),
            s.latencies_ms.len() as f64 / wall,
            "1/s",
        ),
        ("unit_p50_ms".into(), median(&s.latencies_ms), "ms"),
        ("peak_rss_mb".into(), procfs::peak_rss_mb()?, "MB"),
        (
            "patterns_total".into(),
            (s.patterns_total + s.served_patterns) as f64,
            "count",
        ),
    ])
}

/// Span-derived per-layer metrics of a traced section.
fn per_layer(spans: &[Span], log: &SpanLog, traced: &Section, plain: &Section) -> Vec<Metric> {
    let (lo, hi) = traced.window;
    let within: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= lo && s.end <= hi)
        .cloned()
        .collect();
    let total_ms = |layer: &str, set: &[Span]| {
        set.iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |acc, s| acc + s.nanos() as f64 / 1e6)
    };
    let engine_nanos: u64 = within
        .iter()
        .filter(|s| s.layer == ENGINE_SPAN)
        .map(Span::nanos)
        .sum();
    let window = hi.saturating_sub(lo).max(1);
    // The driving thread: the one that runs the units (main), found by
    // the spans only it records.
    let selfs = trace::self_times(&within);
    let mut driving: Vec<u64> = within
        .iter()
        .filter(|s| {
            matches!(
                s.layer,
                "core.experiment"
                    | "core.tdv_analysis"
                    | "core.reconstruct"
                    | "tam.pack"
                    | "tam.pack_constrained"
            )
        })
        .map(|s| s.thread)
        .collect();
    driving.sort_unstable();
    driving.dedup();
    let attributed: u64 = within
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| driving.contains(&s.thread))
        .map(|(_, &n)| n)
        .sum();
    let unattributed_ms = if driving.is_empty() {
        window as f64 / 1e6
    } else {
        (window as f64 * driving.len() as f64 - attributed as f64) / driving.len() as f64 / 1e6
    };
    let count = |c: Counter| log.counter(c) as f64;
    let evals = count(Counter::FaultSimFaultEvals);
    let detections = count(Counter::FaultSimDetections);
    let mut m: Vec<Metric> = vec![(
        "circuitgen.generate_ms".into(),
        total_ms("circuitgen.generate", spans),
        "ms",
    )];
    for (name, layer) in [
        ("netlist.flatten_ms", "netlist.flatten"),
        ("netlist.index_build_ms", "netlist.index_build"),
        ("atpg.fault_collapse_ms", "atpg.fault_collapse"),
        ("atpg.random_phase_ms", "atpg.random_phase"),
        ("atpg.podem_phase_ms", "atpg.podem_phase"),
        ("atpg.static_compaction_ms", "atpg.static_compaction"),
        ("atpg.coverage_repair_ms", "atpg.coverage_repair"),
        ("atpg.reverse_compaction_ms", "atpg.reverse_compaction"),
        ("atpg.final_accounting_ms", "atpg.final_accounting"),
    ] {
        m.push((name.into(), total_ms(layer, &within), "ms"));
    }
    m.push((
        "atpg.engine_runs".into(),
        within.iter().filter(|s| s.layer == ENGINE_SPAN).count() as f64,
        "count",
    ));
    m.push((
        "atpg.podem_calls".into(),
        count(Counter::PodemCalls),
        "count",
    ));
    m.push((
        "atpg.podem_backtracks".into(),
        count(Counter::PodemBacktracks),
        "count",
    ));
    m.push((
        "atpg.fault_sim_batches".into(),
        count(Counter::FaultSimBatches),
        "count",
    ));
    m.push(("atpg.fault_sim_fault_evals".into(), evals, "count"));
    m.push((
        "atpg.evals_per_detection".into(),
        if detections == 0.0 {
            0.0
        } else {
            evals / detections
        },
        "ratio",
    ));
    for (name, layer) in [
        ("core.modular_dispatch_ms", "core.modular_dispatch"),
        ("core.monolithic_ms", "core.monolithic"),
        ("core.tdv_analysis_ms", "core.tdv_analysis"),
        ("core.reconstruct_ms", "core.reconstruct"),
    ] {
        m.push((name.into(), total_ms(layer, &within), "ms"));
    }
    m.push((
        "core.pool_idle_frac".into(),
        1.0 - engine_nanos as f64 / (jobs() as f64 * window as f64),
        "ratio",
    ));
    m.push((
        "core.serial_tail_ms".into(),
        trace::exactly_one_open(&within, ENGINE_SPAN, lo, hi) as f64 / 1e6,
        "ms",
    ));
    m.push(("core.unattributed_ms".into(), unattributed_ms, "ms"));
    m.push(("tam.pack_ms".into(), total_ms("tam.pack", &within), "ms"));
    m.push((
        "tam.pack_constrained_ms".into(),
        total_ms("tam.pack_constrained", &within),
        "ms",
    ));
    m.push((
        "tam.pack_candidates".into(),
        count(Counter::TamPackCandidates),
        "count",
    ));
    let extra = |name: &str| {
        traced
            .layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    m.push((
        "store.load_calls".into(),
        extra("store.load_calls"),
        "count",
    ));
    m.push((
        "store.load_ms".into(),
        total_ms(timed_store::LOAD_SPAN, spans),
        "ms",
    ));
    m.push((
        "store.store_calls".into(),
        extra("store.store_calls"),
        "count",
    ));
    m.push((
        "store.store_ms".into(),
        total_ms(timed_store::STORE_SPAN, spans),
        "ms",
    ));
    m.push(("store.hit_ratio".into(), extra("store.hit_ratio"), "ratio"));
    m.push((
        "store.bytes_written".into(),
        extra("store.bytes_written"),
        "bytes",
    ));
    for (name, unit) in [
        ("serve.hot_p50_ms", "ms"),
        ("serve.cold_p50_ms", "ms"),
        ("serve.dup_p50_ms", "ms"),
        ("serve.analyze_p50_ms", "ms"),
        ("serve.rejected_p50_ms", "ms"),
        ("serve.request_ms", "ms"),
        ("serve.wait_light_ms", "ms"),
        ("serve.wait_heavy_ms", "ms"),
        ("serve.batches", "count"),
        ("serve.batched_units", "count"),
        ("serve.coalesce_hits", "count"),
        ("serve.coalesce_ratio", "ratio"),
        ("serve.keepalive_reuses", "count"),
        ("serve.shed", "count"),
    ] {
        m.push((name.into(), extra(name), unit));
    }
    m.push((
        "metrics.trace_overhead_frac".into(),
        steady_wall(traced) / steady_wall(plain) - 1.0,
        "ratio",
    ));
    m
}

/// Layer profile of a traced section: calls, total and self time.
fn print_profile(spans: &[Span]) {
    let selfs = trace::self_times(spans);
    let mut rows: Vec<(&str, u64, f64, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.0 == s.layer) {
            Some(r) => r,
            None => {
                rows.push((s.layer, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += s.nanos() as f64 / 1e6;
        row.3 += self_ns as f64 / 1e6;
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    println!(
        "  {:<28} {:>8} {:>12} {:>12}",
        "layer", "calls", "total ms", "self ms"
    );
    for (layer, calls, total, own) in rows {
        println!("  {layer:<28} {calls:>8} {total:>12.3} {own:>12.3}");
    }
}

fn write_trace(args: &Args, spans: &[Span]) -> Result<PathBuf, String> {
    let path = Path::new(WORK_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    std::fs::write(&path, trace::chrome_trace(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    println!(
        "workload {} seed {} seconds {} jobs {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        jobs(),
        u8::from(args.trace)
    );
    let mut setups: Vec<f64> = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_MIN_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup(args, None)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let setup_s = median(&setups);
    let units = workload.units();

    if !args.trace {
        let section = workload.run(units, None)?;
        let ok = report_checks(&section, "run");
        let metrics = end_to_end(setup_s, &section)?;
        println!(
            "end-to-end ({} units, setup median of {}):",
            section.latencies_ms.len(),
            setups.len()
        );
        print_metrics(&metrics);
        println!(
            "{}",
            result_line(ok, section.attempted, section.failed, &metrics)
        );
        return Ok(ok);
    }

    // Traced run: the first half of the units untraced, then the same
    // units traced on freshly set-up inputs.
    let half = units.div_ceil(2);
    let plain = workload.run(half, None)?;
    drop(workload);
    let log = Arc::new(SpanLog::default());
    let mut traced_workload = setup(args, Some(&log))?;
    let traced = traced_workload.run(half, Some(&log))?;
    drop(traced_workload);
    let mut ok = report_checks(&plain, "untraced") & report_checks(&traced, "traced");
    if plain.digests != traced.digests {
        eprintln!("FAIL traced outputs differ from the untraced run over the same units");
        ok = false;
    }
    let engine_patterns = log.counter(Counter::PatternsFinal);
    if engine_patterns != 0 && engine_patterns != plain.patterns_total {
        eprintln!(
            "FAIL traced engine counted {engine_patterns} final patterns, untraced run {}",
            plain.patterns_total
        );
        ok = false;
    }
    let spans = log.spans();
    let path = write_trace(args, &spans)?;
    println!("trace: {} spans in {}", spans.len(), path.display());
    let (lo, hi) = traced.window;
    let within: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= lo && s.end <= hi)
        .cloned()
        .collect();
    println!("layer profile of the traced section ({half} units):");
    print_profile(&within);
    let metrics = per_layer(&spans, &log, &traced, &plain);
    println!("per-layer:");
    print_metrics(&metrics);
    println!(
        "{}",
        result_line(ok, traced.attempted, traced.failed, &metrics)
    );
    Ok(ok)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsoc_metrics::json::{self, JsonValue};

    /// `(name, unit)` pairs of one metric level of `BENCHMARK.json`, the
    /// file that names the metrics the benchmark must print.
    fn declared(level: &str) -> Vec<(String, String)> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(metrics) = doc.get(level).and_then(JsonValue::as_array) else {
            panic!("BENCHMARK.json has no {level} list");
        };
        metrics
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Metric names `SPEC.json` documents at one level.
    fn documented(level: &str) -> Vec<String> {
        let doc = json::parse(common::SPEC).expect("SPEC.json parses");
        let Some(JsonValue::Object(fields)) = doc.get("metrics").and_then(|m| m.get(level)) else {
            panic!("SPEC.json has no metrics.{level} object");
        };
        fields.iter().map(|(name, _)| name.clone()).collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), (*unit).to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_specification() {
        let section = Section {
            wall_s: 1.0,
            ..Section::default()
        };
        let e2e = end_to_end(0.5, &section).expect("procfs");
        let layers = per_layer(&[], &SpanLog::default(), &section, &section);
        for (level, metrics) in [("end_to_end", e2e), ("per_layer", layers)] {
            let declared = declared(level);
            assert_eq!(printed(&metrics), declared, "{level}");
            let names: Vec<String> = declared.into_iter().map(|(name, _)| name).collect();
            assert_eq!(documented(level), names, "SPEC.json notes of {level}");
        }
    }
}
