//! `paper_sweep`: many small units drawn from the paper reproduction —
//! the p34392 and Table 4 TDV analyses, the TAM packer and its
//! power-constrained variant over all 12 SOCs, and live soc1 and mini
//! experiments at distinct seeds — and, after the timed section, a
//! closed loop of requests to an in-process `modsoc serve` daemon.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use modsoc_circuitgen::soc::{mini_soc, soc1};
use modsoc_circuitgen::SocNetlist;
use modsoc_core::experiment::{ExperimentOptions, SocExperiment};
use modsoc_core::reconstruct::reconstruct_table4;
use modsoc_core::report::render_core_table;
use modsoc_core::{AnalysisError, Completion, SocTdvAnalysis, TdvOptions};
use modsoc_perfbench::trace::{SpanLog, SpanSink};
use modsoc_soc::{itc02, Soc};
use modsoc_tam::binpack::{pack, pack_metered, PackedSchedule};
use modsoc_tam::constraints::{
    pack_constrained, pack_constrained_metered, packed_peak_power, power_cores,
};
use modsoc_tam::power::PowerCore;
use modsoc_tam::wrapper::WrapperCore;
use modsoc_tam::TamError;

use crate::common::{
    check_eq6, check_experiment, digest, experiment_fingerprint, in_span, measured, ms_since,
    run_experiment, Digests, Exceptions, QualityFloors, Section,
};
use crate::serve_segment::ServeSegment;
use crate::Workload;

/// Passes per second of `--seconds`; one pass is [`UNITS_PER_PASS`]
/// units and takes about 0.55 s on the 2-CPU reference host.
pub const PASSES_PER_S: f64 = 1.8;

/// Live soc1 experiments per pass.
const SOC1_PER_PASS: usize = 4;
/// Live mini experiments per pass.
const MINI_PER_PASS: usize = 24;
/// TAM width of the packing units (`modsoc tam --width 16`).
const TAM_WIDTH: usize = 16;
/// Wrapper chains per core (`modsoc tam` default).
const TAM_CHAINS: usize = 8;
/// The soc1 seed whose rendered report is pinned in `SPEC.json`.
const PINNED_SOC1_SEED: u64 = 1;

/// Served requests per pass: one block of the request mix.
const REQUESTS_PER_PASS: usize = 20;

/// Units of a pass, in order: p34392, the ten Table 4 SOCs, the twelve
/// TAM SOCs, then the live experiments.
pub const UNITS_PER_PASS: usize = 1 + 10 + 12 + SOC1_PER_PASS + MINI_PER_PASS;

/// One TAM packing input.
struct TamSoc {
    name: String,
    cores: Vec<WrapperCore>,
    powered: Vec<PowerCore>,
    ceiling: u64,
}

enum Unit {
    P34392,
    Table4(usize),
    Tam(usize),
    Live {
        soc1: bool,
        seed: u64,
        netlist: SocNetlist,
    },
}

/// Generated inputs of the sweep.
pub struct PaperSweep {
    units: Vec<Unit>,
    tam: Vec<TamSoc>,
    serve: ServeSegment,
    options: ExperimentOptions,
}

/// The `modsoc tam` SOC set: the builtin SOC1/SOC2 models and the ten
/// Table 4 SOCs (p34392 embedded, the rest reconstructed).
pub fn itc02_socs() -> Result<Vec<(String, Soc)>, String> {
    let mut socs: Vec<(String, Soc)> = vec![
        ("soc1".to_string(), itc02::soc1()),
        ("soc2".to_string(), itc02::soc2()),
    ];
    for row in itc02::table4() {
        socs.push((row.name.to_string(), table4_soc(row)?));
    }
    Ok(socs)
}

/// Packing inputs for every SOC of [`itc02_socs`].
fn tam_socs() -> Result<Vec<TamSoc>, String> {
    Ok(itc02_socs()?
        .into_iter()
        .map(|(name, soc)| {
            let cores: Vec<WrapperCore> = soc
                .iter()
                .filter(|(_, c)| c.patterns > 0)
                .map(|(_, c)| WrapperCore::from_core_spec(c, TAM_CHAINS))
                .collect();
            let powered = power_cores(&cores);
            // Twice the largest single rating: always feasible, and
            // tight enough that the constraint shapes the packing.
            let ceiling = 2 * powered.iter().map(|p| p.test_power).max().unwrap_or(0);
            TamSoc {
                name,
                cores,
                powered,
                ceiling,
            }
        })
        .collect())
}

fn table4_soc(row: &itc02::Table4Row) -> Result<Soc, String> {
    if row.name == "p34392" {
        Ok(itc02::p34392())
    } else {
        reconstruct_table4(row).map_err(|e| format!("reconstructing {}: {e}", row.name))
    }
}

impl PaperSweep {
    /// Build the ITC'02 models and generate every live netlist.
    pub fn setup(
        seed: u64,
        passes: usize,
        jobs: usize,
        work: &Path,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<PaperSweep, String> {
        let tam = tam_socs()?;
        let serve = ServeSegment::setup(seed, passes * REQUESTS_PER_PASS, jobs, work, log)?;
        let mut units = Vec::with_capacity(passes * UNITS_PER_PASS);
        for p in 0..passes {
            units.push(Unit::P34392);
            units.extend((0..10).map(Unit::Table4));
            units.extend((0..tam.len()).map(Unit::Tam));
            for (soc1_unit, per_pass) in [(true, SOC1_PER_PASS), (false, MINI_PER_PASS)] {
                for j in 0..per_pass {
                    let s = seed.wrapping_add((p * per_pass + j) as u64);
                    let gen = || {
                        if soc1_unit { soc1(s) } else { mini_soc(s) }
                            .map_err(|e| format!("generating seed {s}: {e}"))
                    };
                    let netlist = in_span(log, "circuitgen.generate", units.len() as u64, gen)?;
                    units.push(Unit::Live {
                        soc1: soc1_unit,
                        seed: s,
                        netlist,
                    });
                }
            }
        }
        Ok(PaperSweep {
            units,
            tam,
            serve,
            options: ExperimentOptions::paper_tables_1_2().with_jobs(jobs),
        })
    }
}

/// Packing invariants: every core placed once on exactly its width in
/// distinct in-range wires, no wire used by two placements at once, and
/// (when constrained) peak power within the ceiling.
fn check_packing(
    name: &str,
    p: &PackedSchedule,
    cores: usize,
    power: Option<(&[PowerCore], u64)>,
) -> Result<(), String> {
    let mut seen = vec![false; cores];
    for pl in &p.placements {
        let fresh = seen.get_mut(pl.core).map(|s| !std::mem::replace(s, true));
        let mut wires = pl.wires.clone();
        wires.sort_unstable();
        wires.dedup();
        if fresh != Some(true)
            || wires.len() != pl.width
            || wires.iter().any(|&w| w >= p.width)
            || pl.end < pl.start
        {
            return Err(format!("{name}: malformed placement of {}", pl.name));
        }
    }
    if seen.iter().any(|s| !s) {
        return Err(format!("{name}: a core was never placed"));
    }
    for (i, a) in p.placements.iter().enumerate() {
        for b in &p.placements[i + 1..] {
            let overlap = a.start < b.end && b.start < a.end;
            if overlap && a.wires.iter().any(|w| b.wires.contains(w)) {
                return Err(format!("{name}: {} and {} share a wire", a.name, b.name));
            }
        }
    }
    if let Some((powered, ceiling)) = power {
        let peak = packed_peak_power(p, powered);
        if peak > ceiling {
            return Err(format!("{name}: peak power {peak} over ceiling {ceiling}"));
        }
    }
    Ok(())
}

/// What one unit produced, kept until the timed section is over.
enum Output {
    Analysis(Soc, Result<SocTdvAnalysis, AnalysisError>),
    Table4(
        Result<Soc, String>,
        Option<Result<SocTdvAnalysis, AnalysisError>>,
    ),
    Tam(Result<(PackedSchedule, PackedSchedule), TamError>),
    Live(Result<Completion<SocExperiment>, AnalysisError>),
}

impl PaperSweep {
    /// Run unit `i`: only calls into the crates, no checks.
    fn execute(&mut self, i: usize, log: Option<&Arc<SpanLog>>) -> Output {
        let unit = i as u64;
        let analyse = |soc: &Soc| {
            in_span(log, "core.tdv_analysis", unit, || {
                SocTdvAnalysis::compute(soc, &TdvOptions::tables_3_4())
            })
        };
        match &self.units[i] {
            Unit::P34392 => {
                let soc = itc02::p34392();
                let a = analyse(&soc);
                Output::Analysis(soc, a)
            }
            Unit::Table4(r) => {
                let row = &itc02::table4()[*r];
                let soc = in_span(log, "core.reconstruct", unit, || table4_soc(row));
                let a = soc.as_ref().ok().map(analyse);
                Output::Table4(soc, a)
            }
            Unit::Tam(k) => {
                let t = &self.tam[*k];
                let sink = log.map(|l| SpanSink::new(Arc::clone(l), unit));
                let packed = in_span(log, "tam.pack", unit, || match &sink {
                    Some(sink) => pack_metered(&t.cores, TAM_WIDTH, sink),
                    None => pack(&t.cores, TAM_WIDTH),
                });
                let constrained = in_span(log, "tam.pack_constrained", unit, || match &sink {
                    Some(sink) => pack_constrained_metered(&t.powered, TAM_WIDTH, t.ceiling, sink),
                    None => pack_constrained(&t.powered, TAM_WIDTH, t.ceiling),
                });
                Output::Tam(packed.and_then(|p| constrained.map(|c| (p, c))))
            }
            Unit::Live { netlist, .. } => {
                Output::Live(run_experiment(netlist, &self.options, log, unit))
            }
        }
    }

    /// Check unit `i`'s output; returns its fingerprint and pattern count.
    fn check(
        &self,
        i: usize,
        output: Output,
        digests: &Digests,
        floors: &QualityFloors,
        exceptions: &mut Exceptions,
    ) -> Result<(String, u64), String> {
        match (&self.units[i], output) {
            (Unit::P34392, Output::Analysis(soc, a)) => {
                let a = a.map_err(|e| format!("p34392: {e}"))?;
                check_eq6(&a)?;
                if a.modular().total() != itc02::P34392_TDV_MODULAR {
                    return Err("p34392: modular TDV differs from Table 3".into());
                }
                let got = digest(&render_core_table(&soc, &a));
                Ok((digests.expect("p34392_report", got)?, 0))
            }
            (Unit::Table4(r), Output::Table4(soc, a)) => {
                let name = itc02::table4()[*r].name;
                let soc = soc?;
                let a = a
                    .expect("analysed when reconstructed")
                    .map_err(|e| format!("{name}: {e}"))?;
                check_eq6(&a)?;
                let got = digest(&render_core_table(&soc, &a));
                Ok((digests.expect(&format!("table4/{name}"), got)?, 0))
            }
            (Unit::Tam(k), Output::Tam(packings)) => {
                let t = &self.tam[*k];
                let (packed, constrained) = packings.map_err(|e| format!("{}: {e}", t.name))?;
                check_packing(&t.name, &packed, t.cores.len(), None)?;
                check_packing(
                    &t.name,
                    &constrained,
                    t.cores.len(),
                    Some((&t.powered, t.ceiling)),
                )?;
                let rendered = format!(
                    "{} packed {} util {:.6} backfills {} | constrained {} peak {} backfills {}",
                    t.name,
                    packed.makespan(),
                    packed.utilization(),
                    packed.backfills(),
                    constrained.makespan(),
                    packed_peak_power(&constrained, &t.powered),
                    constrained.backfills()
                );
                Ok((
                    digests.expect(&format!("tam/{}", t.name), digest(&rendered))?,
                    0,
                ))
            }
            (
                Unit::Live {
                    soc1,
                    seed,
                    netlist,
                },
                Output::Live(completion),
            ) => {
                let completion =
                    completion.map_err(|e| format!("{} seed {seed}: {e}", netlist.name()))?;
                let kind = if *soc1 { "soc1" } else { "mini" };
                let floor = floors.floor(kind, *seed);
                let (report, patterns) =
                    check_experiment(&completion, kind, *seed, floor, exceptions)?;
                if *soc1 && *seed == PINNED_SOC1_SEED {
                    digests.expect("soc1_seed1_report", report.clone())?;
                }
                Ok((
                    experiment_fingerprint(&completion.result, &report),
                    patterns,
                ))
            }
            _ => unreachable!("execute returns the output kind of its unit"),
        }
    }
}

impl Workload for PaperSweep {
    fn units(&self) -> usize {
        self.units.len()
    }

    fn run(&mut self, units: usize, log: Option<&Arc<SpanLog>>) -> Result<Section, String> {
        let mut section = Section::default();
        let lo = log.map_or(0, |l| l.now());
        let (outputs, wall, cpu) = measured(|| {
            (0..units)
                .map(|i| {
                    let t0 = Instant::now();
                    let output = self.execute(i, log);
                    (output, ms_since(t0))
                })
                .collect::<Vec<_>>()
        })?;
        section.window = (lo, log.map_or(0, |l| l.now()));
        section.wall_s = wall;
        section.cpu_s = cpu;
        section.rounds = outputs
            .chunks(UNITS_PER_PASS)
            .map(|pass| pass.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3)
            .collect();
        let digests = Digests::load()?;
        let floors = QualityFloors::load()?;
        let mut exceptions = Exceptions::default();
        for (i, (output, ms)) in outputs.into_iter().enumerate() {
            section.attempted += 1;
            section.latencies_ms.push(ms);
            match self.check(i, output, &digests, &floors, &mut exceptions) {
                Ok((fingerprint, patterns)) => {
                    section.digests.push(fingerprint);
                    section.patterns_total += patterns;
                }
                Err(e) => {
                    section.failed += 1;
                    section.errors.push(e);
                }
            }
        }
        // The served requests run after the timed section. Their closed
        // loop swung the section's wall time by up to 1.9x between runs
        // on the shared 2-CPU reference host, so they are checked in
        // every run but measured per layer only.
        let requests = units.div_ceil(UNITS_PER_PASS) * REQUESTS_PER_PASS;
        self.serve.start()?;
        in_span(log, "serve.loop", 0, || self.serve.drive(0..requests, log));
        self.serve.finish(&mut section)?;
        let live = self.units[..units]
            .iter()
            .filter(|u| matches!(u, Unit::Live { .. }))
            .count();
        section.notes.extend(exceptions.describe(live));
        Ok(section)
    }
}
