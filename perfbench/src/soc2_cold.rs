//! `soc2_cold`: one live SOC2 experiment per unit, no store.

use std::sync::Arc;
use std::time::Instant;

use modsoc_circuitgen::soc::soc2;
use modsoc_circuitgen::SocNetlist;
use modsoc_core::experiment::ExperimentOptions;
use modsoc_perfbench::trace::SpanLog;

use crate::common::{
    check_experiment, experiment_fingerprint, in_span, measured, ms_since, run_experiment, Digests,
    Exceptions, QualityFloors, Section,
};
use crate::Workload;

/// Units per second of `--seconds` (one SOC2 takes about 5 s at
/// `jobs = 2` on the 2-CPU reference host).
pub const UNITS_PER_S: f64 = 0.2;

/// The SOC2 seed whose rendered report is pinned in `SPEC.json`
/// (`modsoc experiment soc2` without `--seed`).
const PINNED_SEED: u64 = 1;

/// Generated input: the SOC2 netlist at `seed`, run once per unit, so
/// every round is the same work.
pub struct Soc2Cold {
    seed: u64,
    netlist: SocNetlist,
    units: usize,
    options: ExperimentOptions,
}

impl Soc2Cold {
    /// Generate the SOC2 netlist of `seed`.
    pub fn setup(
        seed: u64,
        units: usize,
        jobs: usize,
        log: Option<&Arc<SpanLog>>,
    ) -> Result<Soc2Cold, String> {
        let gen = || soc2(seed).map_err(|e| format!("soc2({seed}): {e}"));
        Ok(Soc2Cold {
            seed,
            netlist: in_span(log, "circuitgen.generate", 0, gen)?,
            units,
            options: ExperimentOptions::paper_tables_1_2().with_jobs(jobs),
        })
    }
}

impl Workload for Soc2Cold {
    fn units(&self) -> usize {
        self.units
    }

    fn run(&mut self, units: usize, log: Option<&Arc<SpanLog>>) -> Result<Section, String> {
        let digests = Digests::load()?;
        let floors = QualityFloors::load()?;
        let mut section = Section::default();
        let mut exceptions = Exceptions::default();
        let lo = log.map_or(0, |l| l.now());
        let (results, wall, cpu) = measured(|| {
            (0..units)
                .map(|i| {
                    let t0 = Instant::now();
                    let r = run_experiment(&self.netlist, &self.options, log, i as u64);
                    (r, ms_since(t0))
                })
                .collect::<Vec<_>>()
        })?;
        section.window = (lo, log.map_or(0, |l| l.now()));
        section.wall_s = wall;
        section.cpu_s = cpu;
        let floor = floors.floor("soc2", self.seed);
        for (result, ms) in results {
            section.attempted += 1;
            section.latencies_ms.push(ms);
            section.rounds.push(ms / 1e3);
            let seed = self.seed;
            let checked = result
                .map_err(|e| format!("soc2({seed}): {e}"))
                .and_then(|c| {
                    let (report, patterns) =
                        check_experiment(&c, "soc2", seed, floor, &mut exceptions)?;
                    if seed == PINNED_SEED {
                        digests.expect("soc2_seed1_report", report.clone())?;
                    }
                    Ok((experiment_fingerprint(&c.result, &report), patterns))
                });
            match checked {
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
        section.notes.extend(exceptions.describe(units));
        Ok(section)
    }
}
