//! `modsoc repro`: regenerate every table, figure and extension
//! experiment of the paper in one pass.
//!
//! Each section prints under a `#### modsoc repro <name>` header; with
//! no section named, all of them run in paper order. Everything is
//! deterministic (fixed seeds) and identical at any `--jobs` value, so
//! the full stdout is committed as `testdata/repro.txt` and diffed by
//! the CI gates. Only the live Table 2 section takes seconds; the rest
//! run in well under one.

use std::error::Error;

use modsoc::analysis::experiment::{
    run_soc_experiment_guarded, run_soc_experiment_tdf, ExperimentOptions, SocExperiment,
};
use modsoc::analysis::parallel::effective_jobs;
use modsoc::analysis::reconstruct::reconstruct_table4;
use modsoc::analysis::report::{fmt_u64, render_core_table, render_survey};
use modsoc::analysis::runctl::{CoreOutcome, CoreOutcomeKind};
use modsoc::analysis::timecost::time_cost;
use modsoc::analysis::{RunBudget, SocTdvAnalysis, TdvOptions};
use modsoc::atpg::bist::{run_hybrid, Lfsr};
use modsoc::atpg::{Atpg, AtpgOptions};
use modsoc::circuitgen::profile::iscas;
use modsoc::circuitgen::soc::SocNetlist;
use modsoc::circuitgen::{generate, CoreProfile};
use modsoc::netlist::cone::{cone_subcircuit, extract_cones};
use modsoc::soc::{itc02, CoreSpec, Soc};
use modsoc::tam::optimize::{best_at_width, sweep_architecture, sweep_rectangles, WidthSweep};
use modsoc::tam::wrapper::WrapperCore;
use modsoc::tam::TamArchitecture;

use super::{check_flags, jobs_from_flags, positional, print_experiment, RunStatus};

type SectionResult = Result<(), Box<dyn Error>>;

/// A section body; it takes the `--jobs` value.
type Section = fn(usize) -> SectionResult;

/// Every section, in paper order.
const SECTIONS: [(&str, Section); 9] = [
    ("fig1", fig1),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("ablations", ablations),
    ("atspeed", atspeed),
    ("tam-width", tam_width),
    ("hybrid-bist", hybrid_bist),
];

pub(crate) fn cmd_repro(args: &[String]) -> Result<RunStatus, String> {
    check_flags(args, &[], &["--jobs"])?;
    let jobs = jobs_from_flags(args)?;
    let selected: Vec<_> = match positional(args) {
        None => SECTIONS.iter().collect(),
        Some(name) => {
            let section = SECTIONS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
                let names: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
                format!(
                    "unknown repro section `{name}` (expected one of {})",
                    names.join("|")
                )
            })?;
            vec![section]
        }
    };
    for (i, (name, section)) in selected.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("#### modsoc repro {name}");
        section(jobs).map_err(|e| format!("repro {name}: {e}"))?;
    }
    Ok(RunStatus::Complete)
}

/// Percent difference of `ours` versus `paper`.
fn pct_delta(ours: f64, paper: f64) -> f64 {
    if paper == 0.0 {
        return 0.0;
    }
    (ours - paper) / paper * 100.0
}

/// The paper's Figures 1–2 worked example (§3).
///
/// Part 1 replays the arithmetic: three cones with 20/10/20 flip-flops
/// and 200/300/400 partial patterns give 20,000 monolithic stimulus bits
/// vs 15,000 modular (25% reduction). Part 2 demonstrates the
/// *mechanism* on real netlists: a generated design with nearly-disjoint
/// cones (Figure 1(a)) merges its per-cone cubes almost perfectly, while
/// the same cones with heavy support overlap (Figure 1(b)) conflict and
/// need more circuit-level patterns.
fn fig1(_jobs: usize) -> SectionResult {
    let mut soc = Soc::new("fig1");
    for (name, ffs, patterns) in [("ConeA", 20, 200), ("ConeB", 10, 300), ("ConeC", 20, 400)] {
        soc.add_core(CoreSpec::leaf(name, 0, 0, 0, ffs, patterns))?;
    }
    let analysis = SocTdvAnalysis::compute(&soc, &TdvOptions::default())?;
    let mono = analysis.monolithic_optimistic().stimulus;
    let modular = analysis.modular().stimulus;
    println!("== Figure 1/2 worked example (paper §3) ==");
    println!("cones: A(20 FF, 200 pat) B(10 FF, 300 pat) C(20 FF, 400 pat)");
    println!("monolithic stimulus bits: {mono}   (paper: 20,000)");
    println!("modular stimulus bits:    {modular}   (paper: 15,000)");
    println!(
        "reduction: {:.1}%          (paper: 25%)",
        (1.0 - modular as f64 / mono as f64) * 100.0
    );

    println!("\n== Per-cone vs circuit pattern counts (Figure 1(a) vs 1(b)) ==");
    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>8} {:>10}",
        "overlap", "max cone", "sum cone", "circuit", "ratio", "conflicts"
    );
    let engine = Atpg::new(AtpgOptions::deterministic_only());
    let raw_cube_engine = {
        let mut opts = AtpgOptions::deterministic_only();
        opts.merge_cubes = false;
        opts.reverse_compaction = false;
        Atpg::new(opts)
    };
    // Cones overlap when they are wide relative to the input pool: 8
    // cones of width 4 fit 32 inputs disjointly (Figure 1(a)); width 14
    // forces heavy sharing (Figure 1(b)).
    for (width, overlap) in [(4usize, 0.0), (8, 0.5), (14, 1.0)] {
        let mut profile = CoreProfile::new(format!("w{width}"), 32, 8, 0).with_seed(11);
        profile.overlap = overlap;
        profile.min_cone_width = width;
        profile.max_cone_width = width + 1;
        profile.xor_fraction = 0.3;
        let circuit = generate(&profile)?;
        let cones = extract_cones(&circuit)?;
        let mut max_cone = 0usize;
        let mut sum_cone = 0usize;
        for cone in cones.cones() {
            let t = engine
                .run(&cone_subcircuit(&circuit, cone)?)?
                .pattern_count();
            max_cone = max_cone.max(t);
            sum_cone += t;
        }
        let whole = engine.run(&circuit)?.pattern_count();
        // Conflict density of the raw (unmerged) cube set: the §3
        // mechanism — overlapping cones produce conflicting cubes.
        let raw = raw_cube_engine.run(&circuit)?;
        let conflicts = modsoc::atpg::compact::conflict_stats(&raw.patterns);
        println!(
            "{:>8.2} {:>9} {:>9} {:>9} {:>8.2} {:>9.1}%",
            cones.overlap_fraction(),
            max_cone,
            sum_cone,
            whole,
            whole as f64 / max_cone as f64,
            conflicts.conflict_density * 100.0
        );
    }
    println!(
        "(equation 2 in action: the circuit-level count always exceeds the per-cone max, and\n\
         wider/more-overlapping cones inflate it further — compaction cannot merge conflicting cubes)"
    );
    Ok(())
}

/// Run the live per-core + flattened monolithic experiment; any failed
/// core is an error (the paper tables need every row).
fn live_experiment(
    label: &str,
    netlist: &SocNetlist,
    jobs: usize,
) -> Result<SocExperiment, Box<dyn Error>> {
    eprintln!(
        "[{label}] running per-core ATPG ({} jobs) + flattened monolithic ATPG ...",
        effective_jobs(jobs)
    );
    let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
    let completion = run_soc_experiment_guarded(netlist, &options, &RunBudget::unlimited())?;
    if let Some(CoreOutcome {
        core,
        kind: CoreOutcomeKind::Failed(failure),
        ..
    }) = completion.failed_cores().first()
    {
        return Err(format!("[{label}] {core} {failure}").into());
    }
    Ok(completion.result)
}

/// The published summary of one of Tables 1/2: reduction ratio,
/// pessimistic ratio and pessimism factor.
struct PaperSummary {
    ratio: f64,
    pessimistic: f64,
    pessimism: f64,
}

/// One of Tables 1/2: the published rows (bit-exact from the
/// transcribed table), then a live regeneration on synthetic
/// ISCAS'89-lookalike cores wired per the paper's figure — per-core
/// ATPG, flattened monolithic ATPG, and the TDV comparison. The live
/// run must meet the paper's invariants: Equation 2 strict and 100%
/// stuck-at coverage on every core and on the flattened design.
fn soc_table(
    label: &str,
    soc: &Soc,
    measured_tmono: u64,
    paper: &PaperSummary,
    netlist: &SocNetlist,
    jobs: usize,
) -> SectionResult {
    let published = SocTdvAnalysis::compute_with_measured_tmono(
        soc,
        &TdvOptions::tables_1_2(),
        measured_tmono,
    )?;
    println!("== {label}: published data (Table transcription) ==");
    println!("{}", render_core_table(soc, &published));
    println!(
        "paper's own summary: ratio {:.2}, pessimistic {:.2}, pessimism {:.1}x; ours from its \
         data: {:.2} / {:.2} / {:.1}x\n",
        paper.ratio,
        paper.pessimistic,
        paper.pessimism,
        published.reduction_ratio(),
        published.pessimistic_reduction_ratio(),
        published.pessimism_factor()
    );

    let exp = live_experiment(label, netlist, jobs)?;
    println!("== {label}: live regeneration (synthetic ISCAS'89 lookalikes) ==");
    print_experiment(&exp, true);
    println!(
        "reduction ratio: ours {:.2} vs paper {:.2} ({:+.1}%)",
        exp.analysis.reduction_ratio(),
        paper.ratio,
        pct_delta(exp.analysis.reduction_ratio(), paper.ratio)
    );
    println!(
        "pessimistic ratio: ours {:.2} vs paper {:.2}",
        exp.analysis.pessimistic_reduction_ratio(),
        paper.pessimistic
    );
    check_eq2(label, &exp)?;
    let coverages = exp
        .cores
        .iter()
        .map(|c| (c.name.as_str(), c.fault_coverage));
    for (name, coverage) in coverages.chain([("monolithic", exp.mono_coverage)]) {
        if coverage < 1.0 {
            return Err(format!(
                "[{label}] {name} stuck-at coverage {:.4}% is below 100%",
                coverage * 100.0
            )
            .into());
        }
    }
    Ok(())
}

/// Equation 2 must hold strictly (`T_mono > max_i T_i`), as the paper
/// observes on both SOCs.
fn check_eq2(label: &str, exp: &SocExperiment) -> SectionResult {
    if exp.eq2_strict {
        return Ok(());
    }
    Err(format!(
        "[{label}] equation 2 is not strict: T_mono {} vs max core {}",
        exp.t_mono,
        exp.soc.max_core_patterns()
    )
    .into())
}

/// Table 1: SOC1 (s713 + s953 + 3×s1423, Figure 4).
fn table1(jobs: usize) -> SectionResult {
    let paper = PaperSummary {
        ratio: 2.87,
        pessimistic: 1.13,
        pessimism: 2.5,
    };
    let netlist = modsoc::circuitgen::soc::soc1(1)?;
    soc_table(
        "Table 1 / SOC1",
        &itc02::soc1(),
        itc02::SOC1_MEASURED_TMONO,
        &paper,
        &netlist,
        jobs,
    )
}

/// Table 2: SOC2 (s953 + s5378 + s13207 + s15850, Figure 5); the live
/// part runs ATPG on a ~30k-gate flattened design.
fn table2(jobs: usize) -> SectionResult {
    let paper = PaperSummary {
        ratio: 2.22,
        pessimistic: 1.06,
        pessimism: 2.1,
    };
    let netlist = modsoc::circuitgen::soc::soc2(1)?;
    soc_table(
        "Table 2 / SOC2",
        &itc02::soc2(),
        itc02::SOC2_MEASURED_TMONO,
        &paper,
        &netlist,
        jobs,
    )
}

/// Table 3: the per-core TDV computation for the hierarchical ITC'02
/// SOC p34392 (Figure 3), bit-exact.
fn table3(_jobs: usize) -> SectionResult {
    let soc = itc02::p34392();
    let analysis = SocTdvAnalysis::compute(&soc, &TdvOptions::tables_3_4())?;
    println!("== Table 3: p34392 (hierarchical; core0 embeds 1,2,10,18; 2 embeds 3-9; 10 embeds 11-17; 18 embeds 19) ==");
    println!("{}", render_core_table(&soc, &analysis));
    println!(
        "SOC modular TDV: {}  (paper Table 3: {})",
        fmt_u64(analysis.modular().total()),
        fmt_u64(itc02::P34392_TDV_MODULAR)
    );
    if analysis.modular().total() != itc02::P34392_TDV_MODULAR {
        return Err("p34392 modular TDV is not bit-exact".into());
    }
    println!("bit-exact match: yes");

    let row = itc02::table4_row("p34392").ok_or("p34392 is missing from table 4")?;
    println!(
        "\nTable 4 cross-check: TDV_opt_mono {} (paper {}), penalty {} (paper {}, computed here \
         with the self-consistent O(core10)=107 — see EXPERIMENTS.md), benefit {} (paper {})",
        fmt_u64(analysis.monolithic_optimistic().total()),
        fmt_u64(row.tdv_opt_mono),
        fmt_u64(analysis.penalty()),
        fmt_u64(row.penalty),
        fmt_u64(analysis.benefit()),
        fmt_u64(row.benefit),
    );
    Ok(())
}

/// Table 4: TDV comparison over the ten ITC'02 benchmark SOCs, with
/// per-row deltas against the paper and the normalized-standard-
/// deviation correlation. p34392 uses the exact embedded per-core data
/// (Table 3); the other nine use the analytic reconstruction of the
/// published aggregates.
fn table4(_jobs: usize) -> SectionResult {
    let opts = TdvOptions::tables_3_4();
    let mut analyses = Vec::new();
    for row in itc02::table4() {
        let soc = if row.name == "p34392" {
            itc02::p34392()
        } else {
            reconstruct_table4(row)?
        };
        analyses.push(SocTdvAnalysis::compute(&soc, &opts)?);
    }

    println!("== Table 4: ITC'02 benchmark SOCs (p34392 exact; others reconstructed) ==");
    println!("{}", render_survey(&analyses));

    println!("per-row delta vs paper (modular TDV change %):");
    for (a, row) in analyses.iter().zip(itc02::table4()) {
        // The paper's modular% for p34392 inherits its penalty decimal
        // typo (−86.0 printed, −94.5 consistent); report both.
        let ratio = a.monolithic_optimistic().total() as f64 / a.modular().total() as f64;
        println!(
            "  {:<10} ours {:+7.1}%  paper {:+7.1}%  (delta {:+5.1} pp, ratio ours {:5.2} vs paper {:5.2} -> {:+.1}%)",
            row.name,
            a.modular_change_pct(),
            row.modular_pct,
            a.modular_change_pct() - row.modular_pct,
            ratio,
            row.reduction_ratio(),
            pct_delta(ratio, row.reduction_ratio()),
        );
    }

    // The paper's correlation claim: reduction tracks pattern-count
    // variation; g12710 (nstd 0.18) and a586710 (nstd 1.95) are the
    // extremes.
    let pairs: Vec<(f64, f64)> = analyses
        .iter()
        .map(|a| (a.pattern_stats().normalized_stdev(), a.modular_change_pct()))
        .collect();
    let r = pearson(&pairs);
    println!("\ncorrelation(normalized stdev, modular TDV change): r = {r:.2} (paper: strongly negative)");
    Ok(())
}

fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// An 8-core SOC at constant total scan whose pattern counts spread
/// around 1000 by the factor `spread` (0 = all equal, 1 = strongly
/// skewed), each core with `io_per_core` terminals.
fn ablation_soc(name: &str, spread: f64, io_per_core: u64) -> Result<Soc, Box<dyn Error>> {
    let n = 8u64;
    let mut soc = Soc::new(name);
    let mut children = Vec::new();
    for i in 0..n {
        let factor = 1.0 + spread * (i as f64 - (n - 1) as f64 / 2.0) / ((n - 1) as f64 / 2.0);
        let patterns = (1000.0 * factor.max(0.02)) as u64;
        children.push(soc.add_core(CoreSpec::leaf(
            format!("c{i}"),
            io_per_core / 2,
            io_per_core - io_per_core / 2,
            0,
            2000,
            patterns.max(1),
        ))?);
    }
    soc.add_core(CoreSpec::parent("top", 64, 64, 0, 0, 0, children))?;
    Ok(soc)
}

/// Ablation sweeps for the design choices DESIGN.md calls out:
/// pattern-count variation (the Table 4 correlation as a controlled
/// experiment), terminal/scan ratio (the g12710 crossover), functional
/// register reuse (the isolation pessimism), and the chip-pin policy of
/// Tables 1/2 vs Table 3.
fn ablations(_jobs: usize) -> SectionResult {
    let opts = TdvOptions::tables_3_4();

    println!("== Ablation 1: pattern-count variation vs modular reduction ==");
    println!("{:>7} {:>7} {:>10}", "spread", "nstd", "modular %");
    for spread in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
        let a = SocTdvAnalysis::compute(&ablation_soc("sweep", spread, 64)?, &opts)?;
        println!(
            "{spread:>7.2} {:>7.2} {:>+9.1}%",
            a.pattern_stats().normalized_stdev(),
            a.modular_change_pct()
        );
    }
    println!("(more variation -> larger reduction; the Table 4 correlation, controlled)\n");

    println!("== Ablation 2: terminal richness vs wrapper penalty (g12710 regime) ==");
    println!(
        "{:>9} {:>10} {:>10} {:>10}",
        "io/core", "penalty %", "benefit %", "modular %"
    );
    let mut crossed = false;
    for io in [16u64, 64, 256, 1024, 4096, 16384] {
        let a = SocTdvAnalysis::compute(&ablation_soc("io", 0.3, io)?, &opts)?;
        crossed |= a.modular_change_pct() > 0.0;
        println!(
            "{io:>9} {:>+9.1}% {:>+9.1}% {:>+9.1}%",
            a.penalty_pct(),
            a.benefit_pct(),
            a.modular_change_pct()
        );
    }
    println!(
        "(crossover observed: {crossed} — IO-dominated cores make modular testing lose, as on g12710)\n"
    );

    println!("== Ablation 3: functional-register isolation (the paper's noted pessimism) ==");
    println!(
        "{:>7} {:>12} {:>10} {:>10}",
        "reuse", "penalty", "penalty %", "modular %"
    );
    let p34392 = itc02::p34392();
    for reuse in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let o = TdvOptions::tables_3_4().with_functional_reuse(reuse);
        let a = SocTdvAnalysis::compute(&p34392, &o)?;
        println!(
            "{reuse:>7.2} {:>12} {:>+9.2}% {:>+9.1}%",
            fmt_u64(a.penalty()),
            a.penalty_pct(),
            a.modular_change_pct()
        );
    }
    println!("(reusing functional registers as wrapper cells erases the isolation penalty)\n");

    println!("== Ablation 4: chip-pin policy ==");
    for (soc, t_mono) in [
        (itc02::soc1(), itc02::SOC1_MEASURED_TMONO),
        (itc02::soc2(), itc02::SOC2_MEASURED_TMONO),
    ] {
        let ex =
            SocTdvAnalysis::compute_with_measured_tmono(&soc, &TdvOptions::tables_1_2(), t_mono)?;
        let inc =
            SocTdvAnalysis::compute_with_measured_tmono(&soc, &TdvOptions::tables_3_4(), t_mono)?;
        println!(
            "{}: modular TDV exclude={} include={} (ratio {:.2} vs {:.2})",
            soc.name(),
            fmt_u64(ex.modular().total()),
            fmt_u64(inc.modular().total()),
            ex.reduction_ratio(),
            inc.reduction_ratio()
        );
    }
    Ok(())
}

/// Extension: does the modular TDV benefit carry over to **at-speed**
/// (launch-on-capture transition-delay) test data? Same SOC1
/// construction and methodology as Table 1, with transition-fault ATPG
/// supplying the pattern counts; the stuck-at ratio it is compared
/// against is measured in the same run.
fn atspeed(jobs: usize) -> SectionResult {
    let netlist = modsoc::circuitgen::soc::soc1(1)?;
    let stuck_at = live_experiment("SOC1 stuck-at", &netlist, jobs)?;
    eprintln!("[at-speed SOC1] per-core + flattened monolithic transition-fault ATPG ...");
    let options = ExperimentOptions::paper_tables_1_2().with_jobs(jobs);
    let exp = run_soc_experiment_tdf(&netlist, 200, &options)?;

    println!("== SOC1, at-speed (LOC transition) test data ==");
    for m in &exp.cores {
        println!(
            "  {}: {} TDF patterns, {:.1}% coverage over LOC-testable",
            m.name,
            m.patterns,
            m.fault_coverage * 100.0
        );
    }
    println!(
        "  flat: {} TDF patterns, {:.1}% coverage over LOC-testable\n",
        exp.t_mono,
        exp.mono_coverage * 100.0
    );
    println!("{}", render_core_table(&exp.soc, &exp.analysis));
    println!(
        "equation 2 at speed: T_mono {} vs max core {} — strict: {}",
        exp.t_mono,
        exp.soc.max_core_patterns(),
        exp.eq2_strict
    );
    println!(
        "at-speed TDV reduction ratio: {:.2} (stuck-at version of this experiment: {:.2})",
        exp.analysis.reduction_ratio(),
        stuck_at.analysis.reduction_ratio()
    );
    check_eq2("at-speed SOC1", &exp)
}

/// Extension: SOC test time vs TAM width per architecture on p34392 —
/// the classic test-planning curve from the paper's cited context
/// (Goel & Marinissen, its ref 13), on the same core data the TDV
/// analysis uses.
fn tam_width(_jobs: usize) -> SectionResult {
    const MAX_W: usize = 48;
    let soc = itc02::p34392();
    let cores: Vec<WrapperCore> = soc
        .iter()
        .filter(|(_, c)| c.patterns > 0)
        .map(|(_, c)| WrapperCore::from_core_spec(c, 8))
        .collect();

    println!("== p34392: SOC test time (cycles) vs TAM width ==");
    let mux = sweep_architecture(TamArchitecture::Multiplexing, &cores, MAX_W)?;
    let daisy = sweep_architecture(TamArchitecture::Daisychain, &cores, MAX_W)?;
    let dist = sweep_architecture(TamArchitecture::Distribution, &cores, MAX_W)?;
    let flex = sweep_rectangles(&cores, MAX_W)?;
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "width", "multiplexing", "daisychain", "distribution", "rectangles"
    );
    for w in [1usize, 2, 4, 8, 16, 24, 32, 48] {
        let find = |s: &WidthSweep| {
            s.points
                .iter()
                .find(|p| p.width == w)
                .map_or("-".to_string(), |p| p.time.to_string())
        };
        println!(
            "{w:>6} {:>14} {:>14} {:>14} {:>14}",
            find(&mux),
            find(&daisy),
            find(&dist),
            find(&flex)
        );
    }
    if let Some(knee) = flex.knee(0.05) {
        println!(
            "\nrectangle-schedule knee (5% threshold): width {} at {} cycles",
            knee.width, knee.time
        );
    }
    let best = best_at_width(&cores, 32)?;
    println!(
        "best configuration at width 32: {:?} ({} cycles)",
        best.architecture
            .map_or("Rectangles".to_string(), |a| format!("{a:?}")),
        best.time
    );

    println!("\n== joint view: the TDV analysis is width-independent, time is not ==");
    for w in [8usize, 16, 32] {
        let tc = time_cost(&soc, &TdvOptions::tables_3_4(), None, w, 8)?;
        println!(
            "width {w:>2}: modular TDV {} bits (constant), modular time {} cycles, mono time {} cycles",
            tc.tdv.modular().total(),
            tc.modular_time,
            tc.monolithic_time
        );
    }
    Ok(())
}

/// Extension: hybrid BIST + deterministic top-up vs pure ATE on an
/// s713-lookalike core — the test-data lever orthogonal to (and
/// composing with) the paper's modularity argument.
fn hybrid_bist(_jobs: usize) -> SectionResult {
    let circuit = generate(&iscas::s713(1))?;
    let model = circuit.to_test_model()?.circuit;
    let width = model.input_count();

    let pure = Atpg::new(AtpgOptions::deterministic_only()).run(&circuit)?;
    let pure_bits = pure.pattern_count() * width;
    println!(
        "core: s713 lookalike, {} gates; pure ATE: {} patterns, {} stimulus bits, {:.2}% coverage",
        circuit.gate_count(),
        pure.pattern_count(),
        pure_bits,
        pure.fault_coverage() * 100.0
    );
    println!(
        "\n{:>12} {:>12} {:>14} {:>16} {:>10}",
        "bist budget", "bist cov %", "top-up pats", "external bits", "vs pure"
    );
    for budget in [0usize, 64, 256, 1024, 4096, 16384] {
        let hybrid = run_hybrid(&model, Lfsr::standard(0xB157), budget, 200)?;
        println!(
            "{budget:>12} {:>11.1}% {:>14} {:>16} {:>9.1}%",
            hybrid.bist.coverage * 100.0,
            hybrid.top_up.len(),
            hybrid.external_stimulus_bits,
            hybrid.external_stimulus_bits as f64 / pure_bits as f64 * 100.0
        );
    }
    println!(
        "\n(on-chip patterns trade tester data for test time; the residual top-up\n\
         sets still differ per core, so modular testing compounds the saving)"
    );
    Ok(())
}
