//! Dissects what the amnesic compiler does to a binary: shows the
//! profiled producer trees, the per-site decisions, the embedded slice
//! bodies with their operand plans, and the §3.4 storage bounds.
//!
//! ```sh
//! cargo run --release --example slice_anatomy [bench]
//! ```
//!
//! `bench` is one of the 11 focal names; default `is`. Any other argument
//! prints the usage and exits 2.

use amnesiac::compiler::{compile, CompileOptions, SiteOutcome};
use amnesiac::isa::disassemble;
use amnesiac::profile::profile_program;
use amnesiac::sim::CoreConfig;
use amnesiac::workloads::{build_focal, Scale, FOCAL_NAMES};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [] => "is",
        [arg] if FOCAL_NAMES.contains(&arg.as_str()) => arg,
        _ => {
            eprintln!("usage: slice_anatomy [{}]", FOCAL_NAMES.join("|"));
            std::process::exit(2);
        }
    };
    let workload = build_focal(name, Scale::Test);
    let config = CoreConfig::paper();

    let (profile, _) = profile_program(&workload.program, &config)?;
    println!("== profiled load sites of `{name}`");
    for site in profile.loads.values() {
        match (&site.tree, site.unswappable) {
            (Some(tree), _) => println!(
                "  pc {:>4}: {:>8} instances, producer tree of {} nodes (height {}), \
                 locality {:.0}%",
                site.pc,
                site.count,
                tree.size(),
                tree.height(),
                100.0 * site.value_locality()
            ),
            (None, Some(why)) => {
                println!(
                    "  pc {:>4}: {:>8} instances, unswappable: {why:?}",
                    site.pc, site.count
                )
            }
            (None, None) => unreachable!("sites are either swappable or not"),
        }
    }

    let (annotated, report) = compile(&workload.program, &profile, &CompileOptions::default())?;
    println!("\n== compiler decisions");
    for d in &report.decisions {
        match &d.outcome {
            SiteOutcome::Selected {
                slice_len,
                height,
                has_nonrecomputable,
                est_recompute_nj,
                est_load_nj,
            } => println!(
                "  pc {:>4}: SELECTED — {} insts, height {}, nc inputs: {}, \
                 E_rc {:.2} nJ < E_ld {:.2} nJ",
                d.load_pc, slice_len, height, has_nonrecomputable, est_recompute_nj, est_load_nj
            ),
            other => println!("  pc {:>4}: {other:?}", d.load_pc),
        }
    }

    println!("\n== §3.4 storage bounds");
    let s = &report.storage;
    println!(
        "  SFile ≤ {} entries, Hist ≤ {} entries, IBuff ≤ {} instructions \
         ({} slices, largest {})",
        s.sfile_entries, s.hist_entries, s.ibuff_entries, s.n_slices, s.max_insts_per_slice
    );

    if annotated.is_annotated() {
        println!("\n== annotated binary (slice region)");
        let listing = disassemble(&annotated);
        let from = listing
            .lines()
            .position(|l| l.contains("slice bodies"))
            .unwrap_or(0);
        for line in listing.lines().skip(from) {
            println!("{line}");
        }
    }
    Ok(())
}
