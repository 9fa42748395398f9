//! Fig. 5-style comparison: run the paper's eight applications under
//! EEMP, RMP and TEEM and print grouped energy / temperature / execution
//! time, plus the per-approach averages the paper reports.
//!
//! ```sh
//! cargo run --release --example baseline_comparison
//! ```

use teem::prelude::*;
use teem::telemetry::plot::{bar_chart, BarGroup};
use teem::telemetry::stats::percent_reduction;
use teem::telemetry::summary::table;
use teem_core::runner::{fig5_mapping, fig5_requirement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = Board::odroid_xu4_ideal();
    let mut rows = Vec::new();
    let mut energy_groups = Vec::new();

    for app in App::paper_eight() {
        let profile = offline::profile_app(&board, app)?;
        // Per-app requirement at the paper's 85 C threshold, mapping
        // fixed at 2L+3B as in the Fig. 5 experiments.
        let req = fig5_requirement(app, &profile);
        let mut bars = Vec::new();
        for approach in Approach::fig5() {
            let r = run(
                app,
                approach,
                &req,
                Some(&profile),
                Some(fig5_mapping()),
                None,
            );
            bars.push((approach.name().to_string(), r.summary.energy_j));
            rows.push(r.summary);
        }
        energy_groups.push(BarGroup {
            label: app.abbrev().to_string(),
            bars,
        });
    }

    println!("{}", table(&rows));
    println!("--- Fig. 5(a)-style energy bars ---");
    println!("{}", bar_chart(&energy_groups, 48, "J"));

    // Per-approach averages (the paper: TEEM saves 28.32% vs EEMP and
    // 13.97% vs RMP on energy; ~28%/24% on performance).
    let avg = |name: &str, f: &dyn Fn(&RunSummary) -> f64| -> f64 {
        let v: Vec<f64> = rows.iter().filter(|r| r.approach == name).map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let (e_eemp, e_rmp, e_teem) = (
        avg("EEMP", &|r| r.energy_j),
        avg("RMP", &|r| r.energy_j),
        avg("TEEM", &|r| r.energy_j),
    );
    let (t_eemp, t_rmp, t_teem) = (
        avg("EEMP", &|r| r.execution_time_s),
        avg("RMP", &|r| r.execution_time_s),
        avg("TEEM", &|r| r.execution_time_s),
    );
    let (v_eemp, v_rmp, v_teem) = (
        avg("EEMP", &|r| r.temp_variance),
        avg("RMP", &|r| r.temp_variance),
        avg("TEEM", &|r| r.temp_variance),
    );
    println!("--- averages over the eight applications ---");
    println!(
        "energy  : TEEM {e_teem:.0}J vs EEMP {e_eemp:.0}J ({:+.1}%) vs RMP {e_rmp:.0}J ({:+.1}%)",
        percent_reduction(e_eemp, e_teem).unwrap_or(f64::NAN),
        percent_reduction(e_rmp, e_teem).unwrap_or(f64::NAN),
    );
    println!(
        "time    : TEEM {t_teem:.1}s vs EEMP {t_eemp:.1}s ({:+.1}%) vs RMP {t_rmp:.1}s ({:+.1}%)",
        percent_reduction(t_eemp, t_teem).unwrap_or(f64::NAN),
        percent_reduction(t_rmp, t_teem).unwrap_or(f64::NAN),
    );
    println!(
        "varT    : TEEM {v_teem:.2} vs EEMP {v_eemp:.2} ({:+.1}%) vs RMP {v_rmp:.2} ({:+.1}%)",
        percent_reduction(v_eemp, v_teem).unwrap_or(f64::NAN),
        percent_reduction(v_rmp, v_teem).unwrap_or(f64::NAN),
    );
    Ok(())
}
