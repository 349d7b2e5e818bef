//! Design-space exploration: sweep architecture geometry grids (macro
//! count, SRAM sizes, frequency) × models × sparsity × operand widths with
//! a persisted, resumable snapshot.
//!
//! The rendered report goes to stdout and is a pure function of the
//! results; timing, resume and cache-counter diagnostics go to stderr (so
//! CI can diff cold vs. resumed runs byte-for-byte).

use std::time::Instant;

use db_pim::flags;
use dbpim_bench::dse::{render_report, DseSweepOptions, DSE_SWEEP_TABLE};

fn main() {
    let (options, trace) = flags::from_args("dse_sweep", DSE_SWEEP_TABLE, |flags| {
        Ok((DseSweepOptions::from_flags(flags)?, flags::install_trace(flags)?))
    });

    let driver = match options.driver() {
        Ok(driver) => driver,
        Err(e) => {
            eprintln!("dse_sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let spec = options.spec();

    let start = Instant::now();
    match driver.run(&spec) {
        Ok(report) => {
            print!("{}", render_report(&report));
            flags::finish_trace("dse_sweep", trace);
            let stats = driver.cache_stats();
            eprintln!(
                "dse_sweep: {} fresh + {} resumed of {} points in {:.2?} \
                 (cumulative {:.2?}); artifacts {} built / {} hits, programs {} compiled / {} hits",
                report.fresh_points,
                report.entries.len() - report.fresh_points,
                report.total_points,
                start.elapsed(),
                report.wall_time,
                stats.artifact_misses,
                stats.artifact_hits,
                stats.program_misses,
                stats.program_hits,
            );
            if !report.is_complete() {
                eprintln!(
                    "dse_sweep: report is incomplete ({} of {} points); re-run with the same \
                     --snapshot to continue",
                    report.entries.len(),
                    report.total_points
                );
            }
        }
        Err(e) => {
            eprintln!("dse_sweep failed: {e}");
            std::process::exit(1);
        }
    }
}
