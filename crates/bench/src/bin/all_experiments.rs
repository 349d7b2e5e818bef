//! Runs every table and figure generator in sequence against one shared
//! simulation session, so each model is built, quantized, approximated and
//! compiled exactly once across all reports.
//!
//! ```bash
//! cargo run --release -p dbpim-bench --bin all_experiments [-- --width 1.0 --images 8]
//! ```
//!
//! This is the one-shot artifact-evaluation entry point; its output is the
//! source of the numbers recorded in `EXPERIMENTS.md`. It takes the same
//! flags as every report binary, `--trace-out` and `--log-level` included.

use db_pim::flags;
use dbpim_bench::{experiment_args, experiments, ExperimentContext};

fn main() {
    let (options, trace) = experiment_args("all_experiments");
    let context = match ExperimentContext::new(options) {
        Ok(context) => context,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    println!("DB-PIM reproduction: all experiments (options: {options:?})\n");

    println!("{}", experiments::table1());
    type Generator = fn(&ExperimentContext) -> Result<String, db_pim::PipelineError>;
    let sections: [(&str, Generator); 4] = [
        ("fig2a", experiments::fig2a),
        ("fig2b", experiments::fig2b),
        ("table2", experiments::table2),
        ("fig7", experiments::fig7),
    ];
    for (name, generate) in sections {
        match generate(&context) {
            Ok(report) => println!("{report}"),
            Err(e) => eprintln!("{name} failed: {e}"),
        }
    }
    match experiments::table3(&context) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("table3 failed: {e}"),
    }
    println!("{}", experiments::table4(&context));
    match experiments::width_sweep(&context) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("width_sweep failed: {e}"),
    }
    match experiments::joint_sparsity(&context) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("joint_sparsity failed: {e}"),
    }
    flags::finish_trace("all_experiments", trace);
}
