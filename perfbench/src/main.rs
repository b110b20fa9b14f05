//! perfbench: runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <sweep_cold|uarch_replay|campaign_warm> --seed N --seconds S --trace <0|1>
//! perfbench --record-reference [--jobs N]
//! ```
//!
//! Run from the repository root, e.g. through
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- ...`.
//! Stores and span files go to `.perfbench_work/` under the current
//! directory. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! say the same for a reader.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::rowcheck::{row_digest, Reference, Table};
use perfbench::sample::{uarch_pool, uarch_variant, UARCH_VARIANTS};
use perfbench::workloads::{run, Opts, Report, Workload};
use vortex_bench::{kernel_factories, paper_sweep, run_campaign};

const WORKDIR: &str = ".perfbench_work";
const REFERENCE_PATH: &str = "perfbench/reference/rows.txt";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>\n       \
         perfbench --record-reference [--jobs N]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be a whole number".to_owned())?;
    let seconds: f64 =
        get("--seconds")?.parse().map_err(|_| "--seconds must be a number".to_owned())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts { workload, seed, seconds, trace, workdir: PathBuf::from(WORKDIR) })
}

fn print(report: &Report) {
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite figure is null.
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Regenerates the reference table with the program's own campaign
/// runner: every kernel on every grid configuration, and on every
/// micro-architecture variant of every pool topology.
fn record_reference(jobs: usize, out: &Path) -> Result<(), String> {
    let grid = paper_sweep();
    let pool = uarch_pool();
    let mut entries = Vec::new();
    for factory in kernel_factories(perfbench::rows::SCALE) {
        eprintln!("recording reference rows of {}", factory.name);
        let rows = run_campaign(&factory, &grid, jobs).map_err(|e| e.to_string())?.rows;
        entries.push((
            Table::Grid,
            factory.name.to_owned(),
            0,
            rows.iter().map(row_digest).collect(),
        ));
        for variant in 1..UARCH_VARIANTS {
            let configs: Vec<_> =
                pool.iter().map(|t| uarch_variant(&t.config(), variant)).collect();
            let rows = run_campaign(&factory, &configs, jobs).map_err(|e| e.to_string())?.rows;
            entries.push((
                Table::Pool,
                factory.name.to_owned(),
                variant,
                rows.iter().map(row_digest).collect(),
            ));
        }
    }
    std::fs::write(out, Reference::render(&entries)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record-reference") {
        let jobs = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|j| j.parse().ok())
            .unwrap_or(1);
        return match record_reference(jobs, Path::new(REFERENCE_PATH)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &report.spans_jsonl {
        let path = opts.workdir.join(format!("spans-{}-{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) =
            std::fs::create_dir_all(&opts.workdir).and_then(|()| std::fs::write(&path, spans))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    print(&report);
    ExitCode::SUCCESS
}
