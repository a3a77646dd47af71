//! `skypeer-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the host, a calibration time and a table of every metric, then,
//! as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced pass. Exits 2 on a usage error.

use skypeer_bench::regress::HostFingerprint;
use skypeer_perfbench::{calibration_ms, run, RunSpec, Scale, Workload};

const USAGE: &str = "usage: skypeer-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: paper-uniform, backbone-wide, zipf-churn-cached";

fn parse(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(RunSpec {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::full(workload),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = HostFingerprint::current();
    println!("host: {} | {} cores | {}", host.cpu_model, host.core_count, host.rustc);
    // Not a metric: a fixed loop independent of the program, so that a
    // noisy verdict can be told apart from host drift.
    println!("calibration_ms (before): {}", calibration_ms());

    let report = run(&spec);

    println!("calibration_ms (after): {}", calibration_ms());
    println!("workload {} seed {} trace {}", spec.workload.name(), spec.seed, u8::from(spec.trace));
    for m in &report.metrics {
        println!("  {:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>18} ({} of {} checked operations failed)",
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
