//! `perfbench --workload <head|tail|live> --seed <n> --seconds <s> --trace <0|1>
//! [--host <text>] [--commit <text>]`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::process::ExitCode;

use perfbench::inputs::Workload;
use perfbench::run::{run_traced, run_untraced, Options};
use perfbench::stats::result_line;

struct Args {
    opts: Options,
    host: String,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut host = "unknown".to_string();
    let mut commit = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--host" => host = value,
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        opts: Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
        host,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <head|tail|live> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    let w = o.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} offered_rps={} host=\"{}\" commit={}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        w.offered_rps(),
        args.host,
        args.commit
    );
    let out = if o.trace {
        run_traced(o)
    } else {
        run_untraced(o)
    };
    for p in &out.phases {
        println!(
            "phase {:<28} attempted {:>7} failed {:>5}",
            p.name, p.attempted, p.failed
        );
    }
    for m in &out.metrics.0 {
        let better = if m.better.is_empty() {
            String::new()
        } else {
            format!(" ({} is better)", m.better)
        };
        println!(
            "metric {:<32} {:>14.4} {}{}",
            m.name, m.value, m.unit, better
        );
    }
    for n in &out.notes {
        println!("{n}");
    }
    let failed = out.failed();
    println!(
        "{}",
        result_line(failed == 0, out.attempted(), failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
