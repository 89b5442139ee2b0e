//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable account of the run, then one JSON result line
//! as the last line of standard output. Exit codes: 0 = every output
//! verified and every determinism check held; 1 = a check failed (the
//! result line says `"correct": false`) or the run could not complete;
//! 2 = usage error.

use spaden_perfbench::report::{END_TO_END, PER_LAYER};
use spaden_perfbench::{run_workload, RunArgs, Size, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => match val.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad --seed {val:?}")),
            },
            "--seconds" => match val.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad --seconds {val:?}")),
            },
            "--trace" => match val.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad --trace {val:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }

    println!(
        "perfbench: workload {workload}, seed {seed}, {seconds} s per phase, trace {}; \
         one process, one thread (open-loop load is generated up front on the simulated \
         clock, so the generator is never late)",
        u8::from(trace)
    );
    let run = RunArgs {
        seed,
        seconds,
        trace,
    };
    let outcome = match run_workload(&workload, &run, Size::Standard) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {workload} failed: {e}");
            return ExitCode::from(1);
        }
    };
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = outcome.values.get(d.name);
        println!(
            "  {:<34} {:>16} {}",
            d.name,
            v.map_or("-".to_string(), |v| format!("{v:.6}")),
            d.unit
        );
    }
    let missing = outcome.missing(END_TO_END);
    let mut ok = outcome.correct;
    if !trace && !missing.is_empty() {
        eprintln!("error: end-to-end metrics not measured: {missing:?}");
        ok = false;
    }
    println!(
        "verdict: {} ({} attempted, {} failed)",
        if ok { "OK" } else { "FAILED" },
        outcome.attempted,
        outcome.failed
    );
    let mut line = outcome.clone();
    line.correct = ok;
    println!("{}", line.json_line(defs));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
