//! `pof-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints every metric by name with its unit; the last
//! line of standard output is the result object the driver reads.
//! `pof-benchmark --compare <a> <b>` judges two sets of runs.

use pof_benchmark::spec::WORKLOADS;
use pof_benchmark::{compare, host, out_dir, result, run_workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pof-benchmark --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--out <file>]\n       pof-benchmark --compare <a.jsonl> <b.jsonl>\n       \
pof-benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("in (0, 60]"));
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            for workload in WORKLOADS {
                println!("{workload}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return match compare::compare_files(a.as_ref(), b.as_ref()) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(err) => {
                    eprintln!("compare: {err}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let out = out_dir();
    let scratch = out
        .join("tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let host = host::stamp();
    let run = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &scratch,
    );
    let metrics = result::metrics(&run);
    if let Some((name, _, value)) = metrics.iter().find(|(_, _, value)| !value.is_finite()) {
        eprintln!("metric {name} is {value}: the run produced no sample for it");
        return ExitCode::from(2);
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for (name, unit, value) in &metrics {
        println!("{name:<34} {value:>22} {unit}");
    }
    println!(
        "fpr {} ({} false positives of {} absent probes)",
        run.fpr(),
        run.fpr_hits,
        run.fpr_probed
    );
    println!(
        "failed_ops {} of attempted_ops {} ({} probe calls, {} write calls, {} set-ups, {} reopens)",
        run.failed,
        run.attempted,
        run.probe.calls(),
        run.write.calls(),
        run.setup_s.len(),
        run.reopen_ms.len()
    );
    let stamped = result::stamped_line(&run, &args.workload, &host, &metrics);
    println!("stamp {stamped}");
    if run.traced {
        let path = out.join(format!("trace-{}.json", args.workload));
        match run.tracer.write_json(&path, &stamped) {
            Ok(()) => println!(
                "trace {} spans -> {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{stamped}"));
        if let Err(err) = appended {
            eprintln!("could not append to {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result::contract_line(&run, &metrics));
    if run.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
