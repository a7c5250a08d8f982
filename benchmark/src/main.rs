//! The repo's benchmark: four workloads, one per product path, each run in
//! a process of its own. See README.md.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark all --seed <n> [--seeds <k>] [--runs <k>] [--seconds <s>] [--workload <name>] [--trace 1] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! benchmark manifest
//! ```

mod compare;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Outcome;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest().render_pretty());
            Ok(true)
        }
        Some("compare") => compare::run(&args[1..]),
        Some("all") => Flags::parse(&args[1..]).and_then(|f| run_all(&f)),
        Some("setup") => Flags::parse(&args[1..]).and_then(|f| time_setup(&f)),
        Some(_) => Flags::parse(&args).and_then(|f| run_one(&f)),
        None => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | all | compare | manifest".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `all` only: consecutive seeds starting at `seed`, and runs per seed.
    seeds: u64,
    runs: usize,
    out: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            workload: None,
            seed: 1,
            seconds: f64::from(spec::RUN_SECONDS),
            trace: false,
            seeds: 1,
            runs: 1,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => f.workload = Some(value.clone()),
                "--seed" => f.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => f.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => f.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--seeds" => f.seeds = value.parse().map_err(|_| bad())?,
                "--runs" => f.runs = value.parse().map_err(|_| bad())?,
                "--out" => f.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(f.seconds > 0.0 && f.seconds.is_finite()) || f.runs == 0 || f.seeds == 0 {
            return Err("--seconds, --seeds and --runs must be positive".into());
        }
        Ok(f)
    }
}

/// `benchmark/out`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload in this process: report to stderr, the result line the
/// driver reads as the last line of stdout.
fn run_one(flags: &Flags) -> Result<bool, String> {
    host::refuse_pinned_env()?;
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let entry = workloads::entry(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // the child first: it pins itself, and would inherit a narrowed set
    let setup = time_setup_in_child(name, flags.seed)?;
    host::pin();
    let mut tracer = Tracer::new(flags.trace);
    let mut outcome = (entry.run)(flags.seed, flags.seconds, setup, &mut tracer);
    let peak_rss_mb = host::peak_rss_mb();

    if let Some((stray, _)) =
        outcome.layers.iter().find(|(n, _)| spec::PER_LAYER.iter().all(|m| m.name != *n))
    {
        return Err(format!("{name} reported {stray}, which spec::PER_LAYER does not list"));
    }
    let metrics: Vec<(&str, &str, f64)> = if flags.trace {
        let p = outcome.setup.parts;
        outcome.layers.extend([
            ("setup.datagen_s", p.datagen_s),
            ("setup.filter_build_s", p.filter_build_s),
            ("setup.model_init_s", p.model_init_s),
        ]);
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = outcome.layers.iter().find(|(n, _)| *n == m.name).map_or(0.0, |l| l.1);
                (m.name, m.unit, value)
            })
            .collect()
    } else {
        let value = |name: &str| match name {
            "throughput" => outcome.throughput,
            "latency_ms" => outcome.latency_ms,
            "peak_rss_mb" => peak_rss_mb,
            "setup_s" => outcome.setup.total_s,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        spec::END_TO_END.iter().map(|m| (m.name, m.unit, value(m.name))).collect()
    };
    // a metric that is not a number is an output that is not correct
    let non_finite = metrics.iter().filter(|m| !m.2.is_finite()).count() as u64;
    outcome.failed += non_finite;
    let correct = outcome.failed == 0;

    report(name, flags, &outcome, &metrics, &tracer);
    if flags.trace {
        let path = out_dir().join(format!("trace_{name}.jsonl"));
        match tracer.flush(&path, name) {
            Ok(()) => eprintln!("{} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, unit, value)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

/// The `setup` subcommand: repeat the workload's set-up and print its
/// times. `run_one` starts this in a child process, so that what the
/// repeats leave in the allocator does not count into the workload's own
/// peak memory.
fn time_setup(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let entry = workloads::entry(name).ok_or_else(|| format!("unknown workload {name}"))?;
    host::pin();
    println!("{}", (entry.time_setup)(flags.seed).to_json().render());
    Ok(true)
}

fn time_setup_in_child(name: &str, seed: u64) -> Result<workloads::SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["setup", "--workload", name, "--seed", &seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the set-up child: {e}"))?;
    Json::parse(String::from_utf8_lossy(&output.stdout).trim())
        .ok()
        .and_then(|line| workloads::SetupTimes::from_json(&line))
        .ok_or_else(|| format!("set-up child ({}) printed no times", output.status))
}

fn report(
    name: &str,
    flags: &Flags,
    outcome: &Outcome,
    metrics: &[(&str, &str, f64)],
    tracer: &Tracer,
) {
    eprintln!(
        "== {name}  seed {}  {} s  trace {}  {} thread(s) on {} cores  kernel {} ==",
        flags.seed,
        flags.seconds,
        u8::from(flags.trace),
        host::threads(),
        host::nproc(),
        host::POLICY.resolve().name(),
    );
    for &(metric, unit, value) in metrics {
        // a layer this workload does not exercise reads 0 in the result
        // line; leave it out of the report
        if flags.trace && value == 0.0 {
            continue;
        }
        // what the number is here (end to end) or what it should move (a layer)
        let note = match spec::END_TO_END.iter().find(|m| m.name == metric) {
            Some(m) => m.on[spec::WORKLOADS.iter().position(|w| w.name == name).unwrap_or(0)],
            None => spec::PER_LAYER.iter().find(|m| m.name == metric).map_or("", |m| m.moves),
        };
        eprintln!("  {metric:<38} {value:>14.6} {unit:<8} {note}");
    }
    eprintln!(
        "  attempted {}  failed {}  failed_share {:.6}  set-up best of {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.setup.reps
    );
    eprintln!("  . host = {}", host::meta().render());
    for (key, value) in &outcome.detail {
        eprintln!("  . {key} = {}", value.render());
    }
    for failure in &outcome.check_failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
    if flags.trace {
        eprint!("{}", tracer.attribution_table(name));
    }
}

/// Run every workload in a fresh child process, `--runs` times untraced
/// and, with `--trace 1`, once more traced; print what the children report
/// and write all of it to one result file.
fn run_all(flags: &Flags) -> Result<bool, String> {
    host::refuse_pinned_env()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    let chosen = |w: &&spec::Workload| flags.workload.as_deref().is_none_or(|n| n == w.name);
    // seeds outermost, so that each workload's runs are spread over the
    // whole session and a slow quarter of an hour lands on all of them
    for seed in flags.seed..flags.seed + flags.seeds {
        for workload in spec::WORKLOADS.iter().filter(chosen) {
            let traced_once = flags.trace && seed == flags.seed;
            for traced in std::iter::repeat_n(false, flags.runs).chain(traced_once.then_some(true))
            {
                let output = std::process::Command::new(&exe)
                    .args(["--workload", workload.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &flags.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", workload.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let result = Json::parse(line).map_err(|e| {
                    format!("{} ({}) printed no result: {e}", workload.name, output.status)
                })?;
                all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                let Json::Obj(mut fields) = result else {
                    return Err("result is not an object".into());
                };
                fields.insert(0, ("trace".into(), Json::Num(f64::from(u8::from(traced)))));
                fields.insert(0, ("seed".into(), Json::Num(seed as f64)));
                fields.insert(0, ("workload".into(), Json::str(workload.name)));
                runs.push(Json::Obj(fields));
            }
        }
    }
    let constants = Json::obj(
        spec::WORKLOADS
            .iter()
            .filter_map(|w| Some((w.name, (workloads::entry(w.name)?.constants)()))),
    );
    let file = Json::obj([
        (
            "meta",
            Json::obj([
                ("host", host::meta()),
                ("first_seed", Json::Num(flags.seed as f64)),
                ("seeds", Json::Num(flags.seeds as f64)),
                ("runs_per_seed", Json::Num(flags.runs as f64)),
                ("seconds", Json::Num(flags.seconds)),
                ("constants", constants),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result_seed{}.json", flags.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("result written to {}", path.display());
    Ok(all_correct)
}
