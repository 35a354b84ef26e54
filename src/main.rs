//! `skrt-repro` — command-line front-end for the robustness-testing
//! toolset.
//!
//! ```text
//! skrt-repro campaign [--build legacy|patched] [--threads N] [--trace FILE] [--record FILE] [--no-snapshot]
//! skrt-repro campaign sweep [--tests N] [--build ...]         full cartesian invocation space
//! skrt-repro campaign sequences [--seed N] [--count N] [--steps N] [--build ...]
//! skrt-repro campaign fuzz [--seed N] [--execs N] [--time SECS] [--corpus-dir DIR] [--build ...]
//! skrt-repro campaign check [--partitions N] [--slots N] [--horizon N] [--build ...]
//! skrt-repro campaign report [--out DIR] [--build ...]       triage forensics bundle
//! skrt-repro sweep    [--build legacy|patched]      file-driven automatic sweep
//! skrt-repro suite <XM_hypercall> [--build ...]     one hypercall's suites
//! skrt-repro mutant <XM_hypercall> <case-index>     print the C fault placeholder
//! skrt-repro triage <XM_hypercall> <case-index>     re-run one test with the flight recorder
//! skrt-repro specgen [--out DIR]                    write the two XML spec files
//! skrt-repro tables                                 print Tables I and II
//! ```

use eagleeye::EagleEye;
use skrt::apispec::{api_header_doc, data_type_doc};
use skrt::exec::{run_campaign, CampaignOptions};
use skrt::mutant::MutantSpec;
use skrt::report::{
    campaign_table, distribution, render_distribution, render_issues, render_table,
};
use skrt::suite::CampaignSpec;
use xm_campaign::{
    automatic_campaign, paper_campaign, paper_dictionary, run_paper_campaign,
    run_paper_campaign_with,
};
use xtratum::hypercall::HypercallId;
use xtratum::vuln::KernelBuild;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("mutant") => cmd_mutant(&args[1..]),
        Some("triage") => cmd_triage(&args[1..]),
        Some("specgen") => cmd_specgen(&args[1..]),
        Some("coverage") => cmd_coverage(&args[1..]),
        Some("tables") => cmd_tables(),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage());
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n{}", usage());
            Ok(2)
        }
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}

fn usage() -> &'static str {
    "skrt-repro — separation kernel robustness testing (XtratuM case study)\n\
     \n\
     USAGE:\n\
     \x20 skrt-repro campaign [--build legacy|patched] [--threads N] [--chunk N]\n\
     \x20                     [--trace FILE] [--record FILE] [--no-snapshot]\n\
     \x20                     [--format text|md] [--csv FILE] [--metrics] [--metrics-out FILE]\n\
     \x20                     [--live-stats FILE [--live-interval SECS]]\n\
     \x20     Run the full 2662-test Table III campaign on the EagleEye testbed.\n\
     \x20     --trace writes a JSONL per-test trace; --record runs the kernel\n\
     \x20     flight recorder and writes a Perfetto/Chrome trace.json (open at\n\
     \x20     https://ui.perfetto.dev); --no-snapshot forces the seed-style fresh\n\
     \x20     boot per test; --format md renders Table III and the issues as\n\
     \x20     markdown; --csv writes the per-test records; --metrics prints\n\
     \x20     run counters (with per-hypercall latency and executor phase timers\n\
     \x20     when recording); --metrics-out exports the telemetry registry\n\
     \x20     (OpenMetrics text for .prom paths, JSONL otherwise); --live-stats\n\
     \x20     streams heartbeat JSONL (throughput, ETA, verdicts) while running.\n\
     \x20     Results are byte-identical with telemetry on or off. Every\n\
     \x20     command rejects an unknown flag or a malformed number (exit 2).\n\
     \x20 skrt-repro campaign sweep [--tests N] [--build legacy|patched] [--threads N]\n\
     \x20                     [--chunk N] [--trace FILE] [--record FILE] [--no-snapshot]\n\
     \x20                     [--metrics] [--metrics-out FILE]\n\
     \x20                     [--live-stats FILE [--live-interval SECS]]\n\
     \x20     Run the full cartesian invocation space: every hypercall in the API\n\
     \x20     header crossed with its complete dictionary product (61 suites,\n\
     \x20     4976 tests) instead of the sampled 2662. --tests N scales the run:\n\
     \x20     truncates below 4976, cycles the case list deterministically above\n\
     \x20     it (e.g. --tests 1000000 for a soak run; at most 4294967295).\n\
     \x20 skrt-repro campaign sequences [--seed N] [--count N] [--steps N]\n\
     \x20                     [--build legacy|patched] [--threads N] [--chunk N]\n\
     \x20                     [--record FILE] [--no-snapshot] [--no-shrink]\n\
     \x20                     [--metrics] [--metrics-out FILE]\n\
     \x20     Run a stateful sequence campaign: seeded multi-hypercall sequences\n\
     \x20     judged step-by-step by the differential state oracle; failures are\n\
     \x20     shrunk to minimal reproducers with a state-diff triage bundle.\n\
     \x20     Exit code 1 when any sequence diverges. --record keeps the minimal\n\
     \x20     reproducers' flight recordings as a Perfetto trace.\n\
     \x20 skrt-repro campaign fuzz [--seed N] [--execs N] [--time SECS]\n\
     \x20                     [--build legacy|patched] [--threads N] [--batch N]\n\
     \x20                     [--steps N] [--corpus-dir DIR] [--stats FILE]\n\
     \x20                     [--record FILE] [--no-shrink] [--metrics]\n\
     \x20                     [--metrics-out FILE] [--replay FILE]\n\
     \x20                     [--live-stats FILE [--live-interval SECS]]\n\
     \x20     Coverage-guided greybox sequence fuzzing: hypercall/HM/scheduler\n\
     \x20     flight streams and per-frame state digests feed an edge-coverage\n\
     \x20     map; coverage-novel sequences join an evolving corpus that seeds\n\
     \x20     the mutation engine. Fully deterministic for a fixed seed and\n\
     \x20     --execs budget, whatever the thread count. --corpus-dir writes one\n\
     \x20     replayable file per corpus entry; --stats streams per-round JSONL\n\
     \x20     (with coverage occupancy, corpus composition, hottest edges and\n\
     \x20     the rounds-since-novel plateau signal); --record adds coverage and\n\
     \x20     throughput counter tracks to the Perfetto trace; --replay\n\
     \x20     re-executes one corpus/finding file and prints the verdict.\n\
     \x20     Exit code 1 when any divergence is found.\n\
     \x20 skrt-repro campaign check [--build legacy|patched] [--partitions N]\n\
     \x20                     [--slots N] [--horizon N] [--threads N] [--out DIR]\n\
     \x20                     [--record FILE] [--metrics] [--metrics-out FILE]\n\
     \x20     Exhaustive small-scope isolation model checking: enumerate EVERY\n\
     \x20     configuration up to the scope bound (partition counts, cyclic-plan\n\
     \x20     slot assignments, channel topologies) and run kernel + state model\n\
     \x20     in lockstep over a per-config probe set, asserting temporal and\n\
     \x20     spatial isolation invariants against the kernel independently of\n\
     \x20     the oracle. Counterexamples are re-verdicted from a fresh boot,\n\
     \x20     shrunk to minimal reproducers, and — with --out — shipped as a\n\
     \x20     self-contained forensics bundle. Results are byte-identical across\n\
     \x20     thread counts. Exit code 1 when any counterexample is found.\n\
     \x20 skrt-repro campaign report [--out DIR] [--build legacy|patched] [--seed N]\n\
     \x20                     [--count N] [--steps N] [--threads N]\n\
     \x20     Run a recorded sequence campaign and write a self-contained triage\n\
     \x20     forensics bundle: per-divergence directories with the shrunk\n\
     \x20     reproducer (repro.seq), a markdown report (StateDigest diff at the\n\
     \x20     first bad step, final kernel state), a Perfetto trace, plus run-wide\n\
     \x20     OpenMetrics/JSONL telemetry snapshots and an indexing summary.md.\n\
     \x20     Exit code 1 when the bundle documents any divergence.\n\
     \x20 skrt-repro sweep [--build legacy|patched]\n\
     \x20     Run the fully automatic file-driven sweep over all 61 hypercalls.\n\
     \x20 skrt-repro suite <XM_hypercall> [--build legacy|patched]\n\
     \x20     Run only the campaign suites of one hypercall, with per-test detail.\n\
     \x20 skrt-repro mutant <XM_hypercall> <case-index>\n\
     \x20     Print the generated C fault-placeholder source for one dataset.\n\
     \x20 skrt-repro triage <XM_hypercall> <case-index> [--build legacy|patched]\n\
     \x20                   [--last N] [--record FILE]\n\
     \x20     Re-run one campaign case with the flight recorder on; when the\n\
     \x20     verdict is Catastrophic/Restart/Abort, dump the last N events\n\
     \x20     (default 40) and the final kernel state. --record also writes the\n\
     \x20     single-test Perfetto trace.\n\
     \x20 skrt-repro specgen [--out DIR]\n\
     \x20     Write specs/xm_api.xml and specs/xm_datatypes.xml (Figs. 2-3).\n\
     \x20 skrt-repro coverage [--build legacy|patched]\n\
     \x20     Response-coverage report: distinct kernel responses per hypercall.\n\
     \x20 skrt-repro tables\n\
     \x20     Print Table I (data types) and Table II (test-value example).\n"
}

/// A command's flags, checked against the flags it accepts: `--name
/// value` options and bare switches. Anything else is an error, so a
/// misspelt or removed flag never silently falls back to a default.
struct Flags<'a> {
    parsed: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], options: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if options.contains(&arg) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.push((arg, Some(value)));
            } else if switches.contains(&arg) {
                parsed.push((arg, None));
            } else {
                return Err(format!("unknown flag '{arg}' (see `skrt-repro help`)"));
            }
        }
        Ok(Flags { parsed })
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.parsed.iter().find(|(f, _)| *f == flag).and_then(|&(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.parsed.iter().any(|(f, _)| *f == flag)
    }

    /// The flag's value parsed as a number, or `default` when absent.
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: '{v}' is not a valid number")),
        }
    }

    fn build(&self) -> Result<KernelBuild, String> {
        match self.value("--build") {
            None | Some("legacy") => Ok(KernelBuild::Legacy),
            Some("patched") => Ok(KernelBuild::Patched),
            Some(other) => Err(format!("unknown build '{other}' (use legacy|patched)")),
        }
    }

    /// `--live-stats FILE [--live-interval SECS]` (default 1 s).
    fn live_stats(&self) -> Result<Option<skrt::LiveStats>, String> {
        let Some(path) = self.value("--live-stats") else {
            return Ok(None);
        };
        let interval = match self.num("--live-interval", 1.0f64)? {
            v if v > 0.0 => std::time::Duration::from_secs_f64(v),
            _ => return Err("--live-interval must be a positive number of seconds".into()),
        };
        Ok(Some(skrt::LiveStats::new(path.into(), interval)))
    }
}

/// `--metrics-out FILE`: OpenMetrics text for `.prom` paths, JSONL
/// telemetry snapshots otherwise.
fn write_metrics_out(path: &str, metrics: &skrt::MetricsReport, job: &str) -> Result<(), String> {
    let registry = metrics.telemetry(job);
    let text = if path.ends_with(".prom") {
        registry.render_openmetrics()
    } else {
        registry.render_jsonl()
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote telemetry snapshot to {path}");
    Ok(())
}

/// Writes a Perfetto/Chrome trace file.
fn write_trace_json(path: &str, json: String) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write Perfetto trace {path}: {e}"))
}

/// Flags every `campaign` run/sweep accepts.
const CAMPAIGN_OPTIONS: &[&str] = &[
    "--build",
    "--threads",
    "--chunk",
    "--trace",
    "--record",
    "--metrics-out",
    "--live-stats",
    "--live-interval",
    "--format",
    "--csv",
];

fn cmd_campaign(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("sequences") => return cmd_sequences(&args[1..]),
        Some("fuzz") => return cmd_fuzz(&args[1..]),
        Some("check") => return cmd_check(&args[1..]),
        Some("report") => return cmd_report(&args[1..]),
        _ => {}
    }
    let sweep = args.first().map(String::as_str) == Some("sweep");
    let args = if sweep { &args[1..] } else { args };
    let sweep_options = [CAMPAIGN_OPTIONS, &["--tests"]].concat();
    let options = if sweep { &sweep_options[..] } else { CAMPAIGN_OPTIONS };
    let flags = Flags::parse(args, options, &["--no-snapshot", "--metrics"])?;
    let build = flags.build()?;
    // The index of every test must fit the executor's 32-bit work ranges;
    // reject larger runs here, before any case is materialised.
    let max_tests = match flags.value("--tests") {
        None => None,
        Some(t) => match t.parse::<u32>() {
            Ok(n) if n > 0 => Some(n as usize),
            _ => {
                return Err(format!(
                    "campaign sweep: --tests must be an integer in 1..={}",
                    u32::MAX
                ))
            }
        },
    };
    let record_path = flags.value("--record");
    let opts = CampaignOptions {
        build,
        threads: flags.num("--threads", 0)?,
        chunk_size: flags.num("--chunk", 0)?,
        reuse_snapshot: !flags.has("--no-snapshot"),
        trace_path: flags.value("--trace").map(Into::into),
        record: record_path.is_some(),
        max_tests,
        live_stats: flags.live_stats()?,
    };
    let format = flags.value("--format");
    if !matches!(format, None | Some("text" | "md" | "markdown")) {
        return Err(format!("unknown format '{}' (use text|md)", format.unwrap_or_default()));
    }
    let report = if sweep {
        xm_campaign::run_sweep_campaign_with(&opts)?
    } else {
        run_paper_campaign_with(&opts)
    };
    if sweep {
        println!(
            "campaign sweep: {} suites, {} tests executed, build {build:?}\n",
            report.spec.suites.len(),
            report.result.records.len(),
        );
    }
    if format.is_some_and(|f| f != "text") {
        println!("## Table III — {}\n", build.label());
        print!("{}", skrt::report::render_table_markdown(&report.table));
        println!();
        print!("{}", skrt::report::render_issues_markdown(&report.issues));
    } else {
        print!("{}", report.render());
    }
    if let Some(path) = flags.value("--csv") {
        let csv = skrt::report::records_to_csv(&report.result);
        std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote per-test records to {path}");
    }
    if let Some(e) = report.trace_error() {
        return Err(e.to_string());
    } else if let Some(path) = &opts.trace_path {
        println!("wrote JSONL trace to {}", path.display());
    }
    if let (Some(path), Some(flight)) = (record_path, &report.result.flight) {
        let json = skrt::flight::export_chrome_trace(
            flight,
            &report.result.records,
            &xm_campaign::eagleeye_flight_names(),
        );
        write_trace_json(path, json)?;
        println!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(e) = &report.result.live_stats_error {
        eprintln!("warning: live-stats stream failed: {e}");
    } else if let Some(l) = &opts.live_stats {
        println!("wrote live stats to {}", l.path.display());
    }
    if let Some(path) = flags.value("--metrics-out") {
        let job = if sweep { "sweep" } else { "campaign" };
        write_metrics_out(path, &report.result.metrics, job)?;
    }
    if flags.has("--metrics") {
        println!();
        print!("{}", report.render_metrics());
    }
    println!("\ncompleted in {:.2?}", report.metrics().wall);
    Ok(i32::from(!report.issues.is_empty()))
}

fn cmd_sequences(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--build",
            "--seed",
            "--count",
            "--steps",
            "--threads",
            "--chunk",
            "--record",
            "--metrics-out",
        ],
        &["--no-snapshot", "--no-shrink", "--metrics"],
    )?;
    let build = flags.build()?;
    let seed = flags.num("--seed", 1)?;
    let count = flags.num("--count", 500)?;
    let steps = flags.num("--steps", 8)?;
    if steps == 0 || count == 0 {
        return Err("campaign sequences: --count and --steps must be positive".into());
    }
    let record_path = flags.value("--record");
    let opts = skrt::sequence::SequenceOptions {
        build,
        threads: flags.num("--threads", 0)?,
        chunk_size: flags.num("--chunk", 0)?,
        reuse_snapshot: !flags.has("--no-snapshot"),
        record: record_path.is_some(),
        shrink: !flags.has("--no-shrink"),
        ..Default::default()
    };
    let report = xm_campaign::run_eagleeye_sequences(seed, count, steps, &opts);
    print!("{}", report.render());
    if let (Some(path), Some(flight)) = (record_path, &report.result.flight) {
        let json =
            skrt::flight::export_chrome_trace(flight, &[], &xm_campaign::eagleeye_flight_names());
        write_trace_json(path, json)?;
        println!("\nwrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(path) = flags.value("--metrics-out") {
        write_metrics_out(path, &report.result.metrics, "sequences")?;
    }
    if flags.has("--metrics") {
        println!();
        print!("{}", report.render_metrics());
    }
    println!("\ncompleted in {:.2?}", report.result.metrics.wall);
    Ok(i32::from(!report.result.divergences().is_empty()))
}

/// `campaign check`: exhaustively enumerate the small-scope
/// configuration space and verify the kernel's isolation invariants in
/// lockstep with the state oracle.
fn cmd_check(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--build",
            "--partitions",
            "--slots",
            "--horizon",
            "--threads",
            "--out",
            "--record",
            "--metrics-out",
        ],
        &["--metrics"],
    )?;
    let build = flags.build()?;
    let defaults = skrt::CheckScope::default();
    let scope = skrt::CheckScope {
        partitions: flags.num("--partitions", defaults.partitions)?,
        slots: flags.num("--slots", defaults.slots)?,
        horizon: flags.num("--horizon", defaults.horizon)?,
    };
    if scope.partitions == 0 || scope.slots == 0 || scope.horizon == 0 {
        return Err("campaign check: --partitions, --slots and --horizon must be positive".into());
    }
    if scope.partitions > 4 || scope.slots > 3 {
        return Err("campaign check: scope too large for exhaustive enumeration \
                    (max 4 partitions, 3 slots/MAF)"
            .into());
    }
    let out_dir = flags.value("--out");
    let record_path = flags.value("--record");
    let opts = skrt::CheckOptions {
        build,
        scope,
        threads: flags.num("--threads", 0)?,
        record: record_path.is_some() || out_dir.is_some(),
        ..Default::default()
    };
    let res = skrt::run_check(&opts);
    print!("{}", xm_campaign::render_check_report(&res));
    if let Some(out) = out_dir {
        let job = format!("check-{}", build_tag(build));
        let bundle = xm_campaign::write_check_bundle(std::path::Path::new(out), &job, &res)
            .map_err(|e| format!("cannot write bundle {out}: {e}"))?;
        println!(
            "\nforensics bundle: {} counterexample(s), {} file(s) under {}",
            bundle.findings,
            bundle.files.len(),
            bundle.root.display()
        );
        println!("start at {}/summary.md", bundle.root.display());
    }
    if let (Some(path), Some(flight)) = (record_path, &res.flight) {
        let json = skrt::flight::export_chrome_trace(
            flight,
            &[],
            &xm_campaign::check_flight_names(res.scope.partitions),
        );
        write_trace_json(path, json)?;
        println!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(path) = flags.value("--metrics-out") {
        write_metrics_out(path, &res.metrics, "check")?;
    }
    if flags.has("--metrics") {
        println!();
        print!("{}", res.metrics.render());
    }
    println!("\ncompleted in {:.2?}", res.metrics.wall);
    Ok(i32::from(!res.findings().is_empty()))
}

fn build_tag(build: KernelBuild) -> &'static str {
    match build {
        KernelBuild::Legacy => "legacy",
        KernelBuild::Patched => "patched",
    }
}

/// `campaign report`: run a recorded sequence campaign and write a
/// self-contained forensics bundle for every divergence.
fn cmd_report(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &["--out", "--build", "--seed", "--count", "--steps", "--threads"],
        &[],
    )?;
    let build = flags.build()?;
    let out = flags.value("--out").unwrap_or("forensics");
    let seed = flags.num("--seed", 1)?;
    let count = flags.num("--count", 120)?;
    let steps = flags.num("--steps", 8)?;
    if steps == 0 || count == 0 {
        return Err("campaign report: --count and --steps must be positive".into());
    }
    let opts = skrt::sequence::SequenceOptions {
        build,
        threads: flags.num("--threads", 0)?,
        record: true,
        ..Default::default()
    };
    let report = xm_campaign::run_eagleeye_sequences(seed, count, steps, &opts);
    let job = format!("sequences-{}", build_tag(build));
    let bundle = xm_campaign::write_forensics_bundle(std::path::Path::new(out), &job, &report)
        .map_err(|e| format!("cannot write bundle {out}: {e}"))?;
    println!(
        "forensics bundle: {} finding(s), {} file(s) under {}",
        bundle.findings,
        bundle.files.len(),
        bundle.root.display()
    );
    for f in &bundle.files {
        println!("  {}", f.display());
    }
    println!("start at {}/summary.md", bundle.root.display());
    Ok(i32::from(bundle.findings > 0))
}

fn cmd_fuzz(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(
        args,
        &[
            "--build",
            "--seed",
            "--execs",
            "--time",
            "--threads",
            "--batch",
            "--steps",
            "--corpus-dir",
            "--stats",
            "--record",
            "--metrics-out",
            "--replay",
            "--live-stats",
            "--live-interval",
        ],
        &["--no-shrink", "--metrics"],
    )?;
    let build = flags.build()?;

    // Replay mode: re-execute one corpus/finding file and report.
    if let Some(path) = flags.value("--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let steps = skrt::parse_steps(&text).map_err(|e| format!("{path}: {e}"))?;
        // Same steps-per-slot as the fuzzer's coverage-producing
        // evaluation, so the printed signature matches the corpus header.
        let steps_per_slot = skrt::FuzzOptions::default().steps_per_slot;
        let (coverage, verdict) = skrt::replay_coverage(&EagleEye, build, &steps, steps_per_slot);
        println!("replay {path} on {} ({} steps):", build.label(), steps.len());
        for (i, step) in steps.iter().enumerate() {
            let marker = if verdict.failing_step == Some(i) { ">" } else { " " };
            println!("  {marker} {i}: {step}");
        }
        println!(
            "verdict: {} ({:?})",
            verdict.classification.class.label(),
            verdict.classification.cause
        );
        for line in &verdict.state_diff {
            println!("    {line}");
        }
        println!(
            "coverage signature: {:016x} ({} cells)",
            coverage.signature,
            coverage.cells.len()
        );
        return Ok(i32::from(verdict.classification.class != skrt::CrashClass::Pass));
    }

    let max_time = match flags.value("--time") {
        Some(t) => match t.parse::<f64>() {
            Ok(secs) if secs > 0.0 => Some(std::time::Duration::from_secs_f64(secs)),
            _ => return Err("campaign fuzz: --time must be a positive number of seconds".into()),
        },
        None => None,
    };
    let record_path = flags.value("--record");
    let defaults = skrt::FuzzOptions::default();
    let opts = skrt::FuzzOptions {
        build,
        threads: flags.num("--threads", 0)?,
        seed: flags.num("--seed", 1)?,
        max_execs: flags.num("--execs", 1000)?,
        max_time,
        steps: flags.num("--steps", defaults.steps)?,
        batch: flags.num("--batch", defaults.batch)?,
        record: record_path.is_some(),
        shrink: !flags.has("--no-shrink"),
        live_stats: flags.live_stats()?,
        ..defaults
    };
    if opts.max_execs == 0 || opts.steps == 0 || opts.batch == 0 {
        return Err("campaign fuzz: --execs, --steps and --batch must be positive".into());
    }

    let report = xm_campaign::run_eagleeye_fuzz(&opts);
    print!("{}", report.render());

    if let Some(dir) = flags.value("--corpus-dir") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for entry in &report.result.corpus {
            let path = dir.join(entry.file_name());
            std::fs::write(&path, entry.render())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        println!("\nwrote {} corpus entries to {}", report.result.corpus.len(), dir.display());
    }
    if let Some(path) = flags.value("--stats") {
        std::fs::write(path, report.stats_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSONL stats to {path}");
    }
    if let (Some(path), Some(flight)) = (record_path, &report.result.flight) {
        // Counter tracks ride along: coverage growth and per-round
        // throughput under the minimal-reproducer flights.
        let json = skrt::flight::export_chrome_trace_with_counters(
            flight,
            &[],
            &xm_campaign::eagleeye_flight_names(),
            &report.counter_series(),
        );
        write_trace_json(path, json)?;
        println!("wrote Perfetto trace to {path} (open at https://ui.perfetto.dev)");
    }
    if let Some(e) = &report.result.live_stats_error {
        eprintln!("warning: live-stats stream failed: {e}");
    } else if let Some(l) = &opts.live_stats {
        println!("wrote live stats to {}", l.path.display());
    }
    if let Some(path) = flags.value("--metrics-out") {
        write_metrics_out(path, &report.result.metrics, "fuzz")?;
    }
    if flags.has("--metrics") {
        println!();
        print!("{}", report.render_metrics());
    }
    println!("\ncompleted in {:.2?}", report.result.metrics.wall);
    Ok(i32::from(!report.result.findings.is_empty()))
}

fn cmd_sweep(args: &[String]) -> Result<i32, String> {
    let build = Flags::parse(args, &["--build"], &[])?.build()?;
    let api = api_header_doc();
    let dict = paper_dictionary();
    let spec = automatic_campaign(&api, &dict)?;
    println!(
        "automatic sweep: {} suites, {} tests, build {build:?}",
        spec.suites.len(),
        spec.total_tests()
    );
    let result = run_campaign(&EagleEye, &spec, &CampaignOptions { build, ..Default::default() });
    let table = campaign_table(&spec, &result);
    print!("{}", render_table(&table));
    println!();
    print!("{}", render_distribution(&distribution(&spec)));
    println!();
    let issues = result.issues();
    print!("{}", render_issues(&issues));
    Ok(i32::from(!issues.is_empty()))
}

fn cmd_suite(args: &[String]) -> Result<i32, String> {
    let name = args.first().ok_or("suite: missing hypercall name (e.g. XM_set_timer)")?;
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let build = Flags::parse(&args[1..], &["--build"], &[])?.build()?;
    let report = xm_campaign::runner::run_hypercall_suites(build, id, 0);
    if report.result.records.is_empty() {
        println!("{name} is not part of the Table III campaign (untested hypercall).");
        return Ok(0);
    }
    for rec in &report.result.records {
        println!(
            "{:<52} expected {:<34} observed {:<34} => {}",
            rec.case.display_call(),
            format!("{:?}", rec.expectation.outcome),
            format!("{:?}", rec.observation.first()),
            rec.classification.class.label()
        );
    }
    println!();
    print!("{}", render_issues(&report.issues));
    Ok(i32::from(!report.issues.is_empty()))
}

fn cmd_mutant(args: &[String]) -> Result<i32, String> {
    let (Some(name), Some(idx), None) = (args.first(), args.get(1), args.get(2)) else {
        return Err("mutant: usage: mutant <XM_hypercall> <case-index>".into());
    };
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let idx = idx.parse::<usize>().map_err(|_| "mutant: case-index must be a number")?;
    let full = paper_campaign();
    let mut spec = CampaignSpec::new("mutant");
    for s in full.suites.into_iter().filter(|s| s.hypercall == id) {
        spec.push(s);
    }
    let cases = spec.all_cases();
    if cases.is_empty() {
        return Err(format!("{name} has no campaign suites"));
    }
    let case = cases.into_iter().nth(idx).ok_or_else(|| {
        format!("case-index out of range (suite has {} datasets)", spec.total_tests())
    })?;
    print!("{}", MutantSpec::new(case).emit_c_source());
    Ok(0)
}

fn cmd_triage(args: &[String]) -> Result<i32, String> {
    let (Some(name), Some(idx)) = (args.first(), args.get(1)) else {
        return Err("triage: usage: triage <XM_hypercall> <case-index> [--build legacy|patched] [--last N] [--record FILE]".into());
    };
    let id = HypercallId::by_name(name).ok_or_else(|| format!("unknown hypercall '{name}'"))?;
    let idx = idx.parse::<usize>().map_err(|_| "triage: case-index must be a number")?;
    let flags = Flags::parse(&args[2..], &["--build", "--last", "--record"], &[])?;
    let build = flags.build()?;
    let last_n = flags.num("--last", 40)?;
    let report = xm_campaign::triage_case(build, id, idx)
        .ok_or_else(|| format!("{name} case-index {idx} is out of range"))?;
    if report.is_severe() {
        print!("{}", report.render(last_n));
    } else {
        println!(
            "triage: case #{} {}\nverdict: {} — no failure timeline to dump (use --last to inspect anyway)",
            report.case_index,
            report.record.case.display_call(),
            report.record.classification.class.label(),
        );
        if flags.has("--last") {
            print!("{}", report.render(last_n));
        }
    }
    if let Some(path) = flags.value("--record") {
        let mut flight = report.flight.clone();
        flight.index = 0;
        let log = skrt::flight::FlightLog { tests: vec![flight] };
        let json = skrt::flight::export_chrome_trace(
            &log,
            std::slice::from_ref(&report.record),
            &report.names,
        );
        write_trace_json(path, json)?;
        println!("wrote Perfetto trace to {path}");
    }
    Ok(0)
}

fn cmd_specgen(args: &[String]) -> Result<i32, String> {
    let out = Flags::parse(args, &["--out"], &[])?.value("--out").unwrap_or("specs");
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let api = api_header_doc().to_xml();
    let dt = data_type_doc(&paper_dictionary()).to_xml();
    let camp = xm_campaign::campaign_to_xml(&paper_campaign());
    for (name, content) in
        [("xm_api.xml", &api), ("xm_datatypes.xml", &dt), ("xm_campaign.xml", &camp)]
    {
        let path = format!("{out}/{name}");
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} bytes)", content.len());
    }
    Ok(0)
}

fn cmd_coverage(args: &[String]) -> Result<i32, String> {
    let build = Flags::parse(args, &["--build"], &[])?.build()?;
    let report = run_paper_campaign(build, 0);
    let rows = skrt::report::response_coverage(&report.result);
    print!("{}", skrt::report::render_coverage(&rows));
    Ok(0)
}

fn cmd_tables() -> Result<i32, String> {
    println!("TABLE I — XTRATUM DATA TYPES");
    for t in xtratum::types::XM_TYPES {
        println!(
            "  {:<14} {:>3} bits  {:<20} {}",
            t.name,
            t.bits,
            t.ansi_c,
            t.extends.map(|e| format!("extends {e}")).unwrap_or_default()
        );
    }
    println!("\nTABLE II — xm_s32_t TEST VALUE SET");
    for v in paper_dictionary().values("xm_s32_t") {
        println!("  {:>12}  {}", v.as_s32(), v.label.unwrap_or("*"));
    }
    Ok(0)
}
