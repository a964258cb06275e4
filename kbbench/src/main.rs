//! The repository benchmark: one command runs a named workload with a
//! given seed, checks the simulated outputs, and prints every metric by
//! name with its unit. See `README.md` in this directory.
//!
//! ```text
//! kbbench --workload <session-udg|session-adverse|serve-live> --seed <n>
//!         --seconds <s> --trace <0|1> [--size full|tiny] [--bless] [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced pass.
//! `--trace 1` runs the untraced pass, then a traced pass over exactly
//! the same units, requires both to simulate identical counts, prints
//! the per-layer metrics and writes the traced pass's spans to
//! `<out>/spans-<workload>-<seed>.jsonl`.

mod expected;
mod layers;
mod report;
mod serve;
mod sessions;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use expected::Expected;
use report::{Metrics, Span};

/// Input size: `full` is the benchmark; `tiny` is for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How many units a pass runs.
pub enum Budget {
    /// Start units until this many seconds have passed (at least one).
    Seconds(f64),
    /// Exactly these units (the untraced pass's, replayed traced).
    Units(Vec<usize>),
}

impl Budget {
    /// Whether `unit` should run, for a pass that started at `start`.
    pub fn admits(&self, unit: usize, start: Instant) -> bool {
        match self {
            Budget::Seconds(s) => unit == 0 || start.elapsed().as_secs_f64() < *s,
            Budget::Units(units) => units.contains(&unit),
        }
    }

    /// Pool slots to hand out.
    pub fn slots(&self) -> usize {
        match self {
            Budget::Seconds(_) => 100_000,
            Budget::Units(units) => units.len(),
        }
    }

    /// The unit behind pool slot `slot`.
    pub fn unit_at(&self, slot: usize) -> usize {
        match self {
            Budget::Seconds(_) => slot,
            Budget::Units(units) => units[slot],
        }
    }
}

/// The seed of unit `unit` of a run with seed `seed`.
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(unit as u64)
}

/// End-to-end metrics, in output order (mirrors `BENCHMARK.json`).
const END_TO_END: [&str; 11] = [
    "setup_s",
    "sessions_per_s",
    "rounds_per_s",
    "rounds_per_packet",
    "packets_per_s",
    "tick_ms.p50",
    "query_ms.p50",
    "query_ms.p90",
    "latency_rounds.p50",
    "latency_rounds.p99",
    "peak_rss_mb",
];

/// Per-layer metrics with their units, in output order (mirrors
/// `BENCHMARK.json`). A layer a workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("topology.build_s", "s"),
    ("graph.params_s", "s"),
    ("kbcast.build_s", "s"),
    ("kbcast.drive_s", "s"),
    ("kbcast.finish_s", "s"),
    ("engine.round_us.p50", "us"),
    ("engine.round_us.p99", "us"),
    ("engine.self_us_per_round", "us"),
    ("engine.tx_per_round", "1/round"),
    ("engine.rx_per_tx", "ratio"),
    ("engine.collisions_per_round", "1/round"),
    ("node.polls_per_round", "1/round"),
    ("node.poll_ns", "ns"),
    ("node.tx_per_poll", "ratio"),
    ("node.receive_ns", "ns"),
    ("kbcast.stage_rounds.leader", "rounds"),
    ("kbcast.stage_rounds.bfs", "rounds"),
    ("kbcast.stage_rounds.collect", "rounds"),
    ("kbcast.stage_rounds.disseminate", "rounds"),
    ("dyntopo.reshape_us", "us"),
    ("dyntopo.reshape_frac", "ratio"),
    ("verify.us_per_round", "us"),
    ("trace.us_per_round", "us"),
    ("verify.violations", "count"),
    ("parallel.busy_frac", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.ipc_us", "us"),
    ("serve.tick_ms", "ms"),
    ("serve.inject_ms", "ms"),
    ("serve.query_us_per_kpkt", "us/kpkt"),
    ("serve.rss_mb_per_kpkt", "MiB/kpkt"),
    ("traffic.generate_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    bless: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        bless: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One simulated unit of work: its key in the expected table, its
/// simulated output, and its error if it failed.
struct Op {
    seed: u64,
    part: &'static str,
    counts: String,
    error: Option<String>,
    /// Host timings of the unit, for the per-op report lines.
    timing: String,
}

/// What a pass contributes to checking and reporting.
struct PassOut {
    ops: Vec<Op>,
    units: Vec<usize>,
    wall_s: f64,
    e2e: Metrics,
    layers: Metrics,
    /// Extra report lines about the layer split (traced passes).
    notes: Vec<String>,
    spans: Vec<Span>,
}

fn session_ops(pass: &sessions::Pass) -> Vec<Op> {
    pass.runs
        .iter()
        .map(|r| Op {
            seed: r.seed,
            part: r.protocol,
            counts: r.counts(),
            error: r.error.clone(),
            timing: format!(
                "unit={} setup_s={:.6} drive_s={:.6} query_s={:.6} wall_s={:.6}",
                r.unit, r.setup_s, r.drive_s, r.query_s, r.wall_s
            ),
        })
        .collect()
}

fn session_spans(pass: &sessions::Pass) -> Vec<Span> {
    pass.runs
        .iter()
        .filter_map(|r| r.layers.as_ref())
        .flat_map(|l| l.spans.iter().cloned())
        .collect()
}

fn run_pass(
    args: &Args,
    budget: &Budget,
    traced: bool,
    epoch: Instant,
    workers: usize,
    timer_ns: f64,
) -> Result<PassOut, String> {
    match args.workload.as_str() {
        "session-udg" | "session-adverse" => {
            let pass = if args.workload == "session-udg" {
                sessions::udg_pass(args.size, args.seed, budget, traced, epoch)
            } else {
                sessions::adverse_pass(args.size, args.seed, budget, traced, epoch, workers)
            };
            let rss = report::proc_status_mib("self", "VmHWM").unwrap_or(0.0);
            Ok(PassOut {
                ops: session_ops(&pass),
                units: pass.units.clone(),
                wall_s: pass.wall_s,
                e2e: sessions::e2e(&pass, rss),
                layers: sessions::layers(&pass, timer_ns),
                notes: sessions::shares(&pass, timer_ns),
                spans: session_spans(&pass),
            })
        }
        "serve-live" => {
            let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
            let server = exe.with_file_name("bench-serve");
            if !server.is_file() {
                return Err(format!(
                    "{} is missing; build the package first",
                    server.display()
                ));
            }
            let pass = serve::pass(&server, args.size, args.seed, budget, traced, epoch);
            Ok(PassOut {
                ops: pass
                    .runs
                    .iter()
                    .map(|r| Op {
                        seed: r.seed,
                        part: "query",
                        counts: r.final_query.clone(),
                        error: r.error.clone(),
                        timing: format!(
                            "setup_s={:.6} run_s={:.6} wall_s={:.6} tick_ms.p50={:.4} query_ms.p50={:.4}",
                            r.setup_s,
                            r.run_s,
                            r.wall_s,
                            report::percentile(&r.tick_ms, 0.5),
                            report::percentile(&r.query_ms, 0.5)
                        ),
                    })
                    .collect(),
                units: pass.units.clone(),
                wall_s: pass.wall_s,
                e2e: serve::e2e(&pass),
                layers: serve::layers(&pass),
                notes: Vec::new(),
                spans: pass
                    .runs
                    .iter()
                    .filter_map(|r| r.layers.as_ref())
                    .flat_map(|l| l.spans.iter().cloned())
                    .collect(),
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (expected session-udg, session-adverse or serve-live)"
        )),
    }
}

/// Orders `measured` as `names` lists them, with 0 for a layer the
/// workload does not reach.
fn complete(names: &[(&'static str, &'static str)], measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        let value = measured.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        out.put(name, value, unit);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kbbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn fail(what: String) {
    eprintln!("kbbench: FAIL {what}");
}

/// Runs the benchmark; `Ok(correct)` once a result line was printed.
fn run(args: &Args) -> Result<bool, String> {
    let epoch = Instant::now();
    let workers = kbcast_bench::parallel::thread_count();
    let timer_ns = report::timer_overhead_ns();
    let expected_path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.tsv"));
    let mut expected = Expected::load(&expected_path)?;

    // A traced run splits its time: half for the untraced pass, the
    // rest for replaying the same units traced.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_pass(
        args,
        &Budget::Seconds(seconds),
        false,
        epoch,
        workers,
        timer_ns,
    )?;
    let traced = if args.trace {
        let budget = Budget::Units(untraced.units.clone());
        Some(run_pass(args, &budget, true, epoch, workers, timer_ns)?)
    } else {
        None
    };

    let passes: Vec<(&PassOut, &str)> = std::iter::once((&untraced, "untraced"))
        .chain(traced.as_ref().map(|t| (t, "traced")))
        .collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut golden = 0u64;
    for &(pass, label) in &passes {
        for op in &pass.ops {
            attempted += 1;
            let mut ok = true;
            if let Some(e) = &op.error {
                fail(format!("{label} {} seed {}: {e}", op.part, op.seed));
                ok = false;
            } else if args.size == Size::Full {
                match expected.check(&args.workload, op.seed, op.part, &op.counts) {
                    Some(true) => golden += 1,
                    Some(false) => {
                        fail(format!(
                            "{label} {} seed {}: simulated output {:?} differs from expected.tsv",
                            op.part, op.seed, op.counts
                        ));
                        ok = false;
                    }
                    None => {}
                }
            }
            failed += u64::from(!ok);
        }
    }
    if let Some(traced) = &traced {
        for (a, b) in untraced.ops.iter().zip(&traced.ops) {
            if a.counts != b.counts {
                fail(format!(
                    "{} seed {}: traced run simulated {:?}, untraced {:?}",
                    a.part, a.seed, b.counts, a.counts
                ));
                failed += 1;
            }
        }
        if untraced.ops.len() != traced.ops.len() {
            fail("traced and untraced passes ran different unit counts".into());
            failed += 1;
        }
    }
    let correct = failed == 0;

    for &(pass, label) in &passes {
        for op in &pass.ops {
            println!(
                "# op {label} {} seed={} {} | {}",
                op.part, op.seed, op.counts, op.timing
            );
        }
    }

    let stamp = report::stamp(&args.workload, args.seed, args.trace, workers);
    println!("# stamp {stamp}");
    #[allow(clippy::cast_precision_loss)]
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "# attempted {attempted}  failed {failed}  fail_frac {fail_frac}  checked against expected.tsv {golden}"
    );
    let metrics = if let Some(traced) = &traced {
        let mut measured = traced.layers.0.clone();
        measured.push((
            "bench.trace_overhead",
            report::ratio(traced.wall_s, untraced.wall_s),
            "ratio",
        ));
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        report::write_spans(&path, &stamp, &traced.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# spans {} written to {}",
            traced.spans.len(),
            path.display()
        );
        for note in &traced.notes {
            println!("# share {note}");
        }
        complete(&PER_LAYER, &Metrics(measured))
    } else {
        // Metrics outside `END_TO_END` are reported on `#` lines only.
        let (gated, reported): (Vec<_>, Vec<_>) = untraced
            .e2e
            .0
            .clone()
            .into_iter()
            .partition(|m| END_TO_END.contains(&m.0));
        for (name, value, unit) in reported {
            println!("# {name:<34} {value:>16.6} {unit} (reported, not gated)");
        }
        let names: Vec<&str> = gated.iter().map(|m| m.0).collect();
        assert_eq!(
            names, END_TO_END,
            "every workload reports every end-to-end metric"
        );
        Metrics(gated)
    };
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<34} {value:>16.6} {unit}");
    }
    if args.bless && correct && args.size == Size::Full {
        for op in &untraced.ops {
            expected.insert(&args.workload, op.seed, op.part, op.counts.clone());
        }
        expected.save()?;
        println!(
            "# blessed {} units into {}",
            untraced.ops.len(),
            expected_path.display()
        );
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}
