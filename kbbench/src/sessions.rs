//! The one-shot session workloads: `session-udg` (coded and BII on a
//! unit disk, one thread) and `session-adverse` (GHK under churn with
//! verify and trace on, fanned out over the sweep pool).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use kbcast::baseline::BiiProtocol;
use kbcast::runner::{RunOptions, StageRounds, Workload};
use kbcast::{run_protocol_on_graph, BroadcastProtocol, CodedProtocol, GhkProtocol, NetParams};
use kbcast_bench::parallel::par_map_indexed_with;
use radio_net::dyntopo::{ChurnSpec, TopologyModel};
use radio_net::graph::Graph;
use radio_net::topology::Topology;
use radio_net::trace::TraceReport;

use crate::layers::{take_node_tally, LayerRecord, Layered, NodeTally, Stamped};
use crate::report::{mean, median, percentile, ratio, Metrics, Span, Spans};
use crate::{unit_seed, Budget, Size};

/// One session's simulated output and host timings.
pub struct SessionRun {
    pub unit: usize,
    pub seed: u64,
    pub protocol: &'static str,
    /// `None` when the session delivered every packet everywhere with
    /// zero violations.
    pub error: Option<String>,
    pub rounds: u64,
    pub tx: u64,
    pub rx: u64,
    pub collisions: u64,
    pub k: usize,
    /// Stage partition of the session's trace report, when traced by the
    /// library (`session-adverse`), for the traced-vs-untraced check.
    pub trace_stages: String,
    pub setup_s: f64,
    pub drive_s: f64,
    /// Host ms of every full 1000-round window inside `drive`.
    pub ticks_ms: Vec<f64>,
    pub query_s: f64,
    pub wall_s: f64,
    pub stages: Option<StageRounds>,
    pub layers: Option<SessionLayers>,
}

impl SessionRun {
    fn new(unit: usize, seed: u64, protocol: &'static str) -> Self {
        SessionRun {
            unit,
            seed,
            protocol,
            error: None,
            rounds: 0,
            tx: 0,
            rx: 0,
            collisions: 0,
            k: 0,
            trace_stages: String::new(),
            setup_s: 0.0,
            drive_s: 0.0,
            ticks_ms: Vec::new(),
            query_s: 0.0,
            wall_s: 0.0,
            stages: None,
            layers: None,
        }
    }

    /// The simulated output compared across passes and with the
    /// expected table.
    pub fn counts(&self) -> String {
        let mut s = format!(
            "rounds={} tx={} rx={} collisions={}",
            self.rounds, self.tx, self.rx, self.collisions
        );
        if !self.trace_stages.is_empty() {
            let _ = write!(s, " stages={}", self.trace_stages);
        }
        s
    }
}

/// Per-layer numbers of one traced session.
pub struct SessionLayers {
    pub params_s: f64,
    pub rec: LayerRecord,
    pub node: NodeTally,
    pub reshape_calls: u64,
    pub reshape_s: f64,
    pub spans: Vec<Span>,
}

/// Everything one pass over a workload's units produced.
pub struct Pass {
    pub runs: Vec<SessionRun>,
    pub units: Vec<usize>,
    pub topology_build_s: Vec<f64>,
    pub wall_s: f64,
    /// Sweep-pool workers, 0 when the pass ran on the calling thread.
    pub workers: usize,
}

fn stage_partition(trace: Option<&TraceReport>) -> String {
    trace.map_or_else(String::new, |t| {
        t.stages
            .iter()
            .map(|s| format!("{}:{}", s.name, s.rounds))
            .collect::<Vec<_>>()
            .join(",")
    })
}

fn secs(interval: Option<(Instant, Instant)>) -> f64 {
    interval.map_or(0.0, |(s, e)| (e - s).as_secs_f64())
}

/// Inputs shared by every session of a unit.
struct SessionInput<'a> {
    unit: usize,
    seed: u64,
    workload: &'a Workload,
    options: RunOptions,
    /// When the unit's topology build started and ended.
    topology: (Instant, Instant),
    traced: bool,
    epoch: Instant,
    /// Span session id.
    span_id: u64,
}

/// Runs one session through `run_protocol_on_graph`, untraced through
/// [`Stamped`] or traced through [`Layered`].
fn run_session<P: BroadcastProtocol>(
    protocol: P,
    graph: Graph,
    input: &SessionInput<'_>,
    stages: fn(&P::Meta) -> Option<StageRounds>,
) -> SessionRun
where
    P::Node: 'static,
{
    let mut run = SessionRun {
        k: input.workload.k(),
        ..SessionRun::new(input.unit, input.seed, protocol.name())
    };
    let topo_s = (input.topology.1 - input.topology.0).as_secs_f64();
    let report = if input.traced {
        let params_start = Instant::now();
        std::hint::black_box(NetParams::of_graph(std::hint::black_box(&graph)));
        let params_end = Instant::now();
        let options = input.options;
        let wrapper = Layered::new(
            protocol,
            options.verify,
            options.trace,
            graph.clone(),
            options.churn,
            input.seed,
        );
        let library_options = RunOptions {
            verify: false,
            trace: false,
            ..options
        };
        take_node_tally();
        let call = Instant::now();
        let report =
            run_protocol_on_graph(&wrapper, graph, input.workload, input.seed, library_options);
        let ret = Instant::now();
        let node = take_node_tally();
        let replay_start = Instant::now();
        let (reshape_calls, reshape_s) = match &report {
            Ok(r) => replay_reshape(options.churn, wrapper.graph(), input.seed, r.rounds_total),
            Err(_) => (0, 0.0),
        };
        let replay_end = Instant::now();
        let rec = wrapper.record.into_inner();
        if rec.violations > 0 {
            run.error = Some(format!(
                "{} violations: {}",
                rec.violations, rec.violation_summary
            ));
        }
        run.trace_stages = stage_partition(rec.trace.as_ref());
        run.drive_s = secs(rec.drive);

        let mut spans = Spans::new(input.epoch, input.span_id);
        let root = spans.add("session", None, input.topology.0, replay_end);
        spans.add(
            "topology.build",
            Some(root),
            input.topology.0,
            input.topology.1,
        );
        spans.add("graph.params", Some(root), params_start, params_end);
        let call_span = spans.add("kbcast.run_protocol_on_graph", Some(root), call, ret);
        spans.add_opt("kbcast.build", Some(call_span), rec.build);
        spans.add_opt("kbcast.drive", Some(call_span), rec.drive);
        spans.add_opt("kbcast.finish", Some(call_span), rec.finish);
        if reshape_calls > 0 {
            spans.add(
                "dyntopo.reshape_replay",
                Some(root),
                replay_start,
                replay_end,
            );
        }
        run.wall_s = (Instant::now() - input.topology.0).as_secs_f64();
        run.layers = Some(SessionLayers {
            params_s: (params_end - params_start).as_secs_f64(),
            rec,
            node,
            reshape_calls,
            reshape_s,
            spans: spans.list,
        });
        report
    } else {
        let wrapper = Stamped::new(protocol);
        let call = Instant::now();
        let report =
            run_protocol_on_graph(&wrapper, graph, input.workload, input.seed, input.options);
        let ret = Instant::now();
        let marks = wrapper.marks.into_inner();
        if let (Some(start), Some(end)) = (marks.start, marks.end) {
            run.setup_s = topo_s + (start - call).as_secs_f64();
            run.drive_s = (end - start).as_secs_f64();
            run.query_s = (ret - end).as_secs_f64();
        }
        run.ticks_ms = marks.ticks_s.iter().map(|t| t * 1e3).collect();
        run.wall_s = (ret - input.topology.0).as_secs_f64();
        if let Ok(r) = &report {
            run.trace_stages = stage_partition(r.trace.as_deref());
        }
        report
    };
    match report {
        Ok(r) => {
            run.rounds = r.rounds_total;
            run.tx = r.stats.transmissions;
            run.rx = r.stats.receptions;
            run.collisions = r.stats.collisions;
            run.stages = stages(&r.meta);
            if !r.success && run.error.is_none() {
                run.error = Some(format!(
                    "did not deliver: {:.4} of packets after {} rounds",
                    r.delivered_fraction, r.rounds_total
                ));
            }
        }
        Err(e) => run.error = Some(e.to_string()),
    }
    run
}

/// Replays the session's churn model on an identically seeded replica
/// (as the model checker does) and times every `reshape` call. Returns
/// the call count and total seconds.
fn replay_reshape(churn: ChurnSpec, graph: &Graph, seed: u64, rounds: u64) -> (u64, f64) {
    if churn.is_none() {
        return (0, 0.0);
    }
    let Ok(mut model) = churn.build(graph, seed) else {
        return (0, 0.0);
    };
    let mut current = graph.clone();
    let mut total = 0.0;
    for round in 0..rounds {
        let start = Instant::now();
        let next = model.reshape(round, &current);
        total += start.elapsed().as_secs_f64();
        if let Some(g) = next {
            current = g;
        }
    }
    (rounds, total)
}

fn coded_stages(meta: &kbcast::runner::KbcastMeta) -> Option<StageRounds> {
    Some(meta.stages)
}

fn no_stages<M>(_: &M) -> Option<StageRounds> {
    None
}

/// Unit-disk size at udg1m's density (n·π·r² ≈ 40.7).
fn udg_shape(size: Size) -> (usize, f64, usize) {
    match size {
        Size::Full => (4096, 0.0562, 16),
        Size::Tiny => (256, 0.226, 4),
    }
}

/// `session-udg`: per unit, one unit disk and on it one coded and one
/// BII session, one after another on this thread.
pub fn udg_pass(size: Size, seed: u64, budget: &Budget, traced: bool, epoch: Instant) -> Pass {
    let (n, radius, k) = udg_shape(size);
    let workload = Workload::round_robin(n, k);
    let topology = Topology::UnitDisk { n, radius };
    let start = Instant::now();
    let mut pass = Pass {
        runs: Vec::new(),
        units: Vec::new(),
        topology_build_s: Vec::new(),
        wall_s: 0.0,
        workers: 0,
    };
    let mut unit = 0;
    while budget.admits(unit, start) {
        let s = unit_seed(seed, unit);
        let build_start = Instant::now();
        let built = topology.build(s);
        let build_end = Instant::now();
        pass.topology_build_s
            .push((build_end - build_start).as_secs_f64());
        let input = |span_id| SessionInput {
            unit,
            seed: s,
            workload: &workload,
            options: RunOptions::default(),
            topology: (build_start, build_end),
            traced,
            epoch,
            span_id,
        };
        match built {
            Ok(graph) => {
                let session_id = 2 * unit as u64;
                pass.runs.push(run_session(
                    CodedProtocol::default(),
                    graph.clone(),
                    &input(session_id),
                    coded_stages,
                ));
                pass.runs.push(run_session(
                    BiiProtocol::default(),
                    graph,
                    &input(session_id + 1),
                    no_stages,
                ));
            }
            Err(e) => pass
                .runs
                .push(failed_run(unit, s, format!("topology build failed: {e}"))),
        }
        pass.units.push(unit);
        unit += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// A unit that failed before any session could start.
fn failed_run(unit: usize, seed: u64, error: String) -> SessionRun {
    SessionRun {
        error: Some(error),
        ..SessionRun::new(unit, seed, "topology")
    }
}

/// The churn every `session-adverse` session runs under.
pub const ADVERSE_CHURN: &str = "edge:rho=0.005,heal=0.25";

fn adverse_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (16, 32),
        Size::Tiny => (6, 4),
    }
}

/// `session-adverse`: GHK on a grid under edge churn with verify and
/// trace on, one session per unit, units spread over `workers` threads
/// of the sweep pool.
pub fn adverse_pass(
    size: Size,
    seed: u64,
    budget: &Budget,
    traced: bool,
    epoch: Instant,
    workers: usize,
) -> Pass {
    let (side, k) = adverse_shape(size);
    let workload = Workload::round_robin(side * side, k);
    let topology = Topology::Grid2d {
        rows: side,
        cols: side,
    };
    let churn: ChurnSpec = ADVERSE_CHURN.parse().expect("the churn spec is valid");
    let options = RunOptions {
        verify: true,
        trace: true,
        churn,
        ..RunOptions::default()
    };
    let start = Instant::now();
    let slots = budget.slots();
    let results = par_map_indexed_with(workers, slots, |slot| {
        let unit = budget.unit_at(slot);
        if !budget.admits(unit, start) {
            return None;
        }
        let s = unit_seed(seed, unit);
        let build_start = Instant::now();
        let built = topology.build(s);
        let build_end = Instant::now();
        let input = SessionInput {
            unit,
            seed: s,
            workload: &workload,
            options,
            topology: (build_start, build_end),
            traced,
            epoch,
            span_id: unit as u64,
        };
        let run = match built {
            Ok(graph) => run_session(GhkProtocol::default(), graph, &input, no_stages),
            Err(e) => failed_run(unit, s, format!("topology build failed: {e}")),
        };
        Some(((build_end - build_start).as_secs_f64(), run))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        runs: Vec::new(),
        units: Vec::new(),
        topology_build_s: Vec::new(),
        wall_s,
        workers,
    };
    for (build_s, run) in results.into_iter().flatten() {
        pass.units.push(run.unit);
        pass.topology_build_s.push(build_s);
        pass.runs.push(run);
    }
    pass
}

/// The end-to-end metrics of an untraced pass.
pub fn e2e(pass: &Pass, peak_rss_mb: f64) -> Metrics {
    let runs = &pass.runs;
    let ok: Vec<&SessionRun> = runs.iter().filter(|r| r.error.is_none()).collect();
    let setup: Vec<f64> = ok.iter().map(|r| r.setup_s).collect();
    let drive: f64 = ok.iter().map(|r| r.drive_s).sum();
    let rounds: f64 = ok.iter().map(|r| r.rounds as f64).sum();
    let packets: f64 = ok.iter().map(|r| r.k as f64).sum();
    let per_packet: Vec<f64> = ok
        .iter()
        .map(|r| r.rounds as f64 / r.k.max(1) as f64)
        .collect();
    // Tick and query are taken per unit (session-udg: the coded and BII
    // sessions on one graph), then the median over units, so a host
    // slowdown that hits a few units does not move them. A unit's tick is
    // its host ms per 1000 simulated rounds inside drive, and its tail the
    // nearest-rank p99 of its full 1000-round windows (its tick when it
    // has none); its query is the time from drive's end to the report
    // (the delivery check and finish), summed over its sessions.
    let mut units: BTreeMap<usize, (Vec<f64>, f64, f64, f64)> = BTreeMap::new();
    for r in &ok {
        let unit = units.entry(r.unit).or_default();
        unit.0.extend_from_slice(&r.ticks_ms);
        unit.1 += r.drive_s;
        unit.2 += r.rounds as f64;
        unit.3 += r.query_s;
    }
    let tick_ms: Vec<f64> = units.values().map(|u| ratio(u.1 * 1e6, u.2)).collect();
    let tick_p99_ms: Vec<f64> = units
        .values()
        .zip(&tick_ms)
        .map(|(u, &tick)| {
            if u.0.is_empty() {
                tick
            } else {
                percentile(&u.0, 0.99)
            }
        })
        .collect();
    let query_ms: Vec<f64> = units.values().map(|u| u.3 * 1e3).collect();
    let latency: Vec<f64> = ok.iter().map(|r| r.rounds as f64).collect();

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");
    m.put(
        "sessions_per_s",
        ratio(runs.len() as f64, pass.wall_s),
        "1/s",
    );
    m.put("rounds_per_s", ratio(rounds, drive), "rounds/s");
    m.put("rounds_per_packet", mean(&per_packet), "rounds");
    m.put("packets_per_s", ratio(packets, drive), "pkt/s");
    m.put("tick_ms.p50", median(&tick_ms), "ms");
    m.put("tick_ms.p99", median(&tick_p99_ms), "ms");
    m.put("query_ms.p50", median(&query_ms), "ms");
    m.put("query_ms.p90", percentile(&query_ms, 0.9), "ms");
    m.put("latency_rounds.p50", percentile(&latency, 0.5), "rounds");
    m.put("latency_rounds.p99", percentile(&latency, 0.99), "rounds");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m
}

/// How each protocol's traced drive time splits across layers, one
/// report line per protocol: node polls and receives (sampled cost times
/// call count), observer hooks, churn reshapes, and the engine's own
/// remainder (timer drain, neighbour counting, delivery bookkeeping).
#[allow(clippy::cast_precision_loss)]
pub fn shares(pass: &Pass, timer_ns: f64) -> Vec<String> {
    let mut protocols: Vec<&str> = pass.runs.iter().map(|r| r.protocol).collect();
    protocols.dedup();
    protocols.sort_unstable();
    protocols.dedup();
    protocols
        .into_iter()
        .map(|protocol| {
            let mut node = NodeTally::default();
            let (mut drive, mut hooks, mut reshape, mut rounds) = (0.0, 0.0, 0.0, 0.0);
            for (r, l) in pass
                .runs
                .iter()
                .filter(|r| r.protocol == protocol)
                .filter_map(|r| r.layers.as_ref().map(|l| (r, l)))
            {
                node.add(&l.node);
                drive += secs(l.rec.drive);
                hooks += l.rec.hooks_s;
                reshape += l.reshape_s;
                rounds += r.rounds as f64;
            }
            let ns = |total: u64, samples: u64| (ratio(total as f64, samples as f64) - timer_ns).max(0.0);
            let poll = node.polls as f64 * ns(node.poll_ns, node.poll_samples) * 1e-9;
            let receive = node.receives as f64 * ns(node.receive_ns, node.receive_samples) * 1e-9;
            let pct = |x: f64| 100.0 * ratio(x, drive);
            format!(
                "{protocol}: rounds {rounds} drive {drive:.3} s = poll {:.1}% + receive {:.1}% + observers {:.1}% + reshape {:.1}% + engine self {:.1}%; {:.1} polls/round",
                pct(poll),
                pct(receive),
                pct(hooks),
                pct(reshape),
                pct(drive - poll - receive - hooks - reshape),
                ratio(node.polls as f64, rounds)
            )
        })
        .collect()
}

/// The per-layer metrics of a traced pass.
#[allow(clippy::cast_precision_loss)]
pub fn layers(pass: &Pass, timer_ns: f64) -> Metrics {
    let traced: Vec<(&SessionRun, &SessionLayers)> = pass
        .runs
        .iter()
        .filter_map(|r| r.layers.as_ref().map(|l| (r, l)))
        .collect();
    let sum = |f: &dyn Fn(&SessionRun, &SessionLayers) -> f64| -> f64 {
        traced.iter().map(|(r, l)| f(r, l)).sum()
    };
    let sessions = traced.len() as f64;
    let rounds = sum(&|r, _| r.rounds as f64);
    let tx = sum(&|r, _| r.tx as f64);
    let mut node = NodeTally::default();
    for (_, l) in &traced {
        node.add(&l.node);
    }
    let poll_ns = (ratio(node.poll_ns as f64, node.poll_samples as f64) - timer_ns).max(0.0);
    let receive_ns =
        (ratio(node.receive_ns as f64, node.receive_samples as f64) - timer_ns).max(0.0);
    let drive = sum(&|_, l| secs(l.rec.drive));
    let hooks = sum(&|_, l| l.rec.hooks_s);
    let node_s = (node.polls as f64 * poll_ns + node.receives as f64 * receive_ns) * 1e-9;
    let round_us: Vec<f64> = traced
        .iter()
        .flat_map(|(_, l)| l.rec.rounds_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let coded: Vec<StageRounds> = traced.iter().filter_map(|(r, _)| r.stages).collect();
    let stage =
        |f: fn(&StageRounds) -> u64| mean(&coded.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let reshape_calls = sum(&|_, l| l.reshape_calls as f64);
    let reshape_s = sum(&|_, l| l.reshape_s);
    let busy: f64 = pass.runs.iter().map(|r| r.wall_s).sum();

    let mut m = Metrics::default();
    m.put("topology.build_s", mean(&pass.topology_build_s), "s");
    m.put(
        "graph.params_s",
        ratio(sum(&|_, l| l.params_s), sessions),
        "s",
    );
    m.put(
        "kbcast.build_s",
        ratio(sum(&|_, l| secs(l.rec.build)), sessions),
        "s",
    );
    m.put("kbcast.drive_s", ratio(drive, sessions), "s");
    m.put(
        "kbcast.finish_s",
        ratio(sum(&|_, l| secs(l.rec.finish)), sessions),
        "s",
    );
    m.put("engine.round_us.p50", percentile(&round_us, 0.5), "us");
    m.put("engine.round_us.p99", percentile(&round_us, 0.99), "us");
    m.put(
        "engine.self_us_per_round",
        ratio((drive - hooks - node_s - reshape_s).max(0.0) * 1e6, rounds),
        "us",
    );
    m.put("engine.tx_per_round", ratio(tx, rounds), "1/round");
    m.put(
        "engine.rx_per_tx",
        ratio(sum(&|r, _| r.rx as f64), tx),
        "ratio",
    );
    m.put(
        "engine.collisions_per_round",
        ratio(sum(&|r, _| r.collisions as f64), rounds),
        "1/round",
    );
    m.put(
        "node.polls_per_round",
        ratio(node.polls as f64, rounds),
        "1/round",
    );
    m.put("node.poll_ns", poll_ns, "ns");
    m.put(
        "node.tx_per_poll",
        ratio(node.tx as f64, node.polls as f64),
        "ratio",
    );
    m.put("node.receive_ns", receive_ns, "ns");
    m.put("kbcast.stage_rounds.leader", stage(|s| s.leader), "rounds");
    m.put("kbcast.stage_rounds.bfs", stage(|s| s.bfs), "rounds");
    m.put(
        "kbcast.stage_rounds.collect",
        stage(|s| s.collect),
        "rounds",
    );
    m.put(
        "kbcast.stage_rounds.disseminate",
        stage(|s| s.disseminate),
        "rounds",
    );
    m.put(
        "dyntopo.reshape_us",
        ratio(reshape_s * 1e6, reshape_calls),
        "us",
    );
    m.put("dyntopo.reshape_frac", ratio(reshape_s, drive), "ratio");
    m.put(
        "verify.us_per_round",
        ratio(sum(&|_, l| l.rec.verify_s) * 1e6, rounds),
        "us",
    );
    m.put(
        "trace.us_per_round",
        ratio(sum(&|_, l| l.rec.trace_s) * 1e6, rounds),
        "us",
    );
    m.put(
        "verify.violations",
        sum(&|_, l| l.rec.violations as f64),
        "count",
    );
    if pass.workers > 0 {
        m.put(
            "parallel.busy_frac",
            ratio(busy, pass.workers as f64 * pass.wall_s),
            "ratio",
        );
    }
    m
}
