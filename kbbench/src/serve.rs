//! The `serve-live` workload: one closed-loop client drives a
//! `kbcast-serve` child over stdio.
//!
//! Per serve session: generate Poisson traffic with
//! `TrafficSpec::generate`, spawn the child, `init`, then for every 1000-round window one
//! `inject` with the arrivals due in it and one `tick 1000`, plus a
//! `query` every fourth window; finally `run_until_drained`, `query` and
//! `shutdown`. Each request waits for its reply before the next is sent.
//!
//! The traced pass feeds every request line to an in-process `Service`
//! as well, timing `Envelope::parse` and `Service::handle_line`, and
//! requires its reply to equal the child's byte for byte.

use std::path::Path;
use std::time::Instant;

use kbcast::dynamic::Arrival;
use kbcast_bench::traffic::{TrafficPattern, TrafficSpec};
use kbcast_serve::driver::Transport;
use kbcast_serve::proto::{Envelope, InjectPacket, Request, Response};
use kbcast_serve::service::Service;

use crate::layers::TICK_ROUNDS;
use crate::report::{
    mean, median, percentile, proc_status_mib, ratio, slope, Metrics, Span, Spans,
};
use crate::{unit_seed, Budget, Size};

/// Shape of one serve session.
struct Shape {
    topology: &'static str,
    n: usize,
    lambda: f64,
    windows: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            topology: "grid(8x8)",
            n: 64,
            lambda: 0.005,
            windows: 1000,
        },
        Size::Tiny => Shape {
            topology: "grid(3x3)",
            n: 9,
            lambda: 0.01,
            windows: 8,
        },
    }
}

/// Every fourth window also carries a `query`.
const QUERY_EVERY: u64 = 4;

/// Extra set-ups (traffic generation, spawn, `init`, `shutdown`) timed
/// before each untraced session, so `setup_s` is a median over many.
const SETUP_PROBES: usize = 3;

/// Extra rounds the final drain may take.
const DRAIN_BUDGET: u64 = 200_000;

/// One serve session's simulated output and host timings.
pub struct ServeRun {
    pub seed: u64,
    pub error: Option<String>,
    /// The final `query` reply, the session's simulated output.
    pub final_query: String,
    pub setup_s: f64,
    /// Extra set-ups timed before the session (untraced pass only).
    pub setup_probes_s: Vec<f64>,
    pub wall_s: f64,
    /// Host seconds inside `tick` and `run_until_drained` requests.
    pub run_s: f64,
    pub rounds: u64,
    pub delivered: u64,
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub tx: u64,
    pub rx: u64,
    pub collisions: u64,
    pub tick_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub layers: Option<ServeLayers>,
}

/// Per-layer numbers of one traced serve session.
#[derive(Default)]
pub struct ServeLayers {
    pub generate_s: f64,
    pub parse_us: Vec<f64>,
    pub ipc_us: Vec<f64>,
    pub tick_ms: Vec<f64>,
    pub inject_ms: Vec<f64>,
    /// `(kpkt injected so far, in-process query µs)`.
    pub query_points: Vec<(f64, f64)>,
    /// `(kpkt injected so far, child VmRSS MiB)`.
    pub rss_points: Vec<(f64, f64)>,
    pub spans: Vec<Span>,
}

pub struct Pass {
    pub runs: Vec<ServeRun>,
    pub units: Vec<usize>,
    pub wall_s: f64,
}

fn line(req: Request) -> String {
    Envelope { id: None, req }.to_json().to_string()
}

/// One request of a traced session, kept for the in-process replay.
struct Logged {
    op: &'static str,
    text: String,
    reply: String,
    rtt_s: f64,
    /// Packets injected before this request, in thousands.
    kpkt: f64,
}

/// What a traced session records: its layer numbers, its spans under
/// the session span `root`, and its requests.
struct Tracing {
    layers: ServeLayers,
    spans: Spans,
    root: usize,
    log: Vec<Logged>,
}

/// The client side of one session: the child, plus the record when
/// traced.
struct Client<'a> {
    child: Transport,
    pid: String,
    injected: u64,
    tracing: Option<&'a mut Tracing>,
}

impl Client<'_> {
    /// Sends one request and waits for the reply; returns the parsed
    /// reply and its round-trip seconds.
    fn request(&mut self, op: &'static str, text: &str) -> Result<(Response, f64), String> {
        let start = Instant::now();
        let reply = self.child.request_line(text)?;
        let end = Instant::now();
        let rtt_s = (end - start).as_secs_f64();
        let (resp, _) = Response::parse(&reply).map_err(|e| format!("{op}: bad reply: {e}"))?;
        if let Response::Error { error } = &resp {
            return Err(format!("{op}: service error: {error}"));
        }
        if let Some(t) = self.tracing.as_deref_mut() {
            t.spans.add(op, Some(t.root), start, end);
            #[allow(clippy::cast_precision_loss)]
            t.log.push(Logged {
                op,
                text: text.to_string(),
                reply,
                rtt_s,
                kpkt: self.injected as f64 / 1e3,
            });
        }
        Ok((resp, rtt_s))
    }
}

/// Replays a traced session's requests through an in-process
/// `Service`, after the child has exited so the two never compete for
/// caches: times `Envelope::parse` and `Service::handle_line`, and
/// requires every reply to equal the child's.
fn replay(t: &mut Tracing) -> Result<(), String> {
    let mut service = Service::new();
    let layers = &mut t.layers;
    for entry in &t.log {
        let parse_start = Instant::now();
        let parsed = std::hint::black_box(Envelope::parse(&entry.text));
        layers
            .parse_us
            .push(parse_start.elapsed().as_secs_f64() * 1e6);
        parsed.map_err(|e| format!("{}: request did not parse: {e}", entry.op))?;
        let start = Instant::now();
        let local = service.handle_line(&entry.text);
        let end = Instant::now();
        t.spans.add("serve.handle_line", Some(t.root), start, end);
        let handle_s = (end - start).as_secs_f64();
        layers.ipc_us.push((entry.rtt_s - handle_s) * 1e6);
        match entry.op {
            "serve.tick" => layers.tick_ms.push(handle_s * 1e3),
            "serve.inject" => layers.inject_ms.push(handle_s * 1e3),
            "serve.query" => layers.query_points.push((entry.kpkt, handle_s * 1e6)),
            _ => {}
        }
        if local != entry.reply {
            return Err(format!(
                "{}: in-process reply differs from the child's:\n  child:      {}\n  in-process: {local}",
                entry.op, entry.reply
            ));
        }
    }
    Ok(())
}

fn run_session(
    server: &Path,
    size: Size,
    unit: usize,
    seed: u64,
    traced: bool,
    epoch: Instant,
) -> ServeRun {
    let mut run = ServeRun {
        seed,
        error: None,
        final_query: String::new(),
        setup_s: 0.0,
        setup_probes_s: Vec::new(),
        wall_s: 0.0,
        run_s: 0.0,
        rounds: 0,
        delivered: 0,
        latency_p50: 0.0,
        latency_p99: 0.0,
        tx: 0,
        rx: 0,
        collisions: 0,
        tick_ms: Vec::new(),
        query_ms: Vec::new(),
        peak_rss_mb: 0.0,
        layers: None,
    };
    let shape = shape(size);
    if !traced {
        for _ in 0..SETUP_PROBES {
            match setup_probe(server, &shape, seed) {
                Ok(setup_s) => run.setup_probes_s.push(setup_s),
                Err(e) => run.error = Some(format!("set-up probe: {e}")),
            }
        }
    }
    let start = Instant::now();
    let mut tracing = traced.then(|| {
        let mut spans = Spans::new(epoch, unit as u64);
        let root = spans.add("serve.session", None, start, start);
        Tracing {
            layers: ServeLayers::default(),
            spans,
            root,
            log: Vec::new(),
        }
    });
    if let Err(e) = drive_session(server, &shape, seed, &mut run, tracing.as_mut(), start) {
        run.error.get_or_insert(e);
    }
    let end = Instant::now();
    run.wall_s = (end - start).as_secs_f64();
    if let Some(mut t) = tracing {
        t.spans.close(t.root, end);
        t.layers.spans = t.spans.list;
        run.layers = Some(t.layers);
    }
    run
}

/// Generates the session's traffic, spawns a child and sends `init`;
/// returns the client and the arrivals.
fn open_session<'a>(
    server: &Path,
    shape: &Shape,
    seed: u64,
    mut tracing: Option<&'a mut Tracing>,
) -> Result<(Client<'a>, Vec<Arrival>), String> {
    // Generate before spawning: overlapping the two would make set-up
    // depend on whether the child got a core of its own.
    let generate_start = Instant::now();
    let traffic = TrafficSpec {
        pattern: TrafficPattern::Poisson {
            lambda: shape.lambda,
        },
        window: shape.windows * TICK_ROUNDS - 1,
    };
    let arrivals = traffic
        .generate(shape.n, seed)
        .map_err(|e| format!("traffic generation failed: {e}"))?;
    let generate_end = Instant::now();
    if let Some(t) = tracing.as_deref_mut() {
        t.spans.add(
            "traffic.generate",
            Some(t.root),
            generate_start,
            generate_end,
        );
        t.layers.generate_s = (generate_end - generate_start).as_secs_f64();
    }
    let child = Transport::spawn(server)?;
    let pid = match &child {
        Transport::Child { child, .. } => child.id().to_string(),
        Transport::InProcess(_) => String::new(),
    };
    let mut client = Client {
        child,
        pid,
        injected: 0,
        tracing,
    };
    let init = line(Request::Init {
        topology: shape.topology.into(),
        protocol: "stream-seq".into(),
        seed,
        faults: None,
        horizon: None,
        verify: Some(false),
        trace: Some(false),
        cd: None,
        churn: None,
    });
    match client.request("serve.init", &init)? {
        (Response::InitAck { .. }, _) => Ok((client, arrivals)),
        (other, _) => Err(format!("init: unexpected reply {other:?}")),
    }
}

/// Times one more set-up (traffic generation, spawn, `init`) and shuts
/// the child down.
fn setup_probe(server: &Path, shape: &Shape, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let (mut client, _) = open_session(server, shape, seed, None)?;
    let setup_s = start.elapsed().as_secs_f64();
    client.request("serve.shutdown", &line(Request::Shutdown))?;
    client.child.close();
    Ok(setup_s)
}

/// Opens the session and runs its requests; when traced, replays them
/// in-process afterwards.
fn drive_session(
    server: &Path,
    shape: &Shape,
    seed: u64,
    run: &mut ServeRun,
    tracing: Option<&mut Tracing>,
    start: Instant,
) -> Result<(), String> {
    let (mut client, arrivals) = open_session(server, shape, seed, tracing)?;
    run.setup_s = start.elapsed().as_secs_f64();
    let result = session_requests(&mut client, shape, &arrivals, run);
    client.child.close();
    result?;
    match client.tracing {
        Some(t) => replay(t),
        None => Ok(()),
    }
}

fn session_requests(
    client: &mut Client<'_>,
    shape: &Shape,
    arrivals: &[Arrival],
    run: &mut ServeRun,
) -> Result<(), String> {
    let mut next = 0;
    for window in 0..shape.windows {
        let end = (window + 1) * TICK_ROUNDS;
        let due: Vec<InjectPacket> = arrivals[next..]
            .iter()
            .take_while(|a| a.round < end)
            .map(|a| InjectPacket {
                node: a.node,
                round: Some(a.round),
                payload: a.payload.clone(),
            })
            .collect();
        next += due.len();
        if !due.is_empty() {
            let count = due.len() as u64;
            client.request("serve.inject", &line(Request::Inject { packets: due }))?;
            client.injected += count;
        }
        let tick = line(Request::Tick {
            rounds: TICK_ROUNDS,
        });
        let (_, rtt) = client.request("serve.tick", &tick)?;
        run.tick_ms.push(rtt * 1e3);
        run.run_s += rtt;
        if (window + 1).is_multiple_of(QUERY_EVERY) {
            let query = line(Request::Query { packet: None });
            let (_, rtt) = client.request("serve.query", &query)?;
            run.query_ms.push(rtt * 1e3);
            if let Some(t) = client.tracing.as_deref_mut() {
                if let Some(rss) = proc_status_mib(&client.pid, "VmRSS") {
                    #[allow(clippy::cast_precision_loss)]
                    t.layers
                        .rss_points
                        .push((client.injected as f64 / 1e3, rss));
                }
            }
        }
    }
    if next != arrivals.len() {
        return Err(format!(
            "{} arrivals fell outside the session's windows",
            arrivals.len() - next
        ));
    }

    let drain = line(Request::RunUntilDrained {
        max_rounds: Some(DRAIN_BUDGET),
    });
    match client.request("serve.run_until_drained", &drain)? {
        (
            Response::DrainAck {
                completed: true, ..
            },
            rtt,
        ) => run.run_s += rtt,
        (other, _) => return Err(format!("run_until_drained did not drain: {other:?}")),
    }
    let (resp, rtt) = client.request("serve.query", &line(Request::Query { packet: None }))?;
    run.query_ms.push(rtt * 1e3);
    let Response::QueryAck {
        round,
        k,
        all_delivered,
        violations,
        stats,
        latency,
        ..
    } = resp
    else {
        return Err(format!("final query: unexpected reply {resp:?}"));
    };
    let rank = |v: Option<u64>| v.map_or_else(|| "none".to_string(), |v| v.to_string());
    run.final_query = format!(
        "round={round} k={k} delivered={} tx={} rx={} collisions={} latency_mean={:?} p50={} p90={} p99={} max={}",
        latency.count,
        stats.transmissions,
        stats.receptions,
        stats.collisions,
        latency.mean,
        rank(latency.p50),
        rank(latency.p90),
        rank(latency.p99),
        rank(latency.max)
    );
    if !all_delivered || violations != 0 || k != client.injected {
        return Err(format!(
            "final query: delivered={all_delivered} violations={violations} k={k} injected={}",
            client.injected
        ));
    }
    run.rounds = round;
    run.delivered = latency.count;
    #[allow(clippy::cast_precision_loss)]
    {
        run.latency_p50 = latency.p50.unwrap_or(0) as f64;
        run.latency_p99 = latency.p99.unwrap_or(0) as f64;
    }
    run.tx = stats.transmissions;
    run.rx = stats.receptions;
    run.collisions = stats.collisions;
    run.peak_rss_mb = proc_status_mib(&client.pid, "VmHWM").unwrap_or(0.0);
    match client.request("serve.shutdown", &line(Request::Shutdown))? {
        (Response::ShutdownAck { violations: 0, .. }, _) => Ok(()),
        (other, _) => Err(format!("shutdown: unexpected reply {other:?}")),
    }
}

/// Runs serve sessions, one after another, within `budget`.
pub fn pass(
    server: &Path,
    size: Size,
    seed: u64,
    budget: &Budget,
    traced: bool,
    epoch: Instant,
) -> Pass {
    let start = Instant::now();
    let mut out = Pass {
        runs: Vec::new(),
        units: Vec::new(),
        wall_s: 0.0,
    };
    let mut unit = 0;
    while budget.admits(unit, start) {
        out.runs.push(run_session(
            server,
            size,
            unit,
            unit_seed(seed, unit),
            traced,
            epoch,
        ));
        out.units.push(unit);
        unit += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// The end-to-end metrics of an untraced pass.
#[allow(clippy::cast_precision_loss)]
pub fn e2e(pass: &Pass) -> Metrics {
    let ok: Vec<&ServeRun> = pass.runs.iter().filter(|r| r.error.is_none()).collect();
    let run_s: f64 = ok.iter().map(|r| r.run_s).sum();
    let rounds: f64 = ok.iter().map(|r| r.rounds as f64).sum();
    let delivered: f64 = ok.iter().map(|r| r.delivered as f64).sum();
    // Latency percentiles are taken per session, then the median over
    // sessions, so a host slowdown that hits a few sessions does not
    // move them.
    let per_session = |f: fn(&ServeRun) -> &Vec<f64>, q: f64| {
        median(&ok.iter().map(|r| percentile(f(r), q)).collect::<Vec<f64>>())
    };
    let each = |f: fn(&ServeRun) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();

    let mut m = Metrics::default();
    let setups: Vec<f64> = ok
        .iter()
        .flat_map(|r| std::iter::once(r.setup_s).chain(r.setup_probes_s.iter().copied()))
        .collect();
    m.put("setup_s", median(&setups), "s");
    m.put(
        "sessions_per_s",
        ratio(pass.runs.len() as f64, pass.wall_s),
        "1/s",
    );
    m.put("rounds_per_s", ratio(rounds, run_s), "rounds/s");
    m.put(
        "rounds_per_packet",
        mean(&each(|r| ratio(r.rounds as f64, r.delivered as f64))),
        "rounds",
    );
    m.put("packets_per_s", ratio(delivered, run_s), "pkt/s");
    m.put("tick_ms.p50", per_session(|r| &r.tick_ms, 0.5), "ms");
    m.put("tick_ms.p99", per_session(|r| &r.tick_ms, 0.99), "ms");
    m.put("query_ms.p50", per_session(|r| &r.query_ms, 0.5), "ms");
    m.put("query_ms.p90", per_session(|r| &r.query_ms, 0.9), "ms");
    m.put(
        "latency_rounds.p50",
        median(&each(|r| r.latency_p50)),
        "rounds",
    );
    m.put(
        "latency_rounds.p99",
        median(&each(|r| r.latency_p99)),
        "rounds",
    );
    m.put("peak_rss_mb", median(&each(|r| r.peak_rss_mb)), "MiB");
    m
}

/// The per-layer metrics of a traced pass.
#[allow(clippy::cast_precision_loss)]
pub fn layers(pass: &Pass) -> Metrics {
    let traced: Vec<(&ServeRun, &ServeLayers)> = pass
        .runs
        .iter()
        .filter_map(|r| r.layers.as_ref().map(|l| (r, l)))
        .collect();
    let pooled = |f: fn(&ServeLayers) -> &Vec<f64>| {
        traced
            .iter()
            .flat_map(|(_, l)| f(l).iter().copied())
            .collect::<Vec<f64>>()
    };
    let query_slopes: Vec<f64> = traced.iter().map(|(_, l)| slope(&l.query_points)).collect();
    let rss_slopes: Vec<f64> = traced.iter().map(|(_, l)| slope(&l.rss_points)).collect();
    let rounds: f64 = traced.iter().map(|(r, _)| r.rounds as f64).sum();
    let tx: f64 = traced.iter().map(|(r, _)| r.tx as f64).sum();
    let rx: f64 = traced.iter().map(|(r, _)| r.rx as f64).sum();
    let collisions: f64 = traced.iter().map(|(r, _)| r.collisions as f64).sum();

    let mut m = Metrics::default();
    m.put("engine.tx_per_round", ratio(tx, rounds), "1/round");
    m.put("engine.rx_per_tx", ratio(rx, tx), "ratio");
    m.put(
        "engine.collisions_per_round",
        ratio(collisions, rounds),
        "1/round",
    );
    m.put("serve.parse_us", mean(&pooled(|l| &l.parse_us)), "us");
    m.put("serve.ipc_us", mean(&pooled(|l| &l.ipc_us)), "us");
    m.put("serve.tick_ms", mean(&pooled(|l| &l.tick_ms)), "ms");
    m.put("serve.inject_ms", mean(&pooled(|l| &l.inject_ms)), "ms");
    m.put("serve.query_us_per_kpkt", mean(&query_slopes), "us/kpkt");
    m.put("serve.rss_mb_per_kpkt", mean(&rss_slopes), "MiB/kpkt");
    m.put(
        "traffic.generate_s",
        mean(&traced.iter().map(|(_, l)| l.generate_s).collect::<Vec<_>>()),
        "s",
    );
    m
}
