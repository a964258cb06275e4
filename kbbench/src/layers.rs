//! Delegating wrappers that time calls into each layer from outside the
//! library.
//!
//! Two protocol wrappers sit between the benchmark and
//! [`run_protocol_on_graph`](kbcast::run_protocol_on_graph):
//!
//! * [`Stamped`] is the untraced wrapper. It keeps the protocol's own
//!   node and observer types, so the engine runs the same
//!   monomorphization a user's session runs, and records only the
//!   instants `drive` starts and ends plus one lap every
//!   [`TICK_ROUNDS`] rounds.
//! * [`Layered`] is the traced wrapper. Its nodes are [`TimedNode`]s that
//!   count every `poll`/`receive` and time a sample of them, and it
//!   builds the verify and trace tees itself (the session is run with
//!   `verify`/`trace` off in its options) so each tee's
//!   `on_round[_detail]` is timed on its own.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use kbcast::runner::Workload;
use kbcast::{BroadcastProtocol, NetParams, PacketKey};
use radio_net::dyntopo::{ChurnSpec, TopologyModel};
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::faults::FaultModel;
use radio_net::graph::{Graph, NodeId};
use radio_net::trace::{StageProbe, StageSample, TraceCollector, TraceReport, Traced};
use radio_net::verify::{Check, ModelChecker, Verified, VerifyStack, Violation};
use radio_net::Observer;
use radio_net::{RoundDetail, RoundEvents, SessionEnd};

/// Rounds per `tick`: the round budget a `kbcast-serve` client advances
/// with one `tick 1000` request.
pub const TICK_ROUNDS: u64 = 1000;

/// When the session's `drive` ran, and the host seconds of every full
/// [`TICK_ROUNDS`]-round window inside it.
#[derive(Clone, Debug, Default)]
pub struct DriveMarks {
    /// Instant `drive` was entered.
    pub start: Option<Instant>,
    /// Instant `drive` returned.
    pub end: Option<Instant>,
    /// Seconds per full window, in round order.
    pub ticks_s: Vec<f64>,
}

/// Observer shim that laps a clock every [`TICK_ROUNDS`] rounds.
struct Windowed<'a, O> {
    inner: &'a mut O,
    rounds: u64,
    last: Instant,
    ticks_s: Vec<f64>,
}

impl<N: Node, O: Observer<N>> Observer<N> for Windowed<'_, O> {
    const DETAIL: bool = O::DETAIL;

    #[inline]
    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        self.inner.on_round(events, nodes);
        self.rounds += 1;
        if self.rounds.is_multiple_of(TICK_ROUNDS) {
            let now = Instant::now();
            self.ticks_s.push((now - self.last).as_secs_f64());
            self.last = now;
        }
    }

    #[inline]
    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        self.inner.on_round_detail(detail, nodes);
    }
}

/// The untraced wrapper: every trait item delegates to `inner`; `drive`
/// additionally records [`DriveMarks`].
pub struct Stamped<P> {
    /// The wrapped protocol.
    pub inner: P,
    /// Marks of the (single) session this wrapper ran.
    pub marks: RefCell<DriveMarks>,
}

impl<P> Stamped<P> {
    pub fn new(inner: P) -> Self {
        Stamped {
            inner,
            marks: RefCell::new(DriveMarks::default()),
        }
    }
}

impl<P: BroadcastProtocol> BroadcastProtocol for Stamped<P> {
    type Node = P::Node;
    type Cd = P::Cd;
    type Obs = P::Obs;
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<Self::Node>, Vec<NodeId>) {
        self.inner.build(net, workload, seed)
    }

    fn observer(&self, net: &NetParams) -> Self::Obs {
        self.inner.observer(net)
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.inner.round_cap(net, k)
    }

    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        self.inner.expected_keys(workload)
    }

    fn delivered(&self, node: &Self::Node) -> Vec<PacketKey> {
        self.inner.delivered(node)
    }

    fn drive<F: FaultModel, T: TopologyModel, O: Observer<Self::Node>>(
        &self,
        engine: &mut Engine<Self::Node, F, Self::Cd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        let start = Instant::now();
        let mut windowed = Windowed {
            inner: obs,
            rounds: 0,
            last: start,
            ticks_s: Vec::new(),
        };
        let end = self.inner.drive(engine, cap, &mut windowed);
        *self.marks.borrow_mut() = DriveMarks {
            start: Some(start),
            end: Some(Instant::now()),
            ticks_s: windowed.ticks_s,
        };
        end
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<Self::Node>> {
        self.inner.trace_probe(net)
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<Self::Node>>> {
        self.inner.verify_checks(net, workload, clean)
    }

    fn finish(&self, obs: Self::Obs, nodes: &[Self::Node], end: &SessionEnd) -> Self::Meta {
        self.inner.finish(obs, nodes, end)
    }
}

// ---------------------------------------------------------------------------
// Node layer: counted, sampled-timing node wrapper.

/// Every `SAMPLE`-th poll and receive on a thread is timed.
const SAMPLE_MASK: u64 = 15;

/// Per-thread node-layer tally. A session runs on one thread from build
/// to finish, so [`take_node_tally`] at its end collects exactly its
/// calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeTally {
    pub polls: u64,
    pub tx: u64,
    pub poll_samples: u64,
    pub poll_ns: u64,
    pub receives: u64,
    pub receive_samples: u64,
    pub receive_ns: u64,
}

impl NodeTally {
    pub fn add(&mut self, o: &NodeTally) {
        self.polls += o.polls;
        self.tx += o.tx;
        self.poll_samples += o.poll_samples;
        self.poll_ns += o.poll_ns;
        self.receives += o.receives;
        self.receive_samples += o.receive_samples;
        self.receive_ns += o.receive_ns;
    }
}

thread_local! {
    static TALLY: Cell<NodeTally> = const {
        Cell::new(NodeTally {
            polls: 0,
            tx: 0,
            poll_samples: 0,
            poll_ns: 0,
            receives: 0,
            receive_samples: 0,
            receive_ns: 0,
        })
    };
}

/// Returns and resets this thread's node tally.
pub fn take_node_tally() -> NodeTally {
    TALLY.with(|t| t.replace(NodeTally::default()))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A protocol node behind a counting, sampled-timing shim. Transparent,
/// so a slice of wrappers is a slice of the wrapped nodes (see
/// [`inner_nodes`]).
#[repr(transparent)]
pub struct TimedNode<N>(pub N);

impl<N: Node> Node for TimedNode<N> {
    type Msg = N::Msg;

    #[inline]
    fn poll(&mut self, round: u64) -> Option<N::Msg> {
        let mut t = TALLY.with(Cell::get);
        t.polls += 1;
        let out = if t.polls & SAMPLE_MASK == 0 {
            let start = Instant::now();
            let out = self.0.poll(round);
            t.poll_ns += elapsed_ns(start);
            t.poll_samples += 1;
            out
        } else {
            self.0.poll(round)
        };
        t.tx += u64::from(out.is_some());
        TALLY.with(|c| c.set(t));
        out
    }

    #[inline]
    fn receive(&mut self, round: u64, msg: &N::Msg) {
        let mut t = TALLY.with(Cell::get);
        t.receives += 1;
        if t.receives & SAMPLE_MASK == 0 {
            let start = Instant::now();
            self.0.receive(round, msg);
            t.receive_ns += elapsed_ns(start);
            t.receive_samples += 1;
        } else {
            self.0.receive(round, msg);
        }
        TALLY.with(|c| c.set(t));
    }

    #[inline]
    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    #[inline]
    fn collision_heard(&mut self, round: u64) {
        self.0.collision_heard(round);
    }

    #[inline]
    fn next_activity(&self, round: u64) -> u64 {
        self.0.next_activity(round)
    }
}

/// Views wrapped nodes as the protocol's own nodes.
pub fn inner_nodes<N>(nodes: &[TimedNode<N>]) -> &[N] {
    // SAFETY: `TimedNode<N>` is `#[repr(transparent)]` over `N`, so the
    // two types have identical size, alignment and layout, and a slice
    // of one is a valid slice of the other with the same length. The
    // returned slice borrows `nodes`, so the lifetime is unchanged.
    unsafe { std::slice::from_raw_parts(nodes.as_ptr().cast::<N>(), nodes.len()) }
}

/// The protocol's observer, fed the wrapped nodes' inner view.
pub struct ViewObs<O>(pub O);

impl<N: Node, O: Observer<N>> Observer<TimedNode<N>> for ViewObs<O> {
    const DETAIL: bool = O::DETAIL;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) {
        self.0.on_round(events, inner_nodes(nodes));
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[TimedNode<N>]) {
        self.0.on_round_detail(detail, inner_nodes(nodes));
    }
}

/// A protocol invariant check, fed the wrapped nodes' inner view.
struct ViewCheck<N>(Box<dyn Check<N>>);

impl<N: Node> Check<TimedNode<N>> for ViewCheck<N> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) {
        self.0.on_round(events, inner_nodes(nodes));
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[TimedNode<N>]) {
        self.0.on_round_detail(detail, inner_nodes(nodes));
    }

    fn on_session_end(&mut self, nodes: &[TimedNode<N>], end: &SessionEnd) {
        self.0.on_session_end(inner_nodes(nodes), end);
    }

    fn violations(&self) -> &[Violation] {
        self.0.violations()
    }

    fn total_violations(&self) -> usize {
        self.0.total_violations()
    }
}

/// A protocol stage probe, fed the wrapped nodes' inner view.
struct ViewProbe<N>(Box<dyn StageProbe<N>>);

impl<N> StageProbe<TimedNode<N>> for ViewProbe<N> {
    fn sample(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) -> StageSample {
        self.0.sample(events, inner_nodes(nodes))
    }
}

// ---------------------------------------------------------------------------
// Observer layer: per-round timing of the tee.

/// Host time spent inside an observer's hooks.
struct TimedObs<'a, O> {
    inner: &'a mut O,
    busy: Duration,
}

impl<'a, O> TimedObs<'a, O> {
    fn new(inner: &'a mut O) -> Self {
        TimedObs {
            inner,
            busy: Duration::ZERO,
        }
    }
}

impl<N: Node, O: Observer<N>> Observer<N> for TimedObs<'_, O> {
    const DETAIL: bool = O::DETAIL;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        let start = Instant::now();
        self.inner.on_round(events, nodes);
        self.busy += start.elapsed();
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        let start = Instant::now();
        self.inner.on_round_detail(detail, nodes);
        self.busy += start.elapsed();
    }
}

/// The outermost observer of a traced drive: times every hook and cuts
/// the host timeline into rounds. A round runs from the end of the
/// previous round's last hook to the end of its own last hook.
struct RoundClock<'a, O> {
    inner: &'a mut O,
    last: Instant,
    hooks: Duration,
    rounds_ns: Vec<u64>,
}

impl<O> RoundClock<'_, O> {
    fn close_round(&mut self, hook_start: Instant) {
        let now = Instant::now();
        self.hooks += now - hook_start;
        self.rounds_ns
            .push(u64::try_from((now - self.last).as_nanos()).unwrap_or(u64::MAX));
        self.last = now;
    }
}

impl<N: Node, O: Observer<N>> Observer<N> for RoundClock<'_, O> {
    const DETAIL: bool = O::DETAIL;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        let start = Instant::now();
        self.inner.on_round(events, nodes);
        if O::DETAIL {
            self.hooks += start.elapsed();
        } else {
            self.close_round(start);
        }
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        let start = Instant::now();
        self.inner.on_round_detail(detail, nodes);
        self.close_round(start);
    }
}

/// Per-session numbers the traced wrapper collects.
#[derive(Debug, Default)]
pub struct LayerRecord {
    pub build: Option<(Instant, Instant)>,
    pub drive: Option<(Instant, Instant)>,
    pub finish: Option<(Instant, Instant)>,
    /// Host nanoseconds of every round of the drive.
    pub rounds_ns: Vec<u64>,
    /// All observer hooks (protocol observer plus tees), seconds.
    pub hooks_s: f64,
    /// The protocol's own observer, seconds.
    pub proto_obs_s: f64,
    /// Verify tee self time (model checker plus protocol checks).
    pub verify_s: f64,
    /// Trace tee self time (trace collector).
    pub trace_s: f64,
    pub violations: usize,
    pub violation_summary: String,
    pub trace: Option<TraceReport>,
}

struct Tees<N: Node> {
    stack: Option<VerifyStack<TimedNode<N>>>,
    collector: Option<TraceCollector<TimedNode<N>>>,
}

/// The traced wrapper: wrapped nodes, and a verify/trace tee built here
/// the way `run_protocol_on_graph` builds its own, with each part timed.
pub struct Layered<P: BroadcastProtocol> {
    inner: P,
    verify: bool,
    trace: bool,
    /// Model-checker inputs `run_protocol_on_graph` would take: the graph and the
    /// churn model (replayed by an identically seeded replica).
    graph: Graph,
    churn: ChurnSpec,
    seed: u64,
    tees: RefCell<Option<Tees<P::Node>>>,
    pub record: RefCell<LayerRecord>,
}

impl<P: BroadcastProtocol> Layered<P> {
    /// `graph` must be a copy of the graph the session runs on, and
    /// `churn`/`seed` the session's churn spec and seed.
    pub fn new(
        inner: P,
        verify: bool,
        trace: bool,
        graph: Graph,
        churn: ChurnSpec,
        seed: u64,
    ) -> Self {
        Layered {
            inner,
            verify,
            trace,
            graph,
            churn,
            seed,
            tees: RefCell::new(None),
            record: RefCell::new(LayerRecord::default()),
        }
    }
}

impl<P: BroadcastProtocol> Layered<P> {
    /// The session's initial graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl<P: BroadcastProtocol> BroadcastProtocol for Layered<P>
where
    P::Node: 'static,
{
    type Node = TimedNode<P::Node>;
    type Cd = P::Cd;
    type Obs = ViewObs<P::Obs>;
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<Self::Node>, Vec<NodeId>) {
        let start = Instant::now();
        let (nodes, awake) = self.inner.build(net, workload, seed);
        self.record.borrow_mut().build = Some((start, Instant::now()));
        let nodes: Vec<_> = nodes.into_iter().map(TimedNode).collect();

        let stack = self.verify.then(|| {
            let mut stack = VerifyStack::new();
            let cd = <P::Cd as CdModel>::ENABLED;
            let checker = if self.churn.is_none() {
                ModelChecker::new_with_cd(self.graph.clone(), awake.iter().copied(), cd)
            } else {
                let replica = self
                    .churn
                    .build(&self.graph, self.seed)
                    .expect("run_protocol_on_graph validated the churn spec");
                ModelChecker::with_topology(self.graph.clone(), awake.iter().copied(), cd, replica)
            };
            stack.push(Box::new(checker));
            for check in self
                .inner
                .verify_checks(net, workload, self.churn.is_none())
            {
                stack.push(Box::new(ViewCheck(check)));
            }
            stack
        });
        let collector = self.trace.then(|| {
            let probe: Box<dyn StageProbe<Self::Node>> =
                Box::new(ViewProbe(self.inner.trace_probe(net)));
            TraceCollector::new(probe)
        });
        *self.tees.borrow_mut() = Some(Tees { stack, collector });
        (nodes, awake)
    }

    fn observer(&self, net: &NetParams) -> Self::Obs {
        ViewObs(self.inner.observer(net))
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.inner.round_cap(net, k)
    }

    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        self.inner.expected_keys(workload)
    }

    fn delivered(&self, node: &Self::Node) -> Vec<PacketKey> {
        self.inner.delivered(&node.0)
    }

    /// The default drive (`Engine::run_session`) under a timed tee. The
    /// traced and untraced runs' simulated counts are compared, so a
    /// protocol that overrides `drive` shows up as a mismatch.
    fn drive<F: FaultModel, T: TopologyModel, O: Observer<Self::Node>>(
        &self,
        engine: &mut Engine<Self::Node, F, Self::Cd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        let mut tees = self.tees.borrow_mut().take().expect("build ran first");
        let start = Instant::now();
        let mut proto = TimedObs::new(obs);
        // Nest as `run_protocol_on_graph` does: Traced { Verified { proto } },
        // timing each level so a tee's self time is its level minus the
        // level inside it.
        let (end, clock_hooks, rounds_ns, verify_level, trace_level) =
            match (tees.stack.as_mut(), tees.collector.as_mut()) {
                (Some(stack), Some(collector)) => {
                    let mut verified = Verified {
                        inner: &mut proto,
                        stack,
                    };
                    let mut verified = TimedObs::new(&mut verified);
                    let mut traced = Traced {
                        inner: &mut verified,
                        collector,
                    };
                    let mut clock = RoundClock::new(&mut traced, start);
                    let end = engine.run_session(cap, &mut clock);
                    let (hooks, rounds) = (clock.hooks, clock.rounds_ns);
                    (end, hooks, rounds, Some(verified.busy), Some(hooks))
                }
                (Some(stack), None) => {
                    let mut verified = Verified {
                        inner: &mut proto,
                        stack,
                    };
                    let mut clock = RoundClock::new(&mut verified, start);
                    let end = engine.run_session(cap, &mut clock);
                    let (hooks, rounds) = (clock.hooks, clock.rounds_ns);
                    (end, hooks, rounds, Some(hooks), None)
                }
                (None, Some(collector)) => {
                    let mut traced = Traced {
                        inner: &mut proto,
                        collector,
                    };
                    let mut clock = RoundClock::new(&mut traced, start);
                    let end = engine.run_session(cap, &mut clock);
                    let (hooks, rounds) = (clock.hooks, clock.rounds_ns);
                    (end, hooks, rounds, None, Some(hooks))
                }
                (None, None) => {
                    let mut clock = RoundClock::new(&mut proto, start);
                    let end = engine.run_session(cap, &mut clock);
                    let (hooks, rounds) = (clock.hooks, clock.rounds_ns);
                    (end, hooks, rounds, None, None)
                }
            };
        let drive_end = Instant::now();
        let proto_s = proto.busy.as_secs_f64();
        let verify_total = verify_level.map_or(proto_s, |d| d.as_secs_f64());
        {
            let mut rec = self.record.borrow_mut();
            rec.drive = Some((start, drive_end));
            rec.rounds_ns = rounds_ns;
            rec.hooks_s = clock_hooks.as_secs_f64();
            rec.proto_obs_s = proto_s;
            rec.verify_s = verify_total - proto_s;
            rec.trace_s = trace_level.map_or(0.0, |d| d.as_secs_f64() - verify_total);
        }
        *self.tees.borrow_mut() = Some(tees);
        end
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<Self::Node>> {
        Box::new(ViewProbe(self.inner.trace_probe(net)))
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<Self::Node>>> {
        self.inner
            .verify_checks(net, workload, clean)
            .into_iter()
            .map(|c| Box::new(ViewCheck(c)) as Box<dyn Check<Self::Node>>)
            .collect()
    }

    fn finish(&self, obs: Self::Obs, nodes: &[Self::Node], end: &SessionEnd) -> Self::Meta {
        let tees = self.tees.borrow_mut().take();
        let mut rec = self.record.borrow_mut();
        if let Some(Tees { stack, collector }) = tees {
            if let Some(mut stack) = stack {
                stack.session_end(nodes, end);
                rec.violations = stack.total_violations();
                rec.violation_summary = stack.summary(8);
            }
            rec.trace = collector.map(TraceCollector::finish);
        }
        let start = Instant::now();
        let meta = self.inner.finish(obs.0, inner_nodes(nodes), end);
        rec.finish = Some((start, Instant::now()));
        meta
    }
}

impl<'a, O> RoundClock<'a, O> {
    fn new(inner: &'a mut O, start: Instant) -> Self {
        RoundClock {
            inner,
            last: start,
            hooks: Duration::ZERO,
            rounds_ns: Vec::new(),
        }
    }
}
