//! The three benchmark workloads: input generation from a seed, the two
//! ways of building them (through the program's own builders, or by hand
//! from the agent constructors with every agent wrapped in [`Timed`]), and
//! the read-out of a finished run.

use std::time::Instant;

use netsim::prelude::*;
use netsim::stats::ThroughputMeter;
use tfmcc_agents::manager::{jain_index, SessionAddressing, SessionManager, SessionSpec};
use tfmcc_agents::{PopulationSpec, ReceiverSpec, TfmccReceiverAgent, TfmccSenderAgent};
use tfmcc_pgmcc::{PgmccReceiverAgent, PgmccSenderAgent};
use tfmcc_proto::config::TfmccConfig;
use tfmcc_proto::packets::ReceiverId;
use tfmcc_proto::receiver::ReceiverStats;
use tfmcc_proto::sender::{SenderStats, TfmccSender};
use tfmcc_tcp::{TcpSender, TcpSenderConfig, TcpSink};
use tfmcc_tfrc::TfrcSessionBuilder;

use crate::alloc;
use crate::timing::{Kind, Timed};

/// Size of every data packet in every workload (CBR, TFMCC/TFRC, PGMCC and
/// TCP all default to 1000 B), which turns delivered bytes into packets.
pub const DATA_PACKET: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StarCbrChurn,
    TfmccChurn,
    AqmMelee,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StarCbrChurn,
        Workload::TfmccChurn,
        Workload::AqmMelee,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarCbrChurn => "star_cbr_churn",
            Workload::TfmccChurn => "tfmcc_churn",
            Workload::AqmMelee => "aqm_melee",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds per set-up sample, so that one sample takes milliseconds:
    /// one build of the star takes ~6 ms, of the TFMCC session ~1 ms, and
    /// of the melee ~5 µs.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::StarCbrChurn => 1,
            Workload::TfmccChurn => 4,
            Workload::AqmMelee => 1_000,
        }
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNGs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One receiver of the TFMCC churn session: join time and churn cycle.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    pub join_at: f64,
    pub churn: Option<(f64, f64)>,
}

/// The generated inputs of one workload instance.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `scale_probe`'s CBR star: one churn period per churning sink.
    StarCbrChurn {
        sim_seed: u64,
        churn: Vec<Option<f64>>,
        horizon: f64,
    },
    /// fig22's churn point: per-leg delay and membership per receiver.
    TfmccChurn {
        sim_seed: u64,
        leg_delays: Vec<f64>,
        members: Vec<Member>,
        horizon: f64,
    },
    /// fig24's four-way melee over gentle RED.
    AqmMelee { sim_seed: u64, horizon: f64 },
}

const STAR_LEGS: usize = 10_000;
const STAR_HORIZON: f64 = 10.0;
const CHURN_RECEIVERS: usize = 1_000;
const CHURN_HORIZON: f64 = 60.0;
const MELEE_HORIZON: f64 = 1_200.0;

impl Spec {
    fn generate(workload: Workload, seed: u64) -> Spec {
        let mut g = Gen(seed);
        let sim_seed = g.next();
        match workload {
            Workload::StarCbrChurn => Spec::StarCbrChurn {
                sim_seed,
                churn: (0..STAR_LEGS)
                    .map(|i| (i % 10 == 1).then(|| g.uniform(0.25, 0.55)))
                    .collect(),
                horizon: STAR_HORIZON,
            },
            Workload::TfmccChurn => {
                let leg_delays = (0..CHURN_RECEIVERS)
                    .map(|_| g.uniform(0.01, 0.05))
                    .collect();
                let cycle = CHURN_HORIZON.min(20.0);
                let members = (0..CHURN_RECEIVERS)
                    .map(|i| {
                        if i == 0 {
                            // The persistent probe receiver.
                            return Member {
                                join_at: 0.0,
                                churn: None,
                            };
                        }
                        let join_at = g.uniform(0.0, 2.0);
                        let churn = (i % 5 == 1).then(|| {
                            (g.uniform(0.25, 0.55) * cycle, g.uniform(0.08, 0.20) * cycle)
                        });
                        Member { join_at, churn }
                    })
                    .collect();
                Spec::TfmccChurn {
                    sim_seed,
                    leg_delays,
                    members,
                    horizon: CHURN_HORIZON,
                }
            }
            Workload::AqmMelee => Spec::AqmMelee {
                sim_seed,
                horizon: MELEE_HORIZON,
            },
        }
    }

    /// `count` independent instances drawn from `seed`.
    pub fn instances(workload: Workload, seed: u64, count: usize) -> Vec<Spec> {
        let mut g = Gen(seed);
        (0..count)
            .map(|_| Spec::generate(workload, g.next()))
            .collect()
    }

    pub fn horizon(&self) -> f64 {
        match *self {
            Spec::StarCbrChurn { horizon, .. }
            | Spec::TfmccChurn { horizon, .. }
            | Spec::AqmMelee { horizon, .. } => horizon,
        }
    }
}

/// A built simulation plus everything needed to read it out.
pub struct Built {
    pub sim: Simulator,
    pub horizon: f64,
    /// Agent ids per [`Kind::index`].
    pub agents: Vec<Vec<AgentId>>,
    /// Receiving agent of each competing flow (melee only).
    pub flows: Vec<(Kind, AgentId)>,
    pub links: Vec<LinkId>,
    /// The link whose queue is the workload's bottleneck.
    pub bottleneck: LinkId,
    /// Fan-out stage: the link feeding the replicating node, and the links
    /// leaving it towards the receivers.
    pub fanout_in: LinkId,
    pub fanout_out: Vec<LinkId>,
    pub topology_s: f64,
    pub agents_s: f64,
    pub topology_bytes: i64,
    pub agents_bytes: i64,
}

/// Adds agents, wrapped in [`Timed`] for the traced build, and records
/// their ids by kind.
struct Adder {
    traced: bool,
    agents: Vec<Vec<AgentId>>,
}

impl Adder {
    fn add(
        &mut self,
        sim: &mut Simulator,
        node: NodeId,
        port: Port,
        kind: Kind,
        agent: Box<dyn Agent>,
    ) -> AgentId {
        let agent = if self.traced {
            Box::new(Timed::new(kind, agent))
        } else {
            agent
        };
        let id = sim.add_agent(node, port, agent);
        self.agents[kind.index()].push(id);
        id
    }

    fn note(&mut self, kind: Kind, id: AgentId) {
        self.agents[kind.index()].push(id);
    }
}

/// Topology half of a build.
struct Net {
    links: Vec<LinkId>,
    bottleneck: LinkId,
    fanout_in: LinkId,
    fanout_out: Vec<LinkId>,
}

/// The links of a star.  `Star` names only the sender's uplink; its
/// reverse is the next link id, since `add_duplex_link` adds the pair
/// back to back.
fn star_net(st: &Star) -> Net {
    let mut links = vec![st.sender_uplink, LinkId(st.sender_uplink.0 + 1)];
    for (d, u) in st.downstream_links.iter().zip(&st.upstream_links) {
        links.push(*d);
        links.push(*u);
    }
    Net {
        links,
        bottleneck: st.sender_uplink,
        fanout_in: st.sender_uplink,
        fanout_out: st.downstream_links.clone(),
    }
}

/// Wall clock and live heap at a point of the build.
fn mark() -> (Instant, i64) {
    (Instant::now(), alloc::live())
}

/// Builds `spec`: the untraced build goes through the program's own session
/// builders, the traced build constructs the same agents by hand, in the
/// same order, each wrapped in [`Timed`].
pub fn build(spec: &Spec, traced: bool) -> Built {
    let (t0, heap0) = mark();
    let sim_seed = match *spec {
        Spec::StarCbrChurn { sim_seed, .. }
        | Spec::TfmccChurn { sim_seed, .. }
        | Spec::AqmMelee { sim_seed, .. } => sim_seed,
    };
    let mut sim = Simulator::new(sim_seed);
    sim.set_domains(1);
    let mut adder = Adder {
        traced,
        agents: vec![Vec::new(); Kind::ALL.len()],
    };
    let mut flows = Vec::new();
    // Each arm returns the marks after the topology and after the agents;
    // the benchmark's own bookkeeping (`Net`) comes after both.
    let (net, (t1, heap1), (t2, heap2)) = match spec {
        Spec::StarCbrChurn { churn, .. } => {
            let legs: Vec<StarLeg> = churn
                .iter()
                .map(|_| StarLeg::clean(125_000.0, 0.02))
                .collect();
            let st = star(&mut sim, &StarConfig::default(), &legs);
            let topology = mark();
            let group = GroupId(1);
            for (&r, period) in st.receivers.iter().zip(churn) {
                let mut sink = GroupSink::new(group, 1.0);
                if let Some(p) = *period {
                    sink = sink.churning(p);
                }
                adder.add(&mut sim, r, Port(5), Kind::GroupSink, Box::new(sink));
            }
            let dst = Dest::Multicast {
                group,
                port: Port(5),
            };
            let cbr = CbrSource::new(dst, FlowId(1), DATA_PACKET as u32, 50_000.0, 0.0);
            adder.add(&mut sim, st.sender, Port(5), Kind::CbrSource, Box::new(cbr));
            let agents = mark();
            (star_net(&st), topology, agents)
        }
        Spec::TfmccChurn {
            leg_delays,
            members,
            ..
        } => {
            let legs: Vec<StarLeg> = leg_delays
                .iter()
                .map(|&d| StarLeg::clean(125_000.0, d).with_queue(QueueDiscipline::drop_tail(30)))
                .collect();
            let cfg = StarConfig {
                sender_bandwidth: 125_000.0, // the 1 Mbit/s source bottleneck
                sender_delay: 0.002,
                sender_queue: QueueDiscipline::drop_tail(100),
            };
            let st = star(&mut sim, &cfg, &legs);
            let topology = mark();
            let receivers: Vec<ReceiverSpec> = st
                .receivers
                .iter()
                .zip(members)
                .map(|(&node, m)| {
                    let r = ReceiverSpec::joining_at(node, m.join_at);
                    match m.churn {
                        Some((on, off)) => r.churning(on, off),
                        None => r,
                    }
                })
                .collect();
            let mut manager = SessionManager::new();
            if traced {
                let addr = manager.reserve_addressing();
                tfmcc_by_hand(&mut adder, &mut sim, addr, st.sender, &receivers, false);
            } else {
                let id = manager.add_population_session(
                    &mut sim,
                    &SessionSpec::default(),
                    st.sender,
                    &PopulationSpec::packets(&receivers),
                );
                let handle = manager.session(id);
                adder.note(Kind::TfmccSender, handle.sender);
                for &r in &handle.receivers {
                    adder.note(Kind::TfmccReceiver, r);
                }
            }
            let agents = mark();
            (star_net(&st), topology, agents)
        }
        Spec::AqmMelee { .. } => build_melee(&mut sim, &mut adder, &mut flows),
    };
    Built {
        sim,
        horizon: spec.horizon(),
        agents: adder.agents,
        flows,
        links: net.links,
        bottleneck: net.bottleneck,
        fanout_in: net.fanout_in,
        fanout_out: net.fanout_out,
        topology_s: (t1 - t0).as_secs_f64(),
        agents_s: (t2 - t1).as_secs_f64(),
        topology_bytes: heap1 - heap0,
        agents_bytes: heap2 - heap1,
    }
}

/// A TFMCC (or, with one always-on receiver, TFRC) session built from the
/// agent constructors exactly as `SessionManager::add_population_session`
/// builds it with a default `SessionSpec`.
fn tfmcc_by_hand(
    adder: &mut Adder,
    sim: &mut Simulator,
    addr: SessionAddressing,
    sender_node: NodeId,
    receivers: &[ReceiverSpec],
    tfrc: bool,
) {
    let (sender_kind, receiver_kind) = if tfrc {
        (Kind::TfrcSender, Kind::TfrcReceiver)
    } else {
        (Kind::TfmccSender, Kind::TfmccReceiver)
    };
    let config = TfmccConfig::default();
    let sender = TfmccSenderAgent::new(
        TfmccSender::new(config.clone()),
        addr.group,
        addr.data_port,
        addr.flow,
    )
    .starting_at(0.0);
    adder.add(
        sim,
        sender_node,
        addr.sender_port,
        sender_kind,
        Box::new(sender),
    );
    let sender_addr = Address::new(sender_node, addr.sender_port);
    for (i, r) in receivers.iter().enumerate() {
        let mut agent = TfmccReceiverAgent::new(
            ReceiverId(i as u64 + 1),
            config.clone(),
            sender_addr,
            addr.group,
            addr.flow,
        )
        .with_meter_bin(1.0)
        .joining_at(r.join_at);
        if let Some((on, off)) = r.churn {
            agent = agent.churning(on, off);
        }
        adder.add(sim, r.node, addr.data_port, receiver_kind, Box::new(agent));
    }
}

/// fig24's melee: TFMCC, PGMCC, TFRC and TCP through an 8 Mbit/s gentle-RED
/// core, each flow with its own clean access links.
fn build_melee(
    sim: &mut Simulator,
    adder: &mut Adder,
    flows: &mut Vec<(Kind, AgentId)>,
) -> (Net, (Instant, i64), (Instant, i64)) {
    let left = sim.add_node("left");
    let right = sim.add_node("right");
    let (core, _) = sim.add_duplex_link(
        left,
        right,
        1_000_000.0,
        0.02,
        QueueDiscipline::red_gentle(50),
    );
    let mut links = vec![core, LinkId(core.0 + 1)];
    let mut fanout_out = Vec::new();
    let mut ends = Vec::new();
    for i in 0..4 {
        let sender = sim.add_node(&format!("s{i}"));
        let receiver = sim.add_node(&format!("r{i}"));
        let (a, b) = sim.add_duplex_link(
            sender,
            left,
            1_250_000.0,
            0.005,
            QueueDiscipline::drop_tail(60),
        );
        let (c, d) = sim.add_duplex_link(
            right,
            receiver,
            1_250_000.0,
            0.005 + 0.002 * (i % 4) as f64,
            QueueDiscipline::drop_tail(60),
        );
        links.extend([a, b, c, d]);
        fanout_out.push(c);
        ends.push((sender, receiver));
    }
    let topology = mark();

    let mut manager = SessionManager::new();
    // TFMCC.
    let (sender, receiver) = ends[0];
    if adder.traced {
        let addr = manager.reserve_addressing();
        tfmcc_by_hand(
            adder,
            sim,
            addr,
            sender,
            &[ReceiverSpec::always(receiver)],
            false,
        );
    } else {
        let id = manager.add_population_session(
            sim,
            &SessionSpec::default(),
            sender,
            &[PopulationSpec::packet(receiver)],
        );
        adder.note(Kind::TfmccSender, manager.session(id).sender);
        adder.note(Kind::TfmccReceiver, manager.session(id).receivers[0]);
    }
    flows.push((
        Kind::TfmccReceiver,
        adder.agents[Kind::TfmccReceiver.index()][0],
    ));
    // PGMCC.
    let (sender, receiver) = ends[1];
    let addr = manager.reserve_addressing();
    let pgmcc = PgmccSenderAgent::new(addr.group, addr.data_port, addr.flow, DATA_PACKET as u32);
    let sender_agent = adder.add(
        sim,
        sender,
        addr.sender_port,
        Kind::PgmccSender,
        Box::new(pgmcc),
    );
    let pgmcc = PgmccReceiverAgent::new(1, sim.agent_addr(sender_agent), addr.group, addr.flow);
    let id = adder.add(
        sim,
        receiver,
        addr.data_port,
        Kind::PgmccReceiver,
        Box::new(pgmcc),
    );
    flows.push((Kind::PgmccReceiver, id));
    // TFRC.
    let (sender, receiver) = ends[2];
    let addr = manager.reserve_addressing();
    if adder.traced {
        tfmcc_by_hand(
            adder,
            sim,
            addr,
            sender,
            &[ReceiverSpec::always(receiver)],
            true,
        );
    } else {
        let session = TfrcSessionBuilder {
            flow: addr.flow,
            data_port: addr.data_port,
            sender_port: addr.sender_port,
            group: addr.group,
            ..TfrcSessionBuilder::default()
        }
        .build(sim, sender, receiver);
        adder.note(Kind::TfrcSender, session.sender());
        adder.note(Kind::TfrcReceiver, session.receiver());
    }
    flows.push((
        Kind::TfrcReceiver,
        adder.agents[Kind::TfrcReceiver.index()][0],
    ));
    // TCP.
    let (sender, receiver) = ends[3];
    let addr = manager.reserve_addressing();
    let sink = adder.add(
        sim,
        receiver,
        addr.data_port,
        Kind::TcpSink,
        Box::new(TcpSink::new(1.0)),
    );
    let tcp = TcpSender::new(TcpSenderConfig::new(
        Address::new(receiver, addr.data_port),
        addr.flow,
    ));
    adder.add(
        sim,
        sender,
        addr.sender_port,
        Kind::TcpSender,
        Box::new(tcp),
    );
    flows.push((Kind::TcpSink, sink));
    let agents = mark();

    let net = Net {
        links,
        bottleneck: core,
        fanout_in: core,
        fanout_out,
    };
    (net, topology, agents)
}

/// The receiving meter of a flow's receiving agent.
fn meter(sim: &Simulator, kind: Kind, id: AgentId) -> &ThroughputMeter {
    match kind {
        Kind::TfmccReceiver | Kind::TfrcReceiver => sim
            .agent::<TfmccReceiverAgent>(id)
            .expect("tfmcc receiver")
            .meter(),
        Kind::PgmccReceiver => sim
            .agent::<PgmccReceiverAgent>(id)
            .expect("pgmcc receiver")
            .meter(),
        Kind::TcpSink => sim.agent::<TcpSink>(id).expect("tcp sink").meter(),
        Kind::GroupSink => sim.agent::<GroupSink>(id).expect("group sink").meter(),
        other => panic!("{} agents receive no data", other.name()),
    }
}

/// Receiving kinds: the agents whose delivered data counts as a delivery.
const RECEIVING: [Kind; 5] = [
    Kind::GroupSink,
    Kind::TfmccReceiver,
    Kind::TfrcReceiver,
    Kind::PgmccReceiver,
    Kind::TcpSink,
];

/// FNV-1a over little-endian words, for the run fingerprint.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a finished run must reproduce exactly: the traced run against the
/// untraced one, and every repetition against the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// `StatsRegistry::digest` of the run.
    pub digest: u64,
    pub events: u64,
    /// Data packets delivered to the receiving agents.
    pub deliveries: u64,
    /// Hash over every agent's own counters and every link's statistics.
    pub fingerprint: u64,
}

/// Sum of the TFMCC-protocol receiver counters (TFMCC and TFRC receivers).
/// A churning receiver restarts its protocol state, and these counters,
/// on every rejoin, so they cover each receiver's last membership period.
pub fn receiver_stats(b: &Built) -> ReceiverStats {
    let mut sum = ReceiverStats::default();
    for kind in [Kind::TfmccReceiver, Kind::TfrcReceiver] {
        for &id in &b.agents[kind.index()] {
            let s = tfmcc_receiver(b, id).protocol().stats();
            sum.data_packets += s.data_packets;
            sum.feedback_sent += s.feedback_sent;
            sum.feedback_suppressed += s.feedback_suppressed;
            sum.rtt_measurements += s.rtt_measurements;
        }
    }
    sum
}

/// Sum of the TFMCC-protocol sender counters (TFMCC and TFRC senders).
pub fn sender_stats(b: &Built) -> SenderStats {
    let mut sum = SenderStats::default();
    for kind in [Kind::TfmccSender, Kind::TfrcSender] {
        for &id in &b.agents[kind.index()] {
            let s = tfmcc_sender(b, id).protocol().stats();
            sum.data_packets += s.data_packets;
            sum.feedback_received += s.feedback_received;
            sum.clr_changes += s.clr_changes;
            sum.clr_timeouts += s.clr_timeouts;
            sum.rounds += s.rounds;
            sum.max_clr_recovery_secs = sum.max_clr_recovery_secs.max(s.max_clr_recovery_secs);
        }
    }
    sum
}

fn tfmcc_receiver(b: &Built, id: AgentId) -> &TfmccReceiverAgent {
    b.sim.agent(id).expect("tfmcc receiver agent")
}

fn tfmcc_sender(b: &Built, id: AgentId) -> &TfmccSenderAgent {
    b.sim.agent(id).expect("tfmcc sender agent")
}

/// Sum of the statistics of `links`.
pub fn link_totals(sim: &Simulator, links: &[LinkId]) -> LinkStats {
    let mut t = LinkStats::default();
    for &l in links {
        let s = sim.link_stats(l);
        t.enqueued += s.enqueued;
        t.dropped_queue += s.dropped_queue;
        t.dropped_loss += s.dropped_loss;
        t.delivered += s.delivered;
        t.delivered_bytes += s.delivered_bytes;
    }
    t
}

/// Reads the run out through public accessors only.
pub fn outcome(b: &Built) -> Outcome {
    let sim = &b.sim;
    let mut deliveries = 0;
    for kind in RECEIVING {
        for &id in &b.agents[kind.index()] {
            deliveries += meter(sim, kind, id).total_bytes() / DATA_PACKET;
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for kind in Kind::ALL {
        for &id in &b.agents[kind.index()] {
            match kind {
                Kind::GroupSink => {
                    let s: &GroupSink = sim.agent(id).expect("group sink");
                    h.word(s.packets());
                    h.word(s.meter().total_bytes());
                }
                Kind::CbrSource => {
                    let s: &CbrSource = sim.agent(id).expect("cbr source");
                    h.word(s.sent_packets());
                }
                Kind::TfmccReceiver | Kind::TfrcReceiver => {
                    let r = tfmcc_receiver(b, id);
                    let s = r.protocol().stats();
                    for v in [
                        s.data_packets,
                        s.feedback_sent,
                        s.feedback_suppressed,
                        s.rtt_measurements,
                    ] {
                        h.word(v);
                    }
                    h.word(r.membership_changes());
                    h.word(r.meter().total_bytes());
                }
                Kind::TfmccSender | Kind::TfrcSender => {
                    let p = tfmcc_sender(b, id).protocol();
                    let s = p.stats();
                    for v in [
                        s.data_packets,
                        s.feedback_received,
                        s.clr_changes,
                        s.clr_timeouts,
                        s.rounds,
                    ] {
                        h.word(v);
                    }
                    h.word(s.max_clr_recovery_secs.to_bits());
                    h.word(p.current_rate().to_bits());
                }
                Kind::PgmccSender => {
                    let p: &PgmccSenderAgent = sim.agent(id).expect("pgmcc sender");
                    let s = p.stats();
                    for v in [s.data_packets, s.loss_events, s.acker_changes] {
                        h.word(v);
                    }
                    h.word(p.window().to_bits());
                }
                Kind::PgmccReceiver => {
                    let r: &PgmccReceiverAgent = sim.agent(id).expect("pgmcc receiver");
                    h.word(r.meter().total_bytes());
                    h.word(r.loss_rate().to_bits());
                }
                Kind::TcpSender => {
                    let t: &TcpSender = sim.agent(id).expect("tcp sender");
                    let s = t.stats();
                    for v in [
                        s.segments_sent,
                        s.retransmissions,
                        s.fast_retransmits,
                        s.timeouts,
                    ] {
                        h.word(v);
                    }
                    h.word(t.acked_meter().total_bytes());
                    h.word(t.cwnd().to_bits());
                }
                Kind::TcpSink => {
                    let s: &TcpSink = sim.agent(id).expect("tcp sink");
                    h.word(s.packets());
                    h.word(s.meter().total_bytes());
                }
            }
        }
    }
    for &l in &b.links {
        let s = sim.link_stats(l);
        for v in [
            s.enqueued,
            s.dropped_queue,
            s.dropped_loss,
            s.delivered,
            s.delivered_bytes,
        ] {
            h.word(v);
        }
    }
    Outcome {
        digest: sim.stats().digest(),
        events: sim.events_processed(),
        deliveries,
        fingerprint: h.0,
    }
}

/// The workload's own correctness conditions on a finished run.
pub fn check_invariants(spec: &Spec, b: &Built) -> Result<(), String> {
    let sim = &b.sim;
    for kind in RECEIVING {
        for &id in &b.agents[kind.index()] {
            let bytes = meter(sim, kind, id).total_bytes();
            if !bytes.is_multiple_of(DATA_PACKET) {
                return Err(format!(
                    "{} received {bytes} B, not whole {DATA_PACKET} B packets",
                    kind.name()
                ));
            }
        }
    }
    match spec {
        Spec::StarCbrChurn { churn, .. } => {
            // Per leg, sink packets trail the leg's `delivered` counter, which
            // counts a packet when its transmission ends: the packets still
            // propagating at the horizon, plus, for a churning sink, those
            // propagating when it leaves (they reach a node without a
            // subscriber and are discarded uncounted).  One leg holds at most
            // IN_FLIGHT packets of the 50-packet/s stream at a time.
            const IN_FLIGHT: u64 = 2;
            let sinks = &b.agents[Kind::GroupSink.index()];
            for (i, (&id, &leg)) in sinks.iter().zip(&b.fanout_out).enumerate() {
                let got = sim.agent::<GroupSink>(id).expect("group sink").packets();
                let delivered = sim.link_stats(leg).delivered;
                let leaves = churn[i].map_or(0, |period| {
                    ((b.horizon / period).floor() as u64).div_ceil(2)
                });
                let missed_max = (leaves + 1) * IN_FLIGHT;
                if got > delivered || delivered - got > missed_max {
                    return Err(format!(
                        "sink {i} got {got} packets but its leg delivered {delivered}"
                    ));
                }
            }
            let all = link_totals(sim, &b.links);
            if all.dropped_queue + all.dropped_loss != 0 {
                return Err(format!(
                    "clean legs dropped {} (queue) + {} (loss) packets",
                    all.dropped_queue, all.dropped_loss
                ));
            }
        }
        Spec::TfmccChurn { .. } => {
            let sender = sender_stats(b);
            if sender.clr_changes == 0 {
                return Err("no CLR was ever elected".into());
            }
            let probe = b.agents[Kind::TfmccReceiver.index()][0];
            let goodput = tfmcc_receiver(b, probe)
                .meter()
                .average_between(b.horizon * 0.4, b.horizon - 1.0);
            if goodput <= 0.0 {
                return Err("the probe receiver got no data".into());
            }
        }
        Spec::AqmMelee { .. } => {
            let (from, to) = (b.horizon * 0.3, b.horizon - 2.0);
            let rates: Vec<f64> = b
                .flows
                .iter()
                .map(|&(kind, id)| meter(sim, kind, id).average_between(from, to))
                .collect();
            if let Some(i) = rates.iter().position(|&r| r <= 0.0) {
                return Err(format!("{} flow got no throughput", b.flows[i].0.name()));
            }
            let jain = jain_index(rates.iter().copied());
            if !(jain > 0.0 && jain <= 1.0) {
                return Err(format!("Jain index {jain} outside (0, 1]"));
            }
        }
    }
    Ok(())
}
