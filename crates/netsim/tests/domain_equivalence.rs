//! Property test: a domain-sharded run (2 or 4 domains, worker threads,
//! conservative lookahead windows) produces exactly the same simulation as
//! the single-queue run, over randomized star and dumbbell topologies with
//! loss, delay spread and membership churn.
//!
//! This is the byte-identical-replay contract of `netsim::sim`'s parallel
//! core: partitioning moves state and RNG streams into per-domain shards,
//! cross-domain packets travel through deterministic handoff mailboxes, and
//! membership transitions are replayed by global queue position — so the
//! full delivery sequences, per-link statistics and the stats digest match
//! the `domains=1` run bit for bit, for any domain count.

use std::any::Any;

use netsim::prelude::*;
use netsim::sim::Agent;
use proptest::prelude::*;

/// Payload carrying a recognizable sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Marked {
    seq: u64,
}

/// Joins `group`, records every delivery, and toggles its membership on a
/// per-receiver cycle when configured — churn is what drives the
/// cross-domain membership-delta machinery.
struct ChurningMember {
    group: GroupId,
    toggle_every: Option<f64>,
    joined: bool,
    // (time, payload seq, size).  Raw packet ids are excluded on purpose:
    // shards allocate ids in disjoint arithmetic progressions (`id_stride`),
    // so the numbers differ by domain count while the packets themselves —
    // arrival time, payload, size, order — are identical.
    log: Vec<(SimTime, u64, u32)>,
}

impl Agent for ChurningMember {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.join_group(self.group);
        self.joined = true;
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if self.joined {
            ctx.leave_group(self.group);
        } else {
            ctx.join_group(self.group);
        }
        self.joined = !self.joined;
        if let Some(t) = self.toggle_every {
            ctx.schedule(t, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let seq = packet
            .payload
            .downcast_ref::<Marked>()
            .map(|m| m.seq)
            .unwrap_or(u64::MAX);
        self.log.push((ctx.now(), seq, packet.size));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Multicast source sending `count` marked packets at a fixed interval.
struct MarkedSource {
    dst: Dest,
    count: u64,
    interval: f64,
    sent: u64,
}

impl Agent for MarkedSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        if self.count > 0 {
            ctx.schedule(0.01, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        let pkt = Packet::new(
            ctx.addr(),
            self.dst,
            400 + (self.sent % 3) as u32 * 300,
            FlowId(1),
            Payload::new(Marked { seq: self.sent }),
        );
        ctx.send(pkt);
        self.sent += 1;
        if self.sent < self.count {
            ctx.schedule(self.interval, 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Which topology shape a scenario instance builds.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One hub, every receiver on its own leg — each leg is a bottleneck
    /// domain of its own.
    Star,
    /// Two hubs joined by a bottleneck; receivers split between the sides,
    /// the source on the left — multicast traffic crosses the cut.
    Dumbbell,
}

/// The observable outcome of one scenario run: per-receiver delivery logs,
/// summed link delivery/drop counters and the stats digest.
struct Outcome {
    logs: Vec<Vec<(SimTime, u64, u32)>>,
    delivered: u64,
    dropped: u64,
    digest: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_scenario(
    shape: Shape,
    domains: usize,
    seed: u64,
    receivers: usize,
    churners: usize,
    loss_percent: u64,
    packet_count: u64,
    toggle_every_ms: u64,
) -> Outcome {
    let mut sim = Simulator::new(seed);
    sim.set_domains(domains);
    let group = GroupId(3);
    let mut ids = Vec::new();
    let mut rx_links = Vec::new();
    let mut add_member = |sim: &mut Simulator, node: NodeId, i: usize| {
        let toggle_every = if i < churners {
            Some(0.05 + toggle_every_ms as f64 / 1000.0 + 0.013 * i as f64)
        } else {
            None
        };
        ids.push(sim.add_agent(
            node,
            Port(7),
            Box::new(ChurningMember {
                group,
                toggle_every,
                joined: false,
                log: Vec::new(),
            }),
        ));
    };
    let sender_node = match shape {
        Shape::Star => {
            let legs: Vec<StarLeg> = (0..receivers)
                .map(|i| {
                    let mut leg = StarLeg::clean(
                        50_000.0 + 10_000.0 * (i % 4) as f64,
                        0.005 + 0.002 * (i % 3) as f64,
                    );
                    if i % 2 == 0 && loss_percent > 0 {
                        leg = leg.with_downstream_loss(loss_percent as f64 / 100.0);
                    }
                    leg
                })
                .collect();
            let star = star(&mut sim, &StarConfig::default(), &legs);
            for (i, &node) in star.receivers.iter().enumerate() {
                add_member(&mut sim, node, i);
            }
            rx_links = star.downstream_links.clone();
            star.sender
        }
        Shape::Dumbbell => {
            let left = sim.add_node("left");
            let right = sim.add_node("right");
            sim.add_duplex_link(left, right, 120_000.0, 0.02, QueueDiscipline::drop_tail(20));
            let sender = sim.add_node("src");
            sim.add_duplex_link(
                sender,
                left,
                200_000.0,
                0.004,
                QueueDiscipline::drop_tail(30),
            );
            for i in 0..receivers {
                let hub = if i % 3 == 0 { left } else { right };
                let node = sim.add_node(&format!("r{i}"));
                let (down, _up) = sim.add_duplex_link(
                    hub,
                    node,
                    60_000.0 + 8_000.0 * (i % 4) as f64,
                    0.005 + 0.002 * (i % 3) as f64,
                    QueueDiscipline::drop_tail(12),
                );
                if i % 2 == 0 && loss_percent > 0 {
                    sim.set_link_loss(
                        down,
                        LossModel::Bernoulli {
                            p: loss_percent as f64 / 100.0,
                        },
                    );
                }
                rx_links.push(down);
                add_member(&mut sim, node, i);
            }
            sender
        }
    };
    sim.add_agent(
        sender_node,
        Port(7),
        Box::new(MarkedSource {
            dst: Dest::Multicast {
                group,
                port: Port(7),
            },
            count: packet_count,
            interval: 0.02,
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(3.0));
    let logs = ids
        .iter()
        .map(|&id| sim.agent::<ChurningMember>(id).unwrap().log.clone())
        .collect();
    let mut delivered = 0;
    let mut dropped = 0;
    for &l in &rx_links {
        let stats = sim.link_stats(l);
        delivered += stats.delivered;
        dropped += stats.dropped_loss + stats.dropped_queue;
    }
    Outcome {
        logs,
        delivered,
        dropped,
        digest: sim.stats().digest(),
    }
}

proptest! {
    // Each case runs a topology shape under 3 domain counts
    // (case count comes from PROPTEST_CASES, default 64).
    #[test]
    fn sharded_runs_match_single_queue_bit_for_bit(
        seed in 0u64..1_000_000,
        star_shape in any::<bool>(),
        receivers in 2usize..10,
        churn_fraction in 0usize..3,
        loss_percent in 0u64..30,
        packet_count in 1u64..40,
        toggle_every_ms in 0u64..400,
    ) {
        let shape = if star_shape { Shape::Star } else { Shape::Dumbbell };
        let churners = receivers * churn_fraction / 2;
        let single = run_scenario(
            shape, 1,
            seed, receivers, churners, loss_percent, packet_count, toggle_every_ms,
        );
        for domains in [2usize, 4] {
            let sharded = run_scenario(
                shape, domains,
                seed, receivers, churners, loss_percent, packet_count, toggle_every_ms,
            );
            prop_assert_eq!(&single.logs, &sharded.logs,
                "delivery sequences diverged at {:?} domains={}", shape, domains);
            prop_assert_eq!(single.delivered, sharded.delivered,
                "delivered link counts diverged at {:?} domains={}", shape, domains);
            prop_assert_eq!(single.dropped, sharded.dropped,
                "drop counts diverged at {:?} domains={}", shape, domains);
            prop_assert_eq!(single.digest, sharded.digest,
                "stats digests diverged at {:?} domains={}", shape, domains);
        }
    }
}
