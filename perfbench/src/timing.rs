//! The traced run's agent layer: a timing [`Agent`] wrapper and the
//! per-kind call statistics it feeds.
//!
//! [`Timed`] forwards every callback to the agent it wraps and records the
//! call's wall time into a fixed-bucket histogram of the agent's [`Kind`].
//! `as_any`/`as_any_mut` forward too, so `Simulator::agent::<T>()` still
//! downcasts to the wrapped type and the run is read out exactly as an
//! unwrapped one.  Agents never call each other (they only schedule events
//! through their `Context`), so call spans do not nest and a call's
//! duration is its self time.  That self time includes the engine work the
//! agent triggers inline through its `Context` (`send`, `schedule`,
//! `cancel`, `join_group`).
//!
//! The statistics live in a thread-local table rather than in the wrapper:
//! the simulator owns the boxed agents, and the benchmark runs one
//! simulation at a time on one thread.

use std::any::Any;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use netsim::packet::Packet;
use netsim::sim::{Agent, Context};

use crate::hist::Histogram;

/// The agent kinds the benchmark tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GroupSink,
    CbrSource,
    TfmccReceiver,
    TfmccSender,
    TfrcReceiver,
    TfrcSender,
    PgmccSender,
    PgmccReceiver,
    TcpSender,
    TcpSink,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::GroupSink,
        Kind::CbrSource,
        Kind::TfmccReceiver,
        Kind::TfmccSender,
        Kind::TfrcReceiver,
        Kind::TfrcSender,
        Kind::PgmccSender,
        Kind::PgmccReceiver,
        Kind::TcpSender,
        Kind::TcpSink,
    ];

    /// Metric name fragment (`agents.<name>.…`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::GroupSink => "group_sink",
            Kind::CbrSource => "cbr_source",
            Kind::TfmccReceiver => "tfmcc_receiver",
            Kind::TfmccSender => "tfmcc_sender",
            Kind::TfrcReceiver => "tfrc_receiver",
            Kind::TfrcSender => "tfrc_sender",
            Kind::PgmccSender => "pgmcc_sender",
            Kind::PgmccReceiver => "pgmcc_receiver",
            Kind::TcpSender => "tcp_sender",
            Kind::TcpSink => "tcp_sink",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Call statistics of one agent kind.
#[derive(Clone, Default)]
pub struct KindStats {
    pub packets: u64,
    pub busy_ns: u64,
    pub calls_ns: Histogram,
}

impl KindStats {
    pub fn calls(&self) -> u64 {
        self.calls_ns.count()
    }
}

thread_local! {
    static STATS: RefCell<Vec<KindStats>> =
        RefCell::new(vec![KindStats::default(); Kind::ALL.len()]);
}

/// Clears the per-kind statistics (at the start of a traced repetition).
pub fn reset() {
    STATS.with(|s| {
        for k in s.borrow_mut().iter_mut() {
            *k = KindStats::default();
        }
    });
}

/// A copy of the per-kind statistics, indexed by [`Kind::index`].
pub fn snapshot() -> Vec<KindStats> {
    STATS.with(|s| s.borrow().clone())
}

fn record(kind: Kind, start: Instant, packet: bool) {
    let ns = start.elapsed().as_nanos() as u64;
    STATS.with(|s| {
        let k = &mut s.borrow_mut()[kind.index()];
        k.busy_ns += ns;
        k.packets += u64::from(packet);
        k.calls_ns.record(ns);
    });
}

/// Wall cost, in nanoseconds, of one timestamp pair as [`Timed`] takes it,
/// measured over `pairs` back-to-back pairs.
pub fn clock_pair_ns(pairs: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..pairs {
        let t = Instant::now();
        black_box(t.elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(pairs)
}

/// The wrapper's own cost per call, in nanoseconds, split where the
/// recorded call time splits it.
#[derive(Debug, Clone, Copy)]
pub struct WrapperCost {
    /// Lands inside the recorded call time: the closing clock read.
    pub inside_ns: f64,
    /// Lands outside it, in the engine's share of the run: the opening
    /// clock read and the statistics update.
    pub outside_ns: f64,
}

impl WrapperCost {
    pub fn per_call_ns(self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// Measures [`WrapperCost`] over `calls` timed calls of an empty agent,
/// taken exactly as [`Timed`] takes them.  Clears the per-kind statistics.
pub fn wrapper_cost(calls: u32) -> WrapperCost {
    reset();
    let start = Instant::now();
    for _ in 0..calls {
        let t = Instant::now();
        black_box(());
        record(Kind::GroupSink, black_box(t), false);
    }
    let total = start.elapsed().as_nanos() as f64 / f64::from(calls);
    let inside = snapshot()[Kind::GroupSink.index()].busy_ns as f64 / f64::from(calls);
    reset();
    WrapperCost {
        inside_ns: inside,
        outside_ns: total - inside,
    }
}

/// Wraps an agent, timing each callback under `kind`.
pub struct Timed {
    inner: Box<dyn Agent>,
    kind: Kind,
}

impl Timed {
    pub fn new(kind: Kind, inner: Box<dyn Agent>) -> Self {
        Timed { inner, kind }
    }
}

impl Agent for Timed {
    fn start(&mut self, ctx: &mut Context<'_>) {
        let t = Instant::now();
        self.inner.start(ctx);
        record(self.kind, t, false);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        let t = Instant::now();
        self.inner.on_packet(ctx, packet);
        record(self.kind, t, true);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        record(self.kind, t, false);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
