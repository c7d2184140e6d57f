//! Whole-simulator heap bound: a 10⁴-leg multicast CBR star with churning
//! sinks must hold memory in proportion to its live state (nodes, links,
//! agents, meters) plus the pending events — not to the number of events it
//! has processed.
//!
//! The test builds the star, runs it, and measures the *net* heap bytes the
//! simulator retains after the run through a counting global allocator.
//! The per-leg bound is pinned: a change that makes the engine keep more
//! memory per leg (a queue that holds on to burst capacity, a cache that
//! never shrinks) must raise it deliberately.
//!
//! The file contains exactly one test: the byte counter is process-global,
//! and a concurrently running sibling test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use netsim::prelude::*;

/// Legs of the star (one receiver node, two links and one sink per leg).
const LEGS: usize = 10_000;

/// Simulated seconds: 100 multicast packets, each fanned out to every
/// joined leg, with every tenth sink leaving and rejoining several times.
/// Short enough for a debug-build `cargo test`.
const HORIZON: f64 = 2.0;

/// Pinned upper bound on the heap bytes the simulator retains per leg after
/// the run.  Measured 3256 B per leg on x86-64 Linux (2046 B of it already
/// there after the build; the rest is mostly the event queue's capacity for
/// one fan-out burst of ~10⁴ events); the bound adds ~25 % headroom for
/// allocator and container-growth drift across toolchains.  An event queue
/// that keeps per-bucket burst capacity, as a calendar queue with one deque
/// per bucket does, retains about 19 kB per leg here and fails.
const MAX_HEAP_BYTES_PER_LEG: i64 = 4_096;

// Twin of the allocator in `crates/tfmcc-proto/tests/receiver_mem.rs` — a
// `#[global_allocator]` must live in the binary that uses it, so the ~30
// lines are duplicated rather than shipped in a library crate; keep the two
// in sync.
struct NetCountingAllocator;

static NET_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with unchanged arguments; the
// added Relaxed counter update cannot affect the allocator contract.
unsafe impl GlobalAlloc for NetCountingAllocator {
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        NET_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        NET_BYTES.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: NetCountingAllocator = NetCountingAllocator;

#[test]
fn churning_cbr_star_heap_stays_under_pinned_per_leg_bound() {
    let before = NET_BYTES.load(Relaxed);
    let mut sim = Simulator::new(1);
    // The bound is about the single-queue engine; a sharded run would add
    // per-domain copies while it runs.
    sim.set_domains(1);
    let legs: Vec<StarLeg> = (0..LEGS).map(|_| StarLeg::clean(125_000.0, 0.02)).collect();
    let st = star(&mut sim, &StarConfig::default(), &legs);
    let group = GroupId(1);
    let mut sinks = Vec::with_capacity(LEGS);
    for (i, &r) in st.receivers.iter().enumerate() {
        let mut sink = GroupSink::new(group, 1.0);
        if i % 10 == 1 {
            sink = sink.churning(0.25 + (i % 7) as f64 * 0.05);
        }
        sinks.push(sim.add_agent(r, Port(5), Box::new(sink)));
    }
    let dst = Dest::Multicast {
        group,
        port: Port(5),
    };
    sim.add_agent(
        st.sender,
        Port(5),
        Box::new(CbrSource::new(dst, FlowId(1), 1000, 50_000.0, 0.0)),
    );
    let built = NET_BYTES.load(Relaxed) - before;

    sim.run_until(SimTime::from_secs(HORIZON));
    let retained = NET_BYTES.load(Relaxed) - before;

    let delivered: u64 = sinks
        .iter()
        .map(|&s| sim.agent::<GroupSink>(s).expect("group sink").packets())
        .sum();
    // Every leg got most of the 100 packets: the run really exercised the
    // fan-out, the per-leg links and the membership churn.
    assert!(
        delivered > 90 * LEGS as u64,
        "only {delivered} deliveries over {LEGS} legs"
    );
    let per_leg = retained / LEGS as i64;
    eprintln!(
        "simulator footprint: {} B/leg after build, {per_leg} B/leg after the run \
         ({} events, {:?})",
        built / LEGS as i64,
        sim.events_processed(),
        sim.scheduler_diagnostics()
    );
    assert!(
        per_leg <= MAX_HEAP_BYTES_PER_LEG,
        "the simulator retains {per_leg} heap bytes per leg after the run, over the \
         pinned {MAX_HEAP_BYTES_PER_LEG}-byte bound ({} MB at {LEGS} legs)",
        retained / (1 << 20)
    );
}
