//! Topology partitioning for parallel domain-sharded execution.
//!
//! A *bottleneck domain* is a connected component of the topology over its
//! **intra-domain** links — the links whose propagation delay is below a
//! delay threshold chosen so that at least the requested number of
//! components appears.  Star legs and dumbbell halves fall out naturally:
//! the long-delay (bottleneck / leg) links are cut, the short access links
//! stay internal.
//!
//! The cut links bound the *lookahead*: a packet crossing between domains
//! spends at least the minimum cut-link delay in flight, so two domains can
//! simulate a window of that length in parallel without either being able
//! to affect the other inside the window (conservative synchronization).
//! [`DomainPlan`] captures the node→domain assignment, the lookahead, and
//! the stage order used to replay multicast membership deltas
//! deterministically (see `DESIGN.md`, "Parallel domain sharding").
//!
//! Partitioning is pure and deterministic: the same topology and requested
//! domain count always produce the same plan.

use crate::routing::Edge;

/// How a topology is split into bottleneck domains for one sharded run.
#[derive(Debug, Clone)]
pub struct DomainPlan {
    /// Effective number of domains (≥ 2; may be lower than requested when
    /// the topology does not decompose that far).
    pub domains: usize,
    /// Conservative lookahead in seconds: the minimum delay over links whose
    /// endpoints live in different domains.  Domains advance in lockstep
    /// windows of this length.
    pub lookahead: f64,
    /// Domain index of every node.
    pub node_domain: Vec<u32>,
    /// Domain indices grouped into execution stages, deepest components
    /// first.  Within one synchronization window the stages run serially
    /// (domains inside a stage run in parallel), so multicast membership
    /// deltas recorded by a deep stage (receiver joins/leaves at leaf
    /// hosts) are visible to the shallower stages — the ones owning the
    /// routers between the source and the leaves — before those route any
    /// packet of the same window.
    pub stages: Vec<Vec<usize>>,
}

/// Resolves the requested domain count from the `TFMCC_DOMAINS` environment
/// variable.  Unset, empty, `1`, or unparsable values mean 1 (the
/// single-threaded path); unparsable values additionally warn on stderr.
pub fn domains_from_env() -> usize {
    match std::env::var("TFMCC_DOMAINS") {
        Ok(value) => {
            let trimmed = value.trim();
            if trimmed.is_empty() {
                return 1;
            }
            match trimmed.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!(
                        "warning: ignoring invalid TFMCC_DOMAINS value '{value}' (want a positive integer)"
                    );
                    1
                }
            }
        }
        Err(_) => 1,
    }
}

/// Deterministic union-find over node indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root index wins, keeping component representatives
            // deterministic regardless of union order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Computes a sharding plan, or `None` when the topology cannot be split
/// (fewer than two components under every threshold, no links at all, or
/// more depth classes than requested domains).  `weights[n]` is the number
/// of agents on node `n`, used to balance components across domains.
pub fn partition(
    nodes: usize,
    edges: &[Edge],
    weights: &[u64],
    requested: usize,
) -> Option<DomainPlan> {
    if requested < 2 || nodes < 2 || edges.is_empty() {
        return None;
    }

    // Candidate thresholds: the distinct link delays, largest first.  A
    // threshold δ cuts every link with delay ≥ δ; the largest δ yielding
    // enough components maximizes the lookahead and minimizes the cut.
    let mut delays: Vec<f64> = edges.iter().map(|e| e.delay).collect();
    delays.sort_by(|a, b| b.partial_cmp(a).expect("link delays are finite"));
    delays.dedup();

    let components_for = |threshold: f64| -> Vec<usize> {
        let mut uf = UnionFind::new(nodes);
        for e in edges {
            if e.delay < threshold {
                uf.union(e.from.0, e.to.0);
            }
        }
        (0..nodes).map(|n| uf.find(n)).collect()
    };

    // The largest threshold that splits the topology at all wins: it keeps
    // the cut minimal and the lookahead (= window length) maximal.  When it
    // yields fewer components than requested the plan degrades gracefully
    // to that count — a dumbbell asked for 4 domains still runs as its two
    // halves rather than shattering into tiny short-lookahead fragments.
    let mut chosen: Option<Vec<usize>> = None;
    for &delta in &delays {
        let roots = components_for(delta);
        if distinct_count(&roots) >= 2 {
            chosen = Some(roots);
            break;
        }
    }
    let roots = chosen?;

    // Densify component ids in first-appearance (node-id) order.
    let mut comp_of_root: Vec<(usize, usize)> = Vec::new();
    let mut comp: Vec<usize> = vec![usize::MAX; nodes];
    for n in 0..nodes {
        let root = roots[n];
        let id = match comp_of_root.iter().find(|(r, _)| *r == root) {
            Some(&(_, id)) => id,
            None => {
                let id = comp_of_root.len();
                comp_of_root.push((root, id));
                id
            }
        };
        comp[n] = id;
    }
    let n_comps = comp_of_root.len();

    // BFS depth from node 0 over the undirected topology (unreachable nodes
    // keep depth 0 — they cannot exchange packets with the main component).
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for e in edges {
        adjacency[e.from.0].push(e.to.0);
        adjacency[e.to.0].push(e.from.0);
    }
    let mut depth = vec![0usize; nodes];
    let mut seen = vec![false; nodes];
    let mut frontier = std::collections::VecDeque::new();
    seen[0] = true;
    frontier.push_back(0usize);
    while let Some(n) = frontier.pop_front() {
        for &m in &adjacency[n] {
            if !seen[m] {
                seen[m] = true;
                depth[m] = depth[n] + 1;
                frontier.push_back(m);
            }
        }
    }

    // Per-component depth class (max node depth) and agent weight.
    let mut comp_depth = vec![0usize; n_comps];
    let mut comp_weight = vec![0u64; n_comps];
    for n in 0..nodes {
        let c = comp[n];
        comp_depth[c] = comp_depth[c].max(depth[n]);
        comp_weight[c] += weights.get(n).copied().unwrap_or(0);
    }

    // Depth classes, deepest first.  Every domain holds components of a
    // single class (otherwise its event stream could not be staged), so the
    // class count bounds the minimum domain count.
    let mut classes: Vec<usize> = comp_depth.clone();
    classes.sort_unstable_by(|a, b| b.cmp(a));
    classes.dedup();
    if classes.len() > requested || classes.len() < 2 {
        // Either too many classes to honor the request, or a single class
        // (no staging possible — membership deltas would have no defined
        // replay order).  Fall back to single-threaded execution.
        return None;
    }

    // Distribute the domain budget over the classes proportionally to
    // weight (every class gets at least one domain, and no more domains
    // than it has components).
    let total_weight: u64 = comp_weight.iter().sum::<u64>().max(1);
    let mut class_comps: Vec<Vec<usize>> = classes
        .iter()
        .map(|&d| (0..n_comps).filter(|&c| comp_depth[c] == d).collect())
        .collect();
    let mut budget = requested;
    let mut class_bins: Vec<usize> = vec![0; classes.len()];
    for (i, comps) in class_comps.iter().enumerate() {
        let remaining_classes = classes.len() - i - 1;
        let w: u64 = comps.iter().map(|&c| comp_weight[c]).sum();
        let share = ((requested as u64 * w + total_weight / 2) / total_weight) as usize;
        let bins = share
            .max(1)
            .min(comps.len())
            .min(budget.saturating_sub(remaining_classes));
        class_bins[i] = bins.max(1);
        budget -= class_bins[i];
    }

    // Greedy balance: biggest components first into the lightest bin,
    // deterministic tie-breaks by bin index and component id.
    let mut node_domain = vec![0u32; nodes];
    let mut stages: Vec<Vec<usize>> = Vec::new();
    let mut next_domain = 0usize;
    for (i, comps) in class_comps.iter_mut().enumerate() {
        comps.sort_by(|&a, &b| comp_weight[b].cmp(&comp_weight[a]).then(a.cmp(&b)));
        let bins = class_bins[i];
        let first = next_domain;
        let mut bin_weight = vec![0u64; bins];
        let mut comp_domain = vec![0usize; n_comps];
        for &c in comps.iter() {
            let lightest = (0..bins)
                .min_by_key(|&b| (bin_weight[b], b))
                .expect("bins >= 1");
            bin_weight[lightest] += comp_weight[c];
            comp_domain[c] = first + lightest;
        }
        for n in 0..nodes {
            if comps.contains(&comp[n]) {
                node_domain[n] = comp_domain[comp[n]] as u32;
            }
        }
        stages.push((first..first + bins).collect());
        next_domain += bins;
    }
    let domains = next_domain;
    if domains < 2 {
        return None;
    }

    // Lookahead: minimum delay over links whose endpoints landed in
    // different domains (≥ the chosen threshold by construction, but two
    // components merged into one domain can hide a cut, so recompute).
    let mut lookahead = f64::INFINITY;
    for e in edges {
        if node_domain[e.from.0] != node_domain[e.to.0] {
            lookahead = lookahead.min(e.delay);
        }
    }
    if !lookahead.is_finite() {
        return None;
    }

    Some(DomainPlan {
        domains,
        lookahead,
        node_domain,
        stages,
    })
}

fn distinct_count(roots: &[usize]) -> usize {
    let mut sorted: Vec<usize> = roots.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{LinkId, NodeId};

    fn duplex(edges: &mut Vec<Edge>, a: usize, b: usize, delay: f64) {
        for (from, to) in [(a, b), (b, a)] {
            edges.push(Edge {
                link: LinkId(edges.len()),
                from: NodeId(from),
                to: NodeId(to),
                delay,
            });
        }
    }

    /// sender(0) — hub(1) — N receivers, short sender link, long legs.
    fn star_edges(receivers: usize) -> Vec<Edge> {
        let mut edges = Vec::new();
        duplex(&mut edges, 0, 1, 0.001);
        for r in 0..receivers {
            duplex(&mut edges, 1, 2 + r, 0.02);
        }
        edges
    }

    #[test]
    fn star_partitions_into_core_and_leg_domains() {
        let edges = star_edges(8);
        let weights = vec![1u64; 10];
        let plan = partition(10, &edges, &weights, 4).expect("star splits");
        assert_eq!(plan.domains, 4);
        assert!((plan.lookahead - 0.02).abs() < 1e-12);
        // Sender and hub share a domain; every receiver is in a leg domain.
        assert_eq!(plan.node_domain[0], plan.node_domain[1]);
        for r in 2..10 {
            assert_ne!(plan.node_domain[r], plan.node_domain[0]);
        }
        // Legs (deeper) run before the core.
        assert_eq!(plan.stages.len(), 2);
        assert!(plan.stages[0].contains(&(plan.node_domain[2] as usize)));
        assert!(plan.stages[1] == vec![plan.node_domain[0] as usize]);
        // Receivers spread over the three leg domains roughly evenly.
        let mut counts = [0usize; 4];
        for r in 2..10 {
            counts[plan.node_domain[r] as usize] += 1;
        }
        assert!(counts.iter().filter(|&&c| c > 0).count() == 3);
    }

    #[test]
    fn dumbbell_splits_into_two_halves() {
        // left_router(0) = right_router(1) bottleneck 0.02; 3 senders on the
        // left, 3 receivers on the right, access delay 0.002.
        let mut edges = Vec::new();
        duplex(&mut edges, 0, 1, 0.02);
        for i in 0..3 {
            duplex(&mut edges, 0, 2 + 2 * i, 0.002);
            duplex(&mut edges, 1, 3 + 2 * i, 0.002);
        }
        let weights = vec![1u64; 8];
        let plan = partition(8, &edges, &weights, 4).expect("dumbbell splits");
        // Only two components exist at the coarse threshold; the plan
        // degrades gracefully instead of shattering into tiny domains.
        assert_eq!(plan.domains, 2);
        assert!((plan.lookahead - 0.02).abs() < 1e-12);
        assert_eq!(plan.node_domain[0], plan.node_domain[2]);
        assert_eq!(plan.node_domain[1], plan.node_domain[3]);
        assert_ne!(plan.node_domain[0], plan.node_domain[1]);
    }

    #[test]
    fn uniform_delay_topology_does_not_shard() {
        // One delay class → one stage → no defined delta replay order.
        let mut edges = Vec::new();
        duplex(&mut edges, 0, 1, 0.01);
        duplex(&mut edges, 1, 2, 0.01);
        assert!(partition(3, &edges, &[1, 1, 1], 2).is_none());
    }

    #[test]
    fn degenerate_inputs_do_not_shard() {
        assert!(partition(0, &[], &[], 4).is_none());
        assert!(partition(5, &[], &[1; 5], 4).is_none());
        let edges = star_edges(4);
        assert!(partition(6, &edges, &[1; 6], 1).is_none());
    }

    #[test]
    fn partition_is_deterministic() {
        let edges = star_edges(16);
        let weights = vec![1u64; 18];
        let a = partition(18, &edges, &weights, 4).unwrap();
        let b = partition(18, &edges, &weights, 4).unwrap();
        assert_eq!(a.node_domain, b.node_domain);
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.lookahead, b.lookahead);
    }
}
