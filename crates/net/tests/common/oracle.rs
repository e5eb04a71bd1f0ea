//! Retired reference implementations, kept verbatim as pinned oracles.
//!
//! Every optimization in `ami-net`'s routing stack was landed against a
//! slower, obviously-correct predecessor; those predecessors live here
//! (shared across test binaries instead of duplicated in each) so the
//! differential suites can keep diffing the fast paths against them:
//!
//! * [`dijkstra_reference_scan`] — the O(N²) linear-scan Dijkstra the
//!   binary-heap implementation replaced;
//! * [`rebuild_over_usable`] — the compact-subtopology rebuild that
//!   `build_routes_over`'s masked walk replaced;
//! * [`lossy_reference_run`] — the hop-by-hop serial lossy round the
//!   region-partitioned lossy kernel replaced;
//! * the full-rebuild-per-transition `RouteCache` path that incremental
//!   repair replaced is toggled back on via
//!   `ami_net::routing::set_route_repair_enabled(false)` — it stays in
//!   the production crate because the cache itself dispatches to it.

use ami_net::routing::build_routes;
use ami_net::{LossyConfig, LossyReport, NodeId, RouteCache, RoutingStrategy, Topology};
use ami_radio::RadioEnergyModel;
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_sim::obs::{EnergyCategory, Recorder};
use ami_sim::rng::packet_rng;
use ami_units::{Energy, Length};
use rand::RngExt;

/// The historical O(N²) scan Dijkstra, kept verbatim as the
/// bit-exactness reference for the heap implementation.
pub fn dijkstra_reference_scan(
    topology: &Topology,
    radio: &RadioEnergyModel,
    max_hop: Length,
) -> Vec<Option<NodeId>> {
    let n = topology.len();
    let sink = topology.sink();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    dist[sink.0] = 0.0;
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for (idx, &d) in dist.iter().enumerate() {
            if !visited[idx] && d.is_finite() && best.is_none_or(|b| d < dist[b]) {
                best = Some(idx);
            }
        }
        let Some(u) = best else { break };
        visited[u] = true;
        for v in topology.neighbors_within(NodeId(u), max_hop) {
            if visited[v.0] {
                continue;
            }
            let hop = topology.distance(NodeId(u), v);
            let weight = radio.hop_energy_per_bit(hop).as_joules_per_bit();
            if dist[u] + weight < dist[v.0] {
                dist[v.0] = dist[u] + weight;
                parent[v.0] = Some(NodeId(u));
            }
        }
    }
    parent
}

/// The historical usable-subset rebuild: filter usable nodes into a
/// compact topology, route it, map ids back. Kept verbatim as the
/// bit-exactness reference for `build_routes_over`, which routes the
/// full cached CSR with an id-order-preserving subset skip.
pub fn rebuild_over_usable(
    topology: &Topology,
    strategy: RoutingStrategy,
    radio: &RadioEnergyModel,
    max_hop: Length,
    usable: &[bool],
) -> Vec<Option<NodeId>> {
    // Map usable ids into a compact topology (sink always survives).
    let mut forward = Vec::new(); // compact -> original
    let mut positions = Vec::new();
    for id in topology.ids() {
        if id == topology.sink() || usable[id.0] {
            forward.push(id);
            positions.push(topology.position(id));
        }
    }
    if positions.len() < 2 {
        // Everyone but the sink is dead: no routes remain.
        return vec![None; topology.len()];
    }
    let compact = Topology::new(positions);
    let compact_table = build_routes(&compact, strategy, radio, max_hop);
    let mut table = vec![None; topology.len()];
    for (compact_idx, original) in forward.iter().enumerate() {
        table[original.0] = compact_table[compact_idx].map(|next| forward[next.0]);
    }
    table
}

/// The historical serial lossy/ARQ round, kept as the bit-exactness
/// reference for the region-partitioned kernel. Built only from public
/// pieces: a [`RouteCache`] re-resolved with a one-round fault lag, a
/// [`FaultTimeline`], and each packet's own [`packet_rng`] stream. Every
/// live connected sensor walks its packet hop by hop in ascending id,
/// folding its private energy subtotal into the run total as soon as
/// the walk ends; each round then charges every node once per
/// `(node, category)` — all `Tx` ascending, then all `RxRelay` — from
/// its integer attempt counts.
pub fn lossy_reference_run<R: Recorder>(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
    recorder: &mut R,
) -> LossyReport {
    enum Fate {
        Delivered,
        Channel,
        Fault,
    }
    let n = topology.len();
    let sink = topology.sink();
    let bits = config.packet.total_bits();
    let p_hop = config.packet.delivery_probability(config.ber);
    let rx = config.radio.receive_energy(bits).as_joules();
    let attempts = u64::from(config.arq.max_transmissions);
    let attempts_f = f64::from(config.arq.max_transmissions);
    let mut timeline = FaultTimeline::compile(faults, n);
    let mut cache = RouteCache::new(n);
    let mut down_now = vec![false; n];
    let mut down_prev = vec![false; n];
    let mut usable = vec![true; n];
    let mut tx_attempts = vec![0u64; n];
    let mut rx_attempts = vec![0u64; n];
    let mut report = LossyReport {
        offered: 0,
        delivered: 0,
        transmissions: 0,
        total_energy: Energy::from_joules(0.0),
        dropped_fault: 0,
    };
    let mut energy = 0.0f64;

    for round in 0..rounds {
        timeline.advance_to(round);
        for (id, down) in down_now.iter_mut().enumerate() {
            *down = id != sink.0 && timeline.node_down(id);
        }
        for (id, flag) in usable.iter_mut().enumerate() {
            *flag = id == sink.0 || !down_prev[id];
        }
        cache.ensure(
            topology,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
            bits,
            &usable,
        );

        for id in topology.sensor_ids() {
            if down_now[id.0] || !cache.is_connected(id) {
                continue;
            }
            report.offered += 1;
            recorder.packet_offered();
            let mut rng = packet_rng(seed, round, id.0 as u64);
            let mut pkt_energy = 0.0f64;
            let mut from = id;
            let fate = loop {
                let hop = cache
                    .next_hop(from)
                    .expect("connected route reaches the sink");
                let tx = cache.tx_cost(from);
                if hop != sink && down_now[hop.0] {
                    report.transmissions += attempts;
                    tx_attempts[from.0] += attempts;
                    pkt_energy += attempts_f * tx;
                    break Fate::Fault;
                }
                if timeline.link_down(from.0, hop.0) {
                    report.transmissions += attempts;
                    tx_attempts[from.0] += attempts;
                    rx_attempts[hop.0] += attempts;
                    pkt_energy += attempts_f * (tx + rx);
                    break Fate::Fault;
                }
                let mut hop_ok = false;
                for _ in 0..config.arq.max_transmissions {
                    report.transmissions += 1;
                    tx_attempts[from.0] += 1;
                    rx_attempts[hop.0] += 1;
                    pkt_energy += tx;
                    pkt_energy += rx;
                    if rng.random::<f64>() < p_hop {
                        hop_ok = true;
                        break;
                    }
                }
                if !hop_ok {
                    break Fate::Channel;
                }
                if hop == sink {
                    break Fate::Delivered;
                }
                from = hop;
            };
            energy += pkt_energy;
            match fate {
                Fate::Delivered => {
                    report.delivered += 1;
                    recorder.packet_delivered();
                }
                Fate::Fault => {
                    report.dropped_fault += 1;
                    recorder.packet_dropped_fault();
                }
                Fate::Channel => {}
            }
        }

        for (id, count) in tx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                let cost = cache.tx_cost(NodeId(id));
                recorder.charge(id, EnergyCategory::Tx, *count as f64 * cost);
                *count = 0;
            }
        }
        for (id, count) in rx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                recorder.charge(id, EnergyCategory::RxRelay, *count as f64 * rx);
                *count = 0;
            }
        }
        std::mem::swap(&mut down_prev, &mut down_now);
    }
    report.total_energy = Energy::from_joules(energy);
    report
}
