//! Lossy-link gathering: the round-based simulator with per-hop packet
//! loss and stop-and-wait retransmission.
//!
//! `gather` assumes perfect links; real ambient channels drop packets.
//! This module folds the `ami-radio` reliability stack into the network
//! simulation: every hop succeeds with the packet's delivery probability
//! at the configured channel BER, failures trigger ARQ retransmissions
//! (bounded), and all the retry energy is charged to the transmitting and
//! receiving nodes. Deterministic in a seed.
//!
//! [`simulate_lossy_gathering_faulted`] layers an
//! [`ami_sim::fault::FaultSchedule`] on top: fault-downed relays and
//! downed links waste the sender's full ARQ budget and count the packet
//! as `dropped_fault`. Fault handling consumes **no randomness**, so a
//! faulted run's channel draws stay aligned with the unfaulted run at
//! the same seed on every packet a fault does not touch.
//!
//! # One kernel on 1..N regions
//!
//! Channel randomness is *addressable*, not sequential: every offered
//! packet owns an independent counter-based stream keyed by
//! `(seed, round, source)` ([`ami_sim::rng::packet_rng`]), and its ARQ
//! attempts consume that stream in walk order — attempt index within
//! the packet, never a position in some global sequence. A packet's
//! fate is therefore a pure function of round-constant state (the route
//! table, fault windows) and its own key, independent of when or where
//! any *other* packet executes.
//!
//! The round body exploits that once, for every thread count: the node
//! id space is cut into contiguous regions
//! ([`RegionPartition`], by the same spatial grid the CSR construction
//! buckets with), each region walks its own sources into a private
//! tally on an [`ami_sim::runner::RoundPool`] worker, and one commit
//! folds the tallies in ascending region order — which for contiguous
//! id regions is ascending source id. A serial run is the same kernel
//! with one region: `RoundPool::scoped(1)` spawns nothing and runs the
//! walk inline on the caller. Results are bit-identical at any region
//! count, because the commit fixes the float discipline:
//!
//! * each packet accumulates its energy in a private subtotal, and
//!   subtotals fold into the run total in ascending source order;
//! * per-node ledger charges are committed once per round per
//!   `(node, category)` from exactly-merged integer attempt counts times
//!   the (round-constant) per-attempt cost.
//!
//! # Why no rollback is needed
//!
//! The lossy model has no energy budgets, so there is no cross-packet
//! coupling and no margin to check: region walks commute and every
//! round commits. (The budgeted gathering kernel has that coupling,
//! which is why gathering runs one serial kernel — see [`crate::agg`].)
//!
//! # When parallelism cannot pay
//!
//! Region setup, the per-round barrier and the tally merge are pure
//! overhead on small runs, so [`simulate_lossy_gathering_faulted_par`]
//! first checks a cheap nodes-per-worker floor
//! ([`PAR_MIN_NODES_PER_WORKER`], overridable per thread) and runs one
//! region when the run is too small — bit-identical results either way,
//! observable only through
//! [`par_serial_fallback_count`]/[`par_engaged_count`].
//!
//! The retired sequential-stream kernel, which drew every attempt from
//! one `StdRng` stream and so was permanently serial, is kept as a test
//! oracle pinned by its own frozen golden (`tests/seqstream_oracle.rs`).

use crate::csr::RegionPartition;
use crate::routing::{PackedRoutes, RouteCache, RoutingStrategy};
use crate::topology::{NodeId, Topology};
use ami_radio::{Packet, RadioEnergyModel, StopAndWaitArq};
use ami_sim::fault::{FaultSchedule, FaultTimeline};
use ami_sim::obs::{EnergyCategory, LedgerRecorder, NullRecorder, Recorder};
use ami_sim::rng::packet_rng;
use ami_sim::runner::RoundPool;
use ami_units::{DataVolume, Energy, EnergyPerBit, Length};
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Mutex;

/// Parameters of a lossy gathering network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyConfig {
    /// Radio energy model.
    pub radio: RadioEnergyModel,
    /// Packet format.
    pub packet: Packet,
    /// Raw channel bit error rate applied to every hop.
    pub ber: f64,
    /// Retransmission budget per hop.
    pub arq: StopAndWaitArq,
    /// Maximum hop length.
    pub max_hop: Length,
}

impl LossyConfig {
    /// Sensor defaults on a bruised channel: BER 1e-3, 4-attempt ARQ.
    pub fn bruised_channel() -> Self {
        Self {
            radio: RadioEnergyModel::short_range_2003(),
            packet: Packet::sensor_report(),
            ber: 1e-3,
            arq: StopAndWaitArq::new(4),
            max_hop: Length::from_meters(45.0),
        }
    }
}

/// Outcome of a lossy gathering run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyReport {
    /// Packets offered (one per sensor per round).
    pub offered: u64,
    /// Packets that reached the sink end-to-end.
    pub delivered: u64,
    /// Total transmissions including retries.
    pub transmissions: u64,
    /// Total radio energy spent.
    pub total_energy: Energy,
    /// Packets lost to an injected fault (downed relay or link) rather
    /// than to channel noise. Always zero on unfaulted runs.
    pub dropped_fault: u64,
}

impl LossyReport {
    /// End-to-end delivery ratio.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }

    /// Mean transmissions per offered packet (ARQ overhead measure).
    pub fn tx_per_packet(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.transmissions as f64 / self.offered as f64
        }
    }

    /// Mean energy cost per delivered payload bit for `packet`-format
    /// reports, or `None` when nothing got through (heavy loss with a
    /// small ARQ budget can starve the sink entirely).
    pub fn energy_per_delivered_bit(&self, packet: &Packet) -> Option<EnergyPerBit> {
        let bits = packet.payload().as_bits() * self.delivered as f64;
        if bits > 0.0 {
            Some(EnergyPerBit::new(self.total_energy.as_joules() / bits))
        } else {
            None
        }
    }
}

/// Default floor on nodes-per-worker below which
/// [`simulate_lossy_gathering_faulted_par`] runs one region instead of
/// spinning up workers: below city scale the per-round barrier and
/// merge overhead outweigh the work (BENCH_NET measured speedups under
/// 1.0 even at n=10⁴ on small hosts). Results are bit-identical either
/// way, so the threshold is purely a performance heuristic.
pub const PAR_MIN_NODES_PER_WORKER: usize = 4096;

thread_local! {
    static PAR_MIN_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static PAR_FALLBACKS: Cell<u64> = const { Cell::new(0) };
    static PAR_ENGAGED: Cell<u64> = const { Cell::new(0) };
}

/// Overrides [`PAR_MIN_NODES_PER_WORKER`] on this thread (`Some(0)`
/// forces more than one region whenever more than one worker is asked
/// for, `None` restores the default). Returns the previous override so
/// callers can scope it. Benchmarks force-engage so `_par` rows measure
/// many regions, not the one-region fallback.
pub fn set_par_min_nodes_per_worker(min: Option<usize>) -> Option<usize> {
    PAR_MIN_OVERRIDE.with(|cell| cell.replace(min))
}

/// The effective nodes-per-worker floor on this thread.
pub fn par_min_nodes_per_worker() -> usize {
    PAR_MIN_OVERRIDE
        .with(Cell::get)
        .unwrap_or(PAR_MIN_NODES_PER_WORKER)
}

/// How many [`simulate_lossy_gathering_faulted_par`] calls on this
/// thread ran one region.
pub fn par_serial_fallback_count() -> u64 {
    PAR_FALLBACKS.with(Cell::get)
}

/// How many [`simulate_lossy_gathering_faulted_par`] calls on this
/// thread ran more than one region.
pub fn par_engaged_count() -> u64 {
    PAR_ENGAGED.with(Cell::get)
}

/// Zeroes both engagement counters on this thread.
pub fn reset_par_engagement_counters() {
    PAR_FALLBACKS.with(|cell| cell.set(0));
    PAR_ENGAGED.with(|cell| cell.set(0));
}

/// How one offered packet ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LossyFate {
    /// Reached the sink end-to-end.
    Delivered,
    /// Died on channel noise: some hop exhausted its ARQ budget.
    Channel,
    /// Lost to an injected fault (downed relay or downed link).
    Fault,
}

/// The round-constant inputs every region walks against.
struct LossyRoundCtx<'a> {
    sink: NodeId,
    seed: u64,
    /// Per-hop delivery probability at the configured BER.
    p_hop: f64,
    /// Receive energy per attempt (distance-independent).
    rx: f64,
    max_transmissions: u32,
    /// Packed next-hop table (`u32::MAX` = routeless), flat-indexed by
    /// node id so the hop chase is two array loads, not a cache probe.
    parent: &'a [u32],
    /// Packed per-node transmit cost, same indexing.
    tx_costs: &'a [f64],
    connected: &'a [bool],
    timeline: &'a FaultTimeline,
    down_now: &'a [bool],
}

/// One region's tally for one round. Walks from a region can land ARQ
/// attempts on *any* node (routes cross regions), so the attempt arrays
/// are full-length; integer counts merge exactly at commit. Energy
/// slots cover only the region's own sources.
struct RegionTally {
    /// Per-node ARQ attempt counts (sender side).
    tx_attempts: Vec<u64>,
    /// Per-node listen counts (receiver side).
    rx_attempts: Vec<u64>,
    /// Per-source packet energy subtotal, indexed from the region's
    /// first id; exactly 0.0 for sources that offered nothing.
    energy: Vec<f64>,
    offered: u64,
    delivered: u64,
    faulted: u64,
    transmissions: u64,
}

impl RegionTally {
    fn new(nodes: usize, sources: usize) -> Self {
        Self {
            tx_attempts: vec![0; nodes],
            rx_attempts: vec![0; nodes],
            energy: vec![0.0; sources],
            offered: 0,
            delivered: 0,
            faulted: 0,
            transmissions: 0,
        }
    }

    /// Walks every live connected source in `sources`, ascending: each
    /// offers one packet drawn from its own counter stream, so regions
    /// cannot perturb one another.
    fn walk(&mut self, ctx: &LossyRoundCtx<'_>, round: u64, sources: Range<usize>) {
        let first = sources.start;
        for src in sources {
            let slot = &mut self.energy[src - first];
            *slot = 0.0;
            if src == ctx.sink.0 || ctx.down_now[src] || !ctx.connected[src] {
                continue; // the sink, a powered-off node, or routeless
            }
            self.offered += 1;
            let (fate, energy) = walk_packet(
                ctx,
                round,
                NodeId(src),
                &mut self.tx_attempts,
                &mut self.rx_attempts,
                &mut self.transmissions,
            );
            *slot = energy;
            match fate {
                LossyFate::Delivered => self.delivered += 1,
                LossyFate::Fault => self.faulted += 1,
                // Channel losses are implicit in the counters
                // (offered − delivered − fault); they are not a
                // `dropped_*` recorder cause.
                LossyFate::Channel => {}
            }
        }
    }
}

/// Walks one offered packet from `src` toward the sink, drawing every
/// channel attempt from the packet's own counter stream. Returns the
/// packet's fate and its private energy subtotal; per-node attempt
/// counts and the transmission tally are accumulated into the caller's
/// tally. Pure in `(ctx, round, src)` — no draw depends on any other
/// packet, which is what lets regions execute walks in any order.
fn walk_packet(
    ctx: &LossyRoundCtx<'_>,
    round: u64,
    src: NodeId,
    tx_attempts: &mut [u64],
    rx_attempts: &mut [u64],
    transmissions: &mut u64,
) -> (LossyFate, f64) {
    let mut rng = packet_rng(ctx.seed, round, src.0 as u64);
    let attempts = u64::from(ctx.max_transmissions);
    let attempts_f = f64::from(ctx.max_transmissions);
    let mut pkt_energy = 0.0f64;
    let sink = ctx.sink.0 as u32;
    let mut from = src.0 as u32;
    loop {
        let fu = from as usize;
        let hop = ctx.parent[fu];
        debug_assert!(hop != u32::MAX, "connected route reaches the sink");
        let tx = ctx.tx_costs[fu];
        if hop != sink && ctx.down_now[hop as usize] {
            // Powered-off receiver: no ACK ever comes, so the sender
            // exhausts its ARQ budget; nothing listens on the far end.
            // No random draws — the packet's stream stays aligned with
            // the unfaulted run.
            *transmissions += attempts;
            tx_attempts[fu] += attempts;
            pkt_energy += attempts_f * tx;
            return (LossyFate::Fault, pkt_energy);
        }
        if ctx.timeline.link_down(fu, hop as usize) {
            // Downed link between two powered nodes: every attempt
            // costs the sender a transmit and the receiver a listen,
            // but nothing crosses.
            *transmissions += attempts;
            tx_attempts[fu] += attempts;
            rx_attempts[hop as usize] += attempts;
            pkt_energy += attempts_f * (tx + ctx.rx);
            return (LossyFate::Fault, pkt_energy);
        }
        let mut hop_ok = false;
        for _attempt in 0..ctx.max_transmissions {
            *transmissions += 1;
            tx_attempts[fu] += 1;
            // The receiver listens whether or not the packet survives
            // (it cannot know in advance).
            rx_attempts[hop as usize] += 1;
            pkt_energy += tx;
            pkt_energy += ctx.rx;
            if rng.random::<f64>() < ctx.p_hop {
                hop_ok = true;
                break;
            }
        }
        if !hop_ok {
            return (LossyFate::Channel, pkt_energy);
        }
        if hop == sink {
            return (LossyFate::Delivered, pkt_energy);
        }
        from = hop;
    }
}

/// Run state of the lossy kernel: round-constant channel parameters,
/// fault and route state, and the run totals the commit folds into.
struct LossyState<'a> {
    topology: &'a Topology,
    config: &'a LossyConfig,
    sink: NodeId,
    seed: u64,
    p_hop: f64,
    bits: DataVolume,
    rx: f64,
    faults_active: bool,
    timeline: FaultTimeline,
    down_now: Vec<bool>,
    down_prev: Vec<bool>,
    usable: Vec<bool>,
    cache: RouteCache,
    /// Flat next-hop/cost image of `cache`, refreshed when the cache
    /// epoch moves; the hop chase reads these, not the cache.
    packed: PackedRoutes,
    routes_dirty: bool,
    offered: u64,
    delivered: u64,
    transmissions: u64,
    dropped_fault: u64,
    energy: f64,
}

impl<'a> LossyState<'a> {
    fn new(
        topology: &'a Topology,
        config: &'a LossyConfig,
        seed: u64,
        faults: &FaultSchedule,
        cache: RouteCache,
        packed: PackedRoutes,
    ) -> Self {
        assert!(
            (0.0..=0.5).contains(&config.ber),
            "BER must lie in [0, 0.5]"
        );
        let n = topology.len();
        let bits = config.packet.total_bits();
        Self {
            topology,
            config,
            sink: topology.sink(),
            seed,
            p_hop: config.packet.delivery_probability(config.ber),
            bits,
            // Receive energy is distance-independent: one value serves
            // every hop.
            rx: config.radio.receive_energy(bits).as_joules(),
            faults_active: !faults.is_empty(),
            // Compiled down/link windows: O(1) per query instead of an
            // event scan, cursor advanced once per round.
            timeline: FaultTimeline::compile(faults, n),
            down_now: vec![false; n],
            down_prev: vec![false; n],
            usable: vec![true; n],
            cache,
            packed,
            // Starts dirty so the first round adopts (or builds) routes
            // over the full node set.
            routes_dirty: true,
            offered: 0,
            delivered: 0,
            transmissions: 0,
            dropped_fault: 0,
            energy: 0.0,
        }
    }

    /// Runs `rounds` rounds on `regions` regions: begin (faults,
    /// routes), region walks on the pool, one commit, end. With one
    /// region the pool spawns nothing and the walk runs inline.
    fn run<R: Recorder>(&mut self, rounds: u64, regions: usize, recorder: &mut R) {
        let n = self.topology.len();
        let part =
            RegionPartition::balanced(self.topology.positions(), self.config.max_hop, regions);
        let mut tallies: Vec<Mutex<RegionTally>> = (0..regions)
            .map(|r| Mutex::new(RegionTally::new(n, part.range(r).len())))
            .collect();
        RoundPool::scoped(regions, |pool| {
            for round in 0..rounds {
                self.begin_round(round);
                let ctx = LossyRoundCtx {
                    sink: self.sink,
                    seed: self.seed,
                    p_hop: self.p_hop,
                    rx: self.rx,
                    max_transmissions: self.config.arq.max_transmissions,
                    parent: &self.packed.parent,
                    tx_costs: &self.packed.tx,
                    connected: self.cache.connected_flags(),
                    timeline: &self.timeline,
                    down_now: &self.down_now,
                };
                pool.run(&|w| {
                    let mut tally = tallies[w].lock().expect("region tally");
                    tally.walk(&ctx, round, part.range(w));
                });
                self.commit_round(&mut tallies, recorder);
                self.end_round();
            }
        });
    }

    /// Advances fault state and re-resolves routes when dirty. Routing
    /// sees fault state with a one-round lag, as in `gather` (no budget
    /// deaths here — links are lossy but energy is not finite in this
    /// model).
    fn begin_round(&mut self, round: u64) {
        if self.faults_active {
            self.timeline.advance_to(round);
            for (id, down) in self.down_now.iter_mut().enumerate() {
                *down = id != self.sink.0 && self.timeline.node_down(id);
            }
        }
        if self.routes_dirty {
            for (id, flag) in self.usable.iter_mut().enumerate() {
                *flag = id == self.sink.0 || !self.down_prev[id];
            }
            self.cache.ensure(
                self.topology,
                RoutingStrategy::MinimumEnergy,
                &self.config.radio,
                self.config.max_hop,
                self.bits,
                &self.usable,
            );
            self.routes_dirty = false;
        }
        self.packed.ensure(&self.cache);
    }

    /// Folds the round's region tallies into the run, in ascending
    /// region order: packet energy subtotals in ascending source id,
    /// then one charge per `(node, category)` from the merged integer
    /// attempt counts — all `Tx` ascending, then all `RxRelay` — then
    /// the packet tallies. Leaves every attempt count at zero.
    fn commit_round<R: Recorder>(&mut self, tallies: &mut [Mutex<RegionTally>], recorder: &mut R) {
        let (first, rest) = tallies.split_first_mut().expect("at least one region");
        let merged = first.get_mut().expect("region tally");
        // Unoffered slots are exactly 0.0 and the run total is never
        // -0.0, so adding them changes no bit of the ascending fold.
        for &slot in &merged.energy {
            self.energy += slot;
        }
        for region in rest {
            let region = region.get_mut().expect("region tally");
            for &slot in &region.energy {
                self.energy += slot;
            }
            for (sum, count) in merged.tx_attempts.iter_mut().zip(&mut region.tx_attempts) {
                *sum += std::mem::take(count);
            }
            for (sum, count) in merged.rx_attempts.iter_mut().zip(&mut region.rx_attempts) {
                *sum += std::mem::take(count);
            }
            merged.offered += std::mem::take(&mut region.offered);
            merged.delivered += std::mem::take(&mut region.delivered);
            merged.faulted += std::mem::take(&mut region.faulted);
            merged.transmissions += std::mem::take(&mut region.transmissions);
        }

        let mut tx_total = 0u64;
        for ((id, count), &tx_cost) in merged
            .tx_attempts
            .iter_mut()
            .enumerate()
            .zip(self.cache.tx_costs())
        {
            if *count > 0 {
                tx_total += *count;
                recorder.charge(id, EnergyCategory::Tx, *count as f64 * tx_cost);
                *count = 0;
            }
        }
        for (id, count) in merged.rx_attempts.iter_mut().enumerate() {
            if *count > 0 {
                recorder.charge(id, EnergyCategory::RxRelay, *count as f64 * self.rx);
                *count = 0;
            }
        }

        let offered = std::mem::take(&mut merged.offered);
        let delivered = std::mem::take(&mut merged.delivered);
        let faulted = std::mem::take(&mut merged.faulted);
        let transmissions = std::mem::take(&mut merged.transmissions);
        // Conservation, checked on every round of every debug run: each
        // transmission is exactly one sender attempt, and no packet is
        // both delivered and lost to a fault.
        debug_assert_eq!(tx_total, transmissions, "Σ tx attempts ≠ transmissions");
        debug_assert!(
            offered >= delivered + faulted,
            "offered {offered} < delivered {delivered} + faulted {faulted}"
        );
        recorder.packets_offered(offered);
        recorder.packets_delivered(delivered);
        recorder.packets_dropped_fault(faulted);
        self.offered += offered;
        self.delivered += delivered;
        self.dropped_fault += faulted;
        self.transmissions += transmissions;
    }

    /// Notices fault transitions (dirty routes next round) and rotates
    /// the down flags.
    fn end_round(&mut self) {
        if self.faults_active && self.down_now != self.down_prev {
            self.routes_dirty = true;
        }
        std::mem::swap(&mut self.down_prev, &mut self.down_now);
    }

    fn report(&self) -> LossyReport {
        LossyReport {
            offered: self.offered,
            delivered: self.delivered,
            transmissions: self.transmissions,
            total_energy: Energy::from_joules(self.energy),
            dropped_fault: self.dropped_fault,
        }
    }
}

/// Runs `rounds` of minimum-energy gathering over lossy links,
/// deterministic in `seed`.
///
/// # Panics
///
/// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
pub fn simulate_lossy_gathering(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
) -> LossyReport {
    simulate_lossy_gathering_faulted(topology, config, rounds, seed, &FaultSchedule::empty())
}

/// [`simulate_lossy_gathering`] under an exogenous [`FaultSchedule`].
///
/// Fault semantics mirror the gather simulator's (one-round routing
/// lag, `dropped_fault` attribution) with one ARQ-specific twist: a
/// sender facing a fault-downed receiver or a downed link gets no ACK
/// on any attempt, so it burns its **entire retransmission budget**
/// before giving up. A downed receiver spends nothing (it is powered
/// off); a downed link charges both powered ends per attempt. Fault
/// handling consumes no random draws, and packets own their streams, so
/// every packet a fault does not touch sees channel draws identical to
/// the unfaulted run at the same seed. The empty schedule is bit-exact
/// with [`simulate_lossy_gathering`].
///
/// # Panics
///
/// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
pub fn simulate_lossy_gathering_faulted(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
) -> LossyReport {
    simulate_lossy_gathering_faulted_with(
        topology,
        config,
        rounds,
        seed,
        faults,
        1,
        &mut NullRecorder,
    )
}

/// [`simulate_lossy_gathering_faulted`] on `threads` regions with a
/// [`Recorder`] attached — the one generic lossy entry point. The
/// recorder sees per-node `Tx`/`RxRelay` charges (ARQ attempt counts
/// times the per-attempt cost, committed once per round per node) and
/// the packet counters (`offered`, `delivered`, `dropped_fault`;
/// channel losses are the remainder). The un-instrumented entry points
/// pass [`NullRecorder`], which monomorphizes the hooks away.
///
/// Runs exactly `threads` regions, each on its own worker (one runs
/// inline on the caller); results are bit-identical at any count.
/// [`simulate_lossy_gathering_faulted_par`] is the variant that skips
/// regions a run is too small to pay for.
///
/// # Panics
///
/// Panics if `rounds` or `threads` is zero, or the BER is outside
/// `[0, 0.5]`.
pub fn simulate_lossy_gathering_faulted_with<R: Recorder>(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
    threads: usize,
    recorder: &mut R,
) -> LossyReport {
    LossySession::new(topology, config).run_regions(rounds, seed, faults, threads, recorder)
}

/// [`simulate_lossy_gathering_faulted`] with the standard instrumented
/// recorder: returns the report plus the energy ledger and packet
/// counters of the run.
///
/// # Panics
///
/// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
pub fn simulate_lossy_gathering_faulted_observed(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
) -> (LossyReport, LedgerRecorder) {
    let mut recorder = LedgerRecorder::with_nodes(topology.len());
    let report = simulate_lossy_gathering_faulted_with(
        topology,
        config,
        rounds,
        seed,
        faults,
        1,
        &mut recorder,
    );
    (report, recorder)
}

/// [`simulate_lossy_gathering_faulted`] on up to `threads` worker
/// threads — bit-identical at any thread count.
///
/// Below [`par_min_nodes_per_worker`]×`threads` nodes (and always at one
/// thread) the run takes one region, counted by
/// [`par_serial_fallback_count`]; otherwise it takes `threads` regions,
/// counted by [`par_engaged_count`]. See
/// [`set_par_min_nodes_per_worker`].
///
/// # Panics
///
/// Panics if `rounds` or `threads` is zero, or the BER is outside
/// `[0, 0.5]`.
pub fn simulate_lossy_gathering_faulted_par(
    topology: &Topology,
    config: &LossyConfig,
    rounds: u64,
    seed: u64,
    faults: &FaultSchedule,
    threads: usize,
) -> LossyReport {
    assert!(threads > 0, "at least one worker thread");
    let regions =
        if threads > 1 && topology.len() >= par_min_nodes_per_worker().saturating_mul(threads) {
            PAR_ENGAGED.with(|cell| cell.set(cell.get() + 1));
            threads
        } else {
            PAR_FALLBACKS.with(|cell| cell.set(cell.get() + 1));
            1
        };
    simulate_lossy_gathering_faulted_with(
        topology,
        config,
        rounds,
        seed,
        faults,
        regions,
        &mut NullRecorder,
    )
}

/// Reusable lossy-run session over one `(topology, config)` pair: the
/// route cache and its packed next-hop image persist across runs, so
/// every run after the first skips the Dijkstra build (the dominant
/// fixed cost at city scale) and measures marginal round work only.
/// Each run is bit-identical to the matching one-shot entry point,
/// which is itself a session used once.
pub struct LossySession<'a> {
    topology: &'a Topology,
    config: &'a LossyConfig,
    cache: RouteCache,
    packed: PackedRoutes,
}

impl<'a> LossySession<'a> {
    /// Creates a session; the first run performs the route build.
    pub fn new(topology: &'a Topology, config: &'a LossyConfig) -> Self {
        Self {
            topology,
            config,
            cache: RouteCache::new(topology.len()),
            packed: PackedRoutes::new(topology.len()),
        }
    }

    /// Runs `rounds` fault-free rounds from a fresh run state,
    /// recording nothing. Bit-identical to
    /// [`simulate_lossy_gathering`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
    pub fn run(&mut self, rounds: u64, seed: u64) -> LossyReport {
        self.run_faulted_with(rounds, seed, &FaultSchedule::empty(), &mut NullRecorder)
    }

    /// Runs `rounds` rounds under `faults` from a fresh run state,
    /// charging every event through `recorder`. Bit-identical to
    /// [`simulate_lossy_gathering_faulted_with`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or the BER is outside `[0, 0.5]`.
    pub fn run_faulted_with<R: Recorder>(
        &mut self,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
        recorder: &mut R,
    ) -> LossyReport {
        self.run_regions(rounds, seed, faults, 1, recorder)
    }

    /// One run on `regions` regions. The run state adopts the session's
    /// warm cache and packed image — `begin_round` no-ops both when the
    /// usable set still matches what the cache was built over — and
    /// hands them back afterwards.
    fn run_regions<R: Recorder>(
        &mut self,
        rounds: u64,
        seed: u64,
        faults: &FaultSchedule,
        regions: usize,
        recorder: &mut R,
    ) -> LossyReport {
        assert!(rounds > 0, "simulate at least one round");
        assert!(regions > 0, "at least one worker thread");
        let cache = std::mem::replace(&mut self.cache, RouteCache::new(0));
        let packed = std::mem::replace(&mut self.packed, PackedRoutes::new(0));
        let mut state = LossyState::new(self.topology, self.config, seed, faults, cache, packed);
        state.run(rounds, regions, recorder);
        let report = state.report();
        self.cache = state.cache;
        self.packed = state.packed;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{build_routes, route_to_sink};

    fn topo() -> Topology {
        Topology::grid(4, Length::from_meters(30.0))
    }

    #[test]
    fn perfect_channel_delivers_everything_without_retries() {
        let mut config = LossyConfig::bruised_channel();
        config.ber = 0.0;
        let report = simulate_lossy_gathering(&topo(), &config, 50, 1);
        assert_eq!(report.delivered, report.offered);
        assert!((report.tx_per_packet() - expected_hops(&topo(), &config)).abs() < 0.2);
    }

    #[test]
    fn per_bit_cost_is_none_when_nothing_gets_through() {
        let mut config = LossyConfig::bruised_channel();
        let report = simulate_lossy_gathering(&topo(), &config, 20, 7);
        let epb = report
            .energy_per_delivered_bit(&config.packet)
            .expect("bruised channel still delivers");
        let direct = report.total_energy.as_joules()
            / (config.packet.payload().as_bits() * report.delivered as f64);
        assert!((epb.as_joules_per_bit() - direct).abs() < 1e-18);

        // BER 0.5 with a single attempt: nothing survives a multi-bit
        // packet, so there is no per-bit cost to report.
        config.ber = 0.5;
        config.arq = StopAndWaitArq::new(1);
        let starved = simulate_lossy_gathering(&topo(), &config, 5, 7);
        assert_eq!(starved.delivered, 0);
        assert_eq!(starved.energy_per_delivered_bit(&config.packet), None);
    }

    /// Mean hops per packet on the routing tree (tx count lower bound).
    fn expected_hops(topology: &Topology, config: &LossyConfig) -> f64 {
        let table = build_routes(
            topology,
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.max_hop,
        );
        let total: usize = topology
            .sensor_ids()
            .map(|id| route_to_sink(&table, topology, id).len())
            .sum();
        total as f64 / (topology.len() - 1) as f64
    }

    #[test]
    fn dirtier_channels_cost_more_and_deliver_less() {
        let mut clean = LossyConfig::bruised_channel();
        clean.ber = 1e-4;
        let mut dirty = LossyConfig::bruised_channel();
        dirty.ber = 1e-2;
        let a = simulate_lossy_gathering(&topo(), &clean, 100, 2);
        let b = simulate_lossy_gathering(&topo(), &dirty, 100, 2);
        assert!(a.delivery_ratio() > b.delivery_ratio());
        assert!(a.tx_per_packet() < b.tx_per_packet());
    }

    #[test]
    fn arq_buys_delivery_for_energy() {
        let mut no_retry = LossyConfig::bruised_channel();
        no_retry.ber = 5e-3;
        no_retry.arq = StopAndWaitArq::new(1);
        let mut retry = no_retry.clone();
        retry.arq = StopAndWaitArq::new(6);
        let a = simulate_lossy_gathering(&topo(), &no_retry, 200, 3);
        let b = simulate_lossy_gathering(&topo(), &retry, 200, 3);
        assert!(b.delivery_ratio() > a.delivery_ratio() + 0.05);
        assert!(b.total_energy > a.total_energy);
    }

    #[test]
    fn deterministic_in_seed() {
        let config = LossyConfig::bruised_channel();
        let a = simulate_lossy_gathering(&topo(), &config, 100, 9);
        let b = simulate_lossy_gathering(&topo(), &config, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn delivery_matches_analytic_prediction_on_single_hop() {
        // A star where every leaf is one hop from the sink: measured
        // delivery must match ARQ theory within Monte-Carlo noise.
        let star = Topology::star(8, Length::from_meters(20.0));
        let mut config = LossyConfig::bruised_channel();
        config.ber = 3e-3;
        let p_hop = config.packet.delivery_probability(config.ber);
        let predicted = config.arq.delivery_probability(p_hop);
        let report = simulate_lossy_gathering(&star, &config, 2000, 4);
        let measured = report.delivery_ratio();
        assert!(
            (measured - predicted).abs() < 0.02,
            "measured {measured:.3} vs predicted {predicted:.3}"
        );
    }

    #[test]
    fn star_outcomes_match_the_per_packet_counter_prediction() {
        // The addressability contract, pinned end to end: on a
        // single-hop star, packet (round, leaf) delivers iff one of its
        // first `max_transmissions` draws from `packet_rng(seed, round,
        // leaf)` clears p_hop. Replaying that rule outside the kernel
        // must reproduce the report exactly — the kernel consumes no
        // other randomness and no other packet's draws.
        let star = Topology::star(6, Length::from_meters(20.0));
        let mut config = LossyConfig::bruised_channel();
        config.ber = 2e-3;
        let (rounds, seed) = (300u64, 13u64);
        let p_hop = config.packet.delivery_probability(config.ber);
        let report = simulate_lossy_gathering(&star, &config, rounds, seed);

        let mut predicted_delivered = 0u64;
        let mut predicted_tx = 0u64;
        for round in 0..rounds {
            for leaf in star.sensor_ids() {
                let mut rng = packet_rng(seed, round, leaf.0 as u64);
                for _ in 0..config.arq.max_transmissions {
                    predicted_tx += 1;
                    if rng.random::<f64>() < p_hop {
                        predicted_delivered += 1;
                        break;
                    }
                }
            }
        }
        assert_eq!(report.delivered, predicted_delivered);
        assert_eq!(report.transmissions, predicted_tx);
    }

    #[test]
    fn observed_run_carries_the_report_energy_in_the_ledger() {
        let config = LossyConfig::bruised_channel();
        let (report, obs) = simulate_lossy_gathering_faulted_observed(
            &topo(),
            &config,
            60,
            5,
            &FaultSchedule::empty(),
        );
        // Charges are committed per (node, round, category) while the
        // report folds per packet, so the totals agree to rounding, not
        // bitwise.
        let ledger_total = obs.ledger.total().as_joules();
        let report_total = report.total_energy.as_joules();
        assert!(
            (ledger_total - report_total).abs() <= 1e-9 * report_total.abs(),
            "ledger {ledger_total} vs report {report_total}"
        );
        assert_eq!(obs.packets.offered, report.offered);
        assert_eq!(obs.packets.delivered, report.delivered);
        assert_eq!(obs.packets.dropped_fault, report.dropped_fault);
    }

    #[test]
    #[should_panic(expected = "BER")]
    fn absurd_ber_rejected() {
        let mut config = LossyConfig::bruised_channel();
        config.ber = 0.9;
        let _ = simulate_lossy_gathering(&topo(), &config, 1, 0);
    }

    mod faulted {
        use super::*;
        use crate::topology::Position;
        use ami_sim::fault::{FaultEvent, FaultModel};

        #[test]
        fn empty_schedule_is_bit_exact_with_the_unfaulted_path() {
            let config = LossyConfig::bruised_channel();
            let plain = simulate_lossy_gathering(&topo(), &config, 100, 11);
            let faulted = simulate_lossy_gathering_faulted(
                &topo(),
                &config,
                100,
                11,
                &FaultSchedule::empty(),
            );
            assert_eq!(plain, faulted);
            assert_eq!(faulted.dropped_fault, 0);
        }

        #[test]
        fn faulted_runs_are_deterministic_in_seed() {
            let config = LossyConfig::bruised_channel();
            let model = FaultModel {
                death_rate: 0.2,
                outage_rate: 0.3,
                outage_rounds: 10,
                link_outage_rate: 0.2,
                link_outage_rounds: 8,
                fade_rate: 0.0,
                fade_factor: 1.0,
            };
            let faults = model.schedule(5, topo().len(), 80);
            let a = simulate_lossy_gathering_faulted(&topo(), &config, 80, 9, &faults);
            let b = simulate_lossy_gathering_faulted(&topo(), &config, 80, 9, &faults);
            assert_eq!(a, b);
            assert!(a.dropped_fault > 0, "the fault mix must cost packets");
            assert!(a.delivered > 0, "the network must degrade, not die");
        }

        #[test]
        fn untouched_packets_see_identical_draws_under_faults() {
            // Per-packet streams make fault alignment *exact*: on a
            // star, downing leaf 1's link must leave every other leaf's
            // outcome untouched, so delivered counts differ only by
            // leaf 1's own (unfaulted) deliveries during the outage
            // window — replayed here from its stream.
            let star = Topology::star(5, Length::from_meters(20.0));
            let mut config = LossyConfig::bruised_channel();
            config.ber = 5e-3;
            let (rounds, seed) = (200u64, 17u64);
            let p_hop = config.packet.delivery_probability(config.ber);
            let (from, until) = (40u64, 120u64);
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from,
                until,
            }]);
            let plain = simulate_lossy_gathering(&star, &config, rounds, seed);
            let faulted = simulate_lossy_gathering_faulted(&star, &config, rounds, seed, &faults);
            let mut leaf1_lost = 0u64;
            for round in from..until {
                let mut rng = packet_rng(seed, round, 1);
                for _ in 0..config.arq.max_transmissions {
                    if rng.random::<f64>() < p_hop {
                        leaf1_lost += 1;
                        break;
                    }
                }
            }
            assert_eq!(faulted.offered, plain.offered);
            assert_eq!(faulted.dropped_fault, until - from);
            assert_eq!(faulted.delivered, plain.delivered - leaf1_lost);
        }

        #[test]
        fn downed_relay_burns_the_arq_budget_then_routing_re_resolves() {
            // Sink—1—2 line on a perfect channel: kill node 1 at round 1.
            // Node 2's round-1 packet spends all 4 attempts into the dead
            // relay (tx only, no listener) and drops as a fault; from
            // round 2 routing has noticed and node 2 has no route (not
            // even offered, matching the unfaulted disconnection rule).
            let line = Topology::new(vec![
                Position::new(0.0, 0.0),
                Position::new(40.0, 0.0),
                Position::new(80.0, 0.0),
            ]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::NodeDeath { node: 1, round: 1 }]);
            let report = simulate_lossy_gathering_faulted(&line, &config, 4, 3, &faults);
            // Round 0: both deliver (3 hops total). Round 1: node 2
            // faults out. Rounds 2–3: node 2 is routeless, nothing sent.
            assert_eq!(report.offered, 3);
            assert_eq!(report.delivered, 2);
            assert_eq!(report.dropped_fault, 1);
            let attempts = u64::from(config.arq.max_transmissions);
            assert_eq!(report.transmissions, 3 + attempts);
        }

        #[test]
        fn link_outage_charges_both_ends_per_attempt() {
            let pair = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from: 1,
                until: 2,
            }]);
            let report = simulate_lossy_gathering_faulted(&pair, &config, 3, 3, &faults);
            assert_eq!(report.offered, 3);
            assert_eq!(report.delivered, 2);
            assert_eq!(report.dropped_fault, 1);
            let bits = config.packet.total_bits();
            let tx = config
                .radio
                .transmit_energy(bits, Length::from_meters(20.0))
                .as_joules();
            let rx = config.radio.receive_energy(bits).as_joules();
            // Two clean single-attempt hops plus one full ARQ budget of
            // tx+rx attempts into the downed link.
            let attempts = config.arq.max_transmissions as f64;
            let expect = (2.0 + attempts) * (tx + rx);
            assert!((report.total_energy.as_joules() - expect).abs() < 1e-15);
            assert_eq!(
                report.transmissions,
                2 + u64::from(config.arq.max_transmissions)
            );
        }

        #[test]
        fn faulted_observed_ledger_attributes_both_ends_of_a_downed_link() {
            let pair = Topology::new(vec![Position::new(0.0, 0.0), Position::new(20.0, 0.0)]);
            let mut config = LossyConfig::bruised_channel();
            config.ber = 0.0;
            let faults = FaultSchedule::new(vec![FaultEvent::LinkOutage {
                a: 1,
                b: 0,
                from: 1,
                until: 2,
            }]);
            let (report, obs) =
                simulate_lossy_gathering_faulted_observed(&pair, &config, 3, 3, &faults);
            assert_eq!(report.dropped_fault, 1);
            assert_eq!(obs.packets.dropped_fault, 1);
            let bits = config.packet.total_bits();
            let tx = config
                .radio
                .transmit_energy(bits, Length::from_meters(20.0))
                .as_joules();
            let rx = config.radio.receive_energy(bits).as_joules();
            let attempts = config.arq.max_transmissions as f64;
            // Sender: one clean attempt per delivered round plus the
            // full budget into the outage. Sink: a listen for each.
            let want_tx = (2.0 + attempts) * tx;
            let want_rx = (2.0 + attempts) * rx;
            let got_tx = obs.ledger.category_total(EnergyCategory::Tx).as_joules();
            let got_rx = obs
                .ledger
                .category_total(EnergyCategory::RxRelay)
                .as_joules();
            assert!((got_tx - want_tx).abs() < 1e-15, "{got_tx} vs {want_tx}");
            assert!((got_rx - want_rx).abs() < 1e-15, "{got_rx} vs {want_rx}");
        }
    }

    mod regions {
        use super::*;

        fn par(topology: &Topology, rounds: u64, seed: u64, threads: usize) -> LossyReport {
            let config = LossyConfig::bruised_channel();
            simulate_lossy_gathering_faulted_par(
                topology,
                &config,
                rounds,
                seed,
                &FaultSchedule::empty(),
                threads,
            )
        }

        #[test]
        #[should_panic(expected = "at least one worker")]
        fn lossy_zero_threads_rejected() {
            let _ = par(&Topology::grid(3, Length::from_meters(20.0)), 1, 2003, 0);
        }

        #[test]
        fn small_runs_fall_back_to_serial_and_count_it() {
            // Default heuristic: a 16-node grid can never cover the
            // per-worker floor, so `_par` must run one region —
            // observable only through the counters, because the results
            // are bit-identical either way.
            set_par_min_nodes_per_worker(None);
            reset_par_engagement_counters();
            let lossy = par(&topo(), 10, 3, 8);
            assert_eq!(par_serial_fallback_count(), 1);
            assert_eq!(par_engaged_count(), 0);
            assert_eq!(
                lossy,
                simulate_lossy_gathering(&topo(), &LossyConfig::bruised_channel(), 10, 3)
            );
        }

        #[test]
        fn one_worker_always_falls_back() {
            set_par_min_nodes_per_worker(Some(0));
            reset_par_engagement_counters();
            let _ = par(&Topology::grid(3, Length::from_meters(30.0)), 5, 1, 1);
            assert_eq!(par_serial_fallback_count(), 1);
            assert_eq!(par_engaged_count(), 0);
        }

        #[test]
        fn override_engages_and_counts() {
            set_par_min_nodes_per_worker(Some(0));
            reset_par_engagement_counters();
            let _ = par(&Topology::grid(3, Length::from_meters(30.0)), 5, 1, 2);
            assert_eq!(par_engaged_count(), 1);
            assert_eq!(par_serial_fallback_count(), 0);
            let restored = set_par_min_nodes_per_worker(None);
            assert_eq!(restored, Some(0));
            assert_eq!(par_min_nodes_per_worker(), PAR_MIN_NODES_PER_WORKER);
        }

        #[test]
        fn serial_entry_points_and_sessions_count_nothing() {
            reset_par_engagement_counters();
            let config = LossyConfig::bruised_channel();
            let _ = simulate_lossy_gathering(&topo(), &config, 5, 1);
            let _ = LossySession::new(&topo(), &config).run(5, 1);
            assert_eq!((par_engaged_count(), par_serial_fallback_count()), (0, 0));
        }
    }
}
