//! Proof that the healthy round loops are allocation-free: a counting
//! global allocator measures whole simulations at two very different
//! round counts — if any allocation happened per round, the counts
//! would differ. (This binary holds exactly one test so no concurrent
//! *test* pollutes the counter; the libtest harness itself still owns a
//! waiting thread that occasionally allocates mid-window, which is why
//! each workload is measured as a minimum over several attempts — see
//! [`steady_allocations`].)

use ami_net::{
    set_par_min_nodes_per_worker, simulate_gathering, simulate_lossy_gathering,
    simulate_lossy_gathering_faulted_par, GatherSession, LossyConfig, LossySession, NetworkConfig,
    RoutingStrategy, Topology,
};
use ami_sim::fault::FaultSchedule;
use ami_units::Length;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a
// side-effect-only atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Minimum allocation count of `work` over `attempts` runs.
///
/// The simulation's own allocations are deterministic, but the global
/// counter also sees the libtest harness's waiting thread, which
/// allocates a couple of times at unpredictable moments. That noise is
/// strictly additive — a concurrent thread can only inflate a window,
/// never shrink it — so the minimum over a few attempts is the true
/// per-run count, and the equality assertions below stay *exact*.
fn steady_allocations(attempts: usize, mut work: impl FnMut()) -> u64 {
    (0..attempts)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            work();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
fn healthy_round_loops_allocate_nothing_per_round() {
    let topo = Topology::random(80, Length::from_meters(220.0), 17);
    let config = NetworkConfig::sensor_default();
    let lossy = LossyConfig::bruised_channel();

    // Warm the topology's CSR cache so every measured run starts from
    // the same state (the cache builds once per topology, not per run).
    let _ = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 1);
    let _ = simulate_lossy_gathering(&topo, &lossy, 1, 3);

    // Setup and teardown allocate (budgets, scratch buffers, the one
    // route build, the report); the rounds themselves must not, so a
    // 100x longer run costs exactly the same number of allocations.
    let gather_short = steady_allocations(5, || {
        let _ = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 10);
    });
    let gather_long = steady_allocations(5, || {
        let _ = simulate_gathering(&topo, RoutingStrategy::MinimumEnergy, &config, 1000);
    });
    assert_eq!(
        gather_short, gather_long,
        "gather round loop allocated ({gather_short} vs {gather_long} allocations)"
    );
    assert!(gather_short > 0, "the counter must actually be counting");

    let lossy_short = steady_allocations(5, || {
        let _ = simulate_lossy_gathering(&topo, &lossy, 10, 3);
    });
    let lossy_long = steady_allocations(5, || {
        let _ = simulate_lossy_gathering(&topo, &lossy, 1000, 3);
    });
    assert_eq!(
        lossy_short, lossy_long,
        "lossy round loop allocated ({lossy_short} vs {lossy_long} allocations)"
    );

    // The same kernel on two regions: worker spawn, region partition
    // and tallies are per-run costs; the per-round walk and commit must
    // reuse them. The floor is forced to zero so the 80-node fixture
    // really runs two regions, then restored.
    let floor = set_par_min_nodes_per_worker(Some(0));
    let two_regions = |rounds| {
        let _ = simulate_lossy_gathering_faulted_par(
            &topo,
            &lossy,
            rounds,
            3,
            &FaultSchedule::empty(),
            2,
        );
    };
    let regions_short = steady_allocations(5, || two_regions(10));
    let regions_long = steady_allocations(5, || two_regions(1000));
    set_par_min_nodes_per_worker(floor);
    assert_eq!(
        regions_short, regions_long,
        "two-region lossy rounds allocated ({regions_short} vs {regions_long} allocations)"
    );

    // Session runs: the route cache, packed next-hop image and the
    // aggregation scratch (tally arrays, finals, the memoized value
    // stream) persist across runs, so a warm rerun allocates only the
    // fresh per-run state — flat in the round count and strictly less
    // than a one-shot run, which rebuilds routes and scratch.
    let mut session = GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, &config);
    let _ = session.run(10);
    let session_short = steady_allocations(5, || {
        let _ = session.run(10);
    });
    let session_long = steady_allocations(5, || {
        let _ = session.run(1000);
    });
    assert_eq!(
        session_short, session_long,
        "gather session rounds allocated ({session_short} vs {session_long} allocations)"
    );
    assert!(
        session_short < gather_short,
        "session reuse must beat the one-shot path ({session_short} vs {gather_short})"
    );

    let mut lossy_session = LossySession::new(&topo, &lossy);
    let _ = lossy_session.run(10, 3);
    let lossy_session_short = steady_allocations(5, || {
        let _ = lossy_session.run(10, 3);
    });
    let lossy_session_long = steady_allocations(5, || {
        let _ = lossy_session.run(1000, 3);
    });
    assert_eq!(
        lossy_session_short, lossy_session_long,
        "lossy session rounds allocated ({lossy_session_short} vs {lossy_session_long})"
    );
    assert!(
        lossy_session_short < lossy_short,
        "lossy session reuse must beat the one-shot path \
         ({lossy_session_short} vs {lossy_short})"
    );
}
