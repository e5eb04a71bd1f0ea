//! Benchmarks of the three simulators at realistic problem sizes.

use ami_bench::BENCH_SEED;
use ami_dvs::{simulate_taskset, DvsPolicy, TaskSet};
use ami_energy::{simulate_buffered_harvesting, EnvironmentProfile, Harvester, Pmu, Storage};
use ami_net::{GatherSession, NetworkConfig, RoutingStrategy, Topology};
use ami_tech::TechnologyNode;
use ami_units::{Area, Energy, Length, Power, TimeSpan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_network_gathering(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_gathering");
    for side in [4usize, 8, 12] {
        let topo = Topology::grid(side, Length::from_meters(25.0));
        let config = NetworkConfig::sensor_default();
        group.bench_with_input(
            BenchmarkId::new("min_energy_100_rounds", side * side),
            &topo,
            |b, topo| {
                b.iter(|| {
                    GatherSession::new(black_box(topo), RoutingStrategy::MinimumEnergy, &config)
                        .run(100)
                })
            },
        );
    }
    group.finish();
}

fn bench_network_with_deaths(c: &mut Criterion) {
    // Route rebuilds on node death are the expensive path.
    let topo = Topology::random(60, Length::from_meters(120.0), BENCH_SEED);
    let mut config = NetworkConfig::sensor_default();
    config.node_energy = Energy::from_millijoules(200.0);
    c.bench_function("network_gathering/with_deaths_60n_2000r", |b| {
        b.iter(|| {
            GatherSession::new(black_box(&topo), RoutingStrategy::MinimumEnergy, &config).run(2000)
        })
    });
}

fn bench_dvs_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dvs_taskset");
    let dsp = ami_arch::Processor::new(
        "dsp",
        ami_arch::ArchitectureClass::Dsp,
        TechnologyNode::n130(),
    );
    let tasks = TaskSet::personal_audio();
    for policy in DvsPolicy::all() {
        group.bench_with_input(
            BenchmarkId::new("10s_horizon", policy.to_string()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    simulate_taskset(
                        black_box(&dsp),
                        &tasks,
                        policy,
                        TimeSpan::from_seconds(10.0),
                        BENCH_SEED,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_harvest_simulation(c: &mut Criterion) {
    let harvester = Harvester::photovoltaic(Area::from_square_centimeters(8.0));
    let pmu = Pmu::micro_power();
    let profile = EnvironmentProfile::office_day();
    c.bench_function("harvest/one_week_1min_steps", |b| {
        b.iter(|| {
            let mut storage = Storage::new(Energy::from_joules(3.0), Power::from_nanowatts(100.0));
            simulate_buffered_harvesting(
                black_box(&harvester),
                &pmu,
                &mut storage,
                Power::from_microwatts(10.0),
                &profile,
                TimeSpan::from_days(7.0),
                TimeSpan::from_minutes(1.0),
            )
        })
    });
}

fn bench_clustered_gathering(c: &mut Criterion) {
    let topo = Topology::grid(6, Length::from_meters(30.0));
    let radio = ami_radio::RadioEnergyModel::short_range_2003();
    c.bench_function("network_gathering/clustered_36n_1000r", |b| {
        b.iter(|| {
            ami_net::simulate_clustered(
                black_box(&topo),
                &radio,
                &ami_net::ClusterConfig::classic(),
                Energy::from_joules(5.0),
                1000,
                BENCH_SEED,
            )
        })
    });
}

fn bench_event_driven_cs1_day(c: &mut Criterion) {
    let config = ami_core::case_studies::cs1::Cs1Config::default();
    c.bench_function("cs1/event_driven_day_trace", |b| {
        b.iter(|| ami_core::case_studies::cs1_trace::trace_one_day(black_box(&config)))
    });
}

fn bench_parallel_replication(c: &mut Criterion) {
    // The acceptance workload for the parallel runner: 200 replications
    // of a full gathering simulation on a seeded random topology, serial
    // versus the seed-partitioned parallel path at 2/4/8 workers. The
    // per-seed work (~hundreds of µs) dwarfs the scoped-thread setup, so
    // on a multi-core host the parallel rows win; the parallel rows
    // compute the bit-identical Summary (asserted in
    // tests/determinism.rs), here we only time them.
    let replications = 200;
    let config = NetworkConfig::sensor_default();
    let config = &config;
    let observable = |seed: u64| {
        let topo = Topology::random(30, Length::from_meters(100.0), seed);
        GatherSession::new(&topo, RoutingStrategy::MinimumEnergy, config)
            .run(50)
            .total_energy
            .as_joules()
    };
    let mut group = c.benchmark_group("replicate_200x_random_gathering");
    group.bench_function("serial", |b| {
        b.iter(|| ami_sim::replicate(black_box(replications), BENCH_SEED, observable))
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    ami_sim::replicate_par_threads(
                        threads,
                        black_box(replications),
                        BENCH_SEED,
                        observable,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_variation_monte_carlo(c: &mut Criterion) {
    let model = ami_tech::VariationModel::typical_2003();
    let node = TechnologyNode::n90();
    c.bench_function("variation/yield_2000_dies", |b| {
        b.iter(|| {
            model.parametric_yield(
                black_box(&node),
                100e3,
                ami_units::Temperature::ROOM,
                ami_units::Frequency::from_gigahertz(1.05),
                Power::from_milliwatts(5.0),
                2000,
                BENCH_SEED,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_network_gathering,
    bench_network_with_deaths,
    bench_dvs_simulation,
    bench_harvest_simulation,
    bench_clustered_gathering,
    bench_event_driven_cs1_day,
    bench_parallel_replication,
    bench_variation_monte_carlo
);
criterion_main!(benches);
