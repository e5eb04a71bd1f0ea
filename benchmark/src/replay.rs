//! The layer replay of the traced run: each generated spec goes through
//! the public entry points of every layer it reaches, one span per
//! call, and the per-layer metrics are read off those spans.

use crate::gen::Input;
use crate::trace::{Span, Tracer};
use crate::wire::EngineCounts;
use ami_core::case_studies::cs1::{sweep_check_interval, Cs1Config};
use ami_net::{
    replicate_gathering_faulted_observed_threads, replicate_gathering_observed_threads,
    simulate_gathering_faulted_observed, simulate_gathering_faulted_observed_par,
    simulate_lossy_gathering_faulted, simulate_lossy_gathering_faulted_par, GatherSession,
    LossySession, RouteCache, RoutingStrategy,
};
use ami_scenario::{CompiledScenario, ScenarioSpec, TopologySpec, WorkloadSpec};
use ami_sim::fault::{FaultEvent, FaultSchedule, FaultTimeline};
use ami_sim::obs::NullRecorder;
use ami_units::TimeSpan;
use std::collections::BTreeMap;

type Error = Box<dyn std::error::Error>;

/// Per-layer metric name → one value per replayed spec that reached it.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

struct Replay<'a> {
    tracer: &'a Tracer,
    parent: Option<u64>,
    req: u64,
    out: &'a mut Samples,
}

impl Replay<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Span) {
        self.tracer.span(name, self.parent, self.req, f)
    }

    fn put(&mut self, metric: &'static str, value: f64) {
        self.out.entry(metric).or_default().push(value);
    }
}

/// Replays `input` (request id `req`) into `out`; PDES entry points run
/// on `threads` workers.
///
/// # Errors
///
/// A spec the program rejects, or a parallel run whose report differs
/// from the serial run of the same inputs.
pub fn replay(
    input: &Input,
    req: u64,
    threads: usize,
    tracer: &Tracer,
    out: &mut Samples,
) -> Result<(), Error> {
    let root = tracer.reserve();
    let start = tracer.now();
    let mut r = Replay {
        tracer,
        parent: Some(root),
        req,
        out,
    };
    let (spec, s) = r.span("scenario.parse", || {
        ScenarioSpec::from_json_str(&input.text)
    });
    let spec = spec?;
    r.put("scenario.parse_ms", s.ms());
    let (compiled, s) = r.span("scenario.compile", || CompiledScenario::compile(&spec));
    let compiled = compiled?;
    r.put("scenario.compile_ms", s.ms());
    let (manifest, _) = r.span("scenario.run", || compiled.run_threads(1));
    let (json, s) = r.span("sim.obs.manifest_encode", || manifest.to_json());
    r.put("sim.obs.manifest_encode_ms", s.ms());
    r.put("sim.obs.manifest_bytes", json.len() as f64);
    let result = match (&spec.workload, &spec.topology) {
        (WorkloadSpec::Cs1DutyCycle { .. }, _) => {
            let intervals: Vec<TimeSpan> = spec
                .axis("check_interval_s")
                .unwrap_or_default()
                .iter()
                .map(|&s| TimeSpan::from_seconds(s))
                .collect();
            let (_, s) = r.span("core.cs1.sweep", || {
                sweep_check_interval(&Cs1Config::default(), &intervals)
            });
            r.put("core.cs1.sweep_ms", s.ms());
            Ok(())
        }
        (WorkloadSpec::Gathering { strategy }, Some(layout)) if spec.replications > 1 => {
            replicated(&mut r, &spec, &compiled, *strategy, layout)
        }
        (_, Some(layout)) => single_run(&mut r, &spec, &compiled, layout, threads),
        _ => Err(format!("spec {} has no layout to replay", spec.name).into()),
    };
    tracer.record(Span {
        id: root,
        parent: None,
        req,
        name: "bench.replay",
        start,
        end: tracer.now(),
    });
    result
}

fn replicated(
    r: &mut Replay,
    spec: &ScenarioSpec,
    compiled: &CompiledScenario,
    strategy: RoutingStrategy,
    layout: &TopologySpec,
) -> Result<(), Error> {
    let (n, rounds, reps) = (layout.node_count(), spec.rounds, spec.replications as usize);
    let config = compiled.network_config();
    let (_, s) = r.span("net.replicate.run", || match compiled.fault_spec() {
        Some(faults) => replicate_gathering_faulted_observed_threads(
            1,
            reps,
            spec.seed,
            |seed| layout.build(seed),
            |seed| faults.schedule_for(seed, n, rounds),
            strategy,
            config,
            rounds,
        ),
        None => replicate_gathering_observed_threads(
            1,
            reps,
            spec.seed,
            |seed| layout.build(seed),
            strategy,
            config,
            rounds,
        ),
    });
    r.put("net.replicate.run_ms", s.ms());
    Ok(())
}

/// A single run on a pinned layout: topology, adjacency, fault
/// timeline, routing, then the serial and region-parallel kernels.
fn single_run(
    r: &mut Replay,
    spec: &ScenarioSpec,
    compiled: &CompiledScenario,
    layout: &TopologySpec,
    threads: usize,
) -> Result<(), Error> {
    let rounds = spec.rounds;
    let (topo, s) = r.span("net.topology.build", || layout.build(spec.seed));
    r.put("net.topology.build_ms", s.ms());
    let n = topo.len();
    let network = compiled.network_config();
    let (csr, s) = r.span("net.csr.build", || topo.csr_within(network.max_hop));
    r.put("net.csr.build_ms", s.ms());
    r.put("net.csr.edges", csr.edge_count() as f64);

    let schedule = match compiled.fault_spec() {
        Some(faults) => {
            let (schedule, s) = r.span("sim.fault.schedule", || {
                faults.schedule_for(spec.seed, n, rounds)
            });
            r.put("sim.fault.schedule_ms", s.ms());
            let (_, s) = r.span("sim.fault.timeline_compile", || {
                FaultTimeline::compile(&schedule, n)
            });
            r.put("sim.fault.timeline_compile_ms", s.ms());
            r.put("sim.fault.transitions", transitions(&schedule) as f64);
            schedule
        }
        None => FaultSchedule::empty(),
    };
    let faulted = !schedule.is_empty();

    let lossy = compiled.lossy_config();
    let (strategy, radio, bits) = match (&spec.workload, lossy) {
        (WorkloadSpec::Gathering { strategy }, _) => {
            (*strategy, &network.radio, network.packet.total_bits())
        }
        (_, Some(config)) => (
            RoutingStrategy::MinimumEnergy,
            &config.radio,
            config.packet.total_bits(),
        ),
        _ => return Err(format!("spec {} has no network kernel", spec.name).into()),
    };
    let usable = vec![true; n];
    let (_, s) = r.span("net.routing.build", || {
        let mut cache = RouteCache::new(n);
        cache.ensure(&topo, strategy, radio, network.max_hop, bits, &usable);
        cache
    });
    r.put("net.routing.build_ms", s.ms());

    let per_round = |span: &Span| span.ms() / rounds as f64;
    let session_start = EngineCounts::read();
    // The serial one-shot run, its engine counts, and the parallel run
    // of the same inputs.
    let (serial, serial_counts, par, same) = if let Some(config) = lossy {
        let mut session = LossySession::new(&topo, config);
        session.run(1, spec.seed);
        let (report, s) = r.span("net.lossy.rounds", || {
            session.run_faulted_with(rounds, spec.seed, &schedule, &mut NullRecorder)
        });
        r.put("net.lossy.round_ms", per_round(&s));
        r.put("net.lossy.tx_per_packet", report.tx_per_packet());
        r.put("net.lossy.delivery_ratio", report.delivery_ratio());
        let before = EngineCounts::read();
        let (serial_report, serial) = r.span("net.lossy.oneshot", || {
            simulate_lossy_gathering_faulted(&topo, config, rounds, spec.seed, &schedule)
        });
        let serial_counts = EngineCounts::read().since(before);
        let (par_report, par) = r.span("net.pdes.lossy", || {
            simulate_lossy_gathering_faulted_par(
                &topo, config, rounds, spec.seed, &schedule, threads,
            )
        });
        r.put("net.pdes.lossy_round_ms", per_round(&par));
        (serial, serial_counts, par, serial_report == par_report)
    } else {
        let mut session = GatherSession::new(&topo, strategy, network);
        session.run(1);
        let (_, s) = r.span("net.gather.rounds", || session.run(rounds));
        r.put("net.gather.round_ms", per_round(&s));
        if faulted {
            let (_, s) = r.span("net.gather.faulted_rounds", || {
                session.run_faulted_with(rounds, &schedule, &mut NullRecorder)
            });
            r.put("net.gather.faulted_round_ms", per_round(&s));
        }
        let before = EngineCounts::read();
        let ((serial_report, serial_obs), serial) = r.span("net.gather.oneshot", || {
            simulate_gathering_faulted_observed(&topo, strategy, network, rounds, &schedule)
        });
        let serial_counts = EngineCounts::read().since(before);
        let agg = EngineCounts::read().since(session_start);
        let agg_rounds = (agg.agg_engaged + agg.agg_fallback).max(1);
        r.put(
            "net.agg.engaged_ratio",
            agg.agg_engaged as f64 / agg_rounds as f64,
        );
        let ((par_report, par_obs), par) = r.span("net.pdes.gather", || {
            simulate_gathering_faulted_observed_par(
                &topo, strategy, network, rounds, &schedule, threads,
            )
        });
        r.put("net.pdes.gather_round_ms", per_round(&par));
        let same = serial_report == par_report && serial_obs.ledger == par_obs.ledger;
        (serial, serial_counts, par, same)
    };
    let par_counts = EngineCounts::read().since(session_start);
    r.put("net.routing.builds", serial_counts.route_builds as f64);
    r.put("net.routing.repairs", serial_counts.route_repairs as f64);
    r.put("net.pdes.engaged", par_counts.par_engaged as f64);
    r.put("net.pdes.serial_fallbacks", par_counts.par_fallback as f64);
    r.put("net.pdes.speedup", serial.ms() / par.ms());
    r.put("net.pdes.speedup_serial_ms", serial.ms());
    r.put("net.pdes.speedup_par_ms", par.ms());
    if !same {
        return Err(format!("{}: parallel run differs from the serial run", spec.name).into());
    }
    Ok(())
}

/// Fault-timeline transitions: one per death, two per outage window.
fn transitions(schedule: &FaultSchedule) -> usize {
    schedule
        .events()
        .iter()
        .map(|event| match event {
            FaultEvent::NodeDeath { .. } => 1,
            FaultEvent::NodeOutage { .. } | FaultEvent::LinkOutage { .. } => 2,
            _ => 0,
        })
        .sum()
}
