//! End-to-end benchmark of the ambience scenario service.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <city_steady|city_churn|city_lossy|svc_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is served through the `ami_svcd` wire protocol by an
//! in-process `ami_svc::server::Server` on loopback, from closed-loop
//! clients in this process. Every response's manifest is compared byte
//! for byte with the serial run of the same spec, computed in set-up.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` serves the
//! same inputs untraced and then traced, replays them through each
//! layer's public entry points, and prints the per-layer metrics and
//! the tracing overhead. The last stdout line is the JSON result.

mod gen;
mod heap;
mod replay;
mod trace;
mod wire;

use ami_scenario::{CompiledScenario, ScenarioSpec};
use ami_svc::server::Server;
use ami_svc::Service;
use gen::{Kind, Plan, CACHE_CAPACITY};
use replay::Samples;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use wire::{EngineCounts, Outcome};

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

type Error = Box<dyn std::error::Error>;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// One n = 100 000 spec of this kind, re-sent.
    City(Kind),
    /// The `svc_mix` traffic of small specs.
    Mix,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag);
        at.and_then(|k| argv.get(k + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    let workload = match name {
        "city_steady" => Workload::City(Kind::CitySteady),
        "city_churn" => Workload::City(Kind::CityChurn),
        "city_lossy" => Workload::City(Kind::CityLossy),
        "svc_mix" => Workload::Mix,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        name: name.to_owned(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// What a run prints: human-readable lines, then the JSON result.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name:<34} {value:>16.6} {unit}"));
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, outcomes: &[Outcome]) {
        self.attempted += outcomes.iter().map(|o| o.requests).sum::<usize>();
        self.failed += outcomes.iter().map(|o| o.failed).sum::<usize>();
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in report.lines.iter().chain(&report.problems) {
                println!("{line}");
            }
            println!("{}", report.json());
        }
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Report, Error> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let city = args.workload != Workload::Mix;
    let plan = match args.workload {
        Workload::City(kind) => gen::city_plan(kind, args.seed, nproc),
        Workload::Mix => gen::mix_plan(args.seed),
    };
    let mut report = Report::default();
    report.lines.push(format!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} request_threads {} connections {} specs {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.threads,
        plan.connections,
        plan.pool.len()
    ));

    // Reference manifests: the serial run of every spec (not timed).
    let before = EngineCounts::read();
    let references = plan
        .pool
        .iter()
        .map(|input| {
            let compiled = CompiledScenario::compile(&ScenarioSpec::from_json_str(&input.text)?)?;
            Ok(compiled.run_threads(1).to_json())
        })
        .collect::<Result<Vec<String>, Error>>()?;
    let reference_counts = EngineCounts::read().since(before);
    if city {
        report
            .lines
            .push(format!("reference engine path: {reference_counts:?}"));
    }

    if args.trace {
        traced(
            args,
            nproc,
            &plan,
            &references,
            reference_counts,
            &mut report,
        )?;
        return Ok(report);
    }

    let (setup_s, addr) = if city {
        let setups = (0..SETUP_REPEATS)
            .map(|_| {
                let start = Instant::now();
                let spec = ScenarioSpec::from_json_str(&plan.pool[0].text);
                let compiled = spec.and_then(|spec| CompiledScenario::compile(&spec));
                compiled.map(|_| start.elapsed().as_secs_f64())
            })
            .collect::<Result<Vec<f64>, _>>()?;
        let addr = start_server()?;
        report.count(&wire::warm_up(addr, &plan, &references)?);
        (median(&setups), addr)
    } else {
        // Bind, connect and warm the cache of a fresh server each time;
        // the last one serves the timed phase.
        let mut setups = Vec::new();
        let mut addr = None;
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            let bound = start_server()?;
            let warm = wire::warm_up(bound, &plan, &references)?;
            setups.push(start.elapsed().as_secs_f64());
            report.count(&warm);
            addr = Some(bound);
        }
        (median(&setups), addr.expect("at least one set-up"))
    };

    let (outcomes, elapsed) = wire::closed_loop(addr, &plan, &references, args.seconds, None)?;
    report.count(&outcomes);
    let stats = WireStats::of(&plan, &outcomes, elapsed, city);
    served_traffic(&plan, &outcomes, &mut report);
    report.metric("setup_s", setup_s, "s");
    report.metric("node_rounds_per_s", stats.node_rounds_per_s, "1/s");
    report.metric("req_p50_ms", stats.p50_ms, "ms");
    report.metric("req_p90_ms", stats.p90_ms, "ms");
    report.metric("throughput_rps", stats.rps, "1/s");
    report.metric("peak_heap_mib", heap::peak_mib(), "MiB");
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report
        .lines
        .push(format!("{:<34} {failed_ratio:>16.6} ratio", "failed_ratio"));
    report.lines.push(format!(
        "{:<34} {:>16.6} MiB",
        "peak_rss_mib",
        peak_rss_mib()?
    ));
    Ok(report)
}

/// Binds an `ami_svc` server with the daemon's cache capacity on a
/// loopback port and serves it from a background thread.
fn start_server() -> Result<SocketAddr, Error> {
    let service = Arc::new(Service::new(CACHE_CAPACITY));
    let server = Server::bind("127.0.0.1:0", service)?;
    let addr = server.local_addr()?;
    // `serve` only returns on an accept error; the thread ends with the
    // process.
    std::thread::spawn(move || server.serve());
    Ok(addr)
}

struct WireStats {
    node_rounds_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    rps: f64,
}

impl WireStats {
    /// City workloads: nodes × rounds ÷ the median request time. The
    /// mix: node-rounds of every answered request ÷ wall time.
    fn of(plan: &Plan, outcomes: &[Outcome], elapsed: f64, city: bool) -> Self {
        let latencies: Vec<f64> = outcomes
            .iter()
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        let p50_ms = quantile(&latencies, 0.5);
        let node_rounds_per_s = if city {
            plan.pool[0].node_rounds as f64 / (p50_ms / 1e3)
        } else {
            outcomes.iter().map(|o| o.node_rounds).sum::<u64>() as f64 / elapsed
        };
        Self {
            node_rounds_per_s,
            p50_ms,
            p90_ms: quantile(&latencies, 0.9),
            rps: outcomes.len() as f64 / elapsed,
        }
    }
}

/// The traffic a timed phase actually served.
fn served_traffic(plan: &Plan, outcomes: &[Outcome], report: &mut Report) {
    let frames = outcomes.len().max(1) as f64;
    let requests: usize = outcomes.iter().map(|o| o.requests).sum();
    let hits: usize = outcomes.iter().map(|o| o.cache_hits).sum();
    let batches = outcomes.iter().filter(|o| o.batch).count();
    let beyond_p90 = outcomes.len() - (outcomes.len() as f64 * 0.9).ceil() as usize;
    report.lines.push(format!(
        "served frames {} requests {requests} samples_beyond_p90 {beyond_p90}",
        outcomes.len()
    ));
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for o in outcomes {
        *by_kind.entry(plan.pool[o.spec].kind.label()).or_default() += 1;
    }
    let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}={n}")).collect();
    report
        .lines
        .push(format!("served frames by kind: {}", kinds.join(" ")));
    report.lines.push(format!(
        "served shares: cache_hit {:.4} batch {:.4} duplicate {:.4}",
        hits as f64 / requests.max(1) as f64,
        batches as f64 / frames,
        // A batch `[x, x, y]` repeats one spec once.
        batches as f64 / requests.max(1) as f64
    ));
}

/// The traced run: the untraced wire phase, the same phase traced, and
/// the layer replay.
fn traced(
    args: &Args,
    nproc: usize,
    plan: &Plan,
    references: &[String],
    reference_counts: EngineCounts,
    report: &mut Report,
) -> Result<(), Error> {
    let city = args.workload != Workload::Mix;
    // The untraced and traced phases split the run's time.
    let phase = args.seconds / 2.0;
    let addr = start_server()?;
    report.count(&wire::warm_up(addr, plan, references)?);
    let (outcomes, elapsed) = wire::closed_loop(addr, plan, references, phase, None)?;
    report.count(&outcomes);
    let untraced = WireStats::of(plan, &outcomes, elapsed, city);

    let tracer = Tracer::new();
    let service = Service::new(CACHE_CAPACITY);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let (served, client) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            wire::traced_server(&listener, plan.connections + 1, &service, &tracer, &stop)
        });
        let client = wire::warm_up(addr, plan, references).and_then(|warm| {
            let (outcomes, elapsed) =
                wire::closed_loop(addr, plan, references, phase, Some(&tracer))?;
            Ok((warm, outcomes, elapsed))
        });
        // Wake the server if a client failed before connecting.
        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(addr));
        (server.join().expect("traced server panicked"), client)
    });
    let counts = served?;
    let (warm, outcomes, elapsed) = client?;
    report.count(&warm);
    report.count(&outcomes);
    let traced = WireStats::of(plan, &outcomes, elapsed, city);
    served_traffic(plan, &outcomes, report);

    // Engine paths of the served requests must repeat exactly.
    if city {
        report.lines.push(format!(
            "served engine path: {:?} ({} requests)",
            counts.first(),
            counts.len()
        ));
        let steady = counts.iter().all(|c| {
            *c == counts[0]
                && c.route_builds == reference_counts.route_builds
                && c.route_repairs == reference_counts.route_repairs
        });
        if !steady {
            report.problems.push(format!(
                "engine-path counts differ between runs: {counts:?}"
            ));
        }
    }

    // Layer replay: this workload's specs, plus one spec of each mix
    // kind for the layers a city workload does not reach.
    let replay_set = |inputs: &[gen::Input], first: u64| -> Result<Samples, Error> {
        let mut samples = Samples::new();
        for (k, input) in inputs.iter().enumerate() {
            replay::replay(input, first + k as u64, nproc, &tracer, &mut samples)?;
        }
        Ok(samples)
    };
    let hot = if city {
        &plan.pool[..]
    } else {
        &plan.pool[..plan.warmup.len()]
    };
    // Replay request ids start past any wire request number.
    let own = replay_set(hot, 1_000_000)?;
    let probe = if city {
        replay_set(&gen::mix_probe(args.seed), 2_000_000)?
    } else {
        Samples::new()
    };

    let spans = tracer.spans();
    let self_ms = trace::self_times(&spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, own_ms) in spans.iter().zip(&self_ms) {
        *by_layer.entry(span.layer()).or_default() += own_ms;
    }
    report.lines.push(format!("spans recorded {}", spans.len()));
    for (layer, ms) in &by_layer {
        report
            .lines
            .push(format!("self time {layer:<24} {ms:>14.3} ms"));
    }
    let path = std::path::PathBuf::from(".bench_spans")
        .join(format!("{}-seed{}.jsonl", args.name, args.seed));
    tracer.write(&path)?;
    report
        .lines
        .push(format!("spans written to {}", path.display()));

    // Wire-layer metrics from the timed phase (spans with a parent).
    let wire_ms = |name: &str| {
        let values: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some())
            .map(|s| s.ms())
            .collect();
        quantile(&values, 0.5)
    };
    let wire_wait: Vec<f64> = spans
        .iter()
        .zip(&self_ms)
        .filter(|(s, _)| s.name == "svc.request")
        .map(|(_, ms)| *ms)
        .collect();
    let stats = service.cache_stats();
    let lookups = (stats.hits + stats.misses + stats.coalesced).max(1);
    let requests_sent: usize = warm.iter().chain(&outcomes).map(|o| o.requests).sum();
    let executions = service
        .metrics()
        .child("requests")
        .and_then(|r| r.child("executions"))
        .map_or(0, |e| e.total());
    let answered = outcomes
        .iter()
        .map(|o| o.requests - o.failed)
        .sum::<usize>()
        .max(1);
    let depth: u64 = outcomes.iter().map(|o| o.queue_depth_sum).sum();

    report.metric("svc.decode_ms", wire_ms("svc.decode"), "ms");
    report.metric("svc.submit_ms", wire_ms("svc.submit"), "ms");
    report.metric("svc.encode_ms", wire_ms("svc.encode"), "ms");
    report.metric("svc.wire_wait_ms", quantile(&wire_wait, 0.5), "ms");
    report.metric(
        "svc.queue_depth_mean",
        depth as f64 / answered as f64,
        "count",
    );
    report.metric(
        "svc.exec_per_request",
        executions as f64 / requests_sent.max(1) as f64,
        "ratio",
    );
    report.metric(
        "scenario.cache_hit_ratio",
        stats.hits as f64 / lookups as f64,
        "ratio",
    );
    report.metric("scenario.cache_coalesced", stats.coalesced as f64, "count");
    for (name, unit) in REPLAY_METRICS {
        let values = own.get(name).or_else(|| probe.get(name));
        let Some(values) = values else {
            report.problems.push(format!("no replay reached {name}"));
            report.metric(name, 0.0, unit);
            continue;
        };
        report.metric(name, median(values), unit);
    }
    report.metric(
        "trace.overhead.req_p50_ms",
        traced.p50_ms - untraced.p50_ms,
        "ms",
    );
    report.metric(
        "trace.overhead.req_p90_ms",
        traced.p90_ms - untraced.p90_ms,
        "ms",
    );
    report.metric(
        "trace.overhead.throughput_rps",
        traced.rps - untraced.rps,
        "1/s",
    );
    report.metric(
        "trace.overhead.node_rounds_per_s",
        traced.node_rounds_per_s - untraced.node_rounds_per_s,
        "1/s",
    );
    Ok(())
}

/// Per-layer metrics read off the layer replay, with their units.
const REPLAY_METRICS: [(&str, &str); 28] = [
    ("scenario.parse_ms", "ms"),
    ("scenario.compile_ms", "ms"),
    ("sim.obs.manifest_encode_ms", "ms"),
    ("sim.obs.manifest_bytes", "B"),
    ("core.cs1.sweep_ms", "ms"),
    ("net.replicate.run_ms", "ms"),
    ("net.topology.build_ms", "ms"),
    ("net.csr.build_ms", "ms"),
    ("net.csr.edges", "count"),
    ("sim.fault.schedule_ms", "ms"),
    ("sim.fault.timeline_compile_ms", "ms"),
    ("sim.fault.transitions", "count"),
    ("net.routing.build_ms", "ms"),
    ("net.routing.builds", "count"),
    ("net.routing.repairs", "count"),
    ("net.gather.round_ms", "ms"),
    ("net.gather.faulted_round_ms", "ms"),
    ("net.agg.engaged_ratio", "ratio"),
    ("net.pdes.gather_round_ms", "ms"),
    ("net.pdes.lossy_round_ms", "ms"),
    ("net.pdes.speedup", "x"),
    ("net.pdes.speedup_serial_ms", "ms"),
    ("net.pdes.speedup_par_ms", "ms"),
    ("net.pdes.engaged", "count"),
    ("net.pdes.serial_fallbacks", "count"),
    ("net.lossy.round_ms", "ms"),
    ("net.lossy.tx_per_packet", "ratio"),
    ("net.lossy.delivery_ratio", "ratio"),
];

/// Linear-interpolation quantile (`q` in [0, 1]); NaN when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
