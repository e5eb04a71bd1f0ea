//! The wire side: closed-loop clients speaking `ami_svc::proto` frames,
//! the output check applied to every response, and the traced server
//! used by the traced run.

use crate::gen::Plan;
use crate::trace::{Span, Tracer};
use ami_scenario::json::{parse, JsonValue};
use ami_svc::proto::{
    decode_requests, encode_frame_error, encode_response, encode_responses, read_frame, write_frame,
};
use ami_svc::Service;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered frame.
pub struct Outcome {
    /// The frame's first spec (pool index).
    pub spec: usize,
    pub batch: bool,
    /// When the frame was sent, and how long its reply took.
    pub sent: Instant,
    pub latency: Duration,
    /// Responses that were errors, failed the output check, or were
    /// missing.
    pub failed: usize,
    pub requests: usize,
    pub cache_hits: usize,
    pub queue_depth_sum: u64,
    pub node_rounds: u64,
}

/// Renders a frame of the pool specs `specs`. Request ids are
/// `<tag>.<j>`, so the traced server can tie its spans to the client's.
pub fn render(plan: &Plan, specs: &[usize], tag: &str) -> String {
    let request = |j: usize, spec: usize| {
        format!(
            r#"{{"id":"{tag}.{j}","threads":{},"scenario":{}}}"#,
            plan.threads, plan.pool[spec].text
        )
    };
    if specs.len() == 1 {
        return request(0, specs[0]);
    }
    let items: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(j, &s)| request(j, s))
        .collect();
    format!("[{}]", items.join(","))
}

/// Sends one frame and checks the reply against the reference
/// manifests (`references[spec]`, the serial run of that spec).
pub fn exchange(
    conn: &mut TcpStream,
    plan: &Plan,
    references: &[String],
    specs: &[usize],
    tag: &str,
) -> Outcome {
    let payload = render(plan, specs, tag);
    let sent = Instant::now();
    let reply = write_frame(conn, payload.as_bytes()).and_then(|()| read_frame(conn));
    let latency = sent.elapsed();
    let mut outcome = Outcome {
        spec: specs[0],
        batch: specs.len() > 1,
        sent,
        latency,
        failed: specs.len(),
        requests: specs.len(),
        cache_hits: 0,
        queue_depth_sum: 0,
        node_rounds: 0,
    };
    let Ok(Some(reply)) = reply else {
        return outcome;
    };
    let Ok(text) = String::from_utf8(reply) else {
        return outcome;
    };
    let Ok(doc) = parse(&text) else {
        return outcome;
    };
    let docs = match &doc {
        JsonValue::Array(items) if specs.len() > 1 => items.iter().collect(),
        JsonValue::Object(_) if specs.len() == 1 => vec![&doc],
        _ => return outcome,
    };
    if docs.len() != specs.len() {
        return outcome;
    }
    // Manifests are the last member of each response object: walk them
    // in order and compare their bytes with the references.
    const KEY: &str = "\"manifest\":";
    let mut cursor = 0;
    outcome.failed = 0;
    for (j, (&spec, response)) in specs.iter().zip(docs).enumerate() {
        let reference = references[spec].trim_end();
        let id = format!("{tag}.{j}");
        let mut bytes_match = false;
        if let Some(at) = text[cursor..].find(KEY) {
            cursor += at + KEY.len();
            let rest = text[cursor..].strip_prefix(reference);
            bytes_match = rest.is_some_and(|rest| rest.starts_with('}'));
        }
        let ok = bytes_match
            && response.get("error").is_none()
            && response.get("id").and_then(JsonValue::as_str) == Some(id.as_str())
            && response.get("manifest").is_some_and(packets_conserved);
        if !ok {
            outcome.failed += 1;
            continue;
        }
        if response.get("cache_hit") == Some(&JsonValue::Bool(true)) {
            outcome.cache_hits += 1;
        }
        let depth = response.get("queue_depth").and_then(JsonValue::as_f64);
        outcome.queue_depth_sum += depth.unwrap_or(0.0) as u64;
        outcome.node_rounds += plan.pool[spec].node_rounds;
    }
    outcome
}

/// Packet conservation from a manifest's counters: offered equals
/// delivered plus every drop cause. Manifests without packet counters
/// (the CS1 study) pass.
pub fn packets_conserved(manifest: &JsonValue) -> bool {
    fn total(node: &JsonValue) -> Option<f64> {
        match node {
            JsonValue::Number(v) => Some(*v),
            JsonValue::Object(members) => members.iter().map(|(_, v)| total(v)).sum(),
            _ => None,
        }
    }
    let Some(packets) = manifest.get("counters").and_then(|c| c.get("packets")) else {
        return manifest.get("counters").is_some();
    };
    let field = |name| packets.get(name).and_then(total);
    match (field("offered"), field("delivered"), field("dropped")) {
        (Some(offered), Some(delivered), Some(dropped)) => offered == delivered + dropped,
        _ => false,
    }
}

/// The closed loop: `plan.connections` clients, each sending its next
/// frame as soon as the previous reply arrives, frames taken in plan
/// order (cycling) until `seconds` have passed. Returns the outcomes
/// and the wall time until the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    references: &[String],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> std::io::Result<(Vec<Outcome>, f64)> {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let conns: Vec<TcpStream> = (0..plan.connections)
        .map(|_| TcpStream::connect(addr))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, outcomes) = (&next, &outcomes);
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let sent = next.fetch_add(1, Ordering::Relaxed);
                    let specs = &plan.frames[sent % plan.frames.len()];
                    let outcome = match tracer {
                        None => exchange(&mut conn, plan, references, specs, &format!("r{sent}")),
                        Some(tracer) => {
                            // The request span's id rides in the request
                            // id, so server spans name it as parent.
                            let id = tracer.reserve();
                            let tag = format!("r{sent}s{id}");
                            let outcome = exchange(&mut conn, plan, references, specs, &tag);
                            let begin = tracer.at(outcome.sent);
                            let end = begin + outcome.latency.as_nanos() as u64;
                            tracer.record(Span {
                                id,
                                parent: None,
                                req: sent as u64,
                                name: "svc.request",
                                start: begin,
                                end,
                            });
                            outcome
                        }
                    };
                    outcomes.lock().expect("outcome log poisoned").push(outcome);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    Ok((
        outcomes.into_inner().expect("outcome log poisoned"),
        elapsed,
    ))
}

/// Sends the plan's warm-up frames one at a time on one connection.
pub fn warm_up(
    addr: SocketAddr,
    plan: &Plan,
    references: &[String],
) -> std::io::Result<Vec<Outcome>> {
    let mut conn = TcpStream::connect(addr)?;
    let mut outcomes = Vec::new();
    for (k, &spec) in plan.warmup.iter().enumerate() {
        outcomes.push(exchange(
            &mut conn,
            plan,
            references,
            &[spec],
            &format!("w{k}"),
        ));
    }
    Ok(outcomes)
}

/// Engine-path counters of the calling thread (the program keeps them
/// per thread).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub agg_engaged: u64,
    pub agg_fallback: u64,
    pub par_engaged: u64,
    pub par_fallback: u64,
    pub route_builds: u64,
    pub route_repairs: u64,
}

impl EngineCounts {
    pub fn read() -> Self {
        Self {
            agg_engaged: ami_net::agg_engaged_count(),
            agg_fallback: ami_net::agg_fallback_count(),
            par_engaged: ami_net::par_engaged_count(),
            par_fallback: ami_net::par_serial_fallback_count(),
            route_builds: ami_net::routing::route_build_count(),
            route_repairs: ami_net::routing::route_repair_count(),
        }
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            agg_engaged: self.agg_engaged - before.agg_engaged,
            agg_fallback: self.agg_fallback - before.agg_fallback,
            par_engaged: self.par_engaged - before.par_engaged,
            par_fallback: self.par_fallback - before.par_fallback,
            route_builds: self.route_builds - before.route_builds,
            route_repairs: self.route_repairs - before.route_repairs,
        }
    }
}

/// Parses `r<sent>s<span>.<j>` back into (request, parent span).
fn trace_context(id: &str) -> (u64, Option<u64>) {
    let parsed = id
        .strip_prefix('r')
        .and_then(|rest| rest.split_once('.'))
        .and_then(|(head, _)| head.split_once('s'))
        .and_then(|(sent, span)| Some((sent.parse().ok()?, span.parse().ok()?)));
    parsed.map_or((0, None), |(sent, span)| (sent, Some(span)))
}

/// The traced server: accepts up to `connections` connections on
/// `listener` and serves each the way `ami_svc::server` does — read a
/// frame, decode, submit, encode, write — with a span around each call
/// into the service. Stops accepting early once `stop` is set (the
/// caller then connects once to wake it). Returns the engine-path
/// counts of every single-request frame; ends when every client has
/// closed.
pub fn traced_server(
    listener: &TcpListener,
    connections: usize,
    service: &Service,
    tracer: &Tracer,
    stop: &AtomicBool,
) -> std::io::Result<Vec<EngineCounts>> {
    let counts = Mutex::new(Vec::new());
    std::thread::scope(|scope| -> std::io::Result<()> {
        for _ in 0..connections {
            let (stream, _) = listener.accept()?;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let counts = &counts;
            // A dropped connection ends its handler, as in `ami_svc::server`.
            scope.spawn(move || serve_traced(stream, service, tracer, counts));
        }
        Ok(())
    })?;
    Ok(counts.into_inner().expect("count log poisoned"))
}

fn serve_traced(
    mut stream: TcpStream,
    service: &Service,
    tracer: &Tracer,
    counts: &Mutex<Vec<EngineCounts>>,
) -> std::io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let text = String::from_utf8_lossy(&payload);
        let start = tracer.now();
        let decoded = decode_requests(&text);
        let decoded_at = tracer.now();
        let reply = match decoded {
            Err(err) => encode_frame_error(&err.to_string()),
            Ok(frame) => {
                let (req, parent) = trace_context(&frame.requests[0].id);
                tracer.record(Span {
                    id: tracer.reserve(),
                    parent,
                    req,
                    name: "svc.decode",
                    start,
                    end: decoded_at,
                });
                let before = EngineCounts::read();
                let (responses, _) = tracer.span("svc.submit", parent, req, || {
                    if frame.batch {
                        service.submit_batch(&frame.requests)
                    } else {
                        vec![service.submit(&frame.requests[0])]
                    }
                });
                if !frame.batch {
                    let delta = EngineCounts::read().since(before);
                    counts.lock().expect("count log poisoned").push(delta);
                }
                let ids: Vec<String> = frame.requests.iter().map(|r| r.id.clone()).collect();
                let (reply, _) = tracer.span("svc.encode", parent, req, || {
                    if frame.batch {
                        encode_responses(&responses, &ids)
                    } else {
                        encode_response(&responses[0], &ids[0])
                    }
                });
                reply
            }
        };
        write_frame(&mut stream, reply.as_bytes())?;
    }
    Ok(())
}
