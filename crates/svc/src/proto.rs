//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a big-endian `u32` byte length followed by that
//! many bytes of UTF-8 JSON. A request frame is either one request
//! object or an array of them (a batch); the response frame mirrors the
//! shape. A request object is strict — unknown members are rejected:
//!
//! ```json
//! {"id": "r1", "threads": 4, "scenario": { ...ScenarioSpec... }}
//! ```
//!
//! A success response carries the deterministic manifest plus serving
//! metrics; a failure response carries `id` (when one was parsed) and
//! `error`:
//!
//! ```json
//! {"id": "r1", "scenario_hash": "…", "cache_hit": false,
//!  "compile_micros": 1234, "queue_depth": 1, "manifest": { … }}
//! ```
//!
//! # One write per frame
//!
//! [`write_frame`] hands the header and the payload to the writer in a
//! single `write_all`, and the server sets `TCP_NODELAY` on every
//! accepted stream. A frame split into two writes on a socket stalls:
//! Nagle's algorithm holds the second segment until the first is
//! acknowledged, and the peer delays that ACK (about 40 ms on Linux),
//! so every request/reply round trip paid two such waits. With
//! `TCP_NODELAY` a reply larger than one segment never waits on a
//! delayed ACK either, however a writer splits its bytes.
//!
//! [`read_frame`] allocates for the bytes that actually arrive, not for
//! the length a header claims: a header announcing [`MAX_FRAME`] followed
//! by a few bytes and EOF costs a few bytes, not 16 MiB.
//!
//! # Example
//!
//! ```
//! use ami_svc::proto::{read_frame, write_frame};
//! use std::io::Cursor;
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, br#"{"id":"r1"}"#).unwrap();
//! let mut reader = Cursor::new(wire);
//! let frame = read_frame(&mut reader).unwrap().unwrap();
//! assert_eq!(frame, br#"{"id":"r1"}"#);
//! assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
//! ```

use crate::{RunRequest, RunResponse};
use ami_scenario::json::{parse, JsonValue};
use ami_scenario::{ScenarioError, ScenarioSpec};
use ami_sim::obs::to_json;
use std::io::{self, Read, Write};

/// Largest accepted frame payload (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Most bytes [`read_frame`] reserves before any payload byte arrives
/// (64 KiB).
const READ_CHUNK: usize = 64 << 10;

/// Writes one length-prefixed frame in a single `write_all`, then
/// flushes.
///
/// Header and payload go out as one buffer, so on a socket the frame
/// is never split into a small header segment that Nagle's algorithm
/// would make the payload wait behind until the peer's delayed ACK.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame; `Ok(None)` on clean end-of-stream
/// (EOF exactly at a frame boundary).
///
/// The payload buffer starts at no more than 64 KiB and grows only as
/// bytes arrive, so a header's claimed length alone never allocates; a
/// frame of up to 64 KiB is one allocation.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidData`], and EOF mid-frame with
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        let n = reader.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside a frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("EOF after {} of {len} frame bytes", payload.len()),
        ));
    }
    Ok(Some(payload))
}

/// A decoded request frame: the requests and whether the frame was an
/// array (batches answer with an array).
#[derive(Debug, Clone)]
pub struct RequestFrame {
    /// The decoded requests, in wire order.
    pub requests: Vec<RunRequest>,
    /// True when the frame was a JSON array.
    pub batch: bool,
}

/// Decodes a request frame (one object or an array of them).
///
/// # Errors
///
/// [`ScenarioError`] when the payload is not valid JSON, a request
/// carries unknown members, or a scenario fails validation.
pub fn decode_requests(payload: &str) -> Result<RequestFrame, ScenarioError> {
    let doc = parse(payload)?;
    match &doc {
        JsonValue::Array(items) => {
            if items.is_empty() {
                return Err(ScenarioError::Spec("empty request batch".into()));
            }
            let requests = items
                .iter()
                .map(decode_request)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RequestFrame {
                requests,
                batch: true,
            })
        }
        _ => Ok(RequestFrame {
            requests: vec![decode_request(&doc)?],
            batch: false,
        }),
    }
}

fn decode_request(value: &JsonValue) -> Result<RunRequest, ScenarioError> {
    let JsonValue::Object(members) = value else {
        return Err(ScenarioError::Spec(format!(
            "request must be an object, found {}",
            value.type_name()
        )));
    };
    let mut id = None;
    let mut threads = None;
    let mut scenario = None;
    for (key, member) in members {
        match key.as_str() {
            "id" => {
                id = Some(
                    member
                        .as_str()
                        .ok_or_else(|| {
                            ScenarioError::Spec(format!(
                                "request `id` must be a string, found {}",
                                member.type_name()
                            ))
                        })?
                        .to_owned(),
                );
            }
            "threads" => {
                let v = member.as_f64().ok_or_else(|| {
                    ScenarioError::Spec(format!(
                        "request `threads` must be a number, found {}",
                        member.type_name()
                    ))
                })?;
                if v.fract() != 0.0 || !(1.0..=4096.0).contains(&v) {
                    return Err(ScenarioError::Spec(format!(
                        "request `threads` must be an integer in [1, 4096], got {v}"
                    )));
                }
                threads = Some(v as usize);
            }
            "scenario" => scenario = Some(ScenarioSpec::from_json_value(member)?),
            other => {
                return Err(ScenarioError::Spec(format!(
                    "unknown request member `{other}`"
                )))
            }
        }
    }
    let spec =
        scenario.ok_or_else(|| ScenarioError::Spec("request is missing `scenario`".into()))?;
    Ok(RunRequest {
        id: id.unwrap_or_default(),
        spec,
        threads,
    })
}

/// Renders one response (success or failure) as a JSON object.
pub fn encode_response(response: &Result<RunResponse, ScenarioError>, id: &str) -> String {
    match response {
        Ok(ok) => {
            let mut out = String::from("{\"id\":");
            out.push_str(&to_json(&ok.id));
            out.push_str(",\"scenario_hash\":");
            out.push_str(&to_json(&ok.scenario_hash));
            out.push_str(",\"cache_hit\":");
            out.push_str(if ok.cache_hit { "true" } else { "false" });
            out.push_str(",\"compile_micros\":");
            out.push_str(&ok.compile_micros.to_string());
            out.push_str(",\"queue_depth\":");
            out.push_str(&ok.queue_depth.to_string());
            out.push_str(",\"manifest\":");
            out.push_str(ok.manifest.trim_end());
            out.push('}');
            out
        }
        Err(err) => {
            let mut out = String::from("{\"id\":");
            out.push_str(&to_json(&id));
            out.push_str(",\"error\":");
            out.push_str(&to_json(&err.to_string()));
            out.push('}');
            out
        }
    }
}

/// Renders a batch of responses as a JSON array, in request order.
pub fn encode_responses(
    responses: &[Result<RunResponse, ScenarioError>],
    ids: &[String],
) -> String {
    let mut out = String::from("[");
    for (k, response) in responses.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&encode_response(response, ids.get(k).map_or("", |s| s)));
    }
    out.push(']');
    out
}

/// Renders a frame-level failure (unparseable request frame).
pub fn encode_frame_error(message: &str) -> String {
    format!("{{\"error\":{}}}", to_json(&message))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "proto-test",
        "rounds": 5,
        "topology": {"kind": "grid", "side": 3, "spacing_m": 30.0},
        "workload": {"kind": "gathering", "strategy": "minimum_energy"}
    }"#;

    #[test]
    fn frame_roundtrip_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader = std::io::Cursor::new(wire);
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frames_larger_than_one_read_chunk_roundtrip() {
        let payload: Vec<u8> = (0..3 * READ_CHUNK + 5).map(|k| k as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut reader = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), payload);
    }

    /// A writer that records how many `write` calls reach it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut writer = CountingWriter::default();
        for (k, payload) in [&b""[..], b"x", br#"{"id":"r1"}"#].iter().enumerate() {
            write_frame(&mut writer, payload).unwrap();
            assert_eq!(writer.writes, k + 1, "frame {k} took more than one write");
        }
        let mut reader = std::io::Cursor::new(writer.bytes);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"x");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), br#"{"id":"r1"}"#);
    }

    #[test]
    fn single_and_batch_requests_decode() {
        let single = format!(r#"{{"id": "r1", "threads": 2, "scenario": {SPEC}}}"#);
        let frame = decode_requests(&single).unwrap();
        assert!(!frame.batch);
        assert_eq!(frame.requests[0].id, "r1");
        assert_eq!(frame.requests[0].threads, Some(2));

        let batch =
            format!(r#"[{{"id": "a", "scenario": {SPEC}}}, {{"id": "b", "scenario": {SPEC}}}]"#);
        let frame = decode_requests(&batch).unwrap();
        assert!(frame.batch);
        assert_eq!(frame.requests.len(), 2);
    }

    #[test]
    fn unknown_request_members_rejected() {
        let bad = format!(r#"{{"id": "r1", "speed": 11, "scenario": {SPEC}}}"#);
        let err = decode_requests(&bad).unwrap_err();
        assert!(err.to_string().contains("speed"), "{err}");
    }

    #[test]
    fn responses_render_as_parseable_json() {
        let ok = Ok(RunResponse {
            id: "r1".into(),
            scenario_hash: "00ff".into(),
            cache_hit: true,
            compile_micros: 12,
            queue_depth: 1,
            manifest: "{\n  \"experiment\": \"x\"\n}\n".into(),
        });
        let rendered = encode_response(&ok, "r1");
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("cache_hit"), Some(&JsonValue::Bool(true)));
        assert!(doc.get("manifest").is_some());

        let err: Result<RunResponse, ScenarioError> =
            Err(ScenarioError::Spec("boom \"quoted\"".into()));
        let rendered = encode_response(&err, "r9");
        let doc = parse(&rendered).unwrap();
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("r9"));
        assert!(doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("boom"));
    }
}
