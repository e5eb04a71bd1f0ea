//! Property fuzz of the frame layer: arbitrary bytes never panic the
//! frame reader or the request decoder, no frame comes back larger than
//! `MAX_FRAME`, and every payload survives a write/read round trip. A
//! frame of nothing but open brackets is an error, not a stack overflow.

use ami_svc::proto::{decode_requests, read_frame, write_frame, MAX_FRAME};
use proptest::prelude::*;
use std::io::Cursor;

/// Bytes a request frame is made of, so the decoder sees near-JSON and
/// not only an early syntax error.
const JSON_ALPHABET: &[u8] = br#"{}[]":, -.0123456789eEtrufalsn\ idthreadscenario"#;

#[test]
fn a_frame_of_open_brackets_is_rejected() {
    let text = "[".repeat(MAX_FRAME);
    let err = decode_requests(&text).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

/// Reads frames until clean EOF or the first error; every frame read
/// must respect `MAX_FRAME`.
fn drain_frames(bytes: Vec<u8>) {
    let mut reader = Cursor::new(bytes);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        assert!(frame.len() <= MAX_FRAME, "frame of {} bytes", frame.len());
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        drain_frames(bytes.clone());
        let _ = decode_requests(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn a_plausible_header_over_arbitrary_bytes_never_panics(
        len in 0u32..5000,
        body in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        drain_frames(bytes);
    }

    #[test]
    fn near_json_never_panics_the_request_decoder(
        picks in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..512),
    ) {
        let text: Vec<u8> = picks.iter().map(|&k| JSON_ALPHABET[k]).collect();
        let _ = decode_requests(&String::from_utf8_lossy(&text));
    }

    #[test]
    fn payloads_roundtrip_through_a_frame(
        payload in prop::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        prop_assert_eq!(wire.len(), 4 + payload.len());
        let mut reader = Cursor::new(wire);
        prop_assert_eq!(read_frame(&mut reader).unwrap(), Some(payload));
        prop_assert!(read_frame(&mut reader).unwrap().is_none());
    }
}
