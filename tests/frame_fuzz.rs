//! Fuzz-style property tests for the wire frame codec.
//!
//! The framing layer (`oat::net::frame`) is the outermost parser of every
//! byte that arrives off a socket — from peers, clients, or strangers.
//! Every reader in the runtime (the reactor's connections and
//! `ClusterClient`) decodes through one `FrameDecoder`, fed whatever a
//! read returned. Its contract under hostile input is narrow and
//! absolute: it returns a frame, "need more bytes", or `InvalidData`; it
//! never panics; how the bytes were split across reads never changes
//! what it decodes; and a frame that round-trips through `write_frame`
//! decodes to exactly what was written. These properties drive random
//! payloads, truncations, bit flips, and raw garbage through the decoder
//! in seeded random chunk splits, from 1-byte dribbles to one read.
//!
//! (Runs on the vendored offline `proptest` subset: no shrinking, but
//! deterministic per-test seeds, so any failure reproduces with plain
//! `cargo test`.)

use std::io;

use oat::net::frame::{
    decode_batch, encode_batch, write_frame, FrameDecoder, TAG_ACK, TAG_REQ_BATCH,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Chunk-split seed that feeds the whole input in one read.
const ONE_READ: u64 = 3;

/// What a reader sees when `bytes` arrive through one `FrameDecoder`
/// in chunks drawn from `seed`: by `seed % 4`, 1-byte dribbles, random
/// 1–8 or 1–64 byte reads, or everything in one read ([`ONE_READ`]).
/// Returns every frame decoded, then the error that ends the stream:
/// the decoder's own, or at end of input `UnexpectedEof` — "closed" on a
/// frame boundary, "closed mid-frame" when a partial frame is buffered,
/// as `ClusterClient` reports them.
fn read_stream(bytes: &[u8], seed: u64) -> (Vec<(u8, Vec<u8>)>, io::Error) {
    let mut rng = seed;
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut rest = bytes;
    loop {
        loop {
            match dec.try_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, e),
            }
        }
        if rest.is_empty() {
            let msg = if dec.is_empty() {
                "closed"
            } else {
                "closed mid-frame"
            };
            return (frames, io::Error::new(io::ErrorKind::UnexpectedEof, msg));
        }
        // splitmix64 step.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let draw = (z ^ (z >> 31)) as usize;
        let n = match seed % 4 {
            0 => 1,
            1 => 1 + draw % 8,
            2 => 1 + draw % 64,
            _ => rest.len(),
        };
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        dec.extend(chunk);
        rest = tail;
    }
}

/// An arbitrary frame: any tag, payload up to 512 bytes.
fn frame_strategy() -> impl Strategy<Value = (u8, Vec<u8>)> {
    (0u8..=255, vec(any::<u8>(), 0..=512))
}

/// An arbitrary batch: up to 12 items, each any tag with up to 128
/// payload bytes (batch members are client request/response frames,
/// which are small).
fn batch_strategy() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    vec((0u8..=255, vec(any::<u8>(), 0..=128)), 0..=12)
}

/// Encodes `(tag, payload)` with the real writer.
fn encode(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, tag, payload).expect("small frame always encodes");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_identity((tag, payload) in frame_strategy(), seed in any::<u64>()) {
        let buf = encode(tag, &payload);
        prop_assert_eq!(buf.len(), 5 + payload.len(), "header is [u32 len][u8 tag]");
        let (frames, end) = read_stream(&buf, seed);
        prop_assert_eq!(frames, vec![(tag, payload)]);
        prop_assert_eq!(end.to_string(), "closed", "decoder consumes exactly one frame");
    }

    #[test]
    fn every_truncation_errs_and_never_panics(
        (tag, payload) in frame_strategy(),
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        // Every proper prefix of a valid frame — a truncated header or a
        // short body — decodes to nothing and leaves a partial frame
        // buffered, so the end of the stream reads as a mid-frame close,
        // which the runtime treats as a dead connection. Only the empty
        // prefix is a clean close.
        let buf = encode(tag, &payload);
        let cut = cut % buf.len(); // strictly shorter than the frame
        let (frames, end) = read_stream(&buf[..cut], seed);
        prop_assert!(frames.is_empty(), "cut at {}", cut);
        prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof, "cut at {}", cut);
        let want = if cut == 0 { "closed" } else { "closed mid-frame" };
        prop_assert_eq!(end.to_string(), want, "cut at {}", cut);
    }

    #[test]
    fn oversized_length_headers_are_rejected_without_allocating(
        extra in 0u32..=u32::MAX - (64 << 20) - 1,
        junk in vec(any::<u8>(), 0..=64),
        seed in any::<u64>(),
    ) {
        // A length field beyond MAX_FRAME (64 MiB) is InvalidData as soon
        // as its four bytes are in; the decoder must not trust it and wait
        // for (or allocate) that many bytes.
        let len = (64u32 << 20) + 1 + extra;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(&junk);
        let (frames, end) = read_stream(&buf, seed);
        prop_assert!(frames.is_empty());
        prop_assert_eq!(end.kind(), io::ErrorKind::InvalidData, "len = {}", len);
        let mut dec = FrameDecoder::new();
        dec.extend(&buf[..4]);
        prop_assert!(dec.try_frame().is_err(), "rejected from the header alone");
    }

    #[test]
    fn bit_flips_never_panic_and_corrupt_lengths_err(
        (tag, payload) in frame_strategy(),
        bit in any::<usize>(),
        seed in any::<u64>(),
    ) {
        // Flip one bit anywhere in the encoded frame. The decoder must
        // return *something* without panicking; flips that land in the
        // length field either still describe a plausible frame (handled
        // as truncation/garbage) or are rejected as InvalidData.
        let mut buf = encode(tag, &payload);
        let bit = bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let flipped_length_field = bit < 32;
        let (frames, end) = read_stream(&buf, seed);
        // A payload/tag flip decodes to a same-length frame with the
        // corrupted bytes — framing itself cannot detect that, the typed
        // payload decoders above it do. (A *length* flip may legitimately
        // decode a shorter frame out of the same bytes.)
        if let Some((_, body)) = frames.first() {
            prop_assert!(
                flipped_length_field || body.len() == payload.len(),
                "payload/tag flip changed the frame length"
            );
        }
        prop_assert!(flipped_length_field || frames.len() == 1);
        prop_assert!(
            matches!(end.kind(), io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData),
            "unexpected error kind {:?}",
            end.kind()
        );
    }

    #[test]
    fn random_garbage_never_panics(bytes in vec(any::<u8>(), 0..=256), seed in any::<u64>()) {
        // Raw noise straight off a socket: decode as many frames as the
        // bytes happen to spell out, then hit a clean error. Nothing may
        // panic, the frames account for a prefix of the input (all of it
        // when the stream ends on a frame boundary), and the read split
        // changes nothing: one read decodes the same frames and ends the
        // same way.
        let (frames, end) = read_stream(&bytes, seed);
        let used: usize = frames.iter().map(|(_, body)| 5 + body.len()).sum();
        prop_assert!(used <= bytes.len());
        match end.kind() {
            io::ErrorKind::UnexpectedEof if end.to_string() == "closed" => {
                prop_assert_eq!(used, bytes.len());
            }
            io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData => {
                prop_assert!(used < bytes.len());
            }
            other => panic!("unexpected error kind {other:?}"),
        }
        let (whole, whole_end) = read_stream(&bytes, ONE_READ);
        prop_assert_eq!(frames, whole);
        prop_assert_eq!(end.to_string(), whole_end.to_string());
    }

    #[test]
    fn back_to_back_frames_with_a_torn_tail(
        frames in vec(frame_strategy(), 1..=6),
        cut in any::<usize>(),
        seed in any::<u64>(),
    ) {
        // A buffer of whole frames followed by a torn final frame: every
        // whole frame decodes intact, the tail stays buffered as a
        // mid-frame close, nothing panics. This is exactly what a killed
        // connection leaves in a reader.
        let mut buf = Vec::new();
        for (tag, payload) in &frames {
            buf.extend_from_slice(&encode(*tag, payload));
        }
        let (last_tag, last_payload) = &frames[frames.len() - 1];
        let tail = encode(*last_tag, last_payload);
        let keep = cut % tail.len();
        buf.extend_from_slice(&tail[..keep]);

        let (got, end) = read_stream(&buf, seed);
        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
        let want = if keep == 0 { "closed" } else { "closed mid-frame" };
        prop_assert_eq!(end.to_string(), want);
    }

    #[test]
    fn batch_roundtrip_is_identity(items in batch_strategy(), seed in any::<u64>()) {
        // A batch payload rides inside an ordinary frame: encode the
        // items, wrap, unwrap with the real decoder, decode — and get
        // back exactly what went in, in order.
        let payload = encode_batch(&items);
        let buf = encode(TAG_REQ_BATCH, &payload);
        let (frames, end) = read_stream(&buf, seed);
        prop_assert_eq!(end.to_string(), "closed");
        prop_assert_eq!(frames.len(), 1);
        let (tag, body) = &frames[0];
        prop_assert_eq!(*tag, TAG_REQ_BATCH);
        let got = decode_batch(body).expect("valid batch decodes");
        prop_assert_eq!(got, items);
    }

    #[test]
    fn truncated_batch_payloads_err_and_never_panic(
        items in batch_strategy(),
        cut in any::<usize>(),
    ) {
        // Every proper prefix of a valid batch payload is InvalidData:
        // the declared count demands all items and the decoder demands
        // exact consumption, so no truncation can sneak through as a
        // shorter-but-valid batch.
        let payload = encode_batch(&items);
        let cut = cut % payload.len(); // count field makes len >= 4
        let err = decode_batch(&payload[..cut]).expect_err("truncated batch must not decode");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {}", cut);
    }

    #[test]
    fn batch_trailing_garbage_is_rejected(
        items in batch_strategy(),
        junk in vec(any::<u8>(), 1..=32),
    ) {
        // A batch frame must be exactly self-describing — bytes beyond
        // the final declared item are a protocol violation, not slack.
        let mut payload = encode_batch(&items);
        payload.extend_from_slice(&junk);
        let err = decode_batch(&payload).expect_err("trailing bytes must not decode");
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn batch_bit_flips_never_panic(items in batch_strategy(), bit in any::<usize>()) {
        // Flip one bit anywhere in the encoded batch. The decoder must
        // return without panicking; if the flipped bytes still spell a
        // self-consistent batch, decoding is canonical (re-encoding
        // reproduces the flipped bytes exactly).
        let mut payload = encode_batch(&items);
        let bit = bit % (payload.len() * 8);
        payload[bit / 8] ^= 1 << (bit % 8);
        match decode_batch(&payload) {
            Ok(got) => prop_assert_eq!(encode_batch(&got), payload),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn random_garbage_batch_payloads_never_panic(bytes in vec(any::<u8>(), 0..=256)) {
        // Raw noise handed to the batch decoder: a declared count in
        // the billions must not cause an allocation — the decoder errs
        // on the first missing item instead — and any accidental Ok is
        // canonical.
        match decode_batch(&bytes) {
            Ok(items) => prop_assert_eq!(encode_batch(&items), bytes),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
    }
}

#[test]
fn writer_refuses_frames_beyond_max_frame() {
    // write_frame's own guard: a payload that would overflow the length
    // budget is refused before any bytes hit the stream.
    let huge = vec![0u8; 64 << 20]; // body = 1 (tag) + 64 MiB > MAX_FRAME
    let mut sink = Vec::new();
    let err = write_frame(&mut sink, TAG_ACK, &huge).expect_err("oversized write must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert!(
        sink.is_empty(),
        "nothing may be written for a rejected frame"
    );
}
