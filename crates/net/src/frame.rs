//! Length-prefixed framing over TCP.
//!
//! Every frame is `[u32 length (LE)][u8 tag][payload]`, where `length`
//! counts the tag byte plus the payload. Payload encodings reuse the
//! [`oat_core::wire`] helpers, so the aggregate-value encoding on an edge
//! is byte-identical to [`Message::encode_wire`](oat_core::Message).
//!
//! Tag space:
//!
//! | tag | frame              | payload                              |
//! |-----|--------------------|--------------------------------------|
//! | 0   | hello (edge peer)  | `u32` node id, `u64` rx watermark    |
//! | 1   | hello (client)     | empty                                |
//! | 2   | *(unassigned)*     |                                      |
//! | 3   | combine request    | `u64` request id                     |
//! | 4   | write request      | `u64` request id, `V`                |
//! | 5   | combine response   | `u64` request id, `V`                |
//! | 6   | write ack          | `u64` request id                     |
//! | 7   | metrics request    | `u64` request id                     |
//! | 8   | metrics response   | `u64` request id, [`NodeMetrics`]    |
//! | 9   | sequenced edge     | `u64` seq, `u8` inner tag, body      |
//! | 10  | cumulative ack     | `u64` highest in-order seq received  |
//! | 11  | batch request      | `u32` count, then count items        |
//! | 12  | batch response     | `u32` count, then count items        |
//! | 13  | combine request (tree) | `u64` request id, `u32` tree id  |
//! | 14  | write request (tree)   | `u64` request id, `u32` tree id, `V` |
//! | 15  | subscribe          | `u64` sub id, `u32` tree id          |
//! | 16  | partial (pushed)   | `u64` sub id, `u32` tree id, `u64` refine seq, `V` |
//!
//! A batch item is `[u8 tag][u32 len (LE)][len payload bytes]`, where
//! the tag/payload pair is byte-identical to the standalone frame it
//! stands for (tags 3/4/13/14 inside a batch request; 5/6 inside a batch
//! response). Batching changes only the outer framing — one syscall
//! carries N requests and one carries N responses — never the item
//! encodings, so req-id matching, timeout retry, and idempotent
//! re-sends keep working unchanged. Batch responses stream: the node
//! emits completed members at every flush boundary rather than holding
//! the roster behind its slowest member, so one `TAG_REQ_BATCH` may be
//! answered by several `TAG_RESP_BATCH` frames whose items concatenate
//! to the full roster.
//!
//! ## The forest extension (tags 13–16, inner tag 3)
//!
//! One cluster multiplexes a whole *forest* of aggregation trees over
//! the same sockets and reactor pool; every request and edge message
//! names its tree by a `u32` id. Tree 0 is just the tree whose frames
//! use the short encodings: tags 3/4, inner tag 0 and an empty-body
//! revoke leave the id implicit (sim parity is pinned against exactly
//! those bytes), while every other tree rides tags 13/14, inner tag 3
//! and a 4-byte revoke body. That choice is made here alone, by
//! [`encode_request`]/[`decode_request`] and [`EdgePayload`]; the
//! long forms still decode for id 0. Nodes create automaton instances
//! lazily on the first frame that names a new tree. `TAG_SUB`
//! registers a continuous-query subscription on a tree; the node then
//! *pushes* a `TAG_PARTIAL` frame (unsolicited, no request id) whenever
//! that tree's local aggregate view refines, carrying a per-tree
//! monotone refine seq.
//!
//! ## The sequenced edge link (tags 0, 9, 10)
//!
//! Every payload-bearing frame between neighbours rides inside a tag-9
//! frame stamped with a per-directed-edge sequence number (1, 2, 3, …).
//! The receiver delivers exactly the next expected seq and discards
//! duplicates; a frame past a gap severs the connection. It acknowledges
//! cumulatively with tag 10, on a frame it sends anyway or at a deadline.
//! The sender buffers unacknowledged frames and retransmits them after a
//! reconnect. The edge hello carries the receiver's watermark (how many
//! in-order frames it has seen) so a redialed connection resumes the
//! stream exactly where it left off: per-edge FIFO exactly-once delivery
//! survives killed connections.
//!
//! Inner tags inside a tag-9 frame:
//!
//! | inner | meaning        | body                         |
//! |-------|----------------|------------------------------|
//! | 0     | net message    | `Message<V>` wire encoding (tree 0) |
//! | 1     | peer reset     | empty (sender's automaton restarted) |
//! | 2     | lease revoke   | empty for tree 0, else `u32` tree id |
//! | 3     | net message (tree) | `u32` tree id, `Message<V>` wire encoding |
//!
//! [`NodeMetrics`]: crate::metrics::NodeMetrics

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};

use oat_core::message::Message;
use oat_core::request::ReqOp;
use oat_core::wire::{put_u32, put_u64, WireError, WireReader, WireValue};

/// Edge-peer handshake: payload is the dialer's node id.
pub const TAG_HELLO_EDGE: u8 = 0;
/// Client handshake: empty payload.
pub const TAG_HELLO_CLIENT: u8 = 1;
/// Client combine request.
pub const TAG_REQ_COMBINE: u8 = 3;
/// Client write request.
pub const TAG_REQ_WRITE: u8 = 4;
/// Combine response carrying the aggregate value.
pub const TAG_RESP_COMBINE: u8 = 5;
/// Write acknowledgement (the write's transitions have run).
pub const TAG_RESP_WRITE: u8 = 6;
/// Client metrics request.
pub const TAG_REQ_METRICS: u8 = 7;
/// Metrics response carrying a [`crate::metrics::NodeMetrics`].
pub const TAG_RESP_METRICS: u8 = 8;
/// Sequenced edge frame: `u64` seq, `u8` inner tag, inner body.
pub const TAG_SEQ: u8 = 9;
/// Cumulative ack: `u64` highest in-order seq received on this edge.
pub const TAG_ACK: u8 = 10;
/// Batched client requests: `u32` count, then count batch items.
pub const TAG_REQ_BATCH: u8 = 11;
/// Batched responses: `u32` count, then count batch items.
pub const TAG_RESP_BATCH: u8 = 12;
/// Tree-scoped client combine request: `u64` request id, `u32` tree id.
pub const TAG_REQ_COMBINE_T: u8 = 13;
/// Tree-scoped client write request: `u64` request id, `u32` tree id, `V`.
pub const TAG_REQ_WRITE_T: u8 = 14;
/// Continuous-query subscription: `u64` sub id, `u32` tree id.
pub const TAG_SUB: u8 = 15;
/// Pushed partial refinement: `u64` sub id, `u32` tree id, `u64` refine
/// seq, `V`. Unsolicited — the node sends one per refinement, not per
/// request.
pub const TAG_PARTIAL: u8 = 16;

/// Inner tag: a mechanism message (`Message<V>` wire encoding, tree 0).
pub const INNER_NET: u8 = 0;
/// Inner tag: the sending node's automaton crashed and restarted.
pub const INNER_RESET: u8 = 1;
/// Inner tag: cascaded involuntary lease teardown (crash recovery).
pub const INNER_REVOKE: u8 = 2;
/// Inner tag: a mechanism message for a named tree: `u32` tree id, then
/// the `Message<V>` wire encoding (forest multiplexing).
pub const INNER_NET_T: u8 = 3;

/// Upper bound on a frame body; anything larger is a protocol violation.
const MAX_FRAME: u32 = 64 << 20;

/// Writes one `[len][tag][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    if len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    // Callers write into memory — a `WriteQueue` chunk or a client's
    // send buffer — and hand whole batches of frames to the socket.
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4] = tag;
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Incremental frame decoder: the one reader of frames, for the
/// reactor's connections and for `ClusterClient` alike.
///
/// A socket is read when the kernel says it is readable, and what is
/// readable may end mid-header; a client read timeout may fire
/// mid-frame. Neither may discard the bytes already consumed. Feed the
/// decoder whatever bytes arrive with [`FrameDecoder::extend`], take
/// complete frames out with [`FrameDecoder::try_frame`], and partial
/// headers/bodies simply wait in the buffer for the next read — the
/// stream can never desync. A zero or oversized length field is
/// `InvalidData` as soon as its four bytes are in, before any
/// allocation happens. At end of stream, [`FrameDecoder::is_empty`]
/// tells an orderly close from a truncated frame.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` before `start` are already-consumed frames; kept
    /// until the next compaction to avoid a memmove per frame.
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefix space is reused as
        // long as it dominates the live remainder.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 32 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes (a partial frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when no partial frame is pending — the boundary at which a
    /// clean peer close is orderly rather than a truncation.
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// corrupt (bad length field) and must be dropped.
    pub fn try_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4-byte slice"));
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let tag = avail[4];
        let payload = avail[5..total].to_vec();
        self.start += total;
        Ok(Some((tag, payload)))
    }
}

/// Target size for coalescing small frames into one owned chunk, and
/// therefore one `iovec` of a vectored write.
const COALESCE: usize = 8 * 1024;

/// Max `iovec`s per vectored write.
const MAX_IOVECS: usize = 32;

/// The write side of a connection, as bytes: whole frames coalesced
/// into chunks, drained by a vectored write the caller supplies. The node
/// core fills these; its driver empties them into sockets.
#[derive(Default)]
pub(crate) struct WriteQueue {
    pub(crate) chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks[0]` already written (a partial vectored write).
    offset: usize,
}

impl WriteQueue {
    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Drops everything queued: the connection it was for is gone.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.offset = 0;
    }

    /// Encodes one frame onto the tail chunk (one future iovec), or a new
    /// chunk once the tail is full. Runtime frames are far below
    /// `MAX_FRAME`, so this cannot fail.
    pub(crate) fn frame(&mut self, tag: u8, payload: &[u8]) {
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < COALESCE => {
                write_frame(tail, tag, payload).expect("runtime frames are bounded");
            }
            _ => {
                let mut chunk = Vec::with_capacity((5 + payload.len()).max(64));
                write_frame(&mut chunk, tag, payload).expect("runtime frames are bounded");
                self.chunks.push_back(chunk);
            }
        }
    }

    /// Hands the queued bytes to `write` (returning how many it took)
    /// until the queue drains, `Ok(true)`, or `write` blocks,
    /// `Ok(false)`; `Err` means the connection is dead.
    pub(crate) fn write_to(
        &mut self,
        mut write: impl FnMut(&[IoSlice<'_>]) -> io::Result<usize>,
    ) -> io::Result<bool> {
        loop {
            if self.chunks.is_empty() {
                return Ok(true);
            }
            let mut iovecs: Vec<IoSlice<'_>> =
                Vec::with_capacity(MAX_IOVECS.min(self.chunks.len()));
            for (i, chunk) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let skip = if i == 0 { self.offset } else { 0 };
                iovecs.push(IoSlice::new(&chunk[skip..]));
            }
            match write(&iovecs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front_left = self.chunks[0].len() - self.offset;
                        if n >= front_left {
                            n -= front_left;
                            self.chunks.pop_front();
                            self.offset = 0;
                        } else {
                            self.offset += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Encodes batch items into a batch-frame payload: `u32` count, then
/// per item `[u8 tag][u32 len][payload]`. Each item's tag/payload is
/// byte-identical to the standalone frame it replaces.
pub fn encode_batch(items: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let body: usize = items.iter().map(|(_, p)| 5 + p.len()).sum();
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (tag, payload) in items {
        out.push(*tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Decodes a batch-frame payload back into `(tag, payload)` items.
///
/// Rejects payloads whose declared count or item lengths disagree with
/// the bytes actually present (including trailing garbage): a batch
/// frame must be exactly self-describing, same spirit as the outer
/// length check in [`FrameDecoder::try_frame`].
pub fn decode_batch(payload: &[u8]) -> io::Result<Vec<(u8, Vec<u8>)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 4 {
        return Err(bad("batch shorter than its count field"));
    }
    let count = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice")) as usize;
    let mut items = Vec::new();
    let mut at = 4;
    for _ in 0..count {
        if payload.len() - at < 5 {
            return Err(bad("truncated batch item header"));
        }
        let tag = payload[at];
        let len =
            u32::from_le_bytes(payload[at + 1..at + 5].try_into().expect("4-byte slice")) as usize;
        at += 5;
        if payload.len() - at < len {
            return Err(bad("truncated batch item payload"));
        }
        items.push((tag, payload[at..at + len].to_vec()));
        at += len;
    }
    if at != payload.len() {
        return Err(bad("trailing bytes after final batch item"));
    }
    Ok(items)
}

/// Encodes a client request for `tree` as a standalone frame's (or a
/// batch item's) `(tag, payload)`: tree 0 rides tags 3/4, every other
/// tree tags 13/14 with the id after the request id.
pub fn encode_request<V: WireValue>(req_id: u64, tree: u32, op: &ReqOp<V>) -> (u8, Vec<u8>) {
    let mut p = Vec::with_capacity(20);
    put_u64(&mut p, req_id);
    if tree != 0 {
        put_u32(&mut p, tree);
    }
    let tag = match (op, tree) {
        (ReqOp::Combine, 0) => TAG_REQ_COMBINE,
        (ReqOp::Combine, _) => TAG_REQ_COMBINE_T,
        (ReqOp::Write(arg), t) => {
            arg.encode(&mut p);
            if t == 0 {
                TAG_REQ_WRITE
            } else {
                TAG_REQ_WRITE_T
            }
        }
    };
    (tag, p)
}

/// Decodes a combine or write request frame (or batch item) into
/// `(req id, tree, op)`. Any other tag, a short or over-long payload,
/// or an undecodable value is an error.
pub fn decode_request<V: WireValue>(
    tag: u8,
    payload: &[u8],
) -> Result<(u64, u32, ReqOp<V>), WireError> {
    let mut r = WireReader::new(payload);
    let req_id = r.u64("request id")?;
    let tree = match tag {
        TAG_REQ_COMBINE | TAG_REQ_WRITE => 0,
        TAG_REQ_COMBINE_T | TAG_REQ_WRITE_T => r.u32("request tree id")?,
        _ => {
            return Err(WireError {
                context: "request tag",
                offset: 0,
            })
        }
    };
    let op = match tag {
        TAG_REQ_COMBINE | TAG_REQ_COMBINE_T => ReqOp::Combine,
        _ => ReqOp::Write(V::decode(&mut r)?),
    };
    r.finish("request trailing bytes")?;
    Ok((req_id, tree, op))
}

/// What a sequenced edge frame (tag 9) carries between neighbours, as
/// an inner tag plus body.
#[derive(Debug, PartialEq)]
pub enum EdgePayload<V> {
    /// A mechanism message for `tree`.
    Net {
        /// The tree whose automaton instances exchange `msg`.
        tree: u32,
        /// The message itself.
        msg: Message<V>,
    },
    /// The sender's node restarted, with every instance it hosted.
    Reset,
    /// Cascaded involuntary lease teardown on `tree`.
    Revoke {
        /// The tree whose leases are torn down.
        tree: u32,
    },
}

impl<V: WireValue> EdgePayload<V> {
    /// Appends the body to `out` and returns the inner tag. Tree 0
    /// rides the short forms: inner tag 0 and an empty revoke body.
    pub fn encode(&self, out: &mut Vec<u8>) -> u8 {
        match self {
            EdgePayload::Net { tree: 0, msg } => {
                msg.encode_wire(out);
                INNER_NET
            }
            EdgePayload::Net { tree, msg } => {
                put_u32(out, *tree);
                msg.encode_wire(out);
                INNER_NET_T
            }
            EdgePayload::Reset => INNER_RESET,
            EdgePayload::Revoke { tree } => {
                if *tree != 0 {
                    put_u32(out, *tree);
                }
                INNER_REVOKE
            }
        }
    }

    /// Decodes an inner tag + body; `None` when either is malformed.
    pub fn decode(inner: u8, body: &[u8]) -> Option<Self> {
        let tree_id = |b: &[u8]| b.try_into().ok().map(u32::from_le_bytes);
        match inner {
            INNER_NET => Some(EdgePayload::Net {
                tree: 0,
                msg: Message::decode_wire(body).ok()?,
            }),
            INNER_NET_T if body.len() >= 4 => Some(EdgePayload::Net {
                tree: tree_id(&body[..4])?,
                msg: Message::decode_wire(&body[4..]).ok()?,
            }),
            INNER_RESET => Some(EdgePayload::Reset),
            INNER_REVOKE if body.is_empty() => Some(EdgePayload::Revoke { tree: 0 }),
            INNER_REVOKE => Some(EdgePayload::Revoke {
                tree: tree_id(body)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_REQ_COMBINE, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, TAG_HELLO_CLIENT, &[]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        assert_eq!(
            dec.try_frame().unwrap(),
            Some((TAG_REQ_COMBINE, vec![1, 2, 3]))
        );
        assert_eq!(dec.try_frame().unwrap(), Some((TAG_HELLO_CLIENT, vec![])));
        assert_eq!(dec.try_frame().unwrap(), None);
        assert!(dec.is_empty(), "a close here is orderly");
    }

    #[test]
    fn truncated_header_is_distinguished_from_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_REQ_COMBINE, &[9]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&buf[..2]);
        assert_eq!(dec.try_frame().unwrap(), None);
        assert!(!dec.is_empty(), "a close here truncates a frame");
    }

    #[test]
    fn decoder_reassembles_frames_fed_byte_by_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_REQ_COMBINE, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, TAG_ACK, b"xyz").unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.extend(std::slice::from_ref(b));
            while let Some(frame) = dec.try_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(
            got,
            vec![(TAG_REQ_COMBINE, vec![1, 2, 3]), (TAG_ACK, b"xyz".to_vec())]
        );
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_keeps_partial_frames_across_feeds() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_SEQ, &[9; 40]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..3]); // mid-header
        assert!(dec.try_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 3);
        dec.extend(&wire[3..20]); // mid-body
        assert!(dec.try_frame().unwrap().is_none());
        dec.extend(&wire[20..]);
        let (tag, payload) = dec.try_frame().unwrap().expect("complete");
        assert_eq!((tag, payload.len()), (TAG_SEQ, 40));
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_rejects_zero_and_oversized_lengths() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0, 0, 0]);
        assert_eq!(
            dec.try_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            dec.try_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn batch_roundtrips_including_empty_payloads() {
        let items = vec![
            (TAG_REQ_COMBINE, 7u64.to_le_bytes().to_vec()),
            (TAG_REQ_WRITE, vec![]),
            (TAG_REQ_COMBINE, vec![0xAB; 300]),
        ];
        let wire = encode_batch(&items);
        assert_eq!(decode_batch(&wire).unwrap(), items);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn batch_rejects_malformed_payloads() {
        // Count promises more items than the bytes hold.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire[0] = 2;
        assert!(decode_batch(&wire).is_err());
        // Item length runs past the end.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire[5] = 200;
        assert!(decode_batch(&wire).is_err());
        // Trailing garbage after the last item.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire.push(0);
        assert!(decode_batch(&wire).is_err());
        // Shorter than the count field itself.
        assert!(decode_batch(&[1, 0]).is_err());
    }

    #[test]
    fn decoder_compaction_preserves_the_stream() {
        // Many frames through one decoder, fed in ragged chunks that
        // straddle frame boundaries, forcing periodic compaction.
        let mut wire = Vec::new();
        for i in 0..200u32 {
            write_frame(&mut wire, (i % 7) as u8, &vec![i as u8; (i % 97) as usize]).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut count = 0;
        for chunk in wire.chunks(13) {
            dec.extend(chunk);
            while let Some((tag, payload)) = dec.try_frame().unwrap() {
                assert_eq!(tag, (count % 7) as u8);
                assert_eq!(payload, vec![count as u8; (count % 97) as usize]);
                count += 1;
            }
        }
        assert_eq!(count, 200);
        assert!(dec.is_empty());
    }

    #[test]
    fn tree_zero_rides_the_short_encodings() {
        // Requests: tree 0 is tags 3/4 with no tree id, byte for byte.
        let combine = encode_request::<i64>(7, 0, &ReqOp::Combine);
        assert_eq!(combine, (TAG_REQ_COMBINE, 7u64.to_le_bytes().to_vec()));
        let (tag, p) = encode_request(7, 0, &ReqOp::Write(-2i64));
        assert_eq!(tag, TAG_REQ_WRITE);
        assert_eq!(p, [7u64.to_le_bytes(), (-2i64).to_le_bytes()].concat());
        // Edges: inner tag 0 with the bare message, an empty revoke body.
        let msg = Message::<i64>::Probe { epoch: 3 };
        let mut bare = Vec::new();
        msg.encode_wire(&mut bare);
        let mut body = Vec::new();
        let net = EdgePayload::Net { tree: 0, msg };
        assert_eq!(net.encode(&mut body), INNER_NET);
        assert_eq!(body, bare);
        body.clear();
        assert_eq!(
            EdgePayload::<i64>::Revoke { tree: 0 }.encode(&mut body),
            INNER_REVOKE
        );
        assert!(body.is_empty());
        assert_eq!(EdgePayload::<i64>::Reset.encode(&mut body), INNER_RESET);
        assert!(body.is_empty());
    }

    #[test]
    fn every_tree_roundtrips_and_long_forms_decode_as_tree_zero() {
        for tree in [0, 1, 9, u32::MAX] {
            for op in [ReqOp::Combine, ReqOp::Write(-5i64)] {
                let (tag, p) = encode_request(42, tree, &op);
                assert_eq!(tag >= TAG_REQ_COMBINE_T, tree != 0);
                assert_eq!(decode_request(tag, &p), Ok((42, tree, op)));
            }
            for payload in [
                EdgePayload::Net {
                    tree,
                    msg: Message::Update {
                        x: 11i64,
                        id: 4,
                        wlog: None,
                    },
                },
                EdgePayload::Revoke { tree },
                EdgePayload::Reset,
            ] {
                let mut body = Vec::new();
                let inner = payload.encode(&mut body);
                assert_eq!(EdgePayload::decode(inner, &body), Some(payload));
            }
        }
        // The long forms with id 0 still address tree 0.
        let mut p = 8u64.to_le_bytes().to_vec();
        put_u32(&mut p, 0);
        assert_eq!(
            decode_request::<i64>(TAG_REQ_COMBINE_T, &p),
            Ok((8, 0, ReqOp::Combine))
        );
        let msg = Message::<i64>::Probe { epoch: 1 };
        let mut body = 0u32.to_le_bytes().to_vec();
        msg.encode_wire(&mut body);
        assert_eq!(
            EdgePayload::decode(INNER_NET_T, &body),
            Some(EdgePayload::Net { tree: 0, msg })
        );
        // Malformed: unknown tags, short ids, trailing bytes.
        assert!(decode_request::<i64>(TAG_SUB, &p).is_err());
        assert!(decode_request::<i64>(TAG_REQ_COMBINE_T, &p[..10]).is_err());
        assert!(decode_request::<i64>(TAG_REQ_COMBINE, &p).is_err());
        assert_eq!(EdgePayload::<i64>::decode(INNER_NET_T, &[0, 0]), None);
        assert_eq!(EdgePayload::<i64>::decode(INNER_REVOKE, &[1, 0]), None);
        assert_eq!(EdgePayload::<i64>::decode(9, &[]), None);
    }
}
