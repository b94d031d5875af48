//! The binary wire protocol: compact length-prefixed frames.
//!
//! Every frame is `u32 body_len (LE) | u8 kind | fields…`; all integers are
//! little-endian and tensor payloads are raw `f32` little-endian bit
//! patterns, so a served output round-trips the wire **bitwise** (NaN
//! payloads included) — the loopback test pins gateway responses equal to
//! direct [`RouterClient`](quadra_serve::RouterClient) results.
//!
//! | kind | frame        | body |
//! |------|--------------|------|
//! | 1    | Request      | `u64 corr · u8 priority · u32 deadline_ms · u16 model_len+bytes · u8 has_tag (+ u16 tag_len+bytes) · u8 ndim · ndim×u32 dims · numel×f32` |
//! | 2    | Response     | `u64 corr · u64 batch_id · u64 model_version · u32 batch_samples · u32 queue_wait_us · u32 latency_us · u8 has_tag (+ u16 tag_len+bytes) · u8 ndim · ndim×u32 dims · numel×f32` |
//! | 3    | Error        | `u64 corr · u16 code · u32 retry_after_ms · u16 msg_len+bytes` |
//! | 4    | Backpressure | `u64 corr · u32 retry_after_ms` |
//! | 5    | GoAway       | *(empty)* |
//!
//! Error frames carry the stable numeric [`ServeError`] discriminant
//! ([`ServeError::code`]), so the mapping cannot drift as variants are
//! added. [`ServeError::Overloaded`] is **not** sent as an error frame: the
//! gateway maps it to a Backpressure frame — same correlation id, plus the
//! live `retry_after` — so clients can implement flow control without
//! parsing error bodies. A decode failure is a protocol violation: the
//! gateway answers with one error frame (code [`PROTOCOL_ERROR_CODE`]) and
//! closes the connection; there is no way to resynchronise a corrupt
//! length-prefixed stream.

use quadra_serve::{Priority, ServeError};
use quadra_tensor::Tensor;

/// Bytes of the `u32` length prefix in front of every frame body.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Maximum tensor rank the wire format carries.
pub const MAX_WIRE_NDIM: usize = 8;

/// The `code` of an error frame reporting a malformed frame (a protocol
/// violation, not a [`ServeError`]); the connection closes after sending it.
pub const PROTOCOL_ERROR_CODE: u16 = 0;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_BACKPRESSURE: u8 = 4;
const KIND_GOAWAY: u8 = 5;

/// An inference request travelling client → gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen id echoed in the matching response/error/backpressure
    /// frame. The gateway treats it as opaque; reuse while a previous request
    /// with the same id is in flight makes the two responses ambiguous.
    pub correlation_id: u64,
    /// Scheduling class, mapped onto [`quadra_serve::Priority`].
    pub priority: Priority,
    /// Deadline budget in milliseconds from gateway admission; 0 = none.
    pub deadline_ms: u32,
    /// Target endpoint name.
    pub model: String,
    /// Optional caller tag, echoed back in the response frame.
    pub tag: Option<String>,
    /// Input tensor; axis 0 is the sample axis, as everywhere in the serving
    /// API.
    pub input: Tensor,
}

/// A completed inference travelling gateway → client.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request's correlation id, echoed.
    pub correlation_id: u64,
    /// Fleet-unique id of the coalesced batch the request rode in.
    pub batch_id: u64,
    /// Version of the model state that produced the output.
    pub model_version: u64,
    /// Total samples in the coalesced batch.
    pub batch_samples: u32,
    /// Queue wait in microseconds (saturated).
    pub queue_wait_us: u32,
    /// Submission-to-completion latency in microseconds (saturated),
    /// measured inside the serving engine.
    pub latency_us: u32,
    /// The request tag, echoed verbatim.
    pub tag: Option<String>,
    /// Output rows for the request's samples.
    pub output: Tensor,
}

/// A per-request failure travelling gateway → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request's correlation id (0 for connection-level protocol errors,
    /// which are followed by a close).
    pub correlation_id: u64,
    /// Stable numeric code: [`ServeError::code`], or
    /// [`PROTOCOL_ERROR_CODE`] for malformed frames.
    pub code: u16,
    /// Retry hint in milliseconds; 0 when the error carries none.
    pub retry_after_ms: u32,
    /// Human-readable description.
    pub message: String,
}

/// Connection-level backpressure travelling gateway → client: the request
/// was shed with [`ServeError::Overloaded`] and the client should slow down
/// for roughly `retry_after_ms`. The gateway additionally stops reading from
/// a connection whose outbound buffer crosses the high-water mark, so a
/// client that ignores both signals eventually blocks in its own `write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressureFrame {
    /// The shed request's correlation id.
    pub correlation_id: u64,
    /// Estimated backlog drain time in milliseconds.
    pub retry_after_ms: u32,
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → gateway inference request.
    Request(RequestFrame),
    /// Gateway → client completed inference.
    Response(ResponseFrame),
    /// Gateway → client typed failure.
    Error(ErrorFrame),
    /// Gateway → client overload shed + slow-down advisory.
    Backpressure(BackpressureFrame),
    /// Gateway → client: draining; no further requests will be admitted on
    /// this connection.
    GoAway,
}

impl Frame {
    /// The frame's kind byte on the wire.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Request(_) => KIND_REQUEST,
            Frame::Response(_) => KIND_RESPONSE,
            Frame::Error(_) => KIND_ERROR,
            Frame::Backpressure(_) => KIND_BACKPRESSURE,
            Frame::GoAway => KIND_GOAWAY,
        }
    }
}

/// Why a byte stream failed to decode (or a frame failed to encode). Any
/// decode-side variant is fatal for the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The declared body length exceeds the configured maximum.
    Oversized {
        /// Declared body length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The body was shorter than its fields require (or empty).
    Truncated,
    /// The body was longer than its fields consume.
    TrailingBytes,
    /// The kind byte names no frame this side accepts: no known frame, or
    /// one this side only ever sends (a gateway accepts requests alone).
    UnknownKind(u8),
    /// The priority byte names no known class.
    BadPriority(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The tensor rank is 0 or exceeds [`MAX_WIRE_NDIM`].
    BadRank(u8),
    /// The dimension product overflows, or dims do not match the payload.
    BadShape,
    /// A field to encode does not fit its wire width (tag/model/message over
    /// `u16::MAX` bytes, dim over `u32::MAX`, rank over [`MAX_WIRE_NDIM`]).
    Unencodable,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::TrailingBytes => write!(f, "frame body has trailing bytes"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadPriority(p) => write!(f, "unknown priority {p}"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::BadRank(n) => write!(f, "tensor rank {n} outside 1..={MAX_WIRE_NDIM}"),
            FrameError::BadShape => write!(f, "tensor dims inconsistent with payload"),
            FrameError::Unencodable => write!(f, "field does not fit its wire width"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental decode cursor over a frame body.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: body }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        match (self.rest.get(..n), self.rest.get(n..)) {
            (Some(head), Some(tail)) => {
                self.rest = tail;
                Ok(head)
            }
            _ => Err(FrameError::Truncated),
        }
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        self.take(1)?.first().copied().ok_or(FrameError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let bytes: [u8; 2] = self.take(2)?.try_into().map_err(|_| FrameError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let bytes: [u8; 4] = self.take(4)?.try_into().map_err(|_| FrameError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| FrameError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn string(&mut self, len: usize) -> Result<String, FrameError> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn optional_tag(&mut self) -> Result<Option<String>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let len = self.u16()? as usize;
                Ok(Some(self.string(len)?))
            }
            _ => Err(FrameError::Truncated),
        }
    }

    fn tensor(&mut self) -> Result<Tensor, FrameError> {
        let ndim = self.u8()?;
        if ndim == 0 || ndim as usize > MAX_WIRE_NDIM {
            return Err(FrameError::BadRank(ndim));
        }
        let mut dims = Vec::with_capacity(ndim as usize);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let d = self.u32()? as usize;
            numel = numel.checked_mul(d).ok_or(FrameError::BadShape)?;
            dims.push(d);
        }
        let payload_len = numel.checked_mul(4).ok_or(FrameError::BadShape)?;
        let bytes = self.take(payload_len)?;
        let mut data = Vec::with_capacity(numel);
        for chunk in bytes.chunks_exact(4) {
            let arr: [u8; 4] = chunk.try_into().map_err(|_| FrameError::Truncated)?;
            data.push(f32::from_le_bytes(arr));
        }
        Tensor::from_vec(data, &dims).map_err(|_| FrameError::BadShape)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

/// Decode one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` does not yet hold a complete frame (read
/// more and retry — partial-read reassembly is the caller's loop), or
/// `Ok(Some((frame, consumed)))` with the number of bytes to drop from the
/// front. Any `Err` is a protocol violation that ends the connection.
pub fn decode_frame(buf: &[u8], max_frame: usize) -> Result<Option<(Frame, usize)>, FrameError> {
    let Some(header) = buf.get(..FRAME_HEADER_BYTES) else {
        return Ok(None);
    };
    let header: [u8; 4] = header.try_into().map_err(|_| FrameError::Truncated)?;
    let body_len = u32::from_le_bytes(header) as usize;
    if body_len > max_frame {
        return Err(FrameError::Oversized { len: body_len, max: max_frame });
    }
    if body_len == 0 {
        return Err(FrameError::Truncated);
    }
    let total = FRAME_HEADER_BYTES + body_len;
    let Some(body) = buf.get(FRAME_HEADER_BYTES..total) else {
        return Ok(None);
    };
    let mut c = Cursor::new(body);
    let kind = c.u8()?;
    let frame = match kind {
        KIND_REQUEST => {
            let correlation_id = c.u64()?;
            let priority = match c.u8()? {
                0 => Priority::Interactive,
                1 => Priority::Batch,
                other => return Err(FrameError::BadPriority(other)),
            };
            let deadline_ms = c.u32()?;
            let model_len = c.u16()? as usize;
            let model = c.string(model_len)?;
            let tag = c.optional_tag()?;
            let input = c.tensor()?;
            Frame::Request(RequestFrame { correlation_id, priority, deadline_ms, model, tag, input })
        }
        KIND_RESPONSE => {
            let correlation_id = c.u64()?;
            let batch_id = c.u64()?;
            let model_version = c.u64()?;
            let batch_samples = c.u32()?;
            let queue_wait_us = c.u32()?;
            let latency_us = c.u32()?;
            let tag = c.optional_tag()?;
            let output = c.tensor()?;
            Frame::Response(ResponseFrame {
                correlation_id,
                batch_id,
                model_version,
                batch_samples,
                queue_wait_us,
                latency_us,
                tag,
                output,
            })
        }
        KIND_ERROR => {
            let correlation_id = c.u64()?;
            let code = c.u16()?;
            let retry_after_ms = c.u32()?;
            let msg_len = c.u16()? as usize;
            let message = c.string(msg_len)?;
            Frame::Error(ErrorFrame { correlation_id, code, retry_after_ms, message })
        }
        KIND_BACKPRESSURE => {
            let correlation_id = c.u64()?;
            let retry_after_ms = c.u32()?;
            Frame::Backpressure(BackpressureFrame { correlation_id, retry_after_ms })
        }
        KIND_GOAWAY => Frame::GoAway,
        other => return Err(FrameError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(Some((frame, total)))
}

fn tag_wire_len(tag: &Option<String>) -> Result<usize, FrameError> {
    match tag {
        None => Ok(1),
        Some(t) => {
            if t.len() > u16::MAX as usize {
                return Err(FrameError::Unencodable);
            }
            Ok(1 + 2 + t.len())
        }
    }
}

fn tensor_wire_len(t: &Tensor) -> Result<usize, FrameError> {
    let ndim = t.ndim();
    if ndim == 0 || ndim > MAX_WIRE_NDIM {
        return Err(FrameError::Unencodable);
    }
    if t.shape().iter().any(|&d| d > u32::MAX as usize) {
        return Err(FrameError::Unencodable);
    }
    Ok(1 + 4 * ndim + 4 * t.numel())
}

fn body_len(frame: &Frame) -> Result<usize, FrameError> {
    let len = match frame {
        Frame::Request(rf) => {
            if rf.model.len() > u16::MAX as usize {
                return Err(FrameError::Unencodable);
            }
            1 + 8 + 1 + 4 + 2 + rf.model.len() + tag_wire_len(&rf.tag)? + tensor_wire_len(&rf.input)?
        }
        Frame::Response(rf) => {
            1 + 8 + 8 + 8 + 4 + 4 + 4 + tag_wire_len(&rf.tag)? + tensor_wire_len(&rf.output)?
        }
        Frame::Error(ef) => {
            if ef.message.len() > u16::MAX as usize {
                return Err(FrameError::Unencodable);
            }
            1 + 8 + 2 + 4 + 2 + ef.message.len()
        }
        Frame::Backpressure(_) => 1 + 8 + 4,
        Frame::GoAway => 1,
    };
    Ok(len)
}

fn put_tag(out: &mut Vec<u8>, tag: &Option<String>) {
    match tag {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&(t.len() as u16).to_le_bytes());
            out.extend_from_slice(t.as_bytes());
        }
    }
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.push(t.ndim() as u8);
    for &d in t.shape() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append the wire encoding of `frame` (length prefix included) to `out`.
///
/// Fails only when a field does not fit its wire width
/// ([`FrameError::Unencodable`]); nothing is written in that case.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) -> Result<(), FrameError> {
    let body = body_len(frame)?;
    if body > u32::MAX as usize {
        return Err(FrameError::Unencodable);
    }
    out.reserve(FRAME_HEADER_BYTES + body);
    out.extend_from_slice(&(body as u32).to_le_bytes());
    out.push(frame.kind());
    match frame {
        Frame::Request(rf) => {
            out.extend_from_slice(&rf.correlation_id.to_le_bytes());
            out.push(match rf.priority {
                Priority::Interactive => 0,
                Priority::Batch => 1,
            });
            out.extend_from_slice(&rf.deadline_ms.to_le_bytes());
            out.extend_from_slice(&(rf.model.len() as u16).to_le_bytes());
            out.extend_from_slice(rf.model.as_bytes());
            put_tag(out, &rf.tag);
            put_tensor(out, &rf.input);
        }
        Frame::Response(rf) => {
            out.extend_from_slice(&rf.correlation_id.to_le_bytes());
            out.extend_from_slice(&rf.batch_id.to_le_bytes());
            out.extend_from_slice(&rf.model_version.to_le_bytes());
            out.extend_from_slice(&rf.batch_samples.to_le_bytes());
            out.extend_from_slice(&rf.queue_wait_us.to_le_bytes());
            out.extend_from_slice(&rf.latency_us.to_le_bytes());
            put_tag(out, &rf.tag);
            put_tensor(out, &rf.output);
        }
        Frame::Error(ef) => {
            out.extend_from_slice(&ef.correlation_id.to_le_bytes());
            out.extend_from_slice(&ef.code.to_le_bytes());
            out.extend_from_slice(&ef.retry_after_ms.to_le_bytes());
            out.extend_from_slice(&(ef.message.len() as u16).to_le_bytes());
            out.extend_from_slice(ef.message.as_bytes());
        }
        Frame::Backpressure(bf) => {
            out.extend_from_slice(&bf.correlation_id.to_le_bytes());
            out.extend_from_slice(&bf.retry_after_ms.to_le_bytes());
        }
        Frame::GoAway => {}
    }
    Ok(())
}

impl ErrorFrame {
    /// Reconstruct the [`ServeError`] this frame encodes, if its code is one
    /// this build knows ([`PROTOCOL_ERROR_CODE`] and future codes map to
    /// `None`).
    pub fn to_serve_error(&self) -> Option<ServeError> {
        ServeError::from_code(
            self.code,
            &self.message,
            std::time::Duration::from_millis(u64::from(self.retry_after_ms)),
        )
    }
}

/// Build the error frame for a [`ServeError`], carrying its stable numeric
/// code, the live `retry_after` when the variant has one, and the rendered
/// message. ([`ServeError::Overloaded`] is normally mapped to a
/// [`BackpressureFrame`] instead — see the module docs — but encodes fine.)
// quadra-analyze: allow(hot_alloc:to-string, error reply path: runs once per failed request, never on served traffic)
pub fn error_frame(correlation_id: u64, err: &ServeError) -> ErrorFrame {
    let retry_after_ms = match err {
        ServeError::Overloaded { retry_after } => retry_after.as_millis().min(u32::MAX as u128) as u32,
        _ => 0,
    };
    ErrorFrame { correlation_id, code: err.code(), retry_after_ms, message: err.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const MAX: usize = 1 << 20;

    fn roundtrip(frame: Frame) -> Frame {
        let mut wire = Vec::new();
        encode_frame(&frame, &mut wire).expect("encodes");
        let (decoded, consumed) = decode_frame(&wire, MAX).expect("decodes").expect("complete");
        assert_eq!(consumed, wire.len(), "whole buffer consumed");
        decoded
    }

    fn request() -> RequestFrame {
        RequestFrame {
            correlation_id: 42,
            priority: Priority::Batch,
            deadline_ms: 1500,
            model: "resnet".to_string(),
            tag: Some("session-9".to_string()),
            input: Tensor::from_vec(vec![1.0, -2.5, f32::NAN, 0.0, 3.25, -0.0], &[2, 3]).unwrap(),
        }
    }

    #[test]
    fn request_roundtrips_bitwise() {
        let rf = request();
        let Frame::Request(out) = roundtrip(Frame::Request(rf.clone())) else {
            panic!("wrong kind");
        };
        assert_eq!(out.correlation_id, rf.correlation_id);
        assert_eq!(out.priority, rf.priority);
        assert_eq!(out.deadline_ms, rf.deadline_ms);
        assert_eq!(out.model, rf.model);
        assert_eq!(out.tag, rf.tag);
        assert_eq!(out.input.shape(), rf.input.shape());
        let bits_in: Vec<u32> = rf.input.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_out: Vec<u32> = out.input.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_in, bits_out, "NaN payloads and signed zeros survive the wire");
    }

    #[test]
    fn response_error_backpressure_goaway_roundtrip() {
        let resp = ResponseFrame {
            correlation_id: 7,
            batch_id: 99,
            model_version: 3,
            batch_samples: 8,
            queue_wait_us: 1234,
            latency_us: 56789,
            tag: None,
            output: Tensor::from_vec(vec![0.25; 10], &[1, 10]).unwrap(),
        };
        assert_eq!(roundtrip(Frame::Response(resp.clone())), Frame::Response(resp));

        let err = ErrorFrame {
            correlation_id: 8,
            code: ServeError::UnknownModel("x".into()).code(),
            retry_after_ms: 0,
            message: "no endpoint serves model `x`".to_string(),
        };
        assert_eq!(roundtrip(Frame::Error(err.clone())), Frame::Error(err));

        let bp = BackpressureFrame { correlation_id: 9, retry_after_ms: 12 };
        assert_eq!(roundtrip(Frame::Backpressure(bp)), Frame::Backpressure(bp));
        assert_eq!(roundtrip(Frame::GoAway), Frame::GoAway);
    }

    #[test]
    fn empty_tag_is_distinct_from_no_tag() {
        let mut rf = request();
        rf.tag = Some(String::new());
        let Frame::Request(out) = roundtrip(Frame::Request(rf)) else { panic!("wrong kind") };
        assert_eq!(out.tag, Some(String::new()));
    }

    #[test]
    fn incomplete_prefix_and_body_ask_for_more_bytes() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Request(request()), &mut wire).unwrap();
        for cut in [0, 1, 3, 4, 5, wire.len() - 1] {
            assert_eq!(decode_frame(&wire[..cut], MAX).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn truncated_body_is_malformed_not_incomplete() {
        // A complete frame whose *declared* length cuts a field in half: the
        // bytes are all there, so this is a protocol violation.
        let mut wire = Vec::new();
        encode_frame(
            &Frame::Backpressure(BackpressureFrame { correlation_id: 1, retry_after_ms: 2 }),
            &mut wire,
        )
        .unwrap();
        // Shrink the declared body length by 2: the cursor runs dry.
        let declared = u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]) - 2;
        wire[..4].copy_from_slice(&declared.to_le_bytes());
        wire.truncate(FRAME_HEADER_BYTES + declared as usize);
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut wire = Vec::new();
        encode_frame(&Frame::GoAway, &mut wire).unwrap();
        // Grow the declared length and append a stray byte inside the body.
        let declared = u32::from_le_bytes([wire[0], wire[1], wire[2], wire[3]]) + 1;
        wire[..4].copy_from_slice(&declared.to_le_bytes());
        wire.push(0xAB);
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_buffering() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX as u32 + 1).to_le_bytes());
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::Oversized { len: MAX + 1, max: MAX }));
    }

    #[test]
    fn zero_length_body_unknown_kind_and_bad_priority_are_rejected() {
        assert_eq!(decode_frame(&0u32.to_le_bytes(), MAX), Err(FrameError::Truncated));

        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(200);
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::UnknownKind(200)));

        let mut wire = Vec::new();
        encode_frame(&Frame::Request(request()), &mut wire).unwrap();
        // Byte 4 is the kind, 5..13 the corr id, 13 the priority.
        wire[13] = 9;
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::BadPriority(9)));
    }

    #[test]
    fn garbage_streams_error_rather_than_panic() {
        // Deterministic pseudo-random garbage: every prefix either wants more
        // bytes or reports a typed error — never a panic.
        let mut state = 0x9E3779B97F4A7C15u64;
        let garbage: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        for len in 0..garbage.len() {
            let _ = decode_frame(&garbage[..len], MAX);
        }
    }

    #[test]
    fn bad_rank_and_utf8_are_rejected() {
        let mut wire = Vec::new();
        encode_frame(&Frame::Request(request()), &mut wire).unwrap();
        // Corrupt the model-name bytes (offset: 4 hdr + 1 kind + 8 corr +
        // 1 prio + 4 deadline + 2 len = 20).
        wire[20] = 0xFF;
        wire[21] = 0xFE;
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::BadUtf8));

        let too_deep = Tensor::ones(&[1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let rf = RequestFrame { input: too_deep, ..request() };
        let mut out = Vec::new();
        assert_eq!(encode_frame(&Frame::Request(rf), &mut out), Err(FrameError::Unencodable));
        assert!(out.is_empty(), "failed encode writes nothing");
    }

    #[test]
    fn dim_overflow_is_rejected() {
        // Hand-build a request whose dims multiply past usize::MAX.
        let mut wire = Vec::new();
        let mut body = Vec::new();
        body.push(super::KIND_REQUEST);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0); // interactive
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.push(b'm');
        body.push(0); // no tag
        body.push(4); // ndim
        for _ in 0..4 {
            body.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        assert_eq!(decode_frame(&wire, MAX), Err(FrameError::BadShape));
    }

    #[test]
    fn error_frame_carries_stable_code_and_retry_hint() {
        let ef = error_frame(5, &ServeError::Overloaded { retry_after: Duration::from_millis(7) });
        assert_eq!(ef.code, ServeError::Overloaded { retry_after: Duration::ZERO }.code());
        assert_eq!(ef.retry_after_ms, 7);
        let ef = error_frame(6, &ServeError::DeadlineExceeded);
        assert_eq!(ef.retry_after_ms, 0);
        assert!(ef.message.contains("deadline"));
    }

    #[test]
    fn two_frames_in_one_buffer_decode_sequentially() {
        let mut wire = Vec::new();
        encode_frame(&Frame::GoAway, &mut wire).unwrap();
        let first_len = wire.len();
        encode_frame(
            &Frame::Backpressure(BackpressureFrame { correlation_id: 3, retry_after_ms: 4 }),
            &mut wire,
        )
        .unwrap();
        let (f1, c1) = decode_frame(&wire, MAX).unwrap().unwrap();
        assert_eq!(f1, Frame::GoAway);
        assert_eq!(c1, first_len);
        let (f2, _) = decode_frame(&wire[c1..], MAX).unwrap().unwrap();
        assert!(matches!(f2, Frame::Backpressure(_)));
    }
}
