//! The memcached binary protocol (the subset memtier_benchmark drives:
//! GET and SET over the binary wire format).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{AppError, Result};

/// Request magic byte.
pub(crate) const MAGIC_REQUEST: u8 = 0x80;
/// Response magic byte.
pub(crate) const MAGIC_RESPONSE: u8 = 0x81;

/// Binary protocol opcodes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Fetch a value.
    Get = 0x00,
    /// Store a value.
    Set = 0x01,
    /// Remove a key.
    Delete = 0x04,
    /// Liveness probe (empty request/response).
    Noop = 0x0a,
}

impl Opcode {
    fn from_u8(v: u8) -> Result<Opcode> {
        match v {
            0x00 => Ok(Opcode::Get),
            0x01 => Ok(Opcode::Set),
            0x04 => Ok(Opcode::Delete),
            0x0a => Ok(Opcode::Noop),
            other => Err(AppError::Protocol(format!("unknown opcode {other:#x}"))),
        }
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Status {
    /// Success.
    Ok = 0x0000,
    /// Key not found.
    KeyNotFound = 0x0001,
    /// Out of memory storing the item.
    OutOfMemory = 0x0082,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Operation.
    pub opcode: Opcode,
    /// The key bytes.
    pub key: Bytes,
    /// The value (SET only; empty otherwise).
    pub value: Bytes,
    /// Opaque token echoed in the response.
    pub opaque: u32,
    /// Client flags stored with the item (SET extras).
    pub(crate) flags: u32,
    /// Relative expiry in seconds; 0 = never (SET extras).
    pub(crate) expiry: u32,
}

/// A response to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Request opcode being answered.
    pub opcode: Opcode,
    /// Outcome.
    pub status: Status,
    /// Value payload (GET hits).
    pub value: Bytes,
    /// Echoed opaque token.
    pub opaque: u32,
}

const HEADER_LEN: usize = 24;

/// Encodes a GET request.
pub fn encode_get(key: &[u8], opaque: u32) -> Bytes {
    encode_request(Opcode::Get, key, &[], opaque, 0, 0)
}

/// Encodes a SET request (flags/expiry extras zero, as memtier's default
/// workload uses).
pub fn encode_set(key: &[u8], value: &[u8], opaque: u32) -> Bytes {
    encode_request(Opcode::Set, key, value, opaque, 0, 0)
}

/// Encodes a SET request with client flags and a relative expiry (seconds;
/// 0 = never expires).
pub fn encode_set_with(key: &[u8], value: &[u8], opaque: u32, flags: u32, expiry: u32) -> Bytes {
    encode_request(Opcode::Set, key, value, opaque, flags, expiry)
}

/// Encodes a DELETE request.
pub fn encode_delete(key: &[u8], opaque: u32) -> Bytes {
    encode_request(Opcode::Delete, key, &[], opaque, 0, 0)
}

/// Encodes a NOOP request.
pub fn encode_noop(opaque: u32) -> Bytes {
    encode_request(Opcode::Noop, &[], &[], opaque, 0, 0)
}

fn encode_request(
    opcode: Opcode,
    key: &[u8],
    value: &[u8],
    opaque: u32,
    flags: u32,
    expiry: u32,
) -> Bytes {
    let extras_len: usize = if opcode == Opcode::Set { 8 } else { 0 };
    let body_len = extras_len + key.len() + value.len();
    let mut b = BytesMut::with_capacity(HEADER_LEN + body_len);
    b.put_u8(MAGIC_REQUEST);
    b.put_u8(opcode as u8);
    b.put_u16(key.len() as u16);
    b.put_u8(extras_len as u8);
    b.put_u8(0); // data type
    b.put_u16(0); // vbucket
    b.put_u32(body_len as u32);
    b.put_u32(opaque);
    b.put_u64(0); // CAS
    if extras_len > 0 {
        b.put_u32(flags);
        b.put_u32(expiry);
    }
    b.put_slice(key);
    b.put_slice(value);
    b.freeze()
}

/// Parses a request off the wire.
///
/// # Errors
///
/// Returns [`AppError::Protocol`] for short frames, bad magic, unknown
/// opcodes, or inconsistent length fields.
pub fn parse_request(mut wire: Bytes) -> Result<Request> {
    if wire.len() < HEADER_LEN {
        return Err(AppError::Protocol(format!(
            "frame shorter than header: {}",
            wire.len()
        )));
    }
    let magic = wire.get_u8();
    if magic != MAGIC_REQUEST {
        return Err(AppError::Protocol(format!("bad request magic {magic:#x}")));
    }
    let opcode = Opcode::from_u8(wire.get_u8())?;
    let key_len = wire.get_u16() as usize;
    let extras_len = wire.get_u8() as usize;
    let _data_type = wire.get_u8();
    let _vbucket = wire.get_u16();
    let body_len = wire.get_u32() as usize;
    let opaque = wire.get_u32();
    let _cas = wire.get_u64();
    if wire.len() != body_len || body_len < extras_len + key_len {
        return Err(AppError::Protocol(format!(
            "inconsistent lengths: body={body_len} remaining={} extras={extras_len} key={key_len}",
            wire.len()
        )));
    }
    let (flags, expiry) = if extras_len >= 8 {
        (wire.get_u32(), wire.get_u32())
    } else {
        wire.advance(extras_len);
        (0, 0)
    };
    if extras_len > 8 {
        wire.advance(extras_len - 8);
    }
    let key = wire.split_to(key_len);
    let value = wire;
    Ok(Request {
        opcode,
        key,
        value,
        opaque,
        flags,
        expiry,
    })
}

/// Encodes a response.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut b = BytesMut::with_capacity(HEADER_LEN + resp.value.len());
    b.put_u8(MAGIC_RESPONSE);
    b.put_u8(resp.opcode as u8);
    b.put_u16(0); // key length
    b.put_u8(0); // extras
    b.put_u8(0);
    b.put_u16(resp.status as u16);
    b.put_u32(resp.value.len() as u32);
    b.put_u32(resp.opaque);
    b.put_u64(0);
    b.put_slice(&resp.value);
    b.freeze()
}

/// Parses a response (used by the memtier-like client to validate).
///
/// # Errors
///
/// Returns [`AppError::Protocol`] on malformed frames.
pub fn parse_response(mut wire: Bytes) -> Result<Response> {
    if wire.len() < HEADER_LEN {
        return Err(AppError::Protocol("short response".into()));
    }
    let magic = wire.get_u8();
    if magic != MAGIC_RESPONSE {
        return Err(AppError::Protocol(format!("bad response magic {magic:#x}")));
    }
    let opcode = Opcode::from_u8(wire.get_u8())?;
    let _key_len = wire.get_u16();
    let _extras = wire.get_u8();
    let _dt = wire.get_u8();
    let status = match wire.get_u16() {
        0x0000 => Status::Ok,
        0x0001 => Status::KeyNotFound,
        0x0082 => Status::OutOfMemory,
        other => return Err(AppError::Protocol(format!("unknown status {other:#x}"))),
    };
    let body_len = wire.get_u32() as usize;
    let opaque = wire.get_u32();
    let _cas = wire.get_u64();
    if wire.len() != body_len {
        return Err(AppError::Protocol("response body length mismatch".into()));
    }
    Ok(Response {
        opcode,
        status,
        value: wire,
        opaque,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_roundtrip() {
        let wire = encode_set(b"key-7", &[0xAB; 100], 42);
        let req = parse_request(wire).unwrap();
        assert_eq!(req.opcode, Opcode::Set);
        assert_eq!(&req.key[..], b"key-7");
        assert_eq!(req.value.len(), 100);
        assert_eq!(req.opaque, 42);
    }

    #[test]
    fn get_roundtrip() {
        let wire = encode_get(b"k", 7);
        let req = parse_request(wire).unwrap();
        assert_eq!(req.opcode, Opcode::Get);
        assert_eq!(&req.key[..], b"k");
        assert!(req.value.is_empty());
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response {
            opcode: Opcode::Get,
            status: Status::Ok,
            value: Bytes::from(vec![7u8; 2048]),
            opaque: 99,
        };
        let parsed = parse_response(encode_response(&resp)).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = encode_get(b"k", 0).to_vec();
        wire[0] = 0x55;
        assert!(matches!(
            parse_request(Bytes::from(wire)),
            Err(AppError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_rejected() {
        let wire = encode_set(b"key", &[1; 50], 0);
        let truncated = wire.slice(..wire.len() - 10);
        assert!(parse_request(truncated).is_err());
    }

    #[test]
    fn short_header_rejected() {
        assert!(parse_request(Bytes::from_static(&[0x80, 0x00])).is_err());
    }
}
