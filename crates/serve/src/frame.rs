//! Length-prefixed, versioned, checksummed binary framing.
//!
//! Every message on a `pps-serve` connection travels in one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "PPSF"
//! 4       1     version (currently 1)
//! 5       1     reserved (must be 0)
//! 6       4     payload length, big-endian
//! 10      4     FNV-1a-32 checksum of the payload, big-endian
//! 14      len   payload bytes
//! ```
//!
//! The reader validates in order — magic, version, reserved byte, length
//! bound, then checksum after the payload arrives — so every malformed
//! input maps to one precise [`FrameError`] and the connection can reply
//! with a structured error before closing. A frame is the retransmission
//! unit: nothing inside a payload can desynchronize the stream, and any
//! header-level corruption poisons the whole connection (the stream offset
//! can no longer be trusted).

use std::fmt;
use std::io::{self, Read, Write};

/// Frame preamble, `b"PPSF"`.
pub const MAGIC: [u8; 4] = *b"PPSF";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Bytes before the payload.
pub const HEADER_LEN: usize = 14;
/// Largest accepted payload (16 MiB) — bounds memory per connection.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// The reserved header byte was nonzero.
    BadReserved(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum did not match the header.
    Checksum {
        /// Checksum the header claimed.
        expected: u32,
        /// Checksum of the bytes actually received.
        found: u32,
    },
    /// The peer closed the connection mid-frame.
    Truncated,
    /// Transport failure (including read timeouts).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want {MAGIC:02x?})"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v} (want {VERSION})"),
            FrameError::BadReserved(b) => write!(f, "nonzero reserved header byte {b:#04x}"),
            FrameError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds max payload {MAX_PAYLOAD}")
            }
            FrameError::Checksum { expected, found } => {
                write!(f, "checksum mismatch: header {expected:#010x}, payload {found:#010x}")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// FNV-1a over `payload`, 32-bit — an error-detection checksum (not
/// cryptographic). The arithmetic lives in the shared
/// [`pps_core::hash`] module; the wire format pins this exact function.
pub fn checksum(payload: &[u8]) -> u32 {
    pps_core::hash::fnv1a32(payload)
}

/// Encodes a complete frame (header + payload) into one buffer.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — callers build payloads
/// and must respect the bound.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(0);
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&checksum(payload).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Writes one frame and flushes.
///
/// # Errors
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u32, u32), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    if header[5] != 0 {
        return Err(FrameError::BadReserved(header[5]));
    }
    let len = u32::from_be_bytes(header[6..10].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let want = u32::from_be_bytes(header[10..14].try_into().expect("4 bytes"));
    Ok((len, want))
}

fn read_body(r: &mut impl Read, len: u32, want: u32) -> Result<Vec<u8>, FrameError> {
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = checksum(&payload);
    if found != want {
        return Err(FrameError::Checksum { expected: want, found });
    }
    Ok(payload)
}

/// Reads one frame, blocking. Use on the client side or wherever a frame
/// is known to be coming.
///
/// # Errors
/// Any [`FrameError`]; EOF before the first byte reports [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (len, want) = parse_header(&header)?;
    read_body(r, len, want)
}

/// Reads the rest of a frame whose first byte was already consumed (the
/// server polls for that byte with a short timeout so it can notice
/// shutdown between requests).
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_after(first: u8, r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    let (len, want) = parse_header(&header)?;
    read_body(r, len, want)
}

/// What a listening peer's short-timeout poll for a frame's first byte
/// saw: the byte, a clean close, no data yet, or a transport failure.
pub(crate) enum First {
    Byte(u8),
    Eof,
    TimedOut,
    Err(io::Error),
}

/// Polls for the first byte of the next frame. The daemon and the router
/// read with a short timeout here so they notice shutdown between
/// requests, then finish the frame with [`read_frame_after`].
pub(crate) fn read_first(r: &mut impl Read) -> First {
    let mut b = [0u8; 1];
    match r.read(&mut b) {
        Ok(0) => First::Eof,
        Ok(_) => First::Byte(b[0]),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            First::TimedOut
        }
        Err(e) => First::Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips() {
        for payload in [&b""[..], b"x", b"hello frames", &[0u8; 5000]] {
            let buf = encode_frame(payload);
            assert_eq!(buf.len(), HEADER_LEN + payload.len());
            let back = read_frame(&mut Cursor::new(&buf)).unwrap();
            assert_eq!(back, payload);
        }
    }

    #[test]
    fn rejects_bad_magic_version_reserved() {
        let mut buf = encode_frame(b"ok");
        buf[0] = b'X';
        assert!(matches!(read_frame(&mut Cursor::new(&buf)), Err(FrameError::BadMagic(_))));
        let mut buf = encode_frame(b"ok");
        buf[4] = 9;
        assert!(matches!(read_frame(&mut Cursor::new(&buf)), Err(FrameError::BadVersion(9))));
        let mut buf = encode_frame(b"ok");
        buf[5] = 1;
        assert!(matches!(read_frame(&mut Cursor::new(&buf)), Err(FrameError::BadReserved(1))));
    }

    #[test]
    fn rejects_oversized_and_checksum_mismatch() {
        let mut buf = encode_frame(b"ok");
        buf[6..10].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(read_frame(&mut Cursor::new(&buf)), Err(FrameError::Oversized(_))));
        let mut buf = encode_frame(b"payload");
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(read_frame(&mut Cursor::new(&buf)), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let buf = encode_frame(b"truncate me");
        for cut in 0..buf.len() {
            let r = read_frame(&mut Cursor::new(&buf[..cut]));
            assert!(
                matches!(r, Err(FrameError::Truncated)),
                "cut at {cut} gave {r:?}"
            );
        }
    }

    #[test]
    fn resumed_read_matches_fresh_read() {
        let buf = encode_frame(b"resume");
        let back = read_frame_after(buf[0], &mut Cursor::new(&buf[1..])).unwrap();
        assert_eq!(back, b"resume");
    }
}
