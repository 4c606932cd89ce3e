//! Crash-safe binary checkpoints: the `krr-ckpt-v1` container format.
//!
//! A long-running profiler (days over a Twitter-scale stream) must survive
//! restarts without replaying the trace. This module provides the framing
//! shared by every checkpointable component: [`KrrModel`](crate::KrrModel),
//! [`ShardedKrr`](crate::ShardedKrr), the metrics registry, and the
//! mini-Redis store. The design goals, in order:
//!
//! 1. **Crash safety.** Files are written to a temporary sibling and
//!    atomically renamed into place ([`CheckpointWriter::write_atomic`]),
//!    so a crash mid-write
//!    leaves the previous checkpoint intact.
//! 2. **Corruption detection.** Every section carries a CRC-32 of its
//!    payload; a bit flip, truncation, bad magic, or future version is
//!    rejected with a distinct, descriptive [`io::Error`] instead of
//!    silently restoring garbage.
//! 3. **Bit-identical resume.** Component payloads capture *everything*
//!    that influences future outputs — RNG streams, histograms, counters —
//!    so killing a run at a batch boundary, restoring, and finishing the
//!    trace yields an MRC bit-identical to an uninterrupted run.
//! 4. **No dependencies.** The CRC-32 and all (de)serialization are
//!    hand-rolled over `std`.
//!
//! ## On-disk layout
//!
//! ```text
//! magic    8 bytes   "KRRCKPT" + version byte (currently 1)
//! section  4 bytes   ASCII tag (e.g. "SHRD", "METR", "STRM")
//!          8 bytes   payload length, little-endian u64
//!          n bytes   payload (component-defined, see component docs)
//!          4 bytes   CRC-32 (IEEE) of the payload, little-endian
//! ...               more sections
//! end      "END\0" + length 0 + CRC of the empty payload
//! ```
//!
//! Integers inside payloads are little-endian; `f64`s are stored as their
//! IEEE-754 bit patterns ([`f64::to_bits`]), so round-trips are exact.
//!
//! ```
//! use krr_core::checkpoint::{CheckpointReader, CheckpointWriter, SECTION_STREAM};
//!
//! let mut w = CheckpointWriter::new();
//! w.section(SECTION_STREAM).put_u64(12_345);
//! let mut bytes = Vec::new();
//! w.write_to(&mut bytes).unwrap();
//!
//! let r = CheckpointReader::from_bytes(&bytes).unwrap();
//! let mut dec = r.section(SECTION_STREAM).unwrap();
//! assert_eq!(dec.u64().unwrap(), 12_345);
//! ```

use std::io::{self, Read, Write};
use std::path::Path;

/// File magic: `"KRRCKPT"` followed by [`VERSION`].
pub const MAGIC: [u8; 7] = *b"KRRCKPT";

/// Current format version, stored as the 8th byte of the file header.
pub const VERSION: u8 = 1;

/// Section tag: a single [`crate::KrrModel`]'s full state.
pub const SECTION_MODEL: [u8; 4] = *b"MODL";
/// Section tag: a [`crate::ShardedKrr`] bank (template config + shards).
pub const SECTION_SHARDED: [u8; 4] = *b"SHRD";
/// Section tag: a [`crate::metrics::MetricsSnapshot`].
pub const SECTION_METRICS: [u8; 4] = *b"METR";
/// Section tag: trace-stream position (refs seen, byte offset, line
/// number, stats rows) written by `krr model --checkpoint-every`.
pub const SECTION_STREAM: [u8; 4] = *b"STRM";
/// Section tag: mini-Redis store state (dict, memory accounting, stats).
pub const SECTION_STORE: [u8; 4] = *b"STOR";
/// Terminator section tag.
pub const SECTION_END: [u8; 4] = *b"END\0";

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data` — the checksum
/// guarding every checkpoint section.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian payload encoder used by every component's `save_state`.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.put_u64(v.to_bits())
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// The encoded payload so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style decoder over a section payload; every read is
/// bounds-checked and a short payload yields a descriptive
/// [`io::ErrorKind::InvalidData`] error instead of a panic.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("checkpoint payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| bad_data("checkpoint length overflows usize"))?;
        self.take(n)
    }

    /// Reads a `u64` count of items that take at least `item_bytes` (> 0)
    /// bytes each, and rejects it unless the bytes left can hold that many,
    /// so a decoder can reserve `count` items without trusting a corrupt
    /// or crafted length. `what` names the count in the error.
    pub(crate) fn count(&mut self, item_bytes: usize, what: &str) -> io::Result<usize> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= self.remaining() / item_bytes)
            .ok_or_else(|| bad_data(format!("{what} {n} exceeds the checkpoint payload")))
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once the whole payload has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

/// Builds a multi-section `krr-ckpt-v1` file in memory, then writes it in
/// one shot ([`CheckpointWriter::write_to`]) or atomically to a path
/// ([`CheckpointWriter::write_atomic`]).
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    sections: Vec<([u8; 4], Enc)>,
}

impl CheckpointWriter {
    /// Creates a writer with no sections.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new section with `tag` and returns its payload encoder.
    /// Sections are written in insertion order.
    pub fn section(&mut self, tag: [u8; 4]) -> &mut Enc {
        self.sections.push((tag, Enc::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Serializes magic, every section (tag, length, payload, CRC-32) and
    /// the END terminator to `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION])?;
        for (tag, enc) in &self.sections {
            write_section(&mut w, *tag, enc.as_slice())?;
        }
        write_section(&mut w, SECTION_END, &[])?;
        w.flush()
    }

    /// Writes the checkpoint to `path` crash-safely: the bytes go to a
    /// `.tmp` sibling in the same directory, are synced to disk, and the
    /// temporary is renamed over `path` — readers only ever observe the
    /// previous complete checkpoint or the new one.
    pub fn write_atomic<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let file = std::fs::File::create(&tmp)?;
            let mut buf = io::BufWriter::new(file);
            self.write_to(&mut buf)?;
            buf.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

fn write_section<W: Write>(w: &mut W, tag: [u8; 4], payload: &[u8]) -> io::Result<()> {
    w.write_all(&tag)?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// A parsed `krr-ckpt-v1` file: magic and version verified, every
/// section's CRC-32 checked, terminator found.
#[derive(Debug)]
pub struct CheckpointReader {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl CheckpointReader {
    /// Parses a checkpoint from any reader, validating magic, version,
    /// per-section CRCs and the END terminator.
    ///
    /// # Errors
    ///
    /// * bad magic → `InvalidData` "not a krr-ckpt checkpoint"
    /// * newer version → `InvalidData` "unsupported checkpoint version"
    /// * CRC mismatch → `InvalidData` "crc mismatch"
    /// * short file → `UnexpectedEof` "truncated checkpoint"
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let mut header = [0u8; 8];
        read_exact(&mut r, &mut header)?;
        if header[..7] != MAGIC {
            return Err(bad_data("not a krr-ckpt checkpoint (bad magic)"));
        }
        let version = header[7];
        if version != VERSION {
            return Err(bad_data(format!(
                "unsupported checkpoint version {version} (this build reads v{VERSION})"
            )));
        }
        let mut sections = Vec::new();
        loop {
            let mut tag = [0u8; 4];
            read_exact(&mut r, &mut tag)?;
            let mut len = [0u8; 8];
            read_exact(&mut r, &mut len)?;
            let len = u64::from_le_bytes(len);
            // Read through `take` instead of pre-sizing the buffer from the
            // untrusted length: the buffer grows only with bytes present.
            let mut payload = Vec::new();
            if (&mut r).take(len).read_to_end(&mut payload)? as u64 != len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated checkpoint",
                ));
            }
            let mut crc = [0u8; 4];
            read_exact(&mut r, &mut crc)?;
            if u32::from_le_bytes(crc) != crc32(&payload) {
                return Err(bad_data(format!(
                    "section {:?} crc mismatch (corrupted checkpoint)",
                    String::from_utf8_lossy(&tag)
                )));
            }
            if tag == SECTION_END {
                return Ok(Self { sections });
            }
            sections.push((tag, payload));
        }
    }

    /// Parses a checkpoint held in memory.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        Self::read_from(bytes)
    }

    /// Opens and parses a checkpoint file.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::read_from(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// Decoder over the first section with `tag`, if present.
    #[must_use]
    pub fn section(&self, tag: [u8; 4]) -> Option<Dec<'_>> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| Dec::new(p))
    }

    /// Decoder over the section with `tag`, or a descriptive error naming
    /// the missing section.
    pub fn require(&self, tag: [u8; 4]) -> io::Result<Dec<'_>> {
        self.section(tag).ok_or_else(|| {
            bad_data(format!(
                "checkpoint has no {:?} section",
                String::from_utf8_lossy(&tag)
            ))
        })
    }

    /// Tags of all sections, in file order.
    #[must_use]
    pub fn tags(&self) -> Vec<[u8; 4]> {
        self.sections.iter().map(|(t, _)| *t).collect()
    }
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "truncated checkpoint")
        } else {
            e
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vectors() {
        // Published IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX)
            .put_f64(-0.125)
            .put_bytes(b"hello");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert!(d.is_empty());
        assert!(d.u8().is_err(), "reads past the end must fail");
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = CheckpointWriter::new();
        w.section(SECTION_MODEL).put_u64(1).put_u64(2);
        w.section(SECTION_METRICS).put_bytes(b"xyz");
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        let r = CheckpointReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.tags(), vec![SECTION_MODEL, SECTION_METRICS]);
        let mut d = r.require(SECTION_MODEL).unwrap();
        assert_eq!((d.u64().unwrap(), d.u64().unwrap()), (1, 2));
        assert!(r.section(SECTION_STORE).is_none());
        assert!(r.require(SECTION_STORE).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = CheckpointReader::from_bytes(b"NOTCKPT\x01whatever").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = Vec::new();
        CheckpointWriter::new().write_to(&mut bytes).unwrap();
        bytes[7] = 9;
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unsupported checkpoint version 9"),
            "{err}"
        );
    }

    #[test]
    fn truncation_rejected() {
        let mut w = CheckpointWriter::new();
        w.section(SECTION_MODEL).put_bytes(&[0u8; 64]);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        for cut in [3, 9, 20, bytes.len() - 1] {
            let err = CheckpointReader::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut={cut}");
            assert!(err.to_string().contains("truncated"), "cut={cut}: {err}");
        }
    }

    #[test]
    fn huge_section_length_is_truncation_not_allocation() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(VERSION);
        bytes.extend_from_slice(&SECTION_MODEL);
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bitflip_rejected_by_crc() {
        let mut w = CheckpointWriter::new();
        w.section(SECTION_MODEL).put_bytes(&[0xABu8; 64]);
        let mut bytes = Vec::new();
        w.write_to(&mut bytes).unwrap();
        // Flip one bit inside the payload region.
        bytes[8 + 4 + 8 + 10] ^= 0x40;
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_previous_checkpoint() {
        let dir = std::env::temp_dir().join(format!("krr-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        let mut w = CheckpointWriter::new();
        w.section(SECTION_STREAM).put_u64(1);
        w.write_atomic(&path).unwrap();
        let mut w2 = CheckpointWriter::new();
        w2.section(SECTION_STREAM).put_u64(2);
        w2.write_atomic(&path).unwrap();
        let r = CheckpointReader::open(&path).unwrap();
        assert_eq!(r.require(SECTION_STREAM).unwrap().u64().unwrap(), 2);
        assert!(
            !dir.join("a.ckpt.tmp").exists(),
            "temporary must be renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
