//! Versioned, length-prefixed binary snapshots of simulator state.
//!
//! There are two ways to put state into a snapshot, and no third:
//!
//! * a **component** — anything whose restore validates against, or
//!   rebuilds derived state inside, an already constructed value —
//!   implements the in-place [`Snapshot`] trait;
//! * a **value** — a counter, a flag, a tuple of scalars, a counter block,
//!   a queued packet, a telemetry row — implements the by-value [`Codec`]
//!   trait and is written by [`SnapshotWriter::put`] and read by
//!   [`SnapshotReader::get`]; the writer and reader have no per-type
//!   methods beside them. A layout is stated once: each primitive's codec
//!   is one macro row, [`record!`](crate::record) declares a struct and
//!   its codec from one field list, and [`tagged!`](crate::tagged) an
//!   enum's codec from one list of tag bytes, so a field cannot be saved
//!   and not restored. Only length-prefixed bytes, strings and the bulk
//!   `u8s`/`u32s`/`u64s` arrays, the large arrays' fast path, bypass it.
//!
//! The format is deliberately primitive — plain little-endian field dumps,
//! no self-description, no serde — because both sides of the pipe are the
//! same binary: a snapshot is only ever restored by the code revision that
//! wrote it, into a component constructed from the same configuration.
//! What the format *does* guarantee is loud failure:
//!
//! * an 8-byte magic plus a format version up front, so a foreign or stale
//!   file is rejected before any field is interpreted;
//! * every component wraps its fields in a named **section** — a tag, a
//!   64-bit payload length and a trailing [`checksum64`] of the payload —
//!   so a truncated or bit-flipped file fails with the section name, never
//!   with a misaligned read silently corrupting downstream state;
//! * section nesting is enforced: a `restore` that consumes fewer or more
//!   bytes than the matching `save` wrote trips
//!   [`SnapshotError::SectionUnderrun`] / [`SnapshotError::Truncated`] at the
//!   section boundary, pinpointing the component whose field list drifted.
//!
//! Only *authoritative* state belongs in a snapshot. Anything derivable —
//! wake caches, ring-head caches, occupancy counters, scratch buffers — is
//! rebuilt on restore (see DESIGN.md's serialized-vs-rebuilt table), which
//! keeps the format small and makes "what is actually state?" an audited,
//! executable question.

use crate::addr::{CoreId, LineAddr};
use crate::policy::RequestClass;
use std::collections::VecDeque;
use std::fmt;

/// File magic: identifies a G-Cache snapshot.
pub const MAGIC: [u8; 8] = *b"GCSNAPSH";
/// Format version; bump on any layout change. Version 2 seals sections
/// with [`checksum64`] instead of FNV-1a and encodes arrays in bulk;
/// version 3 drops the blocked, MSHR-merge and L1.5 stall counters;
/// version 4 drops the policies' bypass, switch-opening and estimation
/// counters and saves both PDP kinds as one `pdp` section. An older file
/// is rejected, never migrated (the point re-simulates).
pub const VERSION: u32 = 4;
/// Bytes of magic plus version that open every snapshot.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// Encoded size of a section with a `payload`-byte payload: tag, length
/// field, payload, checksum. With [`HEADER_LEN`] and [`bytes_len`] it lets
/// a caller that knows its fields size a [`SnapshotWriter`] exactly.
pub const fn section_len(tag: &str, payload: usize) -> usize {
    2 + tag.len() + 8 + payload + 8
}

/// Encoded size of an `n`-byte [`SnapshotWriter::bytes`] /
/// [`SnapshotWriter::str`] field: length prefix plus content.
pub const fn bytes_len(n: usize) -> usize {
    8 + n
}

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended (or the innermost section boundary was hit) before
    /// the requested read.
    Truncated {
        /// Byte offset of the failed read.
        at: usize,
        /// Bytes requested.
        wanted: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// A section tag did not match the one the reader expected.
    BadSection {
        /// Tag the restore code expected.
        expected: String,
        /// Tag found in the file.
        found: String,
    },
    /// A section's payload failed its checksum (truncation or corruption).
    BadChecksum {
        /// Tag of the failing section.
        section: String,
    },
    /// A section's `restore` consumed fewer bytes than its `save` wrote.
    SectionUnderrun {
        /// Tag of the failing section.
        section: String,
        /// Unconsumed payload bytes.
        leftover: usize,
    },
    /// A value read from the file is outside its legal range (enum tag,
    /// flag byte, count).
    BadValue {
        /// What was being decoded.
        what: String,
        /// The offending raw value.
        value: u64,
    },
    /// The snapshot was taken under a different configuration or kernel
    /// than the one it is being restored into.
    Mismatch {
        /// What differed.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at, wanted } => {
                write!(
                    f,
                    "snapshot truncated: {wanted} bytes wanted at offset {at}"
                )
            }
            SnapshotError::BadMagic => f.write_str("not a G-Cache snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "snapshot format version {found}, this build reads {VERSION}"
                )
            }
            SnapshotError::BadSection { expected, found } => {
                write!(f, "expected section '{expected}', found '{found}'")
            }
            SnapshotError::BadChecksum { section } => {
                write!(
                    f,
                    "checksum mismatch in section '{section}' (file truncated or corrupt)"
                )
            }
            SnapshotError::SectionUnderrun { section, leftover } => {
                write!(
                    f,
                    "section '{section}' restored with {leftover} bytes unconsumed"
                )
            }
            SnapshotError::BadValue { what, value } => {
                write!(f, "illegal value {value} decoding {what}")
            }
            SnapshotError::Mismatch { what } => {
                write!(f, "snapshot does not match this run: {what} differs")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// 64-bit FNV-1a over a byte slice — a cheap content fingerprint for short
/// strings (the configuration hash a checkpoint header carries so resume
/// can reject a mismatched machine, checkpoint file names). Sections are
/// sealed with [`checksum64`], not with this.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Odd multiplier of every [`checksum64`] step (2^64 / golden ratio).
const SUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One [`checksum64`] step (see there for why it is a bijection in each
/// argument). The rotation carries the multiply's well-mixed high half
/// down, where the next step's multiply spreads it again.
#[inline]
fn sum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(SUM_MUL).rotate_left(32)
}

/// The per-section checksum. The bytes are read as little-endian `u64`
/// words, the tail zero-padded to a whole word; word `i` is absorbed by
/// lane `i % 8` with one step `h = rotl32((h ^ w) * 0x9e3779b97f4a7c15)`;
/// the byte length and the eight lanes are then folded with the same
/// step. Eight independent dependency chains at eight bytes per multiply
/// mean the multiplier never waits on its own result. The step is a
/// bijection of `h` for a fixed `w` and of `w` for a fixed `h`: xor,
/// multiplication by an odd constant modulo 2^64 and rotation are each
/// invertible.
///
/// Guarantee: two inputs of equal length that differ only inside one
/// aligned 8-byte word have different sums. Such a change alters one word
/// of one lane; every later step of that lane and every fold step is a
/// bijection of the running value, so the difference can never cancel.
/// Anything wider — several words, or a length change that is not
/// zero-padding-neutral — collides with probability about 2^-64. It is
/// not a cryptographic hash: it catches torn writes and flipped bits, not
/// an adversary.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const SEEDS: [u64; 8] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
        0x4528_21e6_38d0_1377,
        0xbe54_66cf_34e9_0c6c,
        0xc0ac_29b7_c97c_50dd,
        0x3f84_d5b5_b547_0917,
    ];
    // Up to eight bytes as a little-endian word, zero-padded.
    let word = |c: &[u8]| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    };
    let mut lanes = SEEDS;
    let mut blocks = bytes.chunks_exact(64);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = sum_step(*lane, word(&b[8 * i..8 * i + 8]));
        }
    }
    for (lane, c) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = sum_step(*lane, word(c));
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |h, &l| sum_step(h, l))
}

/// Serializes state into the snapshot byte format.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Stack of open sections: offset of the 8-byte length placeholder.
    open: Vec<usize>,
}

impl SnapshotWriter {
    /// Starts a snapshot: writes magic and version.
    pub fn new() -> Self {
        Self::with_capacity(64 * 1024)
    }

    /// [`SnapshotWriter::new`] with room for `bytes` bytes of snapshot, so
    /// a caller that knows the size (the previous snapshot of the same
    /// run, an exactly computed wrapper) never regrows the buffer.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(bytes),
            open: Vec::new(),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.put(&VERSION);
        w
    }

    /// Opens a named section; every byte written until the matching
    /// [`SnapshotWriter::end_section`] belongs to its checksummed payload.
    fn begin_section(&mut self, tag: &str) {
        let t = tag.as_bytes();
        assert!(t.len() <= u16::MAX as usize, "section tag too long");
        self.put(&(t.len() as u16));
        self.buf.extend_from_slice(t);
        self.open.push(self.buf.len());
        self.put(&0u64);
    }

    /// Closes the innermost section: backfills its length and appends the
    /// payload checksum.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (a save/restore pairing bug).
    fn end_section(&mut self) {
        let len_pos = self.open.pop().expect("end_section without begin_section");
        let payload_start = len_pos + 8;
        let len = (self.buf.len() - payload_start) as u64;
        self.buf[len_pos..payload_start].copy_from_slice(&len.to_le_bytes());
        self.put(&checksum64(&self.buf[payload_start..]));
    }

    /// Runs `f` inside a section — the common save idiom.
    pub fn section(&mut self, tag: &str, f: impl FnOnce(&mut Self)) {
        self.begin_section(tag);
        f(self);
        self.end_section();
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.put(&v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed array of one-byte values (what
    /// [`SnapshotReader::u8s`] reads back) with one reservation; an
    /// iterator, so an array of byte-sized enums needs no staging copy.
    pub fn u8s(&mut self, v: impl ExactSizeIterator<Item = u8>) {
        self.put(&v.len());
        self.buf.extend(v);
    }

    /// Writes a length-prefixed `u32` array with one reservation.
    pub fn u32s(&mut self, v: &[u32]) {
        self.put(&v.len());
        let at = self.buf.len();
        self.buf.resize(at + 4 * v.len(), 0);
        for (dst, x) in self.buf[at..].chunks_exact_mut(4).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u64` array with one reservation.
    pub fn u64s(&mut self, v: &[u64]) {
        self.put(&v.len());
        let at = self.buf.len();
        self.buf.resize(at + 8 * v.len(), 0);
        for (dst, x) in self.buf[at..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes one value in its [`Codec`] form.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Writes every item, without a count: for sequences whose length the
    /// restoring constructor fixes ([`SnapshotReader::get_each`] reads
    /// them back). A `Vec` or `VecDeque` passed to [`SnapshotWriter::put`]
    /// is its length followed by this.
    pub fn put_each<'a, T: Codec + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        for item in items {
            item.encode(self);
        }
    }

    /// Writes a counted array of components, each through its own
    /// [`Snapshot::save`] ([`SnapshotReader::restore_all`] reads it back).
    pub fn save_all<S: Snapshot>(&mut self, parts: &[S]) {
        self.put(&parts.len());
        for part in parts {
            part.save(self);
        }
    }

    /// Finishes the snapshot and returns its bytes.
    ///
    /// # Panics
    ///
    /// Panics if any section is still open.
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "snapshot finished with open sections");
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// One open section on the reader's stack.
#[derive(Debug)]
struct OpenSection {
    /// First byte past the payload (the checksum starts here).
    end: usize,
    tag: String,
}

/// Decodes the snapshot byte format, enforcing sections and checksums.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    open: Vec<OpenSection>,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot: verifies magic and version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::BadVersion`] when the
    /// buffer is not a snapshot this build can read.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapshotError> {
        if buf.len() < HEADER_LEN || buf[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = SnapshotReader {
            buf,
            pos: MAGIC.len(),
            open: Vec::new(),
        };
        match r.get()? {
            VERSION => Ok(r),
            found => Err(SnapshotError::BadVersion { found }),
        }
    }

    /// The innermost read bound: the current section's payload end, or the
    /// buffer end at top level.
    fn bound(&self) -> usize {
        self.open.last().map_or(self.buf.len(), |s| s.end)
    }

    /// `n` comes from the file as often as from the code, so the bound
    /// test must not overflow: a length with its high bits set is a
    /// truncated file, not a slice-index panic.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.bound());
        let Some(end) = end else {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                wanted: n,
            });
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Opens the next section, which must carry `tag`, and verifies its
    /// checksum over the whole payload before any field is interpreted.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadSection`] on a tag mismatch,
    /// [`SnapshotError::BadChecksum`] / [`SnapshotError::Truncated`] on a
    /// damaged or cut-short file.
    fn begin_section(&mut self, tag: &str) -> Result<(), SnapshotError> {
        let tlen: u16 = self.get()?;
        let found = String::from_utf8_lossy(self.take(tlen.into())?).into_owned();
        if found != tag {
            return Err(SnapshotError::BadSection {
                expected: tag.to_string(),
                found,
            });
        }
        let len: usize = self.get()?;
        // Payload and checksum must both fit; `take` bounds-checks the sum
        // without overflowing, and the cursor reads the checksum, then
        // goes back to the payload.
        let start = self.pos;
        let payload = self.take(len.saturating_add(8))?.split_at(len).0;
        self.pos = start + len;
        if checksum64(payload) != self.get::<u64>()? {
            return Err(SnapshotError::BadChecksum { section: found });
        }
        self.pos = start;
        self.open.push(OpenSection {
            end: start + len,
            tag: found,
        });
        Ok(())
    }

    /// Closes the innermost section, requiring its payload to be exactly
    /// consumed, and skips past its checksum.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SectionUnderrun`] when bytes are left over — the
    /// restore code read fewer fields than the save wrote.
    ///
    /// # Panics
    ///
    /// Panics if no section is open (a save/restore pairing bug).
    fn end_section(&mut self) -> Result<(), SnapshotError> {
        let s = self.open.pop().expect("end_section without begin_section");
        if self.pos != s.end {
            return Err(SnapshotError::SectionUnderrun {
                section: s.tag,
                leftover: s.end - self.pos,
            });
        }
        self.pos += 8;
        Ok(())
    }

    /// Runs `f` inside a section — the common restore idiom.
    pub fn section<T>(
        &mut self,
        tag: &str,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.begin_section(tag)?;
        let v = f(self)?;
        self.end_section()?;
        Ok(v)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// The bytes of a length-prefixed array that must hold exactly `built`
    /// elements of `width` bytes — the constructor sized the destination
    /// from the configuration, so any other count is a different machine.
    fn array(&mut self, built: usize, width: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        self.count(built, what)?;
        self.take(built * width)
    }

    /// Reads a saved element count that must equal `built`, the count the
    /// constructor derived from the configuration. This is the one place a
    /// length from the file is compared with a constructed one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` and both counts.
    pub fn count(&mut self, built: usize, what: &str) -> Result<(), SnapshotError> {
        let saved: usize = self.get()?;
        if saved != built {
            return Err(SnapshotError::Mismatch {
                what: format!("{what} ({saved} saved, {built} built)"),
            });
        }
        Ok(())
    }

    /// Reads an array of exactly `built` one-byte values written by
    /// [`SnapshotWriter::u8s`]; the caller validates and converts them.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` on any other count.
    pub fn u8s(&mut self, built: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        self.array(built, 1, what)
    }

    /// Fills `dst` from an array written by [`SnapshotWriter::u32s`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` when the saved count is
    /// not `dst.len()`.
    pub fn u32s(&mut self, dst: &mut [u32], what: &str) -> Result<(), SnapshotError> {
        let src = self.array(dst.len(), 4, what)?;
        for (x, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
            *x = u32::from_le_bytes(c.try_into().unwrap());
        }
        Ok(())
    }

    /// Fills `dst` from an array written by [`SnapshotWriter::u64s`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` when the saved count is
    /// not `dst.len()`.
    pub fn u64s(&mut self, dst: &mut [u64], what: &str) -> Result<(), SnapshotError> {
        let src = self.array(dst.len(), 8, what)?;
        for (x, c) in dst.iter_mut().zip(src.chunks_exact(8)) {
            *x = u64::from_le_bytes(c.try_into().unwrap());
        }
        Ok(())
    }

    /// Reads the element count of a sequence whose length the file alone
    /// decides. Every element takes at least one byte, so a count beyond
    /// the bytes left in the enclosing section is a cut or hostile file —
    /// reported before anything is reserved for it.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.get()?;
        if n > self.bound() - self.pos {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        Ok(n)
    }

    /// Reads one value in its [`Codec`] form.
    pub fn get<T: Codec>(&mut self) -> Result<T, SnapshotError> {
        T::decode(self)
    }

    /// Overwrites every slot of `dst` with the next value, without a
    /// count (written by [`SnapshotWriter::put_each`]).
    pub fn get_each<T: Codec>(&mut self, dst: &mut [T]) -> Result<(), SnapshotError> {
        dst.iter_mut().try_for_each(|slot| {
            *slot = T::decode(self)?;
            Ok(())
        })
    }

    /// Overwrites the already-built `dst` from a counted sequence (a `Vec`
    /// or `VecDeque` on the writing side), element by element; the arrays
    /// that dominate a snapshot go through the bulk
    /// [`SnapshotReader::u64s`] family instead.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` when the saved count is
    /// not `dst.len()`.
    pub fn fill<T: Codec>(&mut self, dst: &mut [T], what: &str) -> Result<(), SnapshotError> {
        self.count(dst.len(), what)?;
        self.get_each(dst)
    }

    /// Restores a counted array of components in place (written by
    /// [`SnapshotWriter::save_all`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] naming `what` when the saved count is
    /// not `parts.len()`, or whatever a component's restore returns.
    pub fn restore_all<S: Snapshot>(
        &mut self,
        parts: &mut [S],
        what: &str,
    ) -> Result<(), SnapshotError> {
        self.count(parts.len(), what)?;
        parts.iter_mut().try_for_each(|part| part.restore(self))
    }
}

/// The save/restore capability every stateful component implements.
///
/// `restore` runs against an *already constructed* value — configuration
/// and geometry are rebuilt by the constructor, only mutable runtime state
/// travels through the snapshot.
pub trait Snapshot {
    /// Serializes this component's authoritative state.
    fn save(&self, w: &mut SnapshotWriter);

    /// Restores state saved by [`Snapshot::save`] into `self`, rebuilding
    /// any derivable caches.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] when the bytes do not decode as this
    /// component's state.
    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// The by-value codec: how one value — a counter block, a queued packet, a
/// completion token, a telemetry row — is written and read back whole.
/// Containers are generic over it (`MshrFile<T: Codec>`, `Mesh<T: Codec>`),
/// and [`record!`](crate::record) implements it for a plain struct from
/// the struct's own field list, [`tagged!`](crate::tagged) for an enum
/// from its list of tag bytes.
pub trait Codec: Sized {
    /// Writes this value.
    fn encode(&self, w: &mut SnapshotWriter);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] when the bytes do not decode as this type.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Declares [`Codec`]s of plain values. A list of integer types is written
/// little-endian at its own width; `T as Wire, |v| to, |x| from` writes a
/// `T` as the `Wire` value `to` and reads it back through `from`, which
/// may refuse the wire value.
macro_rules! value_codec {
    ($($int:ty),+) => {$(
        impl Codec for $int {
            fn encode(&self, w: &mut SnapshotWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                let le = r.take(std::mem::size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(le.try_into().expect("take returns the width asked for")))
            }
        }
    )+};
    ($ty:ty as $wire:ty, |$v:ident| $to:expr, |$x:ident| $from:expr) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut SnapshotWriter) {
                let $v = *self;
                w.put::<$wire>(&$to);
            }

            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                let $x: $wire = r.get()?;
                $from
            }
        }
    };
}

/// The error of a wire `value` that does not decode as a `what`.
fn bad_value(what: &str, value: u64) -> SnapshotError {
    SnapshotError::BadValue {
        what: what.to_string(),
        value,
    }
}

value_codec!(u8, u16, u32, u64);
// Snapshots are word-size independent.
value_codec!(usize as u64, |v| v as u64, |x| {
    usize::try_from(x).map_err(|_| bad_value("usize", x))
});
value_codec!(bool as u8, |v| u8::from(v), |x| match x {
    0 => Ok(false),
    1 => Ok(true),
    _ => Err(bad_value("bool", x.into())),
});
// The IEEE-754 bit pattern: bit-exact round trips, no formatting involved.
value_codec!(f64 as u64, |v| v.to_bits(), |x| Ok(f64::from_bits(x)));
value_codec!(LineAddr as u64, |v| v.raw(), |x| Ok(LineAddr::new(x)));
value_codec!(CoreId as usize, |v| v.index(), |x| Ok(CoreId(x)));
// An optional request class is the single byte of
// `RequestClass::to_wire`, not the two-part form of `Option<T>`; the two
// impls coexist because `RequestClass` on its own is deliberately not a
// `Codec`.
value_codec!(Option<RequestClass> as u8, |v| RequestClass::to_wire(v), |x| {
    RequestClass::from_wire(x).map_err(|x| bad_value("request class", x.into()))
});

/// A presence byte, then the value if there is one.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put(&self.is_some());
        if let Some(v) = self {
            w.put(v);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.get::<bool>()?.then(|| r.get()).transpose()
    }
}

/// A count, then the elements. Decoding reserves for no more elements than
/// the enclosing section has bytes left, so a count from a hostile file is
/// [`SnapshotError::Truncated`], never an allocation the size of the lie.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        w.put_each(self);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.get()?);
        }
        Ok(v)
    }
}

/// Front to back, in the bytes of the equivalent `Vec`.
impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put(&self.len());
        w.put_each(self);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::decode(r)?.into())
    }
}

/// A tuple is its fields back to back, with no framing: one `put` of a
/// tuple writes the same bytes as one `put` per field.
macro_rules! tuple_codec {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self, w: &mut SnapshotWriter) {
                $( w.put(&self.$i); )+
            }

            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    };
}

tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);
tuple_codec!(A 0, B 1, C 2, D 3);

/// Test support for every [`Codec`], hand-written or declared: `v` must
/// decode from exactly the bytes it encoded to, and the decoded value must
/// encode to those bytes again.
///
/// # Panics
///
/// Panics when either half of the round trip fails.
pub fn assert_round_trip<T: Codec>(v: &T) {
    let sealed = |v: &T| {
        let mut w = SnapshotWriter::new();
        w.section("value", |w| w.put(v));
        w.finish()
    };
    let bytes = sealed(v);
    let mut r = SnapshotReader::new(&bytes).expect("a snapshot header");
    let back: T = r
        .section("value", |r| r.get())
        .expect("decoding consumes exactly what encoding wrote");
    assert_eq!(
        sealed(&back),
        bytes,
        "the decoded value encodes differently"
    );
}

/// Declares a plain record — the struct and its [`Codec`] — from one field
/// list: fields are written and read in declaration order, so the list
/// *is* the wire layout and a field cannot be saved but not restored. The
/// struct may take one type parameter (`struct Pending<T> { .. }`), which
/// must itself be a [`Codec`].
///
/// Two optional trailers add what else would re-enumerate the fields:
///
/// * `impl merge;` — for counter blocks: `merge(&mut self, &Self)` adds
///   field by field (every field type must be `AddAssign<&Self>`, as `u64`
///   is);
/// * `impl fields as dyn Trait;` — `FIELDS`, the comma-separated field
///   names, and `fields()`, each field as a `(name, &dyn Trait)` pair in
///   declaration order, for code that walks the record as named columns.
///
/// # Examples
///
/// ```
/// use gcache_core::record;
/// use gcache_core::snapshot::{SnapshotReader, SnapshotWriter};
///
/// record! {
///     /// Two counters.
///     #[derive(Debug, Default, PartialEq)]
///     pub struct Hits {
///         /// Lookups that found the line.
///         pub hits: u64,
///         /// Lookups that did not.
///         pub misses: u64,
///     }
///     impl merge;
/// }
///
/// let mut total = Hits { hits: 1, misses: 2 };
/// total.merge(&Hits { hits: 10, misses: 20 });
/// let mut w = SnapshotWriter::new();
/// w.put(&total);
/// let bytes = w.finish();
/// let mut r = SnapshotReader::new(&bytes).unwrap();
/// assert_eq!(r.get::<Hits>().unwrap(), Hits { hits: 11, misses: 22 });
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$param:ident>)? {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$param>)? {
            $( $(#[$fmeta])* $fvis $field: $ty, )+
        }

        impl<$($param: $crate::snapshot::Codec)?> $crate::snapshot::Codec for $name<$($param)?> {
            fn encode(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                $( w.put(&self.$field); )+
            }

            fn decode(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($name { $( $field: r.get()?, )+ })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),+ $(,)?
        }
        impl merge;
    ) => {
        $crate::record! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$fmeta])* $fvis $field: $ty, )+ }
        }

        impl $name {
            /// Adds another instance's counters to this one, field by field.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += &other.$field; )+
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),+ $(,)?
        }
        impl fields as dyn $view:path;
    ) => {
        $crate::record! {
            $(#[$meta])*
            $vis struct $name { $( $(#[$fmeta])* $fvis $field: $ty, )+ }
        }

        impl $name {
            /// The field names in declaration order, comma-separated.
            pub const FIELDS: &'static str = concat!($( ",", stringify!($field) ),+).split_at(1).1;

            /// Every field, named, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, &dyn $view)> {
                vec![$( (stringify!($field), &self.$field as &dyn $view) ),+]
            }
        }
    };
}

/// Declares the [`Codec`] of an enum from one list of its variants, each
/// with its tag byte: a value is its tag, then its variant's fields in the
/// order listed, so the list *is* the wire layout. A tuple variant names a
/// binding per field (`1 => ComputeUntil(t)`), a struct variant its
/// fields (`0 => Read { core, warp }`). Any other tag decodes to
/// [`SnapshotError::BadValue`] naming `what`.
///
/// # Examples
///
/// ```
/// use gcache_core::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Token {
///     Fill(u64),
///     Writeback,
/// }
///
/// gcache_core::tagged! {
///     Token as "token" {
///         0 => Fill(line),
///         1 => Writeback,
///     }
/// }
///
/// let mut w = SnapshotWriter::new();
/// w.put(&Token::Fill(7));
/// w.put(&2u8);
/// let bytes = w.finish();
/// let mut r = SnapshotReader::new(&bytes).unwrap();
/// assert_eq!(r.get::<Token>().unwrap(), Token::Fill(7));
/// assert_eq!(
///     r.get::<Token>().unwrap_err(),
///     SnapshotError::BadValue { what: "token".to_string(), value: 2 }
/// );
/// ```
#[macro_export]
macro_rules! tagged {
    (
        $ty:ident as $what:literal {
            $( $tag:literal => $variant:ident
                $( ( $($t:ident),+ ) )?
                $( { $($f:ident),+ } )?
            ),+ $(,)?
        }
    ) => {
        impl $crate::snapshot::Codec for $ty {
            fn encode(&self, w: &mut $crate::snapshot::SnapshotWriter) {
                match self {
                    $( $ty::$variant $( ( $($t),+ ) )? $( { $($f),+ } )? => {
                        w.put::<u8>(&$tag);
                        $( $( w.put($t); )+ )?
                        $( $( w.put($f); )+ )?
                    } )+
                }
            }

            fn decode(
                r: &mut $crate::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match r.get::<u8>()? {
                    $( $tag => {
                        $( $( let $t = r.get()?; )+ )?
                        $( $( let $f = r.get()?; )+ )?
                        Ok($ty::$variant $( ( $($t),+ ) )? $( { $($f),+ } )?)
                    } )+
                    v => Err($crate::snapshot::SnapshotError::BadValue {
                        what: $what.to_string(),
                        value: u64::from(v),
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AccessKind;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapshotWriter::new();
        w.section("prims", |w| {
            w.put(&(0xabu8, 0xbeefu16, 0xdead_beefu32, u64::MAX - 7));
            w.put(&(12345usize, true, false, std::f64::consts::PI));
            w.bytes(b"hello");
            w.str("world");
        });
        let bytes = w.finish();
        // Each primitive at its own width, little-endian; a usize is a u64
        // and an f64 its bit pattern.
        let mut payload = vec![0xab, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde];
        payload.extend((u64::MAX - 7).to_le_bytes());
        payload.extend(12345u64.to_le_bytes());
        payload.extend([1, 0]);
        payload.extend(std::f64::consts::PI.to_bits().to_le_bytes());
        let at = HEADER_LEN + 2 + "prims".len() + 8;
        assert_eq!(bytes[at..at + payload.len()], payload);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section("prims", |r| {
            let ints: (u8, u16, u32, u64) = r.get()?;
            assert_eq!(ints, (0xab, 0xbeef, 0xdead_beef, u64::MAX - 7));
            let rest: (usize, bool, bool, f64) = r.get()?;
            assert_eq!(rest, (12345, true, false, std::f64::consts::PI));
            assert_eq!(r.bytes()?, b"hello");
            assert_eq!(r.str()?, "world");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn arrays_round_trip_and_reject_other_counts() {
        let (a, b, c) = (
            [u64::MAX, 1, 0x0102_0304_0506_0708],
            [7u32, u32::MAX],
            [9u8, 0, 255],
        );
        let mut w = SnapshotWriter::new();
        w.section("arrays", |w| {
            w.u64s(&a);
            w.u32s(&b);
            w.u8s(c.iter().copied());
            w.u64s(&[]);
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section("arrays", |r| {
            let (mut a2, mut b2) = ([0u64; 3], [0u32; 2]);
            r.u64s(&mut a2, "a")?;
            r.u32s(&mut b2, "b")?;
            assert_eq!((a2, b2), (a, b));
            assert_eq!(r.u8s(3, "c")?, c);
            r.u64s(&mut [], "empty")
        })
        .unwrap();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("arrays").unwrap();
        assert_eq!(
            r.u64s(&mut [0; 4], "stamps").unwrap_err(),
            SnapshotError::Mismatch {
                what: "stamps (3 saved, 4 built)".to_string()
            }
        );
    }

    #[test]
    fn checksum_sees_every_bit_and_every_appended_zero() {
        let pattern: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=pattern.len() {
            let data = &pattern[..len];
            let sum = checksum64(data);
            let mut grown = data.to_vec();
            grown.push(0);
            assert_ne!(checksum64(&grown), sum, "appended zero at length {len}");
            for bit in 0..len * 8 {
                let mut flipped = data.to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), sum, "bit {bit} of {len} bytes");
            }
        }
    }

    #[test]
    fn nested_sections_round_trip() {
        let mut w = SnapshotWriter::new();
        w.section("outer", |w| {
            w.put(&1u64);
            w.section("inner", |w| w.put(&2u64));
            w.put(&3u64);
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.section("outer", |r| {
            assert_eq!(r.get::<u64>()?, 1);
            r.section("inner", |r| {
                assert_eq!(r.get::<u64>()?, 2);
                Ok(())
            })?;
            assert_eq!(r.get::<u64>()?, 3);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            SnapshotReader::new(b"NOTASNAP\x01\x00\x00\x00").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SnapshotReader::new(b"GC").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&buf).unwrap_err(),
            SnapshotError::BadVersion { found: 99 }
        );
    }

    #[test]
    fn huge_length_fields_are_truncation_not_a_panic() {
        // A section header claiming almost 2^64 payload bytes.
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&7u64));
        let mut bytes = w.finish();
        let len_at = HEADER_LEN + 2 + 1;
        bytes[len_at..len_at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            r.begin_section("s"),
            Err(SnapshotError::Truncated { at, .. }) if at == len_at + 8
        ));

        // A `bytes()` prefix doing the same inside a correctly sealed
        // section.
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&(u64::MAX - 1)));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        assert!(matches!(r.bytes(), Err(SnapshotError::Truncated { .. })));
    }

    #[test]
    fn hostile_element_counts_are_truncation_before_any_reservation() {
        // A correctly sealed section whose only content is the count of a
        // `Vec` that is not there. Reserving for it would abort the
        // process; the count must be refused against the bytes left.
        for count in [u64::MAX >> 1, 9] {
            let mut w = SnapshotWriter::new();
            w.section("s", |w| w.put(&count));
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes).unwrap();
            r.begin_section("s").unwrap();
            assert_eq!(
                r.get::<Vec<(LineAddr, Vec<u64>)>>().unwrap_err(),
                SnapshotError::Truncated {
                    at: bytes.len() - 8,
                    wanted: count as usize
                }
            );
        }
        // The same count in front of enough bytes is read as what it is.
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&VecDeque::from([7u16, 8, 9])));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        assert_eq!(r.get::<VecDeque<u16>>().unwrap(), [7, 8, 9]);
    }

    #[test]
    fn every_value_codec_round_trips() {
        assert_round_trip(&(0xabu8, 0xbeefu16, 0xdead_beefu32, u64::MAX - 7));
        assert_round_trip(&(12345usize, true, false, std::f64::consts::PI));
        assert_round_trip(&(Some(5u64), None::<u64>));
        assert_round_trip(&vec![Some(LineAddr::new(9)), None]);
        assert_round_trip(&VecDeque::from([(CoreId(3), AccessKind::Atomic)]));
        for kind in [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Atomic,
            AccessKind::CopyBack,
        ] {
            assert_round_trip(&kind);
        }
        // All ten bytes of an optional request class, and no eleventh.
        for byte in 0..=9 {
            let class = RequestClass::from_wire(byte).unwrap();
            assert_round_trip(&class);
            let mut w = SnapshotWriter::new();
            w.put(&class);
            assert_eq!(w.finish()[HEADER_LEN..], [byte]);
        }
        // The reject arms: a byte outside each codec's range is a bad value
        // naming the type.
        let mut w = SnapshotWriter::new();
        w.put(&(10u8, 2u8, 4u8));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let bad = |what: &str, value| SnapshotError::BadValue {
            what: what.to_string(),
            value,
        };
        let class = r.get::<Option<RequestClass>>().unwrap_err();
        assert_eq!(class, bad("request class", 10));
        assert_eq!(r.get::<bool>().unwrap_err(), bad("bool", 2));
        assert_eq!(r.get::<AccessKind>().unwrap_err(), bad("access kind", 4));
    }

    #[test]
    fn counts_and_component_arrays_check_against_the_built_length() {
        struct Part(u64);
        impl Snapshot for Part {
            fn save(&self, w: &mut SnapshotWriter) {
                w.section("part", |w| w.put(&self.0));
            }
            fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
                self.0 = r.section("part", |r| r.get())?;
                Ok(())
            }
        }
        let mut w = SnapshotWriter::new();
        w.save_all(&[Part(4), Part(5)]);
        w.put(&vec![1u32, 2, 3]);
        w.put_each(&[6u8, 7]);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        let mut parts = [Part(0), Part(0)];
        r.restore_all(&mut parts, "parts").unwrap();
        assert_eq!((parts[0].0, parts[1].0), (4, 5));
        let (mut words, mut tail) = ([0u32; 3], [0u8; 2]);
        r.fill(&mut words, "words").unwrap();
        r.get_each(&mut tail).unwrap();
        assert_eq!((words, tail), ([1, 2, 3], [6, 7]));

        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.restore_all(&mut [Part(0)], "parts").unwrap_err(),
            SnapshotError::Mismatch {
                what: "parts (2 saved, 1 built)".to_string()
            }
        );
    }

    #[test]
    fn truncation_fails_loudly() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&7u64));
        let bytes = w.finish();
        // Cut the file anywhere inside the section: the open fails.
        for cut in HEADER_LEN..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]).unwrap();
            assert!(r.begin_section("s").is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corruption_fails_checksum() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&7u64));
        let mut bytes = w.finish();
        let last_payload = bytes.len() - 9; // inside the u64, before checksum
        bytes[last_payload] ^= 0x40;
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.begin_section("s").unwrap_err(),
            SnapshotError::BadChecksum {
                section: "s".to_string()
            }
        );
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut w = SnapshotWriter::new();
        w.section("alpha", |w| w.put(&7u64));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.begin_section("beta").unwrap_err(),
            SnapshotError::BadSection {
                expected: "beta".to_string(),
                found: "alpha".to_string()
            }
        );
    }

    #[test]
    fn underrun_detected() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| {
            w.put(&(1u64, 2u64));
        });
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        r.get::<u64>().unwrap();
        assert_eq!(
            r.end_section().unwrap_err(),
            SnapshotError::SectionUnderrun {
                section: "s".to_string(),
                leftover: 8
            }
        );
    }

    #[test]
    fn overrun_bounded_by_section() {
        let mut w = SnapshotWriter::new();
        w.section("s", |w| w.put(&1u32));
        w.section("t", |w| w.put(&2u64));
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("s").unwrap();
        // Reading a u64 from a 4-byte payload must not leak into 't'.
        assert!(matches!(
            r.get::<u64>(),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
