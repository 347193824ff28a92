//! Parameter checkpoints: a small versioned binary format for saving and
//! restoring training state.
//!
//! Format **v2** captures everything a bit-identical resume needs:
//! parameters, optimizer moments (Adam `m`/`v` and step counter), RNG
//! stream positions and run counters. Each section carries a kind tag and
//! a CRC32 so on-disk corruption is detected at load time, and
//! [`Checkpoint::save_atomic`] writes crash-consistently (temp file +
//! fsync + atomic rename), so a crash mid-write leaves the previous
//! checkpoint intact. Version-1 files (f32 sections, no CRC; no writer
//! since PR 4) are rejected like any other unknown version.
//!
//! ```text
//! magic "MDGANCKP" | version u32 | iteration u64 | n_sections u32 | header crc32 u32
//! section: name_len u32 | name | kind u8 | data_len u32 | payload | crc32 u32
//! ```
//! All integers little-endian; `data_len` counts *elements* (f32s, u64s or
//! bytes, per the kind tag); the CRC covers name, kind, length and payload.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use md_tensor::Tensor;
use std::fs;
use std::io;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MDGANCKP";
const VERSION: u32 = 2;

const KIND_F32: u8 = 0;
const KIND_U64: u8 = 1;
const KIND_BYTES: u8 = 2;

/// Payload of one checkpoint section.
#[derive(Clone, Debug, PartialEq)]
pub enum SectionData {
    /// Flat f32 data: parameters, optimizer moments, scores.
    F32(Vec<f32>),
    /// Word data: RNG states, counters, masks.
    U64(Vec<u64>),
    /// Opaque bytes: embedded JSONL (score timelines) and the like.
    Bytes(Vec<u8>),
}

impl SectionData {
    fn kind(&self) -> u8 {
        match self {
            SectionData::F32(_) => KIND_F32,
            SectionData::U64(_) => KIND_U64,
            SectionData::Bytes(_) => KIND_BYTES,
        }
    }

    fn elem_count(&self) -> usize {
        match self {
            SectionData::F32(d) => d.len(),
            SectionData::U64(d) => d.len(),
            SectionData::Bytes(d) => d.len(),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            SectionData::F32(d) => 4 * d.len(),
            SectionData::U64(d) => 8 * d.len(),
            SectionData::Bytes(d) => d.len(),
        }
    }
}

/// IEEE CRC-32 (reflected polynomial 0xEDB88320) lookup tables for
/// slicing by 8, built at compile time — no external crc crate needed.
/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` advances the
/// CRC of byte `b` over `k` more zero bytes, so eight lookups fold eight
/// bytes in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming IEEE CRC-32.
#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Eight bytes per step through the sliced tables, the tail bytewise;
    /// the same CRC as the bytewise walk over all of `bytes`.
    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// A named collection of typed sections plus an iteration counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Global iteration the checkpoint was taken at.
    pub iteration: u64,
    sections: Vec<(String, SectionData)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint at the given iteration.
    pub fn new(iteration: u64) -> Self {
        Checkpoint {
            iteration,
            sections: Vec::new(),
        }
    }

    fn push_section(&mut self, name: String, data: SectionData) {
        assert!(
            self.get_section(&name).is_none(),
            "duplicate checkpoint section {name:?}"
        );
        self.sections.push((name, data));
    }

    /// Appends an f32 section.
    ///
    /// # Panics
    /// Panics if a section with this name already exists — a checkpoint
    /// with ambiguous sections cannot be restored safely.
    pub fn push(&mut self, name: impl Into<String>, data: Vec<f32>) {
        self.push_section(name.into(), SectionData::F32(data));
    }

    /// Appends a u64 section (counters, masks, shapes).
    ///
    /// # Panics
    /// Panics on a duplicate section name.
    pub fn push_u64(&mut self, name: impl Into<String>, data: Vec<u64>) {
        self.push_section(name.into(), SectionData::U64(data));
    }

    /// Appends an opaque byte section.
    ///
    /// # Panics
    /// Panics on a duplicate section name.
    pub fn push_bytes(&mut self, name: impl Into<String>, data: Vec<u8>) {
        self.push_section(name.into(), SectionData::Bytes(data));
    }

    /// Number of sections.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Section names in insertion order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Looks a section up by name, whatever its kind.
    pub fn get_section(&self, name: &str) -> Option<&SectionData> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// Looks an f32 section up by name.
    pub fn get(&self, name: &str) -> Option<&[f32]> {
        match self.get_section(name) {
            Some(SectionData::F32(d)) => Some(d.as_slice()),
            _ => None,
        }
    }

    /// Looks a u64 section up by name.
    pub fn get_u64(&self, name: &str) -> Option<&[u64]> {
        match self.get_section(name) {
            Some(SectionData::U64(d)) => Some(d.as_slice()),
            _ => None,
        }
    }

    /// Looks a byte section up by name.
    pub fn get_bytes(&self, name: &str) -> Option<&[u8]> {
        match self.get_section(name) {
            Some(SectionData::Bytes(d)) => Some(d.as_slice()),
            _ => None,
        }
    }

    fn missing(name: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint missing required section {name:?} (or wrong kind)"),
        )
    }

    /// An f32 section that must exist — restore paths error (instead of
    /// silently skipping) when state they depend on is absent.
    pub fn require(&self, name: &str) -> io::Result<&[f32]> {
        self.get(name).ok_or_else(|| Self::missing(name))
    }

    /// An f32 section that must exist with exactly `len` elements.
    pub fn require_len(&self, name: &str, len: usize) -> io::Result<&[f32]> {
        let d = self.require(name)?;
        if d.len() != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("section {name:?} has {} elements, expected {len}", d.len()),
            ));
        }
        Ok(d)
    }

    /// A u64 section that must exist.
    pub fn require_u64(&self, name: &str) -> io::Result<&[u64]> {
        self.get_u64(name).ok_or_else(|| Self::missing(name))
    }

    /// A u64 section that must exist with exactly `len` elements.
    pub fn require_u64_len(&self, name: &str, len: usize) -> io::Result<&[u64]> {
        let d = self.require_u64(name)?;
        if d.len() != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("section {name:?} has {} words, expected {len}", d.len()),
            ));
        }
        Ok(d)
    }

    /// Stores a tensor as an f32 section plus a `{name}_shape` u64
    /// companion.
    pub fn push_tensor(&mut self, name: &str, t: &Tensor) {
        self.push(name, t.data().to_vec());
        let shape = t.shape().iter().map(|&d| d as u64).collect();
        self.push_u64(format!("{name}_shape"), shape);
    }

    /// A tensor stored by [`push_tensor`](Self::push_tensor), its element
    /// count checked against the recorded shape.
    pub fn require_tensor(&self, name: &str) -> io::Result<Tensor> {
        let shape: Vec<usize> = self
            .require_u64(&format!("{name}_shape"))?
            .iter()
            .map(|&d| d as usize)
            .collect();
        let data = self.require_len(name, shape.iter().product())?;
        Ok(Tensor::new(&shape, data.to_vec()))
    }

    /// A byte section that must exist.
    pub fn require_bytes(&self, name: &str) -> io::Result<&[u8]> {
        self.get_bytes(name).ok_or_else(|| Self::missing(name))
    }

    /// Serializes to the (v2) wire format.
    pub fn to_bytes(&self) -> Bytes {
        let payload: usize = self
            .sections
            .iter()
            .map(|(n, d)| 4 + n.len() + 1 + 4 + d.payload_bytes() + 4)
            .sum();
        let mut buf = BytesMut::with_capacity(8 + 4 + 8 + 4 + 4 + payload);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.iteration);
        buf.put_u32_le(self.sections.len() as u32);
        // Header CRC over iteration + section count: magic/version flips are
        // self-detecting, but without this a bit flip in the iteration field
        // would load silently — every byte of the file must be covered.
        let mut hcrc = Crc32::new();
        hcrc.update(&self.iteration.to_le_bytes());
        hcrc.update(&(self.sections.len() as u32).to_le_bytes());
        buf.put_u32_le(hcrc.finish());
        for (name, data) in &self.sections {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
            let mut crc = Crc32::new();
            crc.update(&(name.len() as u32).to_le_bytes());
            crc.update(name.as_bytes());
            let kind = data.kind();
            let len = data.elem_count() as u32;
            buf.put_u8(kind);
            buf.put_u32_le(len);
            crc.update(&[kind]);
            crc.update(&len.to_le_bytes());
            let payload_start = buf.len();
            match data {
                SectionData::F32(d) => {
                    for &v in d {
                        buf.put_f32_le(v);
                    }
                }
                SectionData::U64(d) => {
                    for &v in d {
                        buf.put_u64_le(v);
                    }
                }
                SectionData::Bytes(d) => buf.put_slice(d),
            }
            crc.update(&buf[payload_start..]);
            buf.put_u32_le(crc.finish());
        }
        buf.freeze()
    }

    /// Parses the wire format.
    ///
    /// # Errors
    /// Returns [`io::ErrorKind::InvalidData`] on magic/version mismatch,
    /// truncation, an implausible section count, duplicate section names,
    /// or a per-section CRC mismatch — never panics, so a corrupt or
    /// hostile file cannot take the trainer down.
    pub fn from_bytes(mut buf: &[u8]) -> io::Result<Self> {
        fn bad(msg: String) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg)
        }
        if buf.len() < 8 + 4 + 8 + 4 + 4 {
            return Err(bad("checkpoint truncated (header)".into()));
        }
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(bad(format!("bad magic {magic:?}")));
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        let iteration = buf.get_u64_le();
        let n = buf.get_u32_le() as usize;
        let stored = buf.get_u32_le();
        let mut hcrc = Crc32::new();
        hcrc.update(&iteration.to_le_bytes());
        hcrc.update(&(n as u32).to_le_bytes());
        let computed = hcrc.finish();
        if stored != computed {
            return Err(bad(format!(
                "crc mismatch in header: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        // Every section needs at least 13 bytes (two length prefixes, the
        // kind tag and the CRC), so a count exceeding that bound is
        // corrupt; reject before preallocating.
        if n > buf.remaining() / 13 {
            return Err(bad(format!(
                "section count {n} impossible for {} remaining bytes",
                buf.remaining()
            )));
        }
        let mut ck = Checkpoint {
            iteration,
            sections: Vec::with_capacity(n),
        };
        for i in 0..n {
            if buf.remaining() < 4 {
                return Err(bad(format!(
                    "checkpoint truncated at section {i} name length"
                )));
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len {
                return Err(bad(format!("checkpoint truncated at section {i} name")));
            }
            let name = String::from_utf8(buf[..name_len].to_vec())
                .map_err(|e| bad(format!("section {i} name not utf-8: {e}")))?;
            buf.advance(name_len);
            if ck.get_section(&name).is_some() {
                return Err(bad(format!("duplicate section name {name:?}")));
            }
            let data = Self::parse_body(&mut buf, &name)?;
            ck.sections.push((name, data));
        }
        Ok(ck)
    }

    fn parse_body(buf: &mut &[u8], name: &str) -> io::Result<SectionData> {
        fn bad(msg: String) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, msg)
        }
        if buf.remaining() < 1 + 4 {
            return Err(bad(format!(
                "checkpoint truncated at section {name:?} data length"
            )));
        }
        let kind = buf.get_u8();
        let data_len = buf.get_u32_le() as usize;
        let elem_size = match kind {
            KIND_F32 => 4,
            KIND_U64 => 8,
            KIND_BYTES => 1,
            k => return Err(bad(format!("section {name:?} has unknown kind {k}"))),
        };
        if buf.remaining() / elem_size < data_len {
            return Err(bad(format!(
                "checkpoint truncated in section {name:?} data"
            )));
        }
        let mut crc = Crc32::new();
        crc.update(&(name.len() as u32).to_le_bytes());
        crc.update(name.as_bytes());
        crc.update(&[kind]);
        crc.update(&(data_len as u32).to_le_bytes());
        crc.update(&buf[..data_len * elem_size]);
        let data = match kind {
            KIND_F32 => {
                let mut d = Vec::with_capacity(data_len);
                for _ in 0..data_len {
                    d.push(buf.get_f32_le());
                }
                SectionData::F32(d)
            }
            KIND_U64 => {
                let mut d = Vec::with_capacity(data_len);
                for _ in 0..data_len {
                    d.push(buf.get_u64_le());
                }
                SectionData::U64(d)
            }
            _ => {
                let d = buf[..data_len].to_vec();
                buf.advance(data_len);
                SectionData::Bytes(d)
            }
        };
        if buf.remaining() < 4 {
            return Err(bad(format!("checkpoint truncated at section {name:?} crc")));
        }
        let stored = buf.get_u32_le();
        let computed = crc.finish();
        if stored != computed {
            return Err(bad(format!(
                "crc mismatch in section {name:?}: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(data)
    }

    /// Writes the checkpoint to a file (non-atomic; prefer
    /// [`Checkpoint::save_atomic`] for anything a crash may interrupt).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Writes the checkpoint crash-consistently through [`write_atomic`].
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Total serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Writes `bytes` to `path` crash-consistently: they go to a sibling temp
/// file which is fsynced and then atomically renamed over `path` (and the
/// parent directory fsynced, where the platform allows it). A crash at any
/// point leaves either the old file or the new one, never a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("path {path:?} has no file name"),
            )
        })?
        .to_string_lossy();
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => Path::new(".").to_path_buf(),
    };
    let tmp = dir.join(format!(".{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable. Directory fsync is best-effort:
    // not every filesystem supports opening a directory for sync.
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(1234);
        c.push("generator", vec![1.0, -2.5, 3.25]);
        c.push("disc_1", vec![0.0; 17]);
        c.push("disc_2", vec![f32::MIN_POSITIVE, f32::MAX]);
        c
    }

    fn sample_v2() -> Checkpoint {
        let mut c = sample();
        c.push_u64("words", vec![1, u64::MAX, 0, 42, 7]);
        c.push_u64("counters", vec![1234, 5]);
        c.push_bytes("timeline", b"{\"iter\":0}\n{\"iter\":50}\n".to_vec());
        c
    }

    /// The bytewise walk the sliced update must agree with.
    fn crc_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn crc(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_walk() {
        assert_eq!(crc(b"123456789"), 0xCBF4_3926, "IEEE CRC-32 check value");
        assert_eq!(crc_bytewise(b"123456789"), 0xCBF4_3926);
        // A 1 MiB buffer of varied bytes (an LCG's high bits).
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let big: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(crc(&big), crc_bytewise(&big));
        // Every length 0..=64 at every alignment, whole and fed in two
        // pieces split at every point.
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &big[offset..offset + len];
                let expect = crc_bytewise(bytes);
                assert_eq!(crc(bytes), expect, "offset {offset}, length {len}");
                for cut in 0..=len {
                    let mut c = Crc32::new();
                    c.update(&bytes[..cut]);
                    c.update(&bytes[cut..]);
                    assert_eq!(
                        c.finish(),
                        expect,
                        "offset {offset}, length {len}, cut {cut}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let c = sample();
        let parsed = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(parsed.iteration, 1234);
        assert_eq!(parsed.get("generator"), Some(&[1.0, -2.5, 3.25][..]));
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn roundtrip_typed_sections() {
        let c = sample_v2();
        let parsed = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(parsed.get_u64("words"), Some(&[1, u64::MAX, 0, 42, 7][..]));
        assert_eq!(parsed.get_u64("counters"), Some(&[1234, 5][..]));
        assert_eq!(
            parsed.get_bytes("timeline"),
            Some(&b"{\"iter\":0}\n{\"iter\":50}\n"[..])
        );
        // Typed getters do not cross kinds.
        assert!(parsed.get("words").is_none());
        assert!(parsed.get_u64("generator").is_none());
        assert!(parsed.get_bytes("generator").is_none());
    }

    #[test]
    fn roundtrip_file() {
        let c = sample_v2();
        let dir = std::env::temp_dir().join("mdgan_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ckpt");
        c.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("mdgan_ckpt_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.ckpt");
        let old = sample();
        old.save_atomic(&path).unwrap();
        let new = sample_v2();
        new.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), new);
        assert!(
            !dir.join(".atomic.ckpt.tmp").exists(),
            "temp file left behind"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_a_version_1_header() {
        // What the pre-v2 writer emitted: no header CRC, sections of
        // name_len | name | data_len | f32s with no kind tag or CRC.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&77u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(b"generator");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.0f32).to_le_bytes());
        let err = Checkpoint::from_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[0] = b'X';
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[8] = 99;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn rejects_implausible_section_count_without_allocating() {
        // A corrupt header claiming u32::MAX sections must fail fast instead
        // of preallocating gigabytes or walking off the buffer. The header
        // CRC is forged to match, so the count bound itself must reject.
        let mut bytes = sample().to_bytes().to_vec();
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut hcrc = Crc32::new();
        hcrc.update(&bytes[12..24]);
        bytes[24..28].copy_from_slice(&hcrc.finish().to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("section count"));
    }

    #[test]
    fn rejects_short_section_data() {
        // Section claims more f32s than the buffer holds (and more than
        // `remaining / 4`, so the overflow-safe check must catch it).
        let mut c = Checkpoint::new(7);
        c.push("g", vec![1.0, 2.0]);
        let mut bytes = c.to_bytes().to_vec();
        // v2 tail of the single section: data_len u32 | 8 payload | crc u32.
        let data_len_at = bytes.len() - 4 - 2 * 4 - 4;
        bytes[data_len_at..data_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated in section"));
    }

    #[test]
    fn rejects_duplicate_section_names_on_parse() {
        let c = sample();
        // Rename "disc_2" (same length as "disc_1") to collide.
        let mut forged = c.to_bytes().to_vec();
        let pos = forged
            .windows(6)
            .rposition(|w| w == b"disc_2")
            .expect("section name present");
        forged[pos..pos + 6].copy_from_slice(b"disc_1");
        // The duplicate check runs on the name, before the (now stale) CRC
        // is even looked at, so the error is specific.
        let err = Checkpoint::from_bytes(&forged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate checkpoint section")]
    fn push_rejects_duplicate_names() {
        let mut c = Checkpoint::new(0);
        c.push("generator", vec![1.0]);
        c.push_u64("generator", vec![1]);
    }

    #[test]
    fn require_errors_on_missing_or_mismatched() {
        let c = sample_v2();
        assert_eq!(c.require("generator").unwrap().len(), 3);
        assert_eq!(c.require_len("generator", 3).unwrap().len(), 3);
        assert!(c.require("nope").is_err());
        assert!(c.require_len("generator", 4).is_err());
        assert!(c.require_u64("nope").is_err());
        assert!(c.require_u64_len("words", 5).is_ok());
        assert!(c.require_u64_len("words", 4).is_err());
        assert!(c.require_bytes("timeline").is_ok());
        assert!(c.require_bytes("generator").is_err(), "wrong kind accepted");
    }

    #[test]
    fn crc_detects_payload_corruption() {
        let c = sample_v2();
        let clean = c.to_bytes().to_vec();
        assert!(Checkpoint::from_bytes(&clean).is_ok());
        // Flip one payload byte of the first f32 section: name "generator"
        // starts at 28 (24 header + 4 name_len), payload at 28+9+1+4.
        let payload_at = 24 + 4 + 9 + 1 + 4;
        let mut corrupt = clean.clone();
        corrupt[payload_at] ^= 0x01;
        let err = Checkpoint::from_bytes(&corrupt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("crc mismatch"));
    }

    #[test]
    fn load_reports_corrupt_file_as_invalid_data() {
        let dir = std::env::temp_dir().join("mdgan_ckpt_test_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt");
        let mut bytes = sample().to_bytes().to_vec();
        bytes.truncate(bytes.len() / 2);
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = sample_v2().to_bytes();
        // Any prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let r = Checkpoint::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly parsed");
        }
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let c = Checkpoint::new(0);
        assert_eq!(Checkpoint::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn byte_size_accounts_header_and_payload() {
        let c = sample();
        assert_eq!(c.byte_size(), c.to_bytes().len());
        assert!(c.byte_size() > 4 * (3 + 17 + 2));
    }
}
