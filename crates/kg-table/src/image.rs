//! The versioned, checksummed, zero-copy model image format.
//!
//! An image is a single file: a small self-describing header followed by
//! 64-byte-aligned raw segments. A serving process `mmap`s the file and
//! reads every table *in place* — no deserialisation, no per-row
//! allocation, multi-GiB tables ready in the time it takes to validate a
//! header. The byte-level layout is documented in the [`crate`] docs;
//! the short version:
//!
//! ```text
//! [0..8)    magic  b"KGTBLIM1"
//! [8..12)   version u32 (little-endian, currently 1)
//! [12..16)  n_segments u32
//! [16..24)  payload checksum u64 (FNV-1a 64 over [payload_base..EOF))
//! [24..24+24n)  directory: {id u32, dtype u32, offset u64, len u64} × n
//! [..+8)    header checksum u64 (FNV-1a 64 over every header byte above)
//! ...       zero padding to the next 64-byte boundary = payload_base
//! ...       segments, each starting at offset % 64 == 0
//! ```
//!
//! All multi-byte fields are little-endian; typed accessors reinterpret
//! segment bytes in place, so the format is declared little-endian-only
//! and [`Image::open`] refuses to run on a big-endian host rather than
//! silently mis-reading.
//!
//! **Validation happens at open, on the caller's thread.** [`Image::open`]
//! checks magic, version, header checksum, and for every directory entry
//! the 64-byte alignment and that `offset + len` lies inside the file —
//! so once an [`Image`] exists, every accessor is infallible-by-shape and
//! workers can never trip over a malformed file. Opening is O(header):
//! the *payload* checksum is verified only by the opt-in [`Image::verify`]
//! (a full sequential read), keeping the instant-restart property.

use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes at offset 0 of every image file.
pub const MAGIC: [u8; 8] = *b"KGTBLIM1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Segment payloads start on multiples of this (and the mapping base is
/// at least this aligned), so every typed accessor's cast is aligned.
pub const SEGMENT_ALIGN: usize = 64;

/// Element types a segment can declare. The discriminant is the on-disk
/// `dtype` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum DType {
    /// Raw bytes (also the type for serialised JSON metadata).
    U8 = 1,
    /// Signed bytes (no accessor; kept so the dtype codes stay the format).
    I8 = 2,
    /// Embedding tables.
    F32 = 3,
    /// 32-bit words (no accessor; kept so the dtype codes stay the format).
    U32 = 4,
    /// Meta words.
    U64 = 5,
}

impl DType {
    /// Element size in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            DType::U8 | DType::I8 => 1,
            DType::F32 | DType::U32 => 4,
            DType::U64 => 8,
        }
    }

    fn from_u32(raw: u32) -> Option<DType> {
        match raw {
            1 => Some(DType::U8),
            2 => Some(DType::I8),
            3 => Some(DType::F32),
            4 => Some(DType::U32),
            5 => Some(DType::U64),
            _ => None,
        }
    }
}

/// One directory entry: a typed byte range inside the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDesc {
    /// Caller-defined segment id (the model schema lives one level up, in
    /// `kg-models`).
    pub id: u32,
    /// Element type.
    pub dtype: DType,
    /// Absolute byte offset (multiple of [`SEGMENT_ALIGN`]).
    pub offset: u64,
    /// Byte length (multiple of the element size).
    pub len: u64,
}

/// Typed failure of image parsing or access — every malformed input is a
/// variant here, never a panic, and always raised on the caller's thread.
#[derive(Debug)]
pub enum ImageError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// File shorter than the fixed header prefix.
    TooSmall {
        /// Actual file length.
        len: u64,
    },
    /// Magic bytes did not match [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version the file declared.
        found: u32,
    },
    /// Header bytes do not match their checksum (corrupt or truncated
    /// header/directory).
    HeaderChecksum,
    /// Payload bytes do not match the recorded payload checksum
    /// (detected by [`Image::verify`]).
    PayloadChecksum,
    /// A directory entry's `offset + len` exceeds the file.
    Truncated {
        /// Segment id.
        id: u32,
        /// Exclusive end offset the entry claims.
        end: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// A directory entry's offset is not [`SEGMENT_ALIGN`]-aligned.
    Misaligned {
        /// Segment id.
        id: u32,
        /// The unaligned offset.
        offset: u64,
    },
    /// A directory entry declares an unknown dtype, or its byte length is
    /// not a multiple of the element size.
    BadSegment {
        /// Segment id.
        id: u32,
    },
    /// A typed accessor asked for a different dtype than the entry holds.
    WrongDType {
        /// Segment id.
        id: u32,
        /// The dtype the accessor expected.
        expected: DType,
        /// The dtype the directory records.
        found: DType,
    },
    /// No directory entry carries the requested id.
    MissingSegment {
        /// The id looked up.
        id: u32,
    },
    /// Model-level schema validation failed (wrong shapes, undecodable
    /// spec, …) — produced by image consumers such as `kg-models`.
    Schema(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io(e) => write!(f, "image i/o error: {e}"),
            ImageError::TooSmall { len } => {
                write!(f, "image too small to hold a header ({len} bytes)")
            }
            ImageError::BadMagic => write!(f, "not a model image (bad magic)"),
            ImageError::BadVersion { found } => {
                write!(f, "unsupported image version {found} (supported: {VERSION})")
            }
            ImageError::HeaderChecksum => write!(f, "image header checksum mismatch"),
            ImageError::PayloadChecksum => write!(f, "image payload checksum mismatch"),
            ImageError::Truncated { id, end, file_len } => write!(
                f,
                "segment {id} ends at byte {end} but the file is {file_len} bytes (truncated?)"
            ),
            ImageError::Misaligned { id, offset } => {
                write!(f, "segment {id} offset {offset} is not {SEGMENT_ALIGN}-byte aligned")
            }
            ImageError::BadSegment { id } => {
                write!(f, "segment {id} has an unknown dtype or a ragged byte length")
            }
            ImageError::WrongDType { id, expected, found } => {
                write!(f, "segment {id} holds {found:?}, accessor expected {expected:?}")
            }
            ImageError::MissingSegment { id } => write!(f, "image has no segment with id {id}"),
            ImageError::Schema(msg) => write!(f, "image schema error: {msg}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ImageError {
    fn from(e: io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and plenty for corruption
/// detection (this is an integrity check, not an authenticity one).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FIXED_HEADER: usize = 24; // magic + version + n_segments + payload checksum
const DIR_ENTRY: usize = 24; // id + dtype + offset + len

fn header_len(n_segments: usize) -> usize {
    FIXED_HEADER + n_segments * DIR_ENTRY + 8 // + header checksum
}

fn payload_base(n_segments: usize) -> usize {
    header_len(n_segments).div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN
}

// ---------------------------------------------------------------------
// The mapping: mmap on 64-bit unix, an aligned owned buffer elsewhere
// (and for `from_bytes`).

enum Mapping {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Owned {
        ptr: *mut u8,
        len: usize,
    },
}

// SAFETY: the mapping owns its bytes and frees them only in Drop, so
// moving it to another thread moves sole ownership, like a `Box<[u8]>`.
unsafe impl Send for Mapping {}
// SAFETY: no method writes through the pointer after construction, so
// shared references only ever read immutable bytes, like a `&[u8]`.
unsafe impl Sync for Mapping {}

impl Mapping {
    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: ptr/len came from a successful mmap of exactly len
            // bytes, unmapped only in Drop.
            Mapping::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            // SAFETY: ptr/len came from a successful 64-aligned alloc of
            // exactly len bytes, freed only in Drop.
            Mapping::Owned { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Copy `bytes` into a fresh [`SEGMENT_ALIGN`]-aligned allocation, so
    /// typed accessors see the same alignment guarantees as an mmap
    /// (whose base is page-aligned).
    fn owned_from(bytes: &[u8]) -> Mapping {
        let len = bytes.len();
        let layout = std::alloc::Layout::from_size_align(len.max(1), SEGMENT_ALIGN)
            .expect("image: invalid layout");
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { std::alloc::alloc(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // SAFETY: ptr points at len.max(1) ≥ len writable bytes.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr, len) };
        Mapping::Owned { ptr, len }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Mapping::Mmap { ptr, len } => {
                // SAFETY: exactly the region mmap returned.
                unsafe { sys::munmap((*ptr).cast_mut().cast(), *len) };
            }
            Mapping::Owned { ptr, len } => {
                let layout =
                    std::alloc::Layout::from_size_align((*len).max(1), SEGMENT_ALIGN).unwrap();
                // SAFETY: exactly the allocation owned_from made.
                unsafe { std::alloc::dealloc(*ptr, layout) };
            }
        }
    }
}

/// Raw mmap FFI — declared here instead of pulling in a crate: Rust
/// programs on unix already link libc, and the two calls we need have had
/// a stable ABI for decades. 64-bit targets only (`off_t = i64`).
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed(ptr: *mut c_void) -> bool {
        ptr as isize == -1
    }
}

// ---------------------------------------------------------------------
// Reader.

/// A validated, read-only model image. All accessors return slices that
/// borrow the underlying mapping — zero-copy by construction.
pub struct Image {
    map: Mapping,
    dir: Vec<SegmentDesc>,
    payload_checksum: u64,
    payload_base: usize,
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("len", &self.map.as_slice().len())
            .field("segments", &self.dir)
            .finish()
    }
}

impl Image {
    /// Memory-map and validate an image file. O(header): magic, version,
    /// header checksum and every directory entry's bounds/alignment are
    /// checked; payload bytes are *not* read (see [`Image::verify`]).
    pub fn open(path: &Path) -> Result<Image, ImageError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            use std::os::unix::io::AsRawFd;
            if file_len == 0 {
                return Err(ImageError::TooSmall { len: 0 });
            }
            let len = file_len as usize;
            // SAFETY: fd is a valid open file; we map len bytes read-only
            // and privately; the pointer is checked before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if sys::map_failed(ptr) {
                return Err(ImageError::Io(io::Error::last_os_error()));
            }
            let map = Mapping::Mmap { ptr: ptr.cast_const().cast(), len };
            Image::from_mapping(map)
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            use std::io::Read;
            let mut bytes = Vec::with_capacity(file_len as usize);
            let mut file = file;
            file.read_to_end(&mut bytes)?;
            Image::from_bytes(&bytes)
        }
    }

    /// Validate an in-memory image (copied into an aligned buffer) — the
    /// non-mmap path, also handy for tests.
    pub fn from_bytes(bytes: &[u8]) -> Result<Image, ImageError> {
        Image::from_mapping(Mapping::owned_from(bytes))
    }

    fn from_mapping(map: Mapping) -> Result<Image, ImageError> {
        if cfg!(target_endian = "big") {
            return Err(ImageError::Schema(
                "model images are little-endian; big-endian hosts are unsupported".into(),
            ));
        }
        let bytes = map.as_slice();
        if bytes.len() < FIXED_HEADER + 8 {
            return Err(ImageError::TooSmall { len: bytes.len() as u64 });
        }
        if bytes[0..8] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(ImageError::BadVersion { found: version });
        }
        let n_segments = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let header_len = header_len(n_segments);
        let base = payload_base(n_segments);
        if bytes.len() < base {
            return Err(ImageError::TooSmall { len: bytes.len() as u64 });
        }
        let recorded = u64::from_le_bytes(bytes[header_len - 8..header_len].try_into().unwrap());
        if fnv1a64(&bytes[..header_len - 8]) != recorded {
            return Err(ImageError::HeaderChecksum);
        }
        let payload_checksum = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let mut dir = Vec::with_capacity(n_segments);
        for s in 0..n_segments {
            let e = FIXED_HEADER + s * DIR_ENTRY;
            let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            let raw_dtype = u32::from_le_bytes(bytes[e + 4..e + 8].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap());
            let dtype = DType::from_u32(raw_dtype).ok_or(ImageError::BadSegment { id })?;
            if len % dtype.elem_size() as u64 != 0 {
                return Err(ImageError::BadSegment { id });
            }
            if offset % SEGMENT_ALIGN as u64 != 0 {
                return Err(ImageError::Misaligned { id, offset });
            }
            let end = offset.checked_add(len).ok_or(ImageError::BadSegment { id })?;
            if end > bytes.len() as u64 || offset < base as u64 {
                return Err(ImageError::Truncated { id, end, file_len: bytes.len() as u64 });
            }
            dir.push(SegmentDesc { id, dtype, offset, len });
        }
        Ok(Image { map, dir, payload_checksum, payload_base: base })
    }

    /// Re-hash every payload byte against the recorded checksum — the
    /// opt-in deep integrity check (a full sequential read of the file;
    /// [`Image::open`] deliberately skips it to stay O(header)).
    pub fn verify(&self) -> Result<(), ImageError> {
        let bytes = self.map.as_slice();
        if fnv1a64(&bytes[self.payload_base..]) != self.payload_checksum {
            return Err(ImageError::PayloadChecksum);
        }
        Ok(())
    }

    /// The directory, in file order.
    pub fn segments(&self) -> &[SegmentDesc] {
        &self.dir
    }

    /// Total image size in bytes.
    pub fn len(&self) -> usize {
        self.map.as_slice().len()
    }

    /// Whether the image holds no bytes (never true for a valid image).
    pub fn is_empty(&self) -> bool {
        self.map.as_slice().is_empty()
    }

    fn find(&self, id: u32) -> Result<&SegmentDesc, ImageError> {
        self.dir.iter().find(|s| s.id == id).ok_or(ImageError::MissingSegment { id })
    }

    fn typed<T>(&self, id: u32, expected: DType) -> Result<&[T], ImageError> {
        let seg = self.find(id)?;
        if seg.dtype != expected {
            return Err(ImageError::WrongDType { id, expected, found: seg.dtype });
        }
        let bytes = &self.map.as_slice()[seg.offset as usize..(seg.offset + seg.len) as usize];
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: the range was bounds-checked at open; the base pointer
        // is SEGMENT_ALIGN-aligned (mmap page alignment or the owned
        // buffer's explicit alignment) and offsets are SEGMENT_ALIGN
        // multiples, so the cast pointer is aligned for every supported
        // T; len is a multiple of the element size (checked at open);
        // all supported T are plain-old-data valid for any bit pattern.
        Ok(unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr().cast::<T>(),
                bytes.len() / std::mem::size_of::<T>(),
            )
        })
    }

    /// Raw bytes of segment `id` (dtype [`DType::U8`]).
    pub fn bytes(&self, id: u32) -> Result<&[u8], ImageError> {
        self.typed::<u8>(id, DType::U8)
    }

    /// f32 view of segment `id` (dtype [`DType::F32`]).
    pub fn f32s(&self, id: u32) -> Result<&[f32], ImageError> {
        self.typed::<f32>(id, DType::F32)
    }

    /// u64 view of segment `id` (dtype [`DType::U64`]).
    pub fn u64s(&self, id: u32) -> Result<&[u64], ImageError> {
        self.typed::<u64>(id, DType::U64)
    }
}

// ---------------------------------------------------------------------
// Writer.

/// Builds an image in memory, then serialises the header, the aligned
/// segments and the checksums in one pass. Segment ids are the caller's
/// namespace; the writer only enforces the layout invariants the reader
/// checks.
#[derive(Default)]
pub struct ImageWriter {
    segments: Vec<(u32, DType, Vec<u8>)>,
}

impl ImageWriter {
    /// An empty writer.
    pub fn new() -> ImageWriter {
        ImageWriter::default()
    }

    /// Append a raw byte segment.
    pub fn seg_bytes(&mut self, id: u32, data: &[u8]) -> &mut Self {
        self.segments.push((id, DType::U8, data.to_vec()));
        self
    }

    /// Append an f32 segment (little-endian).
    pub fn seg_f32(&mut self, id: u32, data: &[f32]) -> &mut Self {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.segments.push((id, DType::F32, bytes));
        self
    }

    /// Append a u64 segment (little-endian).
    pub fn seg_u64(&mut self, id: u32, data: &[u64]) -> &mut Self {
        let mut bytes = Vec::with_capacity(data.len() * 8);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.segments.push((id, DType::U64, bytes));
        self
    }

    /// Serialise the full image to bytes (header, directory, checksums,
    /// zero padding, segments).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.segments.len();
        let base = payload_base(n);
        // Lay out payload offsets first.
        let mut offsets = Vec::with_capacity(n);
        let mut cursor = base as u64;
        for (_, _, data) in &self.segments {
            offsets.push(cursor);
            cursor += data.len() as u64;
            cursor = cursor.div_ceil(SEGMENT_ALIGN as u64) * SEGMENT_ALIGN as u64;
        }
        let total = match self.segments.last() {
            // The final segment needs no trailing padding.
            Some((_, _, data)) => (offsets[n - 1] + data.len() as u64) as usize,
            None => base,
        };
        let mut out = vec![0u8; total];
        for (i, (_, _, data)) in self.segments.iter().enumerate() {
            out[offsets[i] as usize..offsets[i] as usize + data.len()].copy_from_slice(data);
        }
        let payload_checksum = fnv1a64(&out[base..]);
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(n as u32).to_le_bytes());
        out[16..24].copy_from_slice(&payload_checksum.to_le_bytes());
        for (i, (id, dtype, data)) in self.segments.iter().enumerate() {
            let e = FIXED_HEADER + i * DIR_ENTRY;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            out[e + 4..e + 8].copy_from_slice(&(*dtype as u32).to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&offsets[i].to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(data.len() as u64).to_le_bytes());
        }
        let hlen = header_len(n);
        let header_checksum = fnv1a64(&out[..hlen - 8]);
        out[hlen - 8..hlen].copy_from_slice(&header_checksum.to_le_bytes());
        out
    }

    /// Write the image to `path` (create/truncate).
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let bytes = self.to_bytes();
        let mut f = File::create(path)?;
        f.write_all(&bytes)?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ImageWriter {
        let mut w = ImageWriter::new();
        w.seg_f32(1, &[1.0, -2.5, 0.0, f32::MAX])
            .seg_bytes(2, &[129, 0, 127])
            .seg_u64(4, &[42])
            .seg_bytes(5, b"{\"spec\":true}");
        w
    }

    #[test]
    fn round_trips_through_bytes() {
        let bytes = sample().to_bytes();
        let img = Image::from_bytes(&bytes).expect("valid image");
        assert_eq!(img.f32s(1).unwrap(), &[1.0, -2.5, 0.0, f32::MAX]);
        assert_eq!(img.bytes(2).unwrap(), &[129, 0, 127]);
        assert_eq!(img.u64s(4).unwrap(), &[42]);
        assert_eq!(img.bytes(5).unwrap(), b"{\"spec\":true}");
        img.verify().expect("payload intact");
        for seg in img.segments() {
            assert_eq!(seg.offset % SEGMENT_ALIGN as u64, 0, "segment {} unaligned", seg.id);
        }
    }

    #[test]
    fn round_trips_through_a_file() {
        let path = std::env::temp_dir().join(format!("kg-table-img-{}.kgi", std::process::id()));
        sample().write_to(&path).expect("write");
        let img = Image::open(&path).expect("open");
        assert_eq!(img.f32s(1).unwrap()[3], f32::MAX);
        img.verify().expect("payload intact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_access_errors_are_typed() {
        let bytes = sample().to_bytes();
        let img = Image::from_bytes(&bytes).unwrap();
        assert!(matches!(img.f32s(2), Err(ImageError::WrongDType { id: 2, .. })));
        assert!(matches!(img.bytes(99), Err(ImageError::MissingSegment { id: 99 })));
    }

    #[test]
    fn empty_image_is_valid() {
        let bytes = ImageWriter::new().to_bytes();
        let img = Image::from_bytes(&bytes).expect("empty image parses");
        assert!(img.segments().is_empty());
        img.verify().expect("empty payload checksums");
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let good = sample().to_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(Image::from_bytes(&bad), Err(ImageError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 9; // version
        assert!(matches!(Image::from_bytes(&bad), Err(ImageError::BadVersion { found: 9 })));

        // Any header byte flip must trip the header checksum.
        let mut bad = good.clone();
        bad[FIXED_HEADER + 9] ^= 0x01; // a directory offset byte
        assert!(matches!(Image::from_bytes(&bad), Err(ImageError::HeaderChecksum)));

        // Truncation below the header: TooSmall.
        assert!(matches!(Image::from_bytes(&good[..10]), Err(ImageError::TooSmall { .. })));

        // Truncation inside the payload: a segment sticks out past EOF.
        let cut = good.len() - 8;
        assert!(matches!(Image::from_bytes(&good[..cut]), Err(ImageError::Truncated { .. })));

        // Payload byte flip: opens fine (O(header)), verify() catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let img = Image::from_bytes(&bad).expect("payload corruption is invisible to open");
        assert!(matches!(img.verify(), Err(ImageError::PayloadChecksum)));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
