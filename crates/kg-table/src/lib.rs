//! The zero-copy, memory-mapped model image ([`image`]): one file a
//! server maps straight into its address space and scores from in place,
//! instead of deserialising a model on every start. `kg-serve` serves an
//! image-backed model through the exact ranking path.
//!
//! # The image format (version 1)
//!
//! A model image is one file: a self-describing header plus 64-byte
//! aligned raw segments, all little-endian.
//!
//! ```text
//! offset   size  field
//! 0        8     magic  b"KGTBLIM1"
//! 8        4     version u32 = 1
//! 12       4     n_segments u32
//! 16       8     payload checksum (FNV-1a 64 over [payload_base..EOF))
//! 24       24·n  directory entries:
//!                  +0  id u32      (caller-defined; kg-models fixes ids)
//!                  +4  dtype u32   (1=u8 2=i8 3=f32 4=u32 5=u64)
//!                  +8  offset u64  (absolute, multiple of 64)
//!                  +16 len u64     (bytes, multiple of the element size)
//! 24+24n   8     header checksum (FNV-1a 64 over all bytes above)
//! …        —     zero padding to the next 64-byte boundary
//! …        —     segment payloads, each 64-byte aligned
//! ```
//!
//! [`image::Image::open`] memory-maps the file and validates **the
//! header only** — magic, version, header checksum, and every entry's
//! dtype, alignment and bounds — in O(header) time on the caller's
//! thread, so malformed files are rejected with typed
//! [`image::ImageError`]s before any worker ever touches a byte. Typed
//! accessors then return slices straight into the mapping (the 64-byte
//! offset alignment plus the page-aligned base make every cast aligned):
//! zero-copy, no per-row allocation. The payload checksum is verified by
//! the opt-in [`image::Image::verify`], a full sequential read —
//! deliberately not part of `open`, to keep the instant-restart
//! property for multi-GiB tables.
//!
//! Segment *ids* are the caller's namespace: this crate defines the
//! container, `kg-models` defines the model schema on top of it (which
//! ids hold the entity table, the relation table and the serialised block
//! spec) — the same layering as an object file and its linker.

pub mod image;

pub use image::{
    DType, Image, ImageError, ImageWriter, SegmentDesc, MAGIC, SEGMENT_ALIGN, VERSION,
};
