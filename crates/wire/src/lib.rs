//! Wire-format codecs for sparse gradient exchange.
//!
//! Every message the FL simulation exchanges — the uplink `A_i = {(j,
//! a_ij)}` and the downlink `B = {(j, b_j)}` of Algorithm 1 — is an
//! `agsfl_sparse::SparseGradient`. Until this crate existed the repository
//! priced those exchanges with the paper's abstract "`2k` scalars" proxy
//! (`agsfl_fl::TimeModel`); this crate turns them into *bytes*: a
//! [`Codec`] encodes a message into a self-describing frame, a channel
//! model (`agsfl_fl::ChannelModel`) prices the frame on a per-client link,
//! and the adaptive-`k` controllers in `agsfl-online` see the realized
//! byte cost.
//!
//! Three lossless encodings are provided — [`CooF32`] (4-byte index +
//! 4-byte value baseline), [`DeltaVarint`] (sorted-index gaps as LEB128
//! varints, enabled by the `SparseGradient` sorted-entries invariant) and
//! [`Bitmap`] (dense occupancy bitmap + packed values, which wins at high
//! `k/D`) — plus [`Auto`], which deterministically emits the smallest of
//! the three per message. All four round-trip **bit-exactly** (including
//! `-0.0` and subnormals; pinned by proptests across every sparsifier's
//! output in `tests/codec_roundtrip.rs`), which is what lets the lossless
//! byte path coexist with the repository's bit-identical determinism
//! invariant: those codecs never perturb a single bit of the training
//! trajectory.
//!
//! On top of the lossless tier sits a *lossy* tier — [`QLinear8`] (8-bit
//! linear with seed-deterministic stochastic rounding), [`F16`] (IEEE
//! binary16, round-to-nearest-even) and [`SignNorm`] (1 bit/sign + frame
//! norm) — selected through the [`Precision`] axis of the controllers'
//! 2-D action space. Lossy frames deliberately trade bit-identity with
//! the lossless trajectory for bytes; what they keep is
//! **reproducibility**: encoding is a pure function of `(seed, message)`,
//! so a lossy run is still bit-identical to itself across worker counts
//! and checkpoint/resume (see [`mod@lossy`]).
//!
//! Encoding is zero-allocation in steady state against a reusable
//! [`WireScratch`] (the `SelectionScratch`/`Im2colScratch` house style);
//! decoding validates untrusted frames and reports malformed input as
//! [`WireError`] values instead of panics. The seed-style allocating
//! implementations live in [`mod@reference`] as the executable spec for
//! the equivalence tests and the `bench-report` encode/decode pairs.
//!
//! The same validated-decode discipline serves checkpoints: [`mod@snapshot`]
//! is the one codec for every checkpoint byte — the simulation blob of
//! `agsfl-fl`, the controller blobs of `agsfl-online` and the run file of
//! `agsfl-core` — with [`CheckpointError`] as its one error type. It sits
//! here because every crate that writes a checkpoint already depends on
//! this one.
//!
//! # Example
//!
//! ```
//! use agsfl_sparse::SparseGradient;
//! use agsfl_wire::{decode_gradient, frame_codec, Auto, Codec, WireScratch};
//!
//! let g = SparseGradient::from_entries(1_000, (0..40).map(|j| (j * 7, 0.5)).collect());
//! let mut scratch = WireScratch::new();
//! let frame = Auto.encode_gradient_into(&g, &mut scratch);
//! // Self-describing: the frame records which encoding Auto chose...
//! let chosen = frame_codec(frame).unwrap();
//! assert_eq!(chosen, Auto.choose(g.dim(), g.entries()));
//! // ...and decodes back bit-exactly.
//! assert_eq!(decode_gradient(frame).unwrap(), g);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
pub mod lossy;
pub mod reference;
mod scratch;
pub mod snapshot;
mod varint;

pub use codec::{
    decode_frame, decode_frame_with, decode_gradient, frame_codec, Auto, Bitmap, Codec, CodecId,
    CodecSpec, CooF32, DeltaVarint,
};
pub use error::WireError;
pub use lossy::{f16_bits_to_f32, f32_to_f16_bits, Precision, QLinear8, SignNorm, F16, F16_MAX};
pub use scratch::WireScratch;
pub use snapshot::{CheckpointError, SnapshotReader, SnapshotWriter};
