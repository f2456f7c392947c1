//! Real-binary RISC-V frontend for the Half-Price Architecture
//! reproduction.
//!
//! This crate turns compiled RV64I(+M) guest programs — static ELF64
//! executables or raw flat images — into [`hpa_asm::Program`]s that run
//! unmodified through both the reference emulator and the timing
//! simulator. It is the second decode frontend next to `hpa_asm`:
//! instead of hand-written internal assembly, the input is a real binary.
//!
//! The pipeline is three total (never-panicking) stages:
//!
//! 1. [`elf::load_elf`] / [`elf::load_flat`]: bytes → [`elf::GuestImage`]
//!    (validated segments + entry point), every malformed input a
//!    structured [`elf::LoadError`];
//! 2. [`decode::decode`]: instruction words → [`decode::RvInst`], with
//!    [`decode::encode`] as its exact inverse for testing;
//! 3. [`translate::translate`]: a decoded image → an internal
//!    [`hpa_asm::Program`], wrapped in a tiny ABI shim (stack pointer,
//!    `ecall` exit/write handling) so `main`-style guest code runs
//!    end-to-end.
//!
//! [`fixtures`] holds the checked-in guest binaries (quicksort, matmul,
//! prime sieve) together with host-side Rust reference models of each —
//! the differential oracle the test harness pins everything against.
//! [`rvasm`] is the in-repo assembler + ELF writer that builds those
//! fixtures reproducibly (the container has no RISC-V cross-compiler).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod elf;
pub mod fixtures;
pub mod rvasm;
pub mod translate;

pub use decode::{decode, encode, RvBranch, RvDecodeError, RvInst, RvOp, RvWidth, XReg};
pub use elf::{load_elf, load_flat, GuestImage, LoadError, Segment};
pub use translate::{translate, xreg, TranslateError, STACK_TOP};
