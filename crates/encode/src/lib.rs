//! Instruction encoding for `dspcc` (the tail of compiler step 3).
//!
//! After scheduling, the paper's flow performs "instruction encoding" and
//! controller generation. This crate turns a schedule into executable
//! microcode:
//!
//! * [`regalloc`] — post-schedule register allocation: virtual registers
//!   (one per value) are mapped to physical registers of each distributed
//!   register file by linear scan over issue-cycle live ranges; exceeding
//!   a file's capacity is a feasibility failure fed back to the designer.
//!   The result is a [`RegisterMap`], not a rewritten program: the encoder
//!   reads the virtual program through it.
//! * [`layout`] — derivation of the VLIW *word format* from the datapath:
//!   one field per OPU (opcode, operand register addresses, destination
//!   write-enables + addresses, immediates). This is the microcode format
//!   a core's instruction ROM actually stores.
//! * [`encoder`] — encoding each schedule cycle into a [`word::Word`] and
//!   the inverse decoding used by the cycle-accurate simulator and for
//!   round-trip tests.
//!
//! The result, [`Microcode`], is everything the core needs to run: the
//! instruction words, the coefficient-ROM image, the ACU's modulus
//! configuration, and the IO port maps.

pub mod encoder;
pub mod layout;
pub mod reference;
pub mod regalloc;
pub mod word;

use std::sync::Arc;

use dspcc_num::WordFormat;

pub use encoder::{decode, encode, DecodedInstruction, EncodeError, OpuAction};
pub use layout::{FieldLayout, ImmKind, OpuField};
pub use regalloc::{allocate_registers, RegAllocError, RegAssignment, RegisterMap};
pub use word::Word;

/// Executable microcode for one core + application: the output of the
/// whole compiler.
#[derive(Debug, Clone)]
pub struct Microcode {
    /// One instruction word per schedule cycle.
    pub words: Vec<Word>,
    /// The word format the words are encoded in, shared by every
    /// microcode of one core.
    pub layout: Arc<FieldLayout>,
    /// Coefficient ROM image (fixed-point words).
    pub rom_image: Vec<i64>,
    /// ACU circular-region modulus (power of two).
    pub region_size: u32,
    /// Output writes in issue order per output OPU: `(opu, DFG port)`.
    pub output_order: Vec<(String, usize)>,
    /// Input reads in issue order per input OPU: `(opu, DFG port)`.
    pub input_order: Vec<(String, usize)>,
    /// The datapath word format (bit width) of the core.
    pub word_format: WordFormat,
}

impl Microcode {
    /// Program length in instructions (= time-loop cycle count).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total instruction-ROM bits: length × word width — the cost metric
    /// that motivates vertical instruction sets (paper section 6).
    pub fn rom_bits(&self) -> u64 {
        self.words.len() as u64 * self.layout.width() as u64
    }
}
