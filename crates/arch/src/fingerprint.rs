//! Content fingerprinting for architecture descriptions.
//!
//! The staged compilation session (`dspcc::CompileSession`) memoizes stage
//! artifacts by *content*: a stage key mixes the fingerprints of exactly
//! the inputs the stage reads — source text, datapath, controller,
//! instruction set, and the relevant option subset. Two cores that are
//! structurally identical therefore share cached artifacts even when they
//! are distinct values in memory, and any edit to a component changes its
//! fingerprint and invalidates precisely the stages downstream of it.
//!
//! [`Fnv64`] is a minimal FNV-1a 64-bit hasher. It is *not* a collision-
//! resistant digest — it keys a cache whose worst failure mode under a
//! collision would be returning the artifact of a structurally different
//! input, which at 64 bits over the handful of cores and sources a design
//! session touches is vanishingly unlikely (and the property tests pin the
//! cached path bit-identical to the uncached one). Deliberately *stable*
//! across runs and platforms, unlike `std::collections::hash_map`'s
//! per-process-seeded hasher, so fingerprints can be logged and compared.

use std::fmt;

use crate::controller::Controller;
use crate::datapath::Datapath;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher with length-prefixed writes.
///
/// Every variable-length write is prefixed with its length so that
/// adjacent fields cannot alias (`"ab" + "c"` hashes differently from
/// `"a" + "bc"`).
///
/// # Example
///
/// ```
/// use dspcc_arch::fingerprint::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_text("alu");
/// h.write_u32(2);
/// let a = h.finish();
/// assert_eq!(a, Fnv64::of_parts(|h| { h.write_text("alu"); h.write_u32(2); }));
/// assert_ne!(a, Fnv64::of_parts(|h| { h.write_text("alu"); h.write_u32(3); }));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Hashes the parts written by `f` — a one-expression fingerprint.
    pub fn of_parts(f: impl FnOnce(&mut Fnv64)) -> u64 {
        let mut h = Fnv64::new();
        f(&mut h);
        h.finish()
    }

    /// Feeds raw bytes (no length prefix — use for fixed-width data).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Feeds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Feeds a string, length-prefixed.
    pub fn write_text(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// `write!(hasher, ...)` support: formatted output is hashed, not stored
/// (digests of rendered output, such as the pinned-output tests take).
/// Cache keys hash fields instead, so that no formatting change can
/// re-key a cache.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Lets a crate that does not depend on this one feed its content into
/// the same hash through [`std::hash::Hasher`] (the signal-flow graph's
/// `Dfg::hash_content`). Integers go in little-endian and `usize` as a
/// `u64`, as through the inherent writers, so a value hashes the same
/// whether the receiver is an `Fnv64` or an `impl Hasher`, on every
/// platform. The signed writers default to these.
impl std::hash::Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        Fnv64::write_u8(self, v);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        Fnv64::write_u32(self, v);
    }

    fn write_u64(&mut self, v: u64) {
        Fnv64::write_u64(self, v);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        Fnv64::write_u64(self, v as u64);
    }

    fn finish(&self) -> u64 {
        Fnv64::finish(self)
    }
}

impl Datapath {
    /// Content fingerprint of the full datapath structure: every OPU
    /// (name, kind, operations with latencies, input files, output bus,
    /// flags, memory size), register file (name, size, write buses) and
    /// bus, in declaration order.
    pub fn fingerprint(&self) -> u64 {
        Fnv64::of_parts(|h| {
            h.write_u64(self.opus().len() as u64);
            for opu in self.opus() {
                h.write_text(opu.name());
                h.write_u8(opu.kind() as u8);
                for (op, latency) in opu.ops() {
                    h.write_text(op);
                    h.write_u32(latency);
                }
                h.write_u64(opu.inputs().len() as u64);
                for rf in opu.inputs() {
                    h.write_text(rf);
                }
                h.write_bool(opu.output_bus().is_some());
                if let Some(bus) = opu.output_bus() {
                    h.write_text(bus);
                }
                h.write_u64(opu.flags().len() as u64);
                for flag in opu.flags() {
                    h.write_text(flag);
                }
                h.write_u32(opu.memory_size());
            }
            h.write_u64(self.register_files().len() as u64);
            for rf in self.register_files() {
                h.write_text(rf.name());
                h.write_u32(rf.size());
                h.write_u64(rf.write_buses().len() as u64);
                for bus in rf.write_buses() {
                    h.write_text(bus);
                }
            }
            h.write_u64(self.buses().len() as u64);
            for bus in self.buses() {
                h.write_text(bus.name());
            }
        })
    }
}

impl Controller {
    /// Content fingerprint of the controller parameter set.
    pub fn fingerprint(&self) -> u64 {
        Fnv64::of_parts(|h| {
            h.write_u32(self.program_depth());
            h.write_u32(self.stack_depth());
            h.write_u32(self.flag_count());
            h.write_bool(self.supports_conditionals());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::{DatapathBuilder, OpuKind};

    fn small(alu_rf_size: u32) -> Datapath {
        DatapathBuilder::new()
            .register_file("rf_alu_a", alu_rf_size)
            .register_file("rf_alu_b", 4)
            .opu(OpuKind::Alu, "alu", &[("add", 1), ("pass", 1)])
            .inputs("alu", &["rf_alu_a", "rf_alu_b"])
            .output("alu", "bus_alu")
            .write_port("rf_alu_a", &["bus_alu"])
            .write_port("rf_alu_b", &["bus_alu"])
            .build()
            .unwrap()
    }

    #[test]
    fn datapath_fingerprint_is_content_keyed() {
        // Structurally equal values fingerprint equal...
        assert_eq!(small(4).fingerprint(), small(4).fingerprint());
        // ...and any structural edit changes the fingerprint.
        assert_ne!(small(4).fingerprint(), small(5).fingerprint());
    }

    #[test]
    fn controller_fingerprint_tracks_every_parameter() {
        let base = Controller::stripped(64);
        assert_eq!(base.fingerprint(), Controller::stripped(64).fingerprint());
        assert_ne!(base.fingerprint(), Controller::stripped(65).fingerprint());
        assert_ne!(base.fingerprint(), Controller::new(64, 1, 1).fingerprint());
        assert_ne!(base.fingerprint(), Controller::new(64, 2, 0).fingerprint());
    }

    #[test]
    fn hasher_writes_integers_as_the_inherent_writers_do() {
        fn through_hasher(h: &mut impl std::hash::Hasher) {
            h.write_u8(7);
            h.write_u32(0x0102_0304);
            h.write_u64(0x0506_0708_090a_0b0c);
            h.write_usize(42);
            h.write_i64(-1);
        }
        let inherent = Fnv64::of_parts(|h| {
            h.write_u8(7);
            h.write_u32(0x0102_0304);
            h.write_u64(0x0506_0708_090a_0b0c);
            h.write_u64(42);
            h.write_u64(u64::MAX);
        });
        assert_eq!(Fnv64::of_parts(through_hasher), inherent);
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let ab_c = Fnv64::of_parts(|h| {
            h.write_text("ab");
            h.write_text("c");
        });
        let a_bc = Fnv64::of_parts(|h| {
            h.write_text("a");
            h.write_text("bc");
        });
        assert_ne!(ab_c, a_bc);
    }
}
