//! Structural fingerprints: a 128-bit hash over a canonical byte stream.
//!
//! The hasher runs two independently keyed 64-bit FNV-1a-with-finalizer
//! lanes over the same stream; the lanes' finalized states concatenate
//! into the fingerprint. 128 bits makes accidental collisions across the
//! largest realistic check populations (millions) negligible; the stream
//! discipline (tags, length prefixes and std's `Hash` framing, see the
//! crate docs) rules out concatenation ambiguity.

use std::fmt;
use std::hash::Hasher;

/// A 128-bit structural fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Render as fixed-width lowercase hex (the spill-file key format).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`Fingerprint::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{}", self.to_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

const FNV_PRIME: u64 = 0x100000001b3;

/// Streaming fingerprint builder.
#[derive(Clone, Debug)]
pub struct FpHasher {
    lane_a: u64,
    lane_b: u64,
    len: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FpHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        FpHasher {
            lane_a: 0xcbf29ce484222325,
            lane_b: 0x9e3779b97f4a7c15,
            len: 0,
        }
    }

    fn mix(&mut self, byte: u8) {
        self.lane_a = (self.lane_a ^ byte as u64).wrapping_mul(FNV_PRIME);
        self.lane_b = (self.lane_b ^ byte as u64)
            .wrapping_mul(FNV_PRIME)
            .rotate_left(17);
        self.len = self.len.wrapping_add(1);
    }

    /// Write variable-length bytes, length-prefixed (self-delimiting).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write(bytes);
    }

    /// Write a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Introduce a composite: a tag naming the structure that follows.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_bytes(tag.as_bytes());
    }

    /// Finalize into a [`Fingerprint`].
    pub fn finish(&self) -> Fingerprint {
        // Avalanche both lanes (splitmix64 finalizer) so short inputs
        // still spread over all 128 bits.
        fn fin(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let a = fin(self.lane_a ^ self.len);
        let b = fin(self.lane_b.wrapping_add(self.len.rotate_left(32)));
        Fingerprint(((a as u128) << 64) | b as u128)
    }
}

/// The std [`Hasher`] face, so any `#[derive(Hash)]` value streams
/// straight into a fingerprint (`value.hash(&mut h)`). Raw
/// [`Hasher::write`] carries no length prefix — std's `Hash` impls add
/// their own — and every integer is written little-endian at its fixed
/// width, `usize`/`isize` (lengths, enum discriminants) as 8 bytes, so
/// these writes do not depend on the host's pointer width or byte
/// order. std hashes an integer *slice* (a `Vec<u32>` field) as one raw
/// native-endian `write`, so a big-endian host still keys such values
/// differently: its spills miss on a little-endian host, never match.
impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b);
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.mix(x);
    }

    fn write_u16(&mut self, x: u16) {
        self.write(&x.to_le_bytes());
    }

    fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    fn write_u128(&mut self, x: u128) {
        self.write(&x.to_le_bytes());
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        self.write_u64(x as i64 as u64);
    }

    /// The fingerprint folded to 64 bits; [`FpHasher::finish`] (the
    /// inherent method) returns all 128.
    fn finish(&self) -> u64 {
        let f = FpHasher::finish(self).0;
        (f >> 64) as u64 ^ f as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(f: impl FnOnce(&mut FpHasher)) -> Fingerprint {
        let mut h = FpHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        let a = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(7);
        });
        let same = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(7);
        });
        let diff = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(8);
        });
        assert_eq!(a, same);
        assert_ne!(a, diff);
    }

    #[test]
    fn length_prefix_blocks_concatenation_ambiguity() {
        let ab_c = fp(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = fp(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn hasher_widths_are_pinned_little_endian() {
        use std::hash::Hash;
        let le = fp(|h| h.write(&[5, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(fp(|h| h.write_usize(5)), le);
        assert_eq!(fp(|h| h.write_isize(5)), le);
        assert_eq!(fp(|h| h.write_u64(5)), le);
        assert_eq!(fp(|h| h.write_isize(-1)), fp(|h| h.write(&[0xff; 8])));
        assert_eq!(fp(|h| 0x0102u16.hash(h)), fp(|h| h.write(&[2, 1])));
        // Derived enums lead with their discriminant as an 8-byte isize.
        assert_eq!(
            fp(|h| Some(7u8).hash(h)),
            fp(|h| h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 7]))
        );
    }

    #[test]
    fn hex_roundtrip() {
        let f = fp(|h| h.write_str("roundtrip"));
        assert_eq!(Fingerprint::from_hex(&f.to_hex()), Some(f));
        assert_eq!(Fingerprint::from_hex("zz"), None);
    }
}
