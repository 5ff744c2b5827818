//! 64-bit FNV-1a, the one hash behind every stable identity in the
//! workspace: tuning-space hashes, graph signatures and output digests.
//!
//! Values persist (tune-cache keys) and are compared across processes
//! (CLI vs daemon output hashes), so the function must never change.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a state. Every step XORs one unit — a byte, or a whole
/// 32-bit word — into the state, then multiplies by the FNV prime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// The empty-input state (the FNV offset basis).
    pub fn new() -> Self {
        Self::default()
    }

    /// One step over a whole 32-bit word.
    #[inline]
    #[must_use]
    pub fn word(self, w: u32) -> Self {
        Fnv1a((self.0 ^ u64::from(w)).wrapping_mul(PRIME))
    }

    /// One step per byte.
    #[must_use]
    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.iter().fold(self, |h, &b| h.word(u32::from(b)))
    }

    /// The hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
        // A word step is one step, not four byte steps.
        assert_eq!(Fnv1a::new().word(u32::from(b'a')), Fnv1a::new().bytes(b"a"));
        assert_ne!(Fnv1a::new().word(0x6261), Fnv1a::new().bytes(b"ab"));
    }
}
