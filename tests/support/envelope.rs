//! The shared file envelope spelled out by hand, for tests that must put
//! bytes in it that the codec under test did not write.

use ltee_intern::fnv1a64;

/// `magic · version · header words · payload length · checksum · payload`,
/// written out literally: the payload goes in as given, compressed or not.
pub fn framed(magic: &[u8; 8], version: u32, words: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}
