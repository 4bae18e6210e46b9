//! DEFLATE bit packing for tests that spell blocks by hand (RFC 1951
//! §3.1.1 and §3.2.6), written apart from the codec the tests check.

/// Bits packed least significant first, as DEFLATE writes them.
#[derive(Default)]
pub struct Bits {
    bytes: Vec<u8>,
    pending: u32,
    count: u32,
}

impl Bits {
    /// The low `bits` bits of `value`.
    pub fn put(&mut self, value: u32, bits: u32) {
        for i in 0..bits {
            self.pending |= (value >> i & 1) << self.count;
            self.count += 1;
            if self.count == 8 {
                self.bytes.push(self.pending as u8);
                (self.pending, self.count) = (0, 0);
            }
        }
    }

    /// A Huffman code, which DEFLATE packs most significant bit first.
    pub fn code(&mut self, code: u32, bits: u32) {
        self.put(code.reverse_bits() >> (32 - bits), bits);
    }

    /// Fixed-code literal/length `symbol`: 8 bits from `0x30` for 0–143,
    /// 9 from `0x190` for 144–255, 7 from 0 for 256–279, 8 from `0xc0` for
    /// 280–287.
    pub fn fixed_literal(&mut self, symbol: u32) {
        match symbol {
            0..=143 => self.code(0x30 + symbol, 8),
            144..=255 => self.code(0x190 + symbol - 144, 9),
            256..=279 => self.code(symbol - 256, 7),
            _ => self.code(0xc0 + symbol - 280, 8),
        }
    }

    /// The packed bytes, the last one padded with zero bits.
    pub fn finish(mut self) -> Vec<u8> {
        self.put(0, (8 - self.count) % 8);
        self.bytes
    }
}
