//! MSB-first bit-level reader/writer.
//!
//! The compressed source route packs building IDs at arbitrary bit
//! widths (paper §4 reports header sizes in *bits*), so the codec
//! works below byte granularity. Bits fill each byte from the most
//! significant end — the conventional network order for bit fields.

use crate::NetError;

/// Accumulates bits into a byte vector.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0 ⇒ byte-aligned).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the `width` low bits of `value`, MSB first.
    ///
    /// # Panics
    /// Panics when `width > 64` or `value` has bits above `width`
    /// (callers must mask explicitly — a silent mask would hide
    /// encoding bugs like an ID wider than the negotiated width).
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} > 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
        let mut remaining = width;
        while remaining > 0 {
            if self.used == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.used as u32;
            let take = free.min(remaining);
            let chunk = ((value >> (remaining - take)) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= chunk << (free - take);
            self.used = ((self.used as u32 + take) % 8) as u8;
            remaining -= take;
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Total bits written so far (excluding the final byte's padding).
    pub fn bit_len(&self) -> usize {
        if self.used == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.used as usize
        }
    }

    /// Finishes and returns the padded byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits from a byte slice, MSB first.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bit cursor from the start of the slice.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads the next `width` bits as the low bits of a `u64`.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, NetError> {
        assert!(width <= 64, "width {width} > 64");
        if self.pos + width as usize > self.bytes.len() * 8 {
            return Err(NetError::Truncated);
        }
        let mut out = 0u64;
        let mut remaining = width;
        while remaining > 0 {
            let byte = self.bytes[self.pos / 8];
            let offset = (self.pos % 8) as u32;
            let avail = 8 - offset;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.pos += take as usize;
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<bool, NetError> {
        Ok(self.read_bits(1)? == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b01, 2);
        w.write_bits(0b110, 3);
        assert_eq!(w.bit_len(), 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_1110]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
        assert_eq!(r.read_bits(3).unwrap(), 0b110);
    }

    #[test]
    fn cross_byte_values() {
        let mut w = BitWriter::new();
        w.write_bits(0x1FF, 9); // spans two bytes
        w.write_bits(0x3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(9).unwrap(), 0x1FF);
        assert_eq!(r.read_bits(2).unwrap(), 0x3);
    }

    #[test]
    fn full_width_64_bits() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn truncated_read_errors() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(6).unwrap(), 0b111111);
        assert_eq!(r.read_bits(3), Err(NetError::Truncated));
        // The failed read consumed nothing.
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0b100, 2);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random widths/values.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = BitWriter::new();
        let mut expected = Vec::new();
        for _ in 0..500 {
            let width = (next() % 64 + 1) as u32;
            let value = if width == 64 {
                next()
            } else {
                next() & ((1u64 << width) - 1)
            };
            w.write_bits(value, width);
            expected.push((value, width));
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (value, width) in expected {
            assert_eq!(r.read_bits(width).unwrap(), value);
        }
    }
}
