//! XXH64 checksums folded to 32 bits — the integrity primitive shared by
//! the wire protocol (`xlayer-net`), the disk tier ([`crate::disklog`])
//! and the xbench control protocol.
//!
//! One implementation, every consumer: a frame checksummed on the wire
//! and an extent checksummed on disk use the same function, so a
//! payload's per-chunk sums computed once (e.g. while verifying an
//! inbound chunked put) are valid wherever the object later travels —
//! RAM, socket, or log.
//!
//! The function is XXH64 at seed 0 with its 64-bit result folded to the
//! 32-bit sum field as `lo ^ hi`. XXH64 consumes 32-byte stripes in four
//! independent 64-bit lanes, so its speed is not bound by a multiply
//! latency per byte; every staged byte is hashed on each hop, which puts
//! this function on the wire's critical path (DESIGN §5e has measured
//! throughput).

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per accumulator round (four 8-byte lanes).
const STRIPE: usize = 32;

/// Checksum of `data`: XXH64 (seed 0) folded to 32 bits.
pub fn checksum(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// Streaming form of [`checksum`]: feeding a byte sequence through any
/// number of [`Hasher::update`] calls yields the one-shot sum of the
/// concatenation, which lets callers checksum a header prefix and a
/// payload held in separate buffers without concatenating them.
#[derive(Clone, Debug)]
pub struct Hasher {
    acc: [u64; 4],
    /// Bytes fed so far.
    total: u64,
    /// Pending input shorter than one stripe.
    buf: [u8; STRIPE],
    buf_len: usize,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A hasher over the empty input.
    pub fn new() -> Self {
        Hasher {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            total: 0,
            buf: [0; STRIPE],
            buf_len: 0,
        }
    }

    /// Feed `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let pending = self.buf.get_mut(self.buf_len..).unwrap_or_default();
            let take = pending.len().min(data.len());
            let (head, rest) = data.split_at(take);
            if let Some(dst) = pending.get_mut(..take) {
                dst.copy_from_slice(head);
            }
            self.buf_len += take;
            data = rest;
            if self.buf_len < STRIPE {
                return;
            }
            stripes(&mut self.acc, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % STRIPE;
        let (body, tail) = data.split_at(whole);
        stripes(&mut self.acc, body);
        if let Some(dst) = self.buf.get_mut(..tail.len()) {
            dst.copy_from_slice(tail);
        }
        self.buf_len = tail.len();
    }

    /// The 32-bit checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        let h = self.finish64();
        (h as u32) ^ ((h >> 32) as u32)
    }

    /// Full XXH64 of everything fed so far.
    fn finish64(&self) -> u64 {
        let [v1, v2, v3, v4] = self.acc;
        let mut h = if self.total >= STRIPE as u64 {
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.acc {
                h = (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = self.buf.get(..self.buf_len).unwrap_or_default();
        while let Some((w, rest)) = tail.split_first_chunk::<8>() {
            h ^= round(0, u64::from_le_bytes(*w));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = rest;
        }
        if let Some((w, rest)) = tail.split_first_chunk::<4>() {
            h ^= u64::from(u32::from_le_bytes(*w)).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = rest;
        }
        for &b in tail {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Little-endian u64 at byte `at` of `s` (0 past the end; callers read
/// only within a whole stripe).
#[inline(always)]
fn lane(s: &[u8], at: usize) -> u64 {
    s.get(at..)
        .and_then(<[u8]>::first_chunk::<8>)
        .map_or(0, |w| u64::from_le_bytes(*w))
}

/// Fold every whole stripe of `data` into the four lane accumulators; a
/// partial trailing stripe is ignored (callers pass whole stripes).
#[inline(always)]
fn stripes(acc: &mut [u64; 4], data: &[u8]) {
    let [mut v1, mut v2, mut v3, mut v4] = *acc;
    for s in data.chunks_exact(STRIPE) {
        v1 = round(v1, lane(s, 0));
        v2 = round(v2, lane(s, 8));
        v3 = round(v3, lane(s, 16));
        v4 = round(v4, lane(s, 24));
    }
    *acc = [v1, v2, v3, v4];
}

/// Per-chunk sums of `payload` split at `chunk` bytes (the final chunk
/// may be short). An empty payload has no chunks.
pub fn chunk_sums(payload: &[u8], chunk: usize) -> Vec<u32> {
    payload.chunks(chunk.max(1)).map(checksum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xxh64(data: &[u8]) -> u64 {
        let mut h = Hasher::new();
        h.update(data);
        h.finish64()
    }

    /// Deterministic bytes, no two stripes alike.
    fn bytes(n: usize) -> Vec<u8> {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        // One whole stripe plus a 4-byte word and three single bytes.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(checksum(b""), 0x51D8_E999 ^ 0xEF46_DB37);
        assert_eq!(checksum(b"a"), 0xA98C_6E5B ^ 0xD24E_C4F1);
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        // Four whole stripes plus a 13-byte tail.
        let data = bytes(4 * STRIPE + 13);
        let whole = checksum(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let mut h = Hasher::new();
            h.update(a);
            h.update(b);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        // Byte-at-a-time feeding goes through the stripe buffer only.
        let mut h = Hasher::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), whole);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        let mut data = bytes(4096);
        let base = checksum(&data);
        for i in 0..data.len() * 8 {
            let (byte, bit) = (i / 8, 1u8 << (i % 8));
            data[byte] ^= bit;
            assert_ne!(checksum(&data), base, "flip of bit {i} undetected");
            data[byte] ^= bit;
        }
    }

    #[test]
    fn chunk_sums_cover_payload() {
        let payload: Vec<u8> = (0..100u8).collect();
        let sums = chunk_sums(&payload, 32);
        assert_eq!(sums.len(), 4); // 32+32+32+4
        assert_eq!(sums[0], checksum(&payload[..32]));
        assert_eq!(sums[3], checksum(&payload[96..]));
        assert!(chunk_sums(&[], 32).is_empty());
    }
}
