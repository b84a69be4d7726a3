//! Seeded input generators. Everything a workload feeds to Sentinel is
//! made here from `--seed`; the same seed gives byte-identical input.

use rand::{Rng, SeedableRng, StdRng};

/// An independent generator for one named input stream of a seed.
///
/// The shim's `StdRng` drops the seed's lowest bit, so the seed and the
/// stream tag are mixed (splitmix64) before seeding: neighbouring seeds
/// give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    StdRng::seed_from_u64(z)
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / (r + 1) as f64;
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

// --- embedded_detect ---------------------------------------------------

/// Signals between two flushes of `embedded_detect`.
pub const CHUNK: usize = 64;

/// One pre-generated signal of the `embedded_detect` block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectSignal {
    /// Index into the workload's event names (canaries come last).
    pub event: u8,
    /// The four parameter values.
    pub params: [u16; 4],
}

/// The `embedded_detect` block: `chunks` chunks of [`CHUNK`] signals.
/// Each chunk opens with the two canary events (`canary_a`, `canary_b`,
/// indices `leaves` and `leaves + 1`); the rest are Zipf draws over the
/// `leaves` graph leaves.
pub fn detect_block(seed: u64, leaves: usize, chunks: usize) -> Vec<DetectSignal> {
    let mut r = rng(seed, 1);
    let zipf = Zipf::new(leaves);
    let mut block = Vec::with_capacity(chunks * CHUNK);
    for _ in 0..chunks {
        for slot in 0..CHUNK {
            let event = if slot < 2 { leaves + slot } else { zipf.draw(&mut r) };
            let params = [
                r.gen_range(0..10_000u16),
                r.gen_range(0..100u16),
                r.gen_range(0..2u16),
                r.gen_range(0..1024u16),
            ];
            block.push(DetectSignal { event: event as u8, params });
        }
    }
    block
}

// --- embedded_txn --------------------------------------------------------

/// `set_price` invocations per transaction.
pub const INVOKES_PER_TXN: usize = 8;

/// One scripted transaction of `embedded_txn`.
#[derive(Clone, PartialEq, Debug)]
pub struct TxnScript {
    /// `(stock index, new price in cents)` per `set_price` invocation.
    /// The immediate rule's condition holds when `cents % 4 == 0`.
    pub invokes: [(u32, u32); INVOKES_PER_TXN],
    /// Whether the application aborts instead of committing.
    pub abort: bool,
}

/// `n` scripted transactions over `stocks` stocks (Zipf-chosen); one in
/// twenty aborts.
pub fn txn_scripts(seed: u64, stocks: usize, n: usize) -> Vec<TxnScript> {
    let mut r = rng(seed, 2);
    let zipf = Zipf::new(stocks);
    (0..n)
        .map(|_| {
            let mut invokes = [(0, 0); INVOKES_PER_TXN];
            for inv in &mut invokes {
                *inv = (zipf.draw(&mut r) as u32, r.gen_range(100..100_000u32));
            }
            TxnScript { invokes, abort: r.gen_range(0..20u32) == 0 }
        })
        .collect()
}

// --- wire_* ------------------------------------------------------------

/// Parameter values carried by the wire workloads' signals: signal `i`
/// carries `values[i % values.len()]` as its `v` parameter.
pub fn wire_values(seed: u64, n: usize) -> Vec<i64> {
    let mut r = rng(seed, 3);
    (0..n).map(|_| r.gen_range(0..1_000_000i64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect_bytes(block: &[DetectSignal]) -> Vec<u8> {
        block
            .iter()
            .flat_map(|s| {
                std::iter::once(s.event).chain(s.params.iter().flat_map(|p| p.to_le_bytes()))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_input() {
        assert_eq!(detect_bytes(&detect_block(7, 64, 50)), detect_bytes(&detect_block(7, 64, 50)));
        assert_eq!(txn_scripts(7, 1000, 200), txn_scripts(7, 1000, 200));
        assert_eq!(wire_values(7, 500), wire_values(7, 500));
    }

    #[test]
    fn neighbouring_seeds_give_different_input() {
        assert_ne!(detect_block(6, 64, 50), detect_block(7, 64, 50));
        assert_ne!(txn_scripts(6, 1000, 200), txn_scripts(7, 1000, 200));
        assert_ne!(wire_values(6, 500), wire_values(7, 500));
    }

    #[test]
    fn chunks_open_with_the_canary_pair() {
        let block = detect_block(3, 64, 10);
        for chunk in block.chunks(CHUNK) {
            assert_eq!((chunk[0].event, chunk[1].event), (64, 65));
            assert!(chunk[2..].iter().all(|s| s.event < 64));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64);
        let mut r = rng(1, 9);
        let mut hits = [0u32; 64];
        for _ in 0..100_000 {
            hits[z.draw(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(64) = 21 % of the mass, rank 63 1/64 of that.
        assert!((19_000..23_000).contains(&hits[0]), "{}", hits[0]);
        assert!(hits[63] < hits[0] / 30);
    }

    #[test]
    fn one_txn_in_twenty_aborts_and_a_quarter_of_prices_trigger() {
        let scripts = txn_scripts(11, 1000, 20_000);
        let aborts = scripts.iter().filter(|s| s.abort).count();
        assert!((800..1200).contains(&aborts), "{aborts}");
        let prices = scripts.iter().flat_map(|s| s.invokes.iter());
        let trig = prices.filter(|(_, c)| c % 4 == 0).count();
        assert!((38_000..42_000).contains(&trig), "{trig}");
    }
}
