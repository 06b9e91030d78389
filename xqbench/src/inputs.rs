//! Seeded inputs: documents, program lists and request streams.
//!
//! Every input of a run derives from the one `--seed`; the program under
//! test receives only the generated texts.

/// XMark size for `xmark_adhoc` and `service_rw` (the paper's 1 MB point).
pub const XMARK_BYTES: usize = 1_000_000;
/// DBLP size for Clio N2 and the DBLP lookups.
pub const DBLP_BYTES: usize = 40_000;
/// XMark size behind the HTTP frontend, small so the network path dominates.
pub const XMARK_HTTP_BYTES: usize = 200_000;

/// SplitMix64: a small, seedable generator whose stream is fixed by its
/// definition, so a seed names the same inputs on every build.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of a run, independent of the others.
    pub fn derive(seed: u64, purpose: &str) -> Rng {
        Rng(seed ^ crate::stats::fingerprint(purpose))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// An XMark auction document of about `bytes` bytes.
pub fn xmark(bytes: usize, seed: u64) -> String {
    let mut opts = xqr_xmark::GenOptions::for_bytes(bytes);
    opts.seed = seed;
    xqr_xmark::generate(&opts)
}

/// A DBLP document of about `bytes` bytes.
pub fn dblp(bytes: usize, seed: u64) -> String {
    let mut opts = xqr_clio::DblpOptions::for_bytes(bytes);
    opts.seed = seed;
    xqr_clio::generate_dblp(&opts)
}

/// A named query program.
#[derive(Clone)]
pub struct Program {
    pub name: String,
    pub text: String,
}

/// XMark Q1–Q20 plus Clio N2: the paper's Table 3/4 programs. N3 and N4
/// are left out: at 43 KB they take 0.34 s and 1.25 s, and would drown
/// out every other program of a pass.
pub fn table_programs() -> Vec<Program> {
    let mut v: Vec<Program> = (1..=xqr_xmark::QUERY_COUNT)
        .map(|n| Program {
            name: format!("Q{n}"),
            text: xqr_xmark::query(n).to_string(),
        })
        .collect();
    v.push(Program {
        name: "N2".to_string(),
        text: xqr_clio::mapping_query(2),
    });
    v
}
