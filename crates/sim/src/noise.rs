//! Seeded noise sources for analog and MEMS models.
//!
//! The platform's noise budget is dominated by three shapes:
//!
//! - **white** noise (thermal / Brownian force, ADC quantization dither),
//! - **pink** (1/f, flicker) noise from the CMOS front-end amplifiers,
//! - **random walk** (bias instability of the rate output over temperature
//!   and time).
//!
//! All sources are deterministic given a seed so experiments are exactly
//! reproducible — the simulation-kernel equivalent of a logged bench
//! measurement. Every source exposes `save_state`/`load_state` over the
//! [`crate::snapshot`] primitives so the platform checkpoint can capture
//! RNG streams bit-exactly mid-run.
//!
//! Gaussian draws dominate a platform tick, so [`WhiteNoise`] (and through
//! it [`PinkNoise`] and [`RandomWalk`]) computes its Box–Muller pairs a
//! small block at a time with the batched [`crate::mathx`] transform. The
//! block is an implementation detail: the draws, the checkpoint bytes and
//! the lockstep [`WhiteLanes`]/[`PinkLanes`] mirrors all follow the
//! pair-by-pair definition documented on [`WhiteNoise`].

use crate::mathx;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};

/// Minimal deterministic PRNG: xorshift64* with a SplitMix64-scrambled
/// seed.
///
/// Vendored so the simulation kernel has no external dependencies (the
/// build must work with no registry access). The statistical quality is
/// more than sufficient for noise synthesis: xorshift64* passes the usual
/// empirical batteries except for the lowest bit, and all consumers here
/// use the high 53 bits via [`Rng64::next_f64`].
///
/// # Example
///
/// ```
/// use ascp_sim::noise::Rng64;
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from any 64-bit seed (zero included).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finalizer: decorrelates sequential/sparse seeds and
        // maps 0 to a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next raw 64-bit output (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        xorshift_next(&mut self.state)
    }

    /// Uniform sample in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        uniform_53(self.next_u64())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn gen_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && (hi - lo).is_finite(), "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Serializes the generator state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.state);
    }

    /// Restores the generator state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.state = r.take_u64()?;
        if self.state == 0 {
            // A zero xorshift state is absorbing; it can never be produced
            // by a healthy generator, so the bytes are corrupt.
            return Err(SnapshotError::Corrupt {
                context: "Rng64 state of zero".to_owned(),
            });
        }
        Ok(())
    }
}

/// One xorshift64* advance on a raw state word — the single source of
/// truth for the sequence, shared by [`Rng64`] and the batched
/// [`WhiteLanes`] path so both walks are bit-identical.
#[inline(always)]
fn xorshift_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Maps a raw output word to a uniform in `[0, 1)` via the top 53 bits.
#[inline(always)]
fn uniform_53(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// [`uniform_53`] rewritten without the `u64 → f64` cast, which has no
/// AVX2 instruction and scalarizes any loop containing it. The 53-bit
/// integer is split into 32-bit halves, each planted in a double's
/// mantissa field, and recombined with adds that are provably exact
/// (every intermediate is an integer below 2^53, hence representable) —
/// so the result is bit-identical to the cast, but the loop vectorizes.
#[inline(always)]
fn uniform_53_split(word: u64) -> f64 {
    // 2^84 + 2^52: the exponent offsets planted in the halves below.
    const MAGIC: f64 = (1u128 << 84) as f64 + (1u64 << 52) as f64;
    let u = word >> 11;
    let hi = f64::from_bits((u >> 32) | (0x453u64 << 52)); // 2^84 + (u>>32)·2^32
    let lo = f64::from_bits((u & 0xffff_ffff) | (0x433u64 << 52)); // 2^52 + (u & 2^32-1)
    ((hi - MAGIC) + lo) * (1.0 / (1u64 << 53) as f64)
}

/// Box–Muller pairs a [`WhiteNoise`] generates per refill of its block.
const BLOCK: usize = 16;

/// Gaussian white-noise source (Box–Muller over a seeded PRNG).
///
/// `sigma` is the standard deviation of each sample. For a band-limited
/// process sampled at `fs`, a white density of `d` units/√Hz corresponds to
/// `sigma = d * sqrt(fs / 2)`; use [`WhiteNoise::from_density`].
///
/// The stream is defined pair by pair: draw `u1` (redrawn while it is
/// zero) and `u2` from the PRNG, emit `r·cos θ`, then `r·sin θ`. The
/// source computes those pairs a block at a time — it walks the PRNG for
/// a fixed number of pairs, runs the batched [`mathx::box_muller_slice`]
/// once, and serves the normals in draw order — so the `ln`/`sqrt`/`sincos`
/// chains of neighbouring pairs overlap instead of serializing. A block is
/// filled on the first draw after the previous one is spent, so
/// construction draws nothing and a zero-`sigma` source never advances
/// its PRNG. The bits are those of the pair-by-pair definition.
/// Checkpoints and [`WhiteLanes`] extraction see only that definition's
/// state (PRNG state plus an optional cached half-sample), never the
/// block.
///
/// # Example
///
/// ```
/// use ascp_sim::noise::WhiteNoise;
/// let mut n = WhiteNoise::new(1.0, 42);
/// let x = n.sample();
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    sigma: f64,
    /// Walk head: the PRNG state after the last pair in `normals`.
    rng: Rng64,
    /// Unit normals of the current block in draw order (cos, sin, cos, …).
    normals: [f64; 2 * BLOCK],
    /// PRNG state before each pair of the block.
    pair_start: [u64; BLOCK],
    /// Next read index into `normals`; `2 * BLOCK` when the block is spent.
    pos: usize,
}

impl WhiteNoise {
    /// Creates a source with per-sample standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise sigma must be finite and non-negative, got {sigma}"
        );
        Self {
            sigma,
            rng: Rng64::new(seed),
            normals: [0.0; 2 * BLOCK],
            pair_start: [0; BLOCK],
            pos: 2 * BLOCK,
        }
    }

    /// Creates a source from a one-sided spectral density `density`
    /// (units/√Hz) at sample rate `fs` (Hz).
    ///
    /// # Panics
    ///
    /// Panics if `density` is negative or `fs` is not positive.
    #[must_use]
    pub fn from_density(density: f64, fs: f64, seed: u64) -> Self {
        assert!(fs > 0.0, "sample rate must be positive, got {fs}");
        Self::new(density * (fs / 2.0).sqrt(), seed)
    }

    /// Per-sample standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws the next Gaussian sample.
    #[inline]
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        if self.pos >= 2 * BLOCK {
            self.refill();
            self.pos = 0;
        }
        let z = self.normals[self.pos];
        self.pos += 1;
        z * self.sigma
    }

    /// Computes the next `BLOCK` Box–Muller pairs into `normals`.
    #[inline(never)]
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: guarded by the runtime AVX2 check above.
                unsafe { self.refill_avx2() };
                return;
            }
        }
        self.refill_block();
    }

    /// The refill body. The PRNG walk is one serial chain; the uniform
    /// conversion and the transform are independent per pair and batch.
    #[inline(always)]
    fn refill_block(&mut self) {
        let mut w1 = [0u64; BLOCK];
        let mut w2 = [0u64; BLOCK];
        let mut state = self.rng.state;
        for k in 0..BLOCK {
            self.pair_start[k] = state;
            let mut w = xorshift_next(&mut state);
            // The pair definition redraws `u1` while it is zero, i.e.
            // while the word's top 53 bits are.
            while w >> 11 == 0 {
                w = xorshift_next(&mut state);
            }
            w1[k] = w;
            w2[k] = xorshift_next(&mut state);
        }
        self.rng.state = state;
        let u1 = w1.map(uniform_53_split);
        let u2 = w2.map(uniform_53_split);
        let mut z_cos = [0.0; BLOCK];
        let mut z_sin = [0.0; BLOCK];
        mathx::box_muller_slice(&u1, &u2, &mut z_cos, &mut z_sin);
        for (pair, (&zc, &zs)) in self
            .normals
            .chunks_exact_mut(2)
            .zip(z_cos.iter().zip(&z_sin))
        {
            pair[0] = zc;
            pair[1] = zs;
        }
    }

    /// AVX2 copy of the refill (integer and IEEE float ops give the same
    /// bits at any width).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn refill_avx2(&mut self) {
        self.refill_block();
    }

    /// The pair-by-pair sampler's state at the read position: the PRNG
    /// state before the next pair, and the pending sin half-sample when
    /// the read position is mid-pair.
    fn logical_state(&self) -> (u64, Option<f64>) {
        let pair = self.pos / 2;
        if self.pos >= 2 * BLOCK {
            (self.rng.state, None)
        } else if self.pos.is_multiple_of(2) {
            (self.pair_start[pair], None)
        } else {
            let after = self.pair_start.get(pair + 1).copied();
            (
                after.unwrap_or(self.rng.state),
                Some(self.normals[self.pos]),
            )
        }
    }

    /// Inverse of [`WhiteNoise::logical_state`]: a pending half-sample
    /// becomes the last entry of an otherwise spent block.
    fn set_logical_state(&mut self, state: u64, cached: Option<f64>) {
        self.rng.state = state;
        self.pos = 2 * BLOCK;
        if let Some(z) = cached {
            self.pos -= 1;
            self.normals[self.pos] = z;
        }
    }

    /// Serializes sigma, the PRNG, and the cached Box–Muller half-sample.
    pub fn save_state(&self, w: &mut StateWriter) {
        let (state, cached) = self.logical_state();
        w.put_f64(self.sigma);
        Rng64 { state }.save_state(w);
        w.put_opt_f64(cached);
    }

    /// Restores the full source state (bit-exact continuation).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.sigma = r.take_f64()?;
        self.rng.load_state(r)?;
        let cached = r.take_opt_f64()?;
        self.set_logical_state(self.rng.state, cached);
        Ok(())
    }
}

/// Pink (1/f) noise via the Voss–McCartney multi-row algorithm.
///
/// Approximates a −10 dB/decade power slope over ~`rows` octaves; used for
/// amplifier flicker noise below the corner frequency.
#[derive(Debug, Clone)]
pub struct PinkNoise {
    white: WhiteNoise,
    rows: Vec<f64>,
    counter: u64,
    scale: f64,
}

impl PinkNoise {
    /// Creates a pink source whose long-run RMS is approximately `sigma`,
    /// shaped over `rows` octaves (typically 12–16).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `sigma` is negative/not finite.
    #[must_use]
    pub fn new(sigma: f64, rows: usize, seed: u64) -> Self {
        assert!(rows > 0, "pink noise needs at least one row");
        let n = rows as f64;
        Self {
            white: WhiteNoise::new(1.0, seed),
            rows: vec![0.0; rows],
            counter: 0,
            // The sum of `rows` unit-variance rows has variance `rows`.
            scale: sigma / n.sqrt(),
        }
    }

    /// Draws the next pink sample.
    pub fn sample(&mut self) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        // Update the row selected by the lowest set bit of the counter: row
        // k updates every 2^k samples, giving the 1/f ladder.
        let k = (self.counter.trailing_zeros() as usize).min(self.rows.len() - 1);
        self.rows[k] = self.white.sample();
        self.rows.iter().sum::<f64>() * self.scale
    }

    /// Serializes the inner white source, row ladder, counter and scale.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.white.save_state(w);
        w.put_f64_slice(&self.rows);
        w.put_u64(self.counter);
        w.put_f64(self.scale);
    }

    /// Restores the full source state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input; the saved row
    /// ladder must be non-empty.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.white.load_state(r)?;
        let rows = r.take_f64_vec()?;
        if rows.is_empty() {
            return Err(SnapshotError::Corrupt {
                context: "pink noise with zero rows".to_owned(),
            });
        }
        self.rows = rows;
        self.counter = r.take_u64()?;
        self.scale = r.take_f64()?;
        Ok(())
    }
}

/// Structure-of-arrays mirror of N [`WhiteNoise`] sources stepping in
/// lockstep — the fleet execution path.
///
/// Extraction captures each lane's PRNG walk, Box–Muller cache and sigma;
/// [`WhiteLanes::sample`] then advances every lane by exactly one draw,
/// with the expensive `ln`/`sincos`/`sqrt` work batched over contiguous
/// arrays (see [`crate::mathx`]) so it auto-vectorizes. Per-lane outputs
/// are bit-identical to calling [`WhiteNoise::sample`] on each source —
/// the property the fleet's byte-identical-CSV contract rests on.
///
/// Lockstep requires a *uniform* lane population: every lane on the same
/// Box–Muller phase, and sigmas either all zero or all nonzero (a
/// zero-sigma source never advances its PRNG). [`WhiteLanes::extract`]
/// returns `None` when the population is mixed; callers fall back to
/// scalar sampling.
#[derive(Debug, Clone)]
pub struct WhiteLanes {
    sigma: Vec<f64>,
    state: Vec<u64>,
    cached: Vec<f64>,
    has_cached: bool,
    all_zero: bool,
    // Scratch buffers for the batched transform.
    u1: Vec<f64>,
    u2: Vec<f64>,
    z_cos: Vec<f64>,
    z_sin: Vec<f64>,
}

impl WhiteLanes {
    /// Captures a lane population from the given sources. Returns `None`
    /// if the lanes cannot step in lockstep (mixed Box–Muller phase, or a
    /// mix of zero and nonzero sigmas).
    pub fn extract<'a>(sources: impl Iterator<Item = &'a WhiteNoise>) -> Option<Self> {
        let mut sigma = Vec::new();
        let mut state = Vec::new();
        let mut cached = Vec::new();
        let mut phase: Option<bool> = None;
        for s in sources {
            let (st, half) = s.logical_state();
            match phase {
                None => phase = Some(half.is_some()),
                Some(p) if p != half.is_some() => return None,
                Some(_) => {}
            }
            sigma.push(s.sigma);
            state.push(st);
            cached.push(half.unwrap_or(0.0));
        }
        let n = sigma.len();
        let zeros = sigma.iter().filter(|&&s| s == 0.0).count();
        if zeros != 0 && zeros != n {
            return None;
        }
        Some(Self {
            sigma,
            state,
            cached,
            has_cached: phase.unwrap_or(false),
            all_zero: zeros == n && n > 0,
            u1: vec![0.0; n],
            u2: vec![0.0; n],
            z_cos: vec![0.0; n],
            z_sin: vec![0.0; n],
        })
    }

    /// Writes the lane state back into the sources (same order and count
    /// as extraction).
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut WhiteNoise>) {
        for (l, s) in sources.enumerate() {
            self.restore_lane(l, s);
        }
    }

    /// Writes lane `l`'s PRNG walk and cached half-sample into `source`.
    fn restore_lane(&self, l: usize, source: &mut WhiteNoise) {
        source.set_logical_state(self.state[l], self.has_cached.then_some(self.cached[l]));
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.sigma.len()
    }

    /// Draws one sample per lane into `out` (`out.len()` must equal
    /// [`WhiteLanes::lanes`]). Bit-identical per lane to
    /// [`WhiteNoise::sample`].
    pub fn sample(&mut self, out: &mut [f64]) {
        let n = self.state.len();
        assert_eq!(out.len(), n, "lane count mismatch");
        if self.all_zero {
            out.fill(0.0);
            return;
        }
        if self.has_cached {
            self.has_cached = false;
            for (o, (&z, &sg)) in out.iter_mut().zip(self.cached.iter().zip(&self.sigma)) {
                *o = z * sg;
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // AVX2 only — see `mathx::box_muller_slice` for why there is
            // deliberately no AVX-512 tier.
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: guarded by the runtime AVX2 check above.
                unsafe { self.transform_avx2(out) };
                return;
            }
        }
        self.transform(out);
    }

    /// The Box–Muller tick: advance every lane's PRNG twice (u1 with
    /// rejection, then u2), transform, emit cos and cache sin.
    /// The rejection branch fires with probability 2^-53 — the repair
    /// loop below keeps the per-lane sequence exactly equal to the
    /// scalar path without blocking vectorization of the common case.
    #[inline(always)]
    fn transform(&mut self, out: &mut [f64]) {
        let n = self.state.len();
        for l in 0..n {
            self.u1[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
        }
        for l in 0..n {
            while self.u1[l] == 0.0 {
                self.u1[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
            }
        }
        for l in 0..n {
            self.u2[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
        }
        mathx::box_muller_slice(&self.u1, &self.u2, &mut self.z_cos, &mut self.z_sin);
        for (o, (&zc, &sg)) in out.iter_mut().zip(self.z_cos.iter().zip(&self.sigma)) {
            *o = zc * sg;
        }
        self.cached.copy_from_slice(&self.z_sin);
        self.has_cached = true;
    }

    /// AVX2 copy of the transform: vectorizes the xorshift walk (64-bit
    /// shifts, xors, and the constant multiply, which LLVM lowers through
    /// `vpmuludq` pieces) and the split-add uniform conversion around the
    /// already-dispatched Box–Muller batch. Integer and IEEE float ops
    /// produce identical bits at any width.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn transform_avx2(&mut self, out: &mut [f64]) {
        self.transform(out);
    }
}

/// Structure-of-arrays mirror of N [`PinkNoise`] sources in lockstep.
///
/// The Voss–McCartney row index is a pure function of the shared sample
/// counter, so lockstep lanes always update the same row: one batched
/// white draw plus a vertical row sum per sample. Bit-identical per lane
/// to [`PinkNoise::sample`].
#[derive(Debug, Clone)]
pub struct PinkLanes {
    white: WhiteLanes,
    /// Row ladder, `[row][lane]` contiguous by lane.
    rows: Vec<f64>,
    n_rows: usize,
    counter: u64,
    scale: Vec<f64>,
    draw: Vec<f64>,
}

impl PinkLanes {
    /// Captures a lane population. Returns `None` if the sources disagree
    /// on row count or counter phase, or their inner white sources cannot
    /// run in lockstep.
    pub fn extract<'a>(sources: impl Iterator<Item = &'a PinkNoise>) -> Option<Self> {
        let sources: Vec<&PinkNoise> = sources.collect();
        let first = sources.first()?;
        let n_rows = first.rows.len();
        let counter = first.counter;
        if sources
            .iter()
            .any(|s| s.rows.len() != n_rows || s.counter != counter)
        {
            return None;
        }
        let white = WhiteLanes::extract(sources.iter().map(|s| &s.white))?;
        let n = sources.len();
        let mut rows = vec![0.0; n_rows * n];
        for (l, s) in sources.iter().enumerate() {
            for (r, &v) in s.rows.iter().enumerate() {
                rows[r * n + l] = v;
            }
        }
        Some(Self {
            white,
            rows,
            n_rows,
            counter,
            scale: sources.iter().map(|s| s.scale).collect(),
            draw: vec![0.0; n],
        })
    }

    /// Writes the lane state back into the sources (row ladder, counter,
    /// and the inner white source's PRNG walk and cache).
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut PinkNoise>) {
        let n = self.scale.len();
        for (l, s) in sources.enumerate() {
            for r in 0..self.n_rows {
                s.rows[r] = self.rows[r * n + l];
            }
            s.counter = self.counter;
            self.white.restore_lane(l, &mut s.white);
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.scale.len()
    }

    /// Draws one sample per lane into `out`.
    pub fn sample(&mut self, out: &mut [f64]) {
        let n = self.scale.len();
        assert_eq!(out.len(), n, "lane count mismatch");
        self.counter = self.counter.wrapping_add(1);
        let k = (self.counter.trailing_zeros() as usize).min(self.n_rows - 1);
        self.white.sample(&mut self.draw);
        self.rows[k * n..(k + 1) * n].copy_from_slice(&self.draw);
        // Vertical sum in scalar row order (row 0 first) so each lane's
        // accumulation matches `rows.iter().sum()` bit-for-bit.
        out.copy_from_slice(&self.rows[..n]);
        for r in 1..self.n_rows {
            let row = &self.rows[r * n..(r + 1) * n];
            for l in 0..n {
                out[l] += row[l];
            }
        }
        for (o, &sc) in out.iter_mut().zip(&self.scale) {
            *o *= sc;
        }
    }
}

/// Integrated-white (random-walk / Brownian) noise source.
///
/// Each call adds a Gaussian increment of standard deviation
/// `sigma_per_sample` to an internal state; models rate-output bias drift.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    white: WhiteNoise,
    state: f64,
    limit: f64,
}

impl RandomWalk {
    /// Creates a walk with per-sample increment sigma and a reflecting limit
    /// (`limit`, use `f64::INFINITY` for an unbounded walk).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not positive.
    #[must_use]
    pub fn new(sigma_per_sample: f64, limit: f64, seed: u64) -> Self {
        assert!(limit > 0.0, "random walk limit must be positive");
        Self {
            white: WhiteNoise::new(sigma_per_sample, seed),
            state: 0.0,
            limit,
        }
    }

    /// Advances the walk and returns the new state.
    pub fn sample(&mut self) -> f64 {
        self.state += self.white.sample();
        // Reflect at the limit so the bias stays physically bounded.
        if self.state > self.limit {
            self.state = 2.0 * self.limit - self.state;
        } else if self.state < -self.limit {
            self.state = -2.0 * self.limit - self.state;
        }
        self.state
    }

    /// Current state without advancing.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Serializes the inner white source, walk state and limit.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.white.save_state(w);
        w.put_f64(self.state);
        w.put_f64(self.limit);
    }

    /// Restores the full source state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.white.load_state(r)?;
        self.state = r.take_f64()?;
        self.limit = r.take_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn rng64_uniformity_and_determinism() {
        let mut a = Rng64::new(0);
        let mut b = Rng64::new(0);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Rng64::new(1234);
        let xs: Vec<f64> = (0..100_000).map(|_| r.next_f64()).collect();
        let mean = stats::mean(&xs);
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
        // Variance of U(0,1) is 1/12.
        let var = stats::variance(&xs);
        assert!((var - 1.0 / 12.0).abs() < 0.005, "uniform variance {var}");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn uniform_split_matches_cast_exactly() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..100_000 {
            let w = xorshift_next(&mut state);
            assert_eq!(uniform_53(w).to_bits(), uniform_53_split(w).to_bits());
        }
        for w in [0u64, 1, 0x7ff, 0x800, u64::MAX, 1 << 63, (1 << 43) - 1] {
            assert_eq!(uniform_53(w).to_bits(), uniform_53_split(w).to_bits());
        }
    }

    #[test]
    fn rng64_distinct_seeds_diverge() {
        let mut a = Rng64::new(5);
        let mut b = Rng64::new(6);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn white_noise_is_reproducible() {
        let mut a = WhiteNoise::new(1.0, 7);
        let mut b = WhiteNoise::new(1.0, 7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn white_noise_distinct_seeds_differ() {
        let mut a = WhiteNoise::new(1.0, 1);
        let mut b = WhiteNoise::new(1.0, 2);
        let same = (0..32).filter(|_| a.sample() == b.sample()).count();
        assert!(same < 4);
    }

    #[test]
    fn white_noise_moments() {
        let mut n = WhiteNoise::new(2.0, 99);
        let xs: Vec<f64> = (0..200_000).map(|_| n.sample()).collect();
        let mean = stats::mean(&xs);
        let sd = stats::std_dev(&xs);
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((sd - 2.0).abs() < 0.02, "std dev {sd} too far from 2");
    }

    #[test]
    fn white_noise_zero_sigma_is_silent() {
        let mut n = WhiteNoise::new(0.0, 3);
        assert!((0..10).all(|_| n.sample() == 0.0));
    }

    #[test]
    fn density_scaling_matches_sigma() {
        let n = WhiteNoise::from_density(0.1, 200.0, 0);
        assert!((n.sigma() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pink_noise_low_frequency_dominates() {
        // Pink noise should have more power in the slow rows: compare
        // variance of raw samples to variance of first differences. For
        // white noise var(diff) = 2*var; for pink it is much lower.
        let mut p = PinkNoise::new(1.0, 14, 5);
        let xs: Vec<f64> = (0..100_000).map(|_| p.sample()).collect();
        let var = stats::variance(&xs);
        let diffs: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let var_diff = stats::variance(&diffs);
        assert!(
            var_diff < 1.2 * var,
            "pink spectrum not low-frequency weighted: var={var} var_diff={var_diff}"
        );
    }

    #[test]
    fn white_lanes_match_scalar_bit_for_bit() {
        for n in [1usize, 2, 7, 8, 16] {
            let mut scalar: Vec<WhiteNoise> = (0..n)
                .map(|l| WhiteNoise::new(0.5 + l as f64 * 0.1, 1000 + l as u64))
                .collect();
            let mut lanes = WhiteLanes::extract(scalar.iter()).expect("uniform population");
            let mut out = vec![0.0; n];
            for tick in 0..257 {
                lanes.sample(&mut out);
                for (l, s) in scalar.iter_mut().enumerate() {
                    let want = s.sample();
                    assert_eq!(
                        want.to_bits(),
                        out[l].to_bits(),
                        "tick {tick} lane {l}: {want} vs {}",
                        out[l]
                    );
                }
            }
            // Round-trip: restored sources continue the stream bit-exactly.
            let mut restored: Vec<WhiteNoise> = (0..n)
                .map(|l| WhiteNoise::new(0.5 + l as f64 * 0.1, 1000 + l as u64))
                .collect();
            lanes.restore(restored.iter_mut());
            for (l, (a, b)) in restored.iter_mut().zip(scalar.iter_mut()).enumerate() {
                for _ in 0..8 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits(), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn white_lanes_reject_mixed_phase_or_sigma() {
        let mut a = WhiteNoise::new(1.0, 1);
        let b = WhiteNoise::new(1.0, 2);
        a.sample(); // a now holds a cached half-sample, b does not
        assert!(WhiteLanes::extract([&a, &b].into_iter()).is_none());
        let c = WhiteNoise::new(0.0, 3);
        let d = WhiteNoise::new(1.0, 4);
        assert!(WhiteLanes::extract([&c, &d].into_iter()).is_none());
        // All-zero sigma is a valid (silent) population.
        let e = WhiteNoise::new(0.0, 5);
        let mut lanes = WhiteLanes::extract([&c, &e].into_iter()).expect("all-zero ok");
        let mut out = vec![1.0; 2];
        lanes.sample(&mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn pink_lanes_match_scalar_bit_for_bit() {
        for n in [1usize, 3, 8] {
            let mut scalar: Vec<PinkNoise> = (0..n)
                .map(|l| PinkNoise::new(0.3 + l as f64 * 0.05, 14, 70 + l as u64))
                .collect();
            let mut lanes = PinkLanes::extract(scalar.iter()).expect("uniform population");
            let mut out = vec![0.0; n];
            for tick in 0..300 {
                lanes.sample(&mut out);
                for (l, s) in scalar.iter_mut().enumerate() {
                    assert_eq!(
                        s.sample().to_bits(),
                        out[l].to_bits(),
                        "tick {tick} lane {l}"
                    );
                }
            }
            let mut restored: Vec<PinkNoise> = (0..n)
                .map(|l| PinkNoise::new(0.3 + l as f64 * 0.05, 14, 70 + l as u64))
                .collect();
            lanes.restore(restored.iter_mut());
            for (a, b) in restored.iter_mut().zip(scalar.iter_mut()) {
                for _ in 0..40 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits());
                }
            }
        }
    }

    /// The pair-by-pair sampler [`WhiteNoise`] computes in blocks, kept
    /// as its oracle: one Box–Muller pair every second draw, the sin half
    /// cached.
    #[derive(Debug, Clone)]
    struct PairSampler {
        sigma: f64,
        rng: Rng64,
        cached: Option<f64>,
        rejections: usize,
    }

    impl PairSampler {
        fn new(sigma: f64, seed: u64) -> Self {
            Self {
                sigma,
                rng: Rng64::new(seed),
                cached: None,
                rejections: 0,
            }
        }

        fn sample(&mut self) -> f64 {
            if self.sigma == 0.0 {
                return 0.0;
            }
            if let Some(z) = self.cached.take() {
                return z * self.sigma;
            }
            let u1: f64 = loop {
                let u = self.rng.next_f64();
                if u > 0.0 {
                    break u;
                }
                self.rejections += 1;
            };
            let u2: f64 = self.rng.next_f64();
            let (z_cos, z_sin) = mathx::box_muller(u1, u2);
            self.cached = Some(z_sin);
            z_cos * self.sigma
        }

        fn state_bytes(&self) -> Vec<u8> {
            let mut w = StateWriter::new();
            w.put_f64(self.sigma);
            self.rng.save_state(&mut w);
            w.put_opt_f64(self.cached);
            w.into_bytes()
        }
    }

    fn state_bytes(n: &WhiteNoise) -> Vec<u8> {
        let mut w = StateWriter::new();
        n.save_state(&mut w);
        w.into_bytes()
    }

    /// Draws from both samplers in step, checking every draw's bits and
    /// the saved state after it.
    fn assert_same_stream(block: &mut WhiteNoise, oracle: &mut PairSampler, draws: usize) {
        for d in 0..draws {
            let (a, b) = (block.sample(), oracle.sample());
            assert_eq!(a.to_bits(), b.to_bits(), "draw {d}: {a} vs {b}");
            assert_eq!(
                state_bytes(block),
                oracle.state_bytes(),
                "state after draw {d}"
            );
        }
    }

    #[test]
    fn block_sampler_matches_pair_oracle() {
        for seed in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            for sigma in [1.0, 0.37, 0.0] {
                let mut block = WhiteNoise::new(sigma, seed);
                let mut oracle = PairSampler::new(sigma, seed);
                // Offset 0 first, then every offset through three blocks:
                // even, odd and block-boundary read positions.
                assert_eq!(state_bytes(&block), oracle.state_bytes());
                assert_same_stream(&mut block, &mut oracle, 3 * 2 * BLOCK + 1);
            }
        }
    }

    #[test]
    fn loading_a_cached_half_sample_continues_the_stream() {
        let mut oracle = PairSampler::new(0.8, 41);
        for _ in 0..2 * BLOCK + 5 {
            oracle.sample();
        }
        let saved = oracle.state_bytes();
        // The target is itself mid-block, on the other phase.
        let mut block = WhiteNoise::new(3.0, 99);
        for _ in 0..10 {
            block.sample();
        }
        block
            .load_state(&mut StateReader::new(&saved))
            .expect("valid state");
        assert!(oracle.cached.is_some());
        assert_eq!(state_bytes(&block), saved);
        assert_same_stream(&mut block, &mut oracle, 3 * 2 * BLOCK);
    }

    #[test]
    fn lanes_extract_and_restore_through_mid_block_sources() {
        for offsets in [
            [1usize, 5, 2 * BLOCK - 1, 2 * BLOCK + 3],
            [0, 6, 2 * BLOCK, 4 * BLOCK - 2],
        ] {
            let seeds = [11u64, 12, 13, 14];
            let mut sources: Vec<WhiteNoise> =
                seeds.iter().map(|&s| WhiteNoise::new(0.5, s)).collect();
            let mut oracles: Vec<PairSampler> =
                seeds.iter().map(|&s| PairSampler::new(0.5, s)).collect();
            for ((src, oracle), &off) in sources.iter_mut().zip(&mut oracles).zip(&offsets) {
                for _ in 0..off {
                    src.sample();
                    oracle.sample();
                }
            }
            let mut lanes = WhiteLanes::extract(sources.iter()).expect("uniform phase");
            let mut out = [0.0; 4];
            for _ in 0..BLOCK + 3 {
                lanes.sample(&mut out);
                for (o, oracle) in out.iter().zip(&mut oracles) {
                    assert_eq!(o.to_bits(), oracle.sample().to_bits());
                }
            }
            lanes.restore(sources.iter_mut());
            for (src, oracle) in sources.iter_mut().zip(&mut oracles) {
                assert_same_stream(src, oracle, 3 * 2 * BLOCK);
            }
        }
        for off in [1usize, 5, 2 * BLOCK, 2 * BLOCK + 1] {
            let mut sources: Vec<PinkNoise> =
                (0..3).map(|l| PinkNoise::new(0.4, 12, 30 + l)).collect();
            for src in &mut sources {
                for _ in 0..off {
                    src.sample();
                }
            }
            let mut twins = sources.clone();
            let mut lanes = PinkLanes::extract(sources.iter()).expect("uniform phase");
            let mut out = [0.0; 3];
            for _ in 0..BLOCK + 3 {
                lanes.sample(&mut out);
                for (o, twin) in out.iter().zip(&mut twins) {
                    assert_eq!(o.to_bits(), twin.sample().to_bits());
                }
            }
            lanes.restore(sources.iter_mut());
            for (src, twin) in sources.iter_mut().zip(&mut twins) {
                for _ in 0..3 * 2 * BLOCK {
                    assert_eq!(src.sample().to_bits(), twin.sample().to_bits());
                }
            }
        }
    }

    /// Undoes `x ^= x >> shift`.
    fn unshift_right(y: u64, shift: u32) -> u64 {
        (1..)
            .map(|j| j * shift)
            .take_while(|&s| s < 64)
            .fold(y, |x, s| x ^ (y >> s))
    }

    /// Undoes `x ^= x << shift`.
    fn unshift_left(y: u64, shift: u32) -> u64 {
        (1..)
            .map(|j| j * shift)
            .take_while(|&s| s < 64)
            .fold(y, |x, s| x ^ (y << s))
    }

    /// The xorshift state whose `(m + 1)`-th output word is `word`.
    fn state_before_word(word: u64, m: usize) -> u64 {
        // Inverse of the odd multiplier modulo 2^64 by Newton iteration.
        const MUL: u64 = 0x2545_f491_4f6c_dd1d;
        let mut inv = MUL;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)));
        }
        assert_eq!(MUL.wrapping_mul(inv), 1);
        let mut state = word.wrapping_mul(inv);
        for _ in 0..=m {
            state = unshift_right(unshift_left(unshift_right(state, 27), 25), 12);
        }
        state
    }

    #[test]
    fn rejection_branch_consumes_the_same_words() {
        for m in [
            0usize,
            1,
            2,
            7,
            2 * BLOCK - 2,
            2 * BLOCK - 1,
            2 * BLOCK,
            2 * BLOCK + 1,
        ] {
            for word in [1u64, 0x7ff] {
                let planted = state_before_word(word, m);
                let mut probe = Rng64 { state: planted };
                let words: Vec<u64> = (0..=m).map(|_| probe.next_u64()).collect();
                assert_eq!(words[m], word, "plant at word {m}");
                let mut block = WhiteNoise::new(1.0, 0);
                block.set_logical_state(planted, None);
                let mut oracle = PairSampler::new(1.0, 0);
                oracle.rng.state = planted;
                assert_same_stream(&mut block, &mut oracle, 3 * 2 * BLOCK);
                // A word planted at an even index is some pair's `u1`.
                if m.is_multiple_of(2) {
                    assert_eq!(oracle.rejections, 1, "no rejection at word {m}");
                }
            }
        }
    }

    #[test]
    fn random_walk_respects_limit() {
        let mut w = RandomWalk::new(0.5, 1.0, 11);
        for _ in 0..10_000 {
            let v = w.sample();
            assert!(v.abs() <= 1.0 + 1e-9, "walk escaped limit: {v}");
        }
    }

    #[test]
    fn random_walk_value_matches_last_sample() {
        let mut w = RandomWalk::new(0.1, 10.0, 13);
        let s = w.sample();
        assert_eq!(s, w.value());
    }
}
