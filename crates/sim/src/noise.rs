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
//! noise streams bit-exactly mid-run.
//!
//! Every Gaussian draw comes from one stateless sampler, `normal`: draw
//! `n` of a stream is a pure function of the stream's key and `n`. Its
//! uniform words are a keyed SplitMix-style mix of (key, draw index,
//! attempt index) — a counter-based generator in the sense of Salmon et
//! al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11) — and a
//! 256-layer ziggurat (Marsaglia & Tsang, "The Ziggurat Method for
//! Generating Random Variables", J. Stat. Softw. 2000) turns them into
//! normals using only the IEEE-exact kernels of [`crate::mathx`]. A
//! [`WhiteNoise`] is therefore three numbers, `(sigma, key, draws)`, and
//! the lockstep [`WhiteLanes`] mirror calls the same function per lane, so
//! scalar and lane draws agree bit for bit by construction.

use std::sync::LazyLock;

use crate::mathx;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};

/// Minimal deterministic PRNG: xorshift64* with a SplitMix64-scrambled
/// seed, for the simulator's non-Gaussian draws (fault-schedule jitter,
/// bit-error injection, workload generation). Gaussian noise uses
/// [`WhiteNoise`].
///
/// Vendored so the simulation kernel has no external dependencies (the
/// build must work with no registry access). xorshift64* passes the usual
/// empirical batteries except for the lowest bit, and
/// [`Rng64::next_f64`] uses the high 53 bits.
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
        // Decorrelates sequential/sparse seeds; a zero xorshift state is
        // absorbing, so it is remapped.
        let z = mix64(seed.wrapping_add(DRAW_STEP));
        Self {
            state: if z == 0 { DRAW_STEP } else { z },
        }
    }

    /// Next raw 64-bit output (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform sample in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        unit(self.next_u64())
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

/// SplitMix64's output finalizer: a bijection of `u64` with full
/// avalanche.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counter step per draw index (SplitMix64's golden-ratio increment).
const DRAW_STEP: u64 = 0x9e37_79b9_7f4a_7c15;
/// Counter step per attempt within one draw (a second odd constant).
const ATTEMPT_STEP: u64 = 0xd1b5_4a32_d192_ed03;
/// Separates noise keys from [`Rng64`] states built from the same seed.
const KEY_SALT: u64 = 0x6a09_e667_f3bc_c909;

/// The stream key of a seed.
#[inline]
fn stream_key(seed: u64) -> u64 {
    mix64(seed ^ KEY_SALT)
}

/// Uniform word `attempt` of draw `draw` in stream `key`.
///
/// The key is xored into the draw counter, not added to it: with
/// SplitMix64's additive stepping, keys `k` and `k + j·DRAW_STEP` would be
/// one stream `j` draws apart, while `(d·DRAW_STEP) ^ k` has no such
/// shift between any two keys.
#[inline(always)]
fn word(key: u64, draw: u64, attempt: u64) -> u64 {
    mix64((draw.wrapping_mul(DRAW_STEP) ^ key).wrapping_add(attempt.wrapping_mul(ATTEMPT_STEP)))
}

/// The top 53 bits of `w` as a uniform in `[0, 1)`.
#[inline(always)]
fn unit(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The top 53 bits of `w` as a uniform in `(0, 1]` (safe for `ln`).
#[inline(always)]
fn unit_open(w: u64) -> f64 {
    ((w >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ziggurat layers (one word's low byte picks the layer).
const LAYERS: usize = 256;
/// Right edge of the base layer, where the tail starts (Marsaglia & Tsang
/// 2000, 256-layer normal).
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalized density `e^{-x²/2}`.
const ZIGGURAT_V: f64 = 4.928_673_233_99e-3;

/// The ziggurat's layer tables, built once from [`mathx`] kernels.
struct Ziggurat {
    /// Layer right edges, decreasing: `x[0] = V / f(R)` is the base
    /// layer's equivalent width (rectangle plus tail), `x[1] = R`,
    /// `x[256] = 0`.
    x: [f64; LAYERS + 1],
    /// `f(x[i])`, the unnormalized density at each edge.
    f: [f64; LAYERS + 1],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// The unnormalized standard normal density `e^{-x²/2}`.
#[inline(always)]
fn density(x: f64) -> f64 {
    mathx::exp(-0.5 * x * x)
}

/// Sets the sign of a non-negative `x` from bit 8 of `w` (bits 0-7 pick
/// the layer, bits 11-63 the uniform).
#[inline(always)]
fn with_sign(x: f64, w: u64) -> f64 {
    f64::from_bits(x.to_bits() | (w & 0x100) << 55)
}

impl Ziggurat {
    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * mathx::ln(ZIGGURAT_V / x[i] + density(x[i]))).sqrt();
        }
        Self {
            x,
            f: x.map(density),
        }
    }

    /// Draw `draw` of stream `key`. The fast path — a point inside a
    /// layer's core rectangle, about 99 % of draws — costs one word, one
    /// multiply and one compare.
    #[inline(always)]
    fn normal(&self, key: u64, draw: u64) -> f64 {
        let w = word(key, draw, 0);
        let i = (w & 0xff) as usize;
        let x = unit(w) * self.x[i];
        if x < self.x[i + 1] {
            with_sign(x, w)
        } else {
            self.normal_slow(key, draw, w)
        }
    }

    /// The wedge and tail paths, continuing the draw from its first word
    /// `w` with attempt words 1, 2, ….
    #[cold]
    #[inline(never)]
    fn normal_slow(&self, key: u64, draw: u64, mut w: u64) -> f64 {
        let mut attempt = 1;
        loop {
            let i = (w & 0xff) as usize;
            let x = unit(w) * self.x[i];
            if x < self.x[i + 1] {
                return with_sign(x, w);
            }
            if i == 0 {
                // Marsaglia's tail beyond R.
                loop {
                    let t = -mathx::ln(unit_open(word(key, draw, attempt))) / ZIGGURAT_R;
                    let e = -mathx::ln(unit_open(word(key, draw, attempt + 1)));
                    attempt += 2;
                    if e + e > t * t {
                        return with_sign(ZIGGURAT_R + t, w);
                    }
                }
            }
            let y = self.f[i] + unit(word(key, draw, attempt)) * (self.f[i + 1] - self.f[i]);
            if y < density(x) {
                return with_sign(x, w);
            }
            w = word(key, draw, attempt + 1);
            attempt += 2;
        }
    }
}

/// Unit normal draw `draw` of the stream keyed `key`: a pure function of
/// its arguments, identical on every host (no libm, no dependence on
/// SIMD or FMA hardware).
#[inline]
fn normal(key: u64, draw: u64) -> f64 {
    ZIGGURAT.normal(key, draw)
}

/// Gaussian draws taken by a component's noise sources, by kind. A flicker
/// draw is the one white draw inside a [`PinkNoise`] sample; it counts as
/// `pink` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawCount {
    /// Draws of plain [`WhiteNoise`] (and [`RandomWalk`]) sources.
    pub white: u64,
    /// Draws of [`PinkNoise`] sources.
    pub pink: u64,
}

impl std::ops::Add for DrawCount {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            white: self.white + rhs.white,
            pink: self.pink + rhs.pink,
        }
    }
}

/// Gaussian white-noise source.
///
/// `sigma` is the standard deviation of each sample. For a band-limited
/// process sampled at `fs`, a white density of `d` units/√Hz corresponds to
/// `sigma = d * sqrt(fs / 2)`; use [`WhiteNoise::from_density`].
///
/// Sample `n` is `sigma · normal(key, n)`, the module's counter-keyed
/// ziggurat sampler, with the key a hash of the seed. The state is
/// `(sigma, key, draws)`: construction draws nothing, and a zero-`sigma`
/// source never advances.
///
/// # Example
///
/// ```
/// use ascp_sim::noise::WhiteNoise;
/// let mut n = WhiteNoise::new(1.0, 42);
/// let x = n.sample();
/// assert!(x.is_finite());
/// assert_eq!(n.draws(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    sigma: f64,
    key: u64,
    /// Draws taken: the index of the next draw.
    draws: u64,
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
            key: stream_key(seed),
            draws: 0,
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

    /// Draws taken so far — the stream's draw index (a zero-`sigma` source
    /// stays at 0).
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// [`WhiteNoise::draws`] as a [`DrawCount`].
    #[must_use]
    pub fn draw_count(&self) -> DrawCount {
        DrawCount {
            white: self.draws,
            pink: 0,
        }
    }

    /// Draws the next Gaussian sample.
    #[inline]
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        let z = normal(self.key, self.draws);
        self.draws += 1;
        z * self.sigma
    }

    /// Serializes sigma, the stream key and the draw index.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.sigma);
        w.put_u64(self.key);
        w.put_u64(self.draws);
    }

    /// Restores the full source state (bit-exact continuation).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.sigma = r.take_f64()?;
        self.key = r.take_u64()?;
        self.draws = r.take_u64()?;
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

    /// Draws taken by the inner white source, as flicker draws.
    #[must_use]
    pub fn draw_count(&self) -> DrawCount {
        DrawCount {
            white: 0,
            pink: self.white.draws,
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

/// Lockstep mirror of N [`WhiteNoise`] sources — the fleet execution
/// path.
///
/// Each lane is a copy of its source's `(sigma, key, draws)`, and
/// [`WhiteLanes::sample`] advances every lane by one draw through the same
/// `normal` function, so per-lane outputs are bit-identical to calling
/// [`WhiteNoise::sample`] on each source — the property the fleet's
/// byte-identical-CSV contract rests on. Any population can be extracted:
/// lanes at different draw indices or with zero `sigma` step
/// independently.
#[derive(Debug, Clone)]
pub struct WhiteLanes {
    lanes: Vec<WhiteNoise>,
}

impl WhiteLanes {
    /// Captures a lane population from the given sources.
    pub fn extract<'a>(sources: impl Iterator<Item = &'a WhiteNoise>) -> Self {
        Self {
            lanes: sources.cloned().collect(),
        }
    }

    /// Writes the lane state back into the sources (same order and count
    /// as extraction).
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut WhiteNoise>) {
        for (lane, s) in self.lanes.iter().zip(sources) {
            s.clone_from(lane);
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Draws one sample per lane into `out` (`out.len()` must equal
    /// [`WhiteLanes::lanes`]). Bit-identical per lane to
    /// [`WhiteNoise::sample`].
    pub fn sample(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.lanes.len(), "lane count mismatch");
        for (o, lane) in out.iter_mut().zip(&mut self.lanes) {
            *o = lane.sample();
        }
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
    /// on row count or counter phase.
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
        let white = WhiteLanes::extract(sources.iter().map(|s| &s.white));
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
    /// and the inner white source).
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut PinkNoise>) {
        let n = self.scale.len();
        for (l, s) in sources.enumerate() {
            for r in 0..self.n_rows {
                s.rows[r] = self.rows[r * n + l];
            }
            s.counter = self.counter;
            s.white.clone_from(&self.white.lanes[l]);
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
        assert_eq!(n.draws(), 0, "a silent source never advances");
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
            let mut lanes = WhiteLanes::extract(scalar.iter());
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

    fn state_bytes(n: &WhiteNoise) -> Vec<u8> {
        let mut w = StateWriter::new();
        n.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn white_noise_is_sigma_times_normal_of_key_and_draw() {
        for seed in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            for sigma in [1.0, 0.37] {
                let mut n = WhiteNoise::new(sigma, seed);
                let key = stream_key(seed);
                for d in 0..300 {
                    let mut w = StateWriter::new();
                    w.put_f64(sigma);
                    w.put_u64(key);
                    w.put_u64(d);
                    assert_eq!(state_bytes(&n), w.into_bytes(), "state before draw {d}");
                    let want = normal(key, d) * sigma;
                    assert_eq!(n.sample().to_bits(), want.to_bits(), "draw {d}");
                }
                assert_eq!(n.draws(), 300);
            }
        }
    }

    #[test]
    fn loading_state_continues_the_stream() {
        let mut a = WhiteNoise::new(0.8, 41);
        for _ in 0..37 {
            a.sample();
        }
        let saved = state_bytes(&a);
        // The target is a different stream at a different draw index.
        let mut b = WhiteNoise::new(3.0, 99);
        for _ in 0..10 {
            b.sample();
        }
        b.load_state(&mut StateReader::new(&saved))
            .expect("valid state");
        assert_eq!(state_bytes(&b), saved);
        for d in 0..100 {
            assert_eq!(a.sample().to_bits(), b.sample().to_bits(), "draw {d}");
        }
    }

    #[test]
    fn lanes_extract_and_restore_any_population() {
        // Mixed draw indices and a zero-sigma lane: every lane still
        // follows its scalar twin.
        let mut sources: Vec<WhiteNoise> = [(0.5, 11u64), (0.0, 12), (1.5, 13), (0.5, 14)]
            .iter()
            .map(|&(sigma, seed)| WhiteNoise::new(sigma, seed))
            .collect();
        for (src, off) in sources.iter_mut().zip([1usize, 5, 0, 40]) {
            for _ in 0..off {
                src.sample();
            }
        }
        let mut twins = sources.clone();
        let mut lanes = WhiteLanes::extract(sources.iter());
        let mut out = [0.0; 4];
        for _ in 0..50 {
            lanes.sample(&mut out);
            for (o, twin) in out.iter().zip(&mut twins) {
                assert_eq!(o.to_bits(), twin.sample().to_bits());
            }
        }
        lanes.restore(sources.iter_mut());
        for (src, twin) in sources.iter_mut().zip(&twins) {
            assert_eq!(state_bytes(src), state_bytes(twin));
        }
        assert_eq!(sources[1].draws(), 0, "the silent lane never advanced");
        for off in [1usize, 5, 32, 33] {
            let mut sources: Vec<PinkNoise> =
                (0..3).map(|l| PinkNoise::new(0.4, 12, 30 + l)).collect();
            for src in &mut sources {
                for _ in 0..off {
                    src.sample();
                }
            }
            let mut twins = sources.clone();
            let mut lanes = PinkLanes::extract(sources.iter()).expect("uniform counters");
            let mut out = [0.0; 3];
            for _ in 0..19 {
                lanes.sample(&mut out);
                for (o, twin) in out.iter().zip(&mut twins) {
                    assert_eq!(o.to_bits(), twin.sample().to_bits());
                }
            }
            lanes.restore(sources.iter_mut());
            for (src, twin) in sources.iter_mut().zip(&mut twins) {
                assert_eq!(src.draw_count(), twin.draw_count());
                for _ in 0..96 {
                    assert_eq!(src.sample().to_bits(), twin.sample().to_bits());
                }
            }
        }
    }

    #[test]
    fn pink_lanes_reject_mixed_counters() {
        let mut a = PinkNoise::new(1.0, 12, 1);
        let b = PinkNoise::new(1.0, 12, 2);
        a.sample();
        assert!(PinkLanes::extract([&a, &b].into_iter()).is_none());
    }

    /// Which path a reference draw took.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Path {
        Core,
        Wedge,
        Tail,
    }

    /// The ziggurat written as one plain loop, word by word: the oracle
    /// for `normal`'s split fast/slow implementation.
    fn reference_normal(key: u64, draw: u64) -> (f64, Path) {
        let z = &*ZIGGURAT;
        let mut attempt = 0;
        let mut next = || {
            attempt += 1;
            word(key, draw, attempt - 1)
        };
        loop {
            let w = next();
            let i = (w & 0xff) as usize;
            let sign = if w & 0x100 == 0 { 1.0 } else { -1.0 };
            let x = unit(w) * z.x[i];
            if x < z.x[i + 1] {
                return (sign * x, Path::Core);
            }
            if i == 0 {
                loop {
                    let t = -mathx::ln(unit_open(next())) / ZIGGURAT_R;
                    let e = -mathx::ln(unit_open(next()));
                    if 2.0 * e > t * t {
                        return (sign * (ZIGGURAT_R + t), Path::Tail);
                    }
                }
            }
            let y = z.f[i] + unit(next()) * (z.f[i + 1] - z.f[i]);
            if y < density(x) {
                return (sign * x, Path::Wedge);
            }
        }
    }

    #[test]
    fn sampler_matches_the_plain_ziggurat_on_every_path() {
        let mut paths = [0usize; 3];
        for key in [stream_key(3), stream_key(0xfeed)] {
            for d in 0..200_000 {
                let (want, path) = reference_normal(key, d);
                assert_eq!(normal(key, d).to_bits(), want.to_bits(), "draw {d}");
                paths[path as usize] += 1;
            }
        }
        // ~1 % wedge, ~0.03 % tail at 256 layers.
        assert!(paths[Path::Wedge as usize] > 1000, "paths {paths:?}");
        assert!(paths[Path::Tail as usize] > 40, "paths {paths:?}");
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        let z = &*ZIGGURAT;
        assert_eq!(z.x[1], ZIGGURAT_R);
        assert_eq!(z.x[LAYERS], 0.0);
        for i in 0..LAYERS {
            assert!(z.x[i + 1] < z.x[i], "edges not decreasing at {i}");
        }
        // Base layer: the rectangle x[0]·f(R) holds the tail's area too.
        assert!((z.x[0] * z.f[1] - ZIGGURAT_V).abs() < 1e-15);
        for i in 1..LAYERS {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!(
                (area - ZIGGURAT_V).abs() < 1e-10,
                "layer {i} area {area} vs {ZIGGURAT_V}"
            );
        }
    }

    /// `n` unit draws of the stream of `seed`.
    fn draws(seed: u64, n: u64) -> impl Iterator<Item = f64> {
        let key = stream_key(seed);
        (0..n).map(move |d| normal(key, d))
    }

    const MILLION: u64 = 1_000_000;

    #[test]
    fn normal_moments_at_a_million_draws() {
        for seed in [1u64, 0x5eed] {
            let (mut s1, mut s2, mut s4) = (0.0, 0.0, 0.0);
            for z in draws(seed, MILLION) {
                let z2 = z * z;
                s1 += z;
                s2 += z2;
                s4 += z2 * z2;
            }
            let n = MILLION as f64;
            let mean = s1 / n;
            let var = s2 / n - mean * mean;
            let kurt = (s4 / n) / (var * var);
            // Standard errors: 1e-3 (mean), 1.4e-3 (variance), 4.9e-3
            // (kurtosis); the bounds are 5-6 of them.
            assert!(mean.abs() < 5e-3, "seed {seed}: mean {mean}");
            assert!((var - 1.0).abs() < 7e-3, "seed {seed}: variance {var}");
            assert!((kurt - 3.0).abs() < 0.03, "seed {seed}: kurtosis {kurt}");
        }
    }

    #[test]
    fn tail_fraction_matches_two_phi_of_minus_r() {
        for seed in [2u64, 0xbeef] {
            let beyond = draws(seed, MILLION)
                .filter(|z| z.abs() >= ZIGGURAT_R)
                .count() as f64;
            let expected = MILLION as f64 * 2.0 * phi(-ZIGGURAT_R);
            // Poisson spread: 5 standard deviations.
            assert!(
                (beyond - expected).abs() < 5.0 * expected.sqrt(),
                "seed {seed}: {beyond} draws beyond r, expected {expected:.1}"
            );
        }
    }

    /// Standard normal CDF via the Chebyshev `erfc` of Numerical Recipes
    /// (fractional error below 1.2e-7, far under the KS bound below).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn kolmogorov_smirnov_distance_to_phi() {
        let mut xs: Vec<f64> = draws(3, MILLION).collect();
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = phi(x);
                (p - i as f64 / n).abs().max(((i + 1) as f64 / n - p).abs())
            })
            .fold(0.0, f64::max);
        // 1.95/√n is the 0.1 % critical value.
        assert!(d < 1.95 / n.sqrt(), "KS distance {d}");
    }

    #[test]
    fn sibling_seed_streams_are_uncorrelated() {
        // The platform derives its components' seeds as `seed ^ 0x11`,
        // `seed ^ 0x22`, …; the gyro's as `seed ^ 0xd1` / `seed ^ 0x5e`.
        let base = 0x0123_4567_89ab_cdef_u64;
        let siblings = [
            0x11u64, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa,
        ];
        let mut pairs: Vec<(u64, u64)> = siblings.windows(2).map(|w| (w[0], w[1])).collect();
        pairs.push((0xd1, 0x5e));
        for (a, b) in pairs {
            let n = MILLION;
            let dot: f64 = draws(base ^ a, n)
                .zip(draws(base ^ b, n))
                .map(|(x, y)| x * y)
                .sum();
            let rho = dot / n as f64;
            assert!(rho.abs() < 5e-3, "seeds ^{a:#x}/^{b:#x}: correlation {rho}");
        }
        // Lag-1 correlation within one stream.
        let xs: Vec<f64> = draws(base, MILLION).collect();
        let lag1 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / xs.len() as f64;
        assert!(lag1.abs() < 5e-3, "lag-1 correlation {lag1}");
    }

    #[test]
    fn keys_never_give_shifted_copies() {
        // Under additive SplitMix stepping, key k + j·DRAW_STEP would
        // replay key k's stream j draws later.
        let key = stream_key(9);
        for j in 1..4u64 {
            let shifted = key.wrapping_add(j.wrapping_mul(DRAW_STEP));
            let same = (0..4096)
                .filter(|&d| normal(key, d + j).to_bits() == normal(shifted, d).to_bits())
                .count();
            assert_eq!(same, 0, "shift {j}");
        }
        // Sibling seeds share no first words over a long window.
        let words = |seed: u64| -> std::collections::HashSet<u64> {
            (0..20_000).map(|d| word(stream_key(seed), d, 0)).collect()
        };
        let a = words(0x11);
        assert!(a.is_disjoint(&words(0x22)));
        assert!(a.is_disjoint(&words(0x33)));
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
