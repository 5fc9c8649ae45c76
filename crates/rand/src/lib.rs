//! The workspace's random number generator. Every crate depends on it
//! under the name `rand` and calls the `rand 0.9` surface it needs:
//! `StdRng` (xoshiro256** seeded via splitmix64),
//! `SeedableRng::seed_from_u64`, `Rng::{random, random_range, random_bool}`
//! and `seq::SliceRandom::shuffle`. Deterministic per seed: the
//! same seed gives the same bits on every platform and thread count.

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

#[derive(Clone, Debug)]
pub struct StdRngImpl {
    s: [u64; 4],
}

pub mod rngs {
    pub type StdRng = super::StdRngImpl;
}

impl SeedableRng for StdRngImpl {
    fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }
}

impl StdRngImpl {
    fn next_raw(&mut self) -> u64 {
        // xoshiro256**
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Types producible by `Rng::random`.
pub trait Standard: Sized {
    fn from_u64(v: u64) -> Self;
}

impl Standard for f32 {
    fn from_u64(v: u64) -> f32 {
        ((v >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }
}
impl Standard for f64 {
    fn from_u64(v: u64) -> f64 {
        ((v >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for u64 {
    fn from_u64(v: u64) -> u64 {
        v
    }
}
impl Standard for u32 {
    fn from_u64(v: u64) -> u32 {
        (v >> 32) as u32
    }
}
impl Standard for bool {
    fn from_u64(v: u64) -> bool {
        v & 1 == 1
    }
}

/// Scalar types usable as `random_range` bounds.
pub trait UniformSampled: Copy + PartialOrd {
    fn sample_between(lo: Self, hi: Self, inclusive: bool, raw: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_between(lo: Self, hi: Self, inclusive: bool, raw: u64) -> Self {
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = (hi_w - lo_w + if inclusive { 1 } else { 0 }) as u128;
                assert!(span > 0, "empty random_range");
                (lo_w + (raw as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! impl_uniform_float {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_between(lo: Self, hi: Self, _inclusive: bool, raw: u64) -> Self {
                let unit = ((raw >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                (lo as f64 + (hi as f64 - lo as f64) * unit) as $t
            }
        }
    )*};
}
impl_uniform_float!(f32, f64);

/// Range-like arguments to `random_range`.
pub trait SampleRange<T> {
    fn sample_one(self, raw: u64) -> T;
}

impl<T: UniformSampled> SampleRange<T> for std::ops::Range<T> {
    fn sample_one(self, raw: u64) -> T {
        T::sample_between(self.start, self.end, false, raw)
    }
}

impl<T: UniformSampled> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_one(self, raw: u64) -> T {
        T::sample_between(*self.start(), *self.end(), true, raw)
    }
}

pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn random<T: Standard>(&mut self) -> T {
        T::from_u64(self.next_u64())
    }

    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_one(self.next_u64())
    }

    fn random_bool(&mut self, p: f64) -> bool {
        self.random::<f64>() < p
    }
}

impl Rng for StdRngImpl {
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}
