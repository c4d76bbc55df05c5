//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts by
//! ±20 % over minutes while the program stays the same. A fixed unit of
//! work that shares no code with the library (an ordered map and a sort
//! from the standard library) slows down with the host: on a 2-CPU host,
//! its time and a 60-day paper campaign's time measured one after the
//! other correlate at 0.77 over 150 pairs, and the campaign's time over
//! the unit's time varied 4 % where the campaign's time alone varied 15 %.
//! The benchmark therefore times one calibration sample beside every
//! repetition and reports timings in reference-host seconds: host seconds
//! scaled by [`REFERENCE_UNIT_S`] over the sample.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration unit takes on the reference host (2-CPU
/// Xeon VM, release build), the host the baseline in README.md was
/// measured on.
pub const REFERENCE_UNIT_S: f64 = 0.045;

/// One unit of fixed work: 50 000 inserts and 200 000 lookups in an
/// ordered map, and a sort of 200 000 integers.
fn unit() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..50_000 {
        let k = next() % 1_000_000;
        map.insert(k, k);
    }
    let hits = (0..200_000)
        .filter(|_| map.contains_key(&(next() % 1_000_000)))
        .count() as u64;
    let mut v: Vec<u64> = (0..200_000).map(|_| next()).collect();
    v.sort_unstable();
    hits + v[v.len() / 2] % 7 + map.len() as u64
}

/// Seconds one unit takes now: the median of three.
pub fn sample() -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(unit());
            started.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The factor that turns host seconds measured beside `sample` into
/// reference-host seconds.
pub fn factor(sample: f64) -> f64 {
    REFERENCE_UNIT_S / sample
}
