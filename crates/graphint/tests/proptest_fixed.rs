//! `svg::fixed` against `format!`: byte-identical output for random bit
//! patterns, for random values in the ranges charts draw at, and for a
//! deterministic sweep of the values nearest every rounding boundary.

use graphint::svg::fixed;
use proptest::prelude::*;
use std::fmt::Write as _;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn matches_format_on_random_bit_patterns(bits in 0..=u64::MAX, decimals in 0usize..=4) {
        check_around(f64::from_bits(bits), 0, decimals, &mut String::new(), &mut String::new());
    }

    #[test]
    fn matches_format_on_drawing_ranges(
        x in -1e9..1e9f64,
        scale in 0i32..=9,
        decimals in 0usize..=12,
    ) {
        // Spread the magnitudes over 10^-9 .. 10^9.
        let x = x / 10f64.powi(scale);
        check_around(x, 0, decimals, &mut String::new(), &mut String::new());
    }
}

/// Checks every value within `radius` ulps of `x` at `decimals` places,
/// reusing both buffers; panics on the first mismatch.
fn check_around(x: f64, radius: usize, decimals: usize, got: &mut String, want: &mut String) {
    let mut y = x;
    for _ in 0..radius {
        y = y.next_down();
    }
    for _ in 0..=2 * radius {
        got.clear();
        want.clear();
        fixed(got, y, decimals);
        write!(want, "{y:.decimals$}").expect("writing to a String");
        assert_eq!(got, want, "fixed({y:e}, {decimals})");
        y = y.next_up();
    }
}

#[test]
fn matches_format_next_to_every_rounding_boundary() {
    // k/10^d is a printed value, (k + 1/2)/10^d a half-way point; both
    // ± 5 ulps, split over two threads by the sign of k.
    std::thread::scope(|scope| {
        for ks in [-1_000_000i64..=0, 1..=1_000_000] {
            scope.spawn(move || {
                let (mut got, mut want) = (String::new(), String::new());
                for decimals in 0..=2usize {
                    let pow = 10f64.powi(decimals as i32);
                    for k in ks.clone() {
                        for x in [k as f64 / pow, (k as f64 + 0.5) / pow] {
                            check_around(x, 5, decimals, &mut got, &mut want);
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn matches_format_on_special_values_and_past_the_fast_range() {
    let (mut got, mut want) = (String::new(), String::new());
    let specials = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        5e-324,
        -5e-324,
        -0.001,
        0.125,
        -0.125,
        2.5,
        f64::MAX,
        f64::MIN,
        1e300,
        -1e22,
        4_503_599_627_370_495.5,
    ];
    for decimals in 0..=12usize {
        for &x in &specials {
            check_around(x, 0, decimals, &mut got, &mut want);
        }
        // Either side of the edge of the hand-written range.
        let edge = (1u64 << 26) as f64 / 10f64.powi(decimals as i32);
        check_around(edge, 5, decimals, &mut got, &mut want);
        check_around(-edge, 5, decimals, &mut got, &mut want);
    }
}
