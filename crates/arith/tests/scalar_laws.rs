//! Laws tying the four [`Scalar`] instances together: `f64` is the
//! native arithmetic bit for bit, [`Enclosure`] contains both the `f64`
//! and the exact result, and [`LazyRational`] reduces to exactly what
//! [`BigRational`] computes.

use kya_arith::{BigRational, Enclosure, LazyRational, Scalar};
use proptest::prelude::*;

/// Finite f64s with a random sign and mantissa over 120 binades.
fn finite() -> impl Strategy<Value = f64> {
    (any::<u64>(), -60i32..60).prop_map(|(bits, e)| {
        let unit = f64::from_bits((bits & 0x800f_ffff_ffff_ffff) | (1023u64 << 52));
        unit * 2f64.powi(e)
    })
}

fn q(v: f64) -> BigRational {
    BigRational::lift(v)
}

fn lazy(v: f64) -> LazyRational {
    LazyRational::lift(v)
}

fn enc(v: f64) -> Enclosure {
    Enclosure::lift(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f64_ops_are_the_native_ops(a in finite(), b in finite(), d in 1usize..1000) {
        prop_assert_eq!(Scalar::add(&a, &b).to_bits(), (a + b).to_bits());
        prop_assert_eq!(Scalar::sub(&a, &b).to_bits(), (a - b).to_bits());
        prop_assert_eq!(Scalar::mul(&a, &b).to_bits(), (a * b).to_bits());
        prop_assert_eq!(a.div_degree(d).to_bits(), (a / d as f64).to_bits());
        prop_assert_eq!(a.ratio(&b).to_bits(), (a / b).to_bits());
        prop_assert_eq!(f64::lift(a).to_bits(), a.to_bits());
        prop_assert_eq!(Scalar::is_positive(&a), a > 0.0);
        prop_assert_eq!(<f64 as Scalar>::zero().to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(<f64 as Scalar>::one().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn enclosure_ops_contain_f64_and_exact_results(
        a in finite(),
        b in finite(),
        d in 1usize..1000,
    ) {
        let (ea, eb) = (enc(a), enc(b));
        let (qa, qb) = (q(a), q(b));
        let cases = [
            (Scalar::add(&ea, &eb), a + b, &qa + &qb),
            (Scalar::sub(&ea, &eb), a - b, &qa - &qb),
            (Scalar::mul(&ea, &eb), a * b, &qa * &qb),
            (ea.div_degree(d), a / d as f64, qa.div_degree(d)),
            (ea.ratio(&eb), a / b, qa.ratio(&qb)),
        ];
        for (e, f, exact) in cases {
            prop_assert!(e.contains(f));
            prop_assert!(e.contains_rational(&exact));
        }
    }

    /// A Metropolis-shaped chain `acc + w · (x − acc)` with `w = 1/d`:
    /// containment survives composition on non-point enclosures.
    #[test]
    fn enclosure_chains_contain_f64_and_exact_results(
        acc in finite(),
        x in finite(),
        d in 1usize..1000,
    ) {
        let step = |acc: &Enclosure, x: &Enclosure| {
            let w = Enclosure::one().div_degree(d);
            acc.add(&w.mul(&x.sub(acc)))
        };
        let e = step(&step(&enc(acc), &enc(x)), &enc(x));
        let fstep = |acc: f64, x: f64| acc + (1.0 / d as f64) * (x - acc);
        let qstep = |acc: &BigRational, x: &BigRational| {
            let w = BigRational::one().div_degree(d);
            acc.add(&w.mul(&x.sub(acc)))
        };
        prop_assert!(e.contains(fstep(fstep(acc, x), x)));
        prop_assert!(e.contains_rational(&qstep(&qstep(&q(acc), &q(x)), &q(x))));
    }

    #[test]
    fn lazy_ops_reduce_to_eager_results(a in finite(), b in finite(), d in 1usize..1000) {
        let (la, lb) = (lazy(a), lazy(b));
        let (qa, qb) = (q(a), q(b));
        prop_assert_eq!(la.reduce(), qa.clone());
        prop_assert_eq!(Scalar::add(&la, &lb).reduce(), &qa + &qb);
        prop_assert_eq!(Scalar::sub(&la, &lb).reduce(), &qa - &qb);
        prop_assert_eq!(Scalar::mul(&la, &lb).reduce(), &qa * &qb);
        prop_assert_eq!(la.div_degree(d).reduce(), qa.div_degree(d));
        prop_assert_eq!(la.ratio(&lb), qa.ratio(&qb));
        prop_assert_eq!(Scalar::is_positive(&la), qa.is_positive());
        for leaders in [None, Some(3)] {
            prop_assert_eq!(
                LazyRational::frequency(&la, &lb, leaders),
                BigRational::frequency(&qa, &qb, leaders)
            );
        }
    }
}

#[test]
fn frequency_rule_for_a_weight_not_certainly_positive() {
    assert_eq!(f64::frequency(&1.0, &0.0, None), Some(f64::INFINITY));
    assert_eq!(f64::frequency(&1.0, &0.0, Some(2)), Some(f64::INFINITY));
    assert_eq!(f64::frequency(&1.0, &4.0, Some(2)), Some(0.5));
    assert_eq!(
        Enclosure::frequency(&Enclosure::one(), &Enclosure::zero(), None),
        Some(Enclosure::ENTIRE)
    );
    assert_eq!(
        BigRational::frequency(&BigRational::one(), &BigRational::zero(), None),
        None
    );
    assert_eq!(
        LazyRational::frequency(&LazyRational::one(), &LazyRational::zero(), None),
        None
    );
    assert_eq!(
        BigRational::frequency(&BigRational::one(), &BigRational::from_integer(4), Some(2)),
        Some(BigRational::from_i64(1, 2))
    );
}
