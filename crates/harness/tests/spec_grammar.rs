//! Property test over the graph and value spec grammars: every spec
//! either parses to what it names or is a typed [`SpecError`] — never a
//! panic, an abort or a hang.
//!
//! Graph specs cover every family with small parameters, zeros and
//! over-capacity `EXTRA` counts included; a parsed graph must have the
//! agent count the spec names, and `random`/`randbi` graphs the edge
//! count too. Value lists mix plain values, small `VxK` repeats and
//! repeat counts past [`GRAPH_BUDGET`].

use kya_harness::spec::{parse_graph, parse_values, SpecError, GRAPH_BUDGET};
use proptest::prelude::*;

/// A graph spec built from family index `family` and small parameters,
/// with the agent count and (for the random families) edge count it
/// names. `None` where the parameters name no graph.
fn graph_spec(
    family: usize,
    a: usize,
    b: usize,
    extra: usize,
    seed: u64,
) -> (String, Option<usize>, Option<usize>) {
    let pow = |base: usize, exp: usize| base.pow(exp as u32);
    let sized = |n: usize| (n > 0).then_some(n);
    let both = |n: usize| (a > 0 && b > 0).then_some(n);
    match family {
        0 => (format!("ring:{a}"), sized(a), None),
        1 => (format!("biring:{a}"), sized(a), None),
        2 => (format!("star:{a}"), sized(a), None),
        3 => (format!("path:{a}"), sized(a), None),
        4 => (format!("complete:{a}"), sized(a), None),
        5 => (format!("torus:{a}x{b}"), both(a * b), None),
        6 => (format!("torus:{a}"), sized(a), None),
        7 => (format!("hypercube:{a}"), Some(pow(2, a)), None),
        8 => (format!("debruijn:{a}x{b}"), both(pow(a, b)), None),
        // Kautz words of length 0 are legitimate: the complete graph.
        9 => (
            format!("kautz:{a}x{b}"),
            (a > 0).then_some(pow(a, b) * (a + 1)),
            None,
        ),
        10 => (format!("layered:{a}x{b}"), both(a * b), None),
        11 => (
            format!("random:{a}:{extra}:{seed}"),
            (a > 1 || (a == 1 && extra == 0)).then_some(a),
            Some(a + extra),
        ),
        _ => {
            let free = (a * a.saturating_sub(1) / 2).saturating_sub(a.saturating_sub(1));
            (
                format!("randbi:{a}:{extra}:{seed}"),
                (a > 0 && extra <= free).then_some(a),
                Some(2 * (a.saturating_sub(1) + extra)),
            )
        }
    }
}

/// One value-list item: empty, a plain value, a small repeat, or a
/// repeat past the budget. Returns the item and how many values it
/// names.
fn value_item(kind: usize, v: u64, k: usize, big: usize) -> (String, u128) {
    const BIG: [&str; 3] = ["16777217", "4294967296", "18446744073709551615"];
    match kind {
        0 => (String::new(), 0),
        1 => (v.to_string(), 1),
        2 => (format!("{v}x{k}"), k as u128),
        _ => (format!("{v}x{}", BIG[big]), BIG[big].parse().unwrap()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn graph_specs_parse_to_what_they_name_or_fail_typed(
        family in 0usize..13,
        a in 0usize..7,
        b in 0usize..5,
        extra in 0usize..12,
        seed in 0u64..1000,
    ) {
        let (spec, agents, edges) = graph_spec(family, a, b, extra, seed);
        let parsed: Result<_, SpecError> = parse_graph(&spec);
        match (parsed, agents) {
            (Ok(g), Some(n)) => {
                prop_assert_eq!(g.n(), n, "{}", spec);
                if let Some(e) = edges {
                    prop_assert_eq!(g.edge_count(), e, "{}", spec);
                }
            }
            (Err(_), None) => {}
            (Ok(g), None) => panic!("`{spec}` names no graph but parsed to {} agents", g.n()),
            (Err(e), Some(_)) => panic!("`{spec}` should parse: {e}"),
        }
    }

    #[test]
    fn value_lists_parse_to_what_they_name_or_fail_typed(
        items in collection::vec((0usize..4, 0u64..100, 0usize..5, 0usize..3), 0..6),
    ) {
        let mut expected = Vec::new();
        let mut total = 0u128;
        let mut parts = Vec::new();
        for &(kind, v, k, big) in &items {
            let (item, count) = value_item(kind, v, k, big);
            total += count;
            if total <= GRAPH_BUDGET as u128 {
                expected.extend(std::iter::repeat_n(v, count as usize));
            }
            parts.push(item);
        }
        let spec = parts.join(",");
        match parse_values(&spec) {
            Ok(values) => {
                prop_assert!(total > 0 && total <= GRAPH_BUDGET as u128, "`{}` parsed", spec);
                prop_assert_eq!(values, expected, "{}", spec);
            }
            Err(e) => {
                prop_assert!(total == 0 || total > GRAPH_BUDGET as u128, "`{}`: {}", spec, e);
            }
        }
    }
}
