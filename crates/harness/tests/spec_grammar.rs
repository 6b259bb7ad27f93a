//! Property test over the graph, value and churn-label spec grammars:
//! every spec either parses to what it names or is a typed
//! [`SpecError`] — never a panic, an abort or a hang.
//!
//! Graph specs cover every family with small parameters, zeros and
//! over-capacity `EXTRA` counts included; a parsed graph must have the
//! agent count the spec names, and `random`/`randbi` graphs the edge
//! count too. Value lists mix plain values, small `VxK` repeats and
//! repeat counts past [`GRAPH_BUDGET`]. Churn labels are random window
//! lists (rejoining or departing, carry or `+reset`) that must survive
//! a label round trip, and the same labels broken in one place, which
//! must fail typed.

use kya_harness::spec::{parse_graph, parse_values, ChurnSpec, SpecError, GRAPH_BUDGET};
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

/// Random churn windows `(agent, leave, rejoin)`; a `None` rejoin
/// departs for good.
fn churn_windows(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(usize, u64, Option<u64>)>> {
    let rejoin = (0u64..1000, any::<bool>()).prop_map(|(r, back)| back.then_some(r));
    collection::vec((0usize..100, 0u64..1000, rejoin), len)
}

/// A churn template from `(agent, leave, rejoin)` windows (`None`
/// departs for good), under the reset policy when `reset`.
fn churn_spec(windows: &[(usize, u64, Option<u64>)], reset: bool) -> ChurnSpec {
    let mut spec = ChurnSpec::stable();
    for &(agent, leave, rejoin) in windows {
        spec = match rejoin {
            Some(rejoin) => spec.leave(agent, leave..rejoin),
            None => spec.depart(agent, leave),
        };
    }
    if reset {
        spec.reset()
    } else {
        spec
    }
}

/// The churn label of `windows` broken in one of six ways, picked by
/// `how`, at window `at`: a missing field, a non-numeric round, an
/// empty body `c`, a trailing comma, `stable+reset`, an extra field.
fn malformed_churn_label(windows: &[(usize, u64, Option<u64>)], how: usize, at: usize) -> String {
    const JUNK: [&str; 4] = ["x", "", "1.5", "-3"];
    let label = churn_spec(windows, false).label();
    let mut parts: Vec<String> = label[1..].split(',').map(str::to_string).collect();
    let at = at % parts.len();
    let (agent, leave, _) = windows[at];
    match how {
        0 => parts[at] = format!("{agent}:{leave}"),
        1 => parts[at] = format!("{agent}:{}:-", JUNK[leave as usize % JUNK.len()]),
        2 => return "c".to_string(),
        3 => parts.push(String::new()),
        4 => return "stable+reset".to_string(),
        _ => parts[at].push_str(":7"),
    }
    format!("c{}", parts.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn churn_labels_round_trip(
        windows in churn_windows(0..5),
        reset in any::<bool>(),
    ) {
        let spec = churn_spec(&windows, reset);
        let label = spec.label();
        let parsed = ChurnSpec::parse(&label);
        prop_assert!(parsed.is_ok(), "`{}`: {:?}", label, parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.label(), label);
        // The policy rides only on a non-stable label.
        if !windows.is_empty() {
            prop_assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn malformed_churn_labels_fail_typed(
        windows in churn_windows(1..5),
        how in 0usize..6,
        at in 0usize..5,
        reset in any::<bool>(),
    ) {
        let mut label = malformed_churn_label(&windows, how, at);
        if reset && label != "stable+reset" {
            label.push_str("+reset");
        }
        let parsed: Result<ChurnSpec, SpecError> = ChurnSpec::parse(&label);
        prop_assert!(parsed.is_err(), "`{}` parsed to {:?}", label, parsed);
    }

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
