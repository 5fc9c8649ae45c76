//! Behavioral tests of the MLM pre-training procedure (§3.5.2).

use preqr::{PreqrConfig, SqlBert, ValueBuckets};
use preqr_schema::{Column, ColumnType, Schema, Table};
use preqr_sql::parser::parse;
use preqr_sql::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(Table::new(
        "title",
        vec![
            Column::primary("id", ColumnType::Int),
            Column::new("production_year", ColumnType::Int),
            Column::new("kind_id", ColumnType::Int),
        ],
    ));
    s
}

fn corpus() -> Vec<Query> {
    (0..12)
        .map(|i| {
            parse(&format!(
                "SELECT COUNT(*) FROM title t WHERE t.production_year > {} AND t.kind_id = {}",
                1960 + i * 5,
                1 + i % 4
            ))
            .unwrap()
        })
        .collect()
}

fn buckets() -> ValueBuckets {
    let mut b = ValueBuckets::new(8);
    b.insert("title", "production_year", (1930..2020).map(f64::from).collect());
    b.insert("title", "kind_id", (1..8).map(f64::from).collect());
    b
}

fn model() -> SqlBert {
    SqlBert::new(&corpus(), &schema(), buckets(), PreqrConfig::test())
}

#[test]
fn masking_follows_the_80_10_10_split() {
    // Over many corruption draws, ~80% of selected positions become
    // [MASK], ~10% a random maskable token, ~10% stay unchanged.
    let m = model();
    let pq = m.prepare(&corpus()[0]);
    let mut rng = StdRng::seed_from_u64(42);
    let (mut masked, mut random, mut unchanged, mut total) = (0u32, 0u32, 0u32, 0u32);
    for _ in 0..800 {
        let (overrides, targets) = m.mlm_corrupt(&pq, &mut rng);
        for (i, &t) in targets.iter().enumerate() {
            if t == usize::MAX {
                continue;
            }
            total += 1;
            match overrides[i] {
                Some(id) if id == m.input().mask_id() => masked += 1,
                Some(_) => random += 1,
                None => unchanged += 1,
            }
        }
    }
    let f = |x: u32| f64::from(x) / f64::from(total);
    assert!((f(masked) - 0.8).abs() < 0.05, "mask fraction {}", f(masked));
    // The 10% "random token" draw can coincide with [MASK]'s bucket only
    // if [MASK] were maskable; it is not, so random+unchanged ≈ 20%.
    assert!((f(random) - 0.1).abs() < 0.04, "random fraction {}", f(random));
    assert!((f(unchanged) - 0.1).abs() < 0.04, "unchanged fraction {}", f(unchanged));
}

#[test]
fn mask_rate_is_about_15_percent_of_maskable_positions() {
    let m = model();
    let pq = m.prepare(&corpus()[1]);
    let maskable = pq.tokens.iter().filter(|t| t.maskable).count() as f64;
    let mut rng = StdRng::seed_from_u64(9);
    let mut chosen = 0.0f64;
    let rounds = 600;
    for _ in 0..rounds {
        let (_, targets) = m.mlm_corrupt(&pq, &mut rng);
        chosen += targets.iter().filter(|&&t| t != usize::MAX).count() as f64;
    }
    let rate = chosen / (maskable * f64::from(rounds));
    // The floor of "at least one mask" nudges the effective rate above
    // 0.15 on short sequences.
    assert!((0.13..0.30).contains(&rate), "mask rate {rate}");
}

/// Same templates as [`corpus`], literals it never contains.
fn held_out() -> Vec<Query> {
    (0..12)
        .map(|i| {
            parse(&format!(
                "SELECT COUNT(*) FROM title t WHERE t.production_year > {} AND t.kind_id = {}",
                1962 + i * 5,
                1 + (i + 2) % 4
            ))
            .unwrap()
        })
        .collect()
}

/// Eval-mode MLM over ten fixed corruption draws of every held-out
/// query (~180 masked tokens): (mean masked cross-entropy, accuracy).
fn held_out_score(m: &SqlBert) -> (f64, f64) {
    let prepared: Vec<_> = held_out().iter().map(|q| m.prepare(q)).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut loss, mut masked, mut correct) = (0.0, 0usize, 0usize);
    for _ in 0..10 {
        for pq in &prepared {
            let (l, n, c) = m.mlm_eval(pq, &mut rng);
            loss += l * n as f64;
            masked += n;
            correct += c;
        }
    }
    (loss / masked as f64, correct as f64 / masked as f64)
}

#[test]
fn pretraining_predicts_held_out_masked_tokens_at_every_seed() {
    // The claim must hold for each model seed, not for a lucky one. Over
    // seeds 0..12 held-out accuracy read 0.76-0.82 after training (≈0
    // before) and the loss fell to 0.20-0.24 of its untrained value.
    for seed in 0..4 {
        let mut m = SqlBert::new(
            &corpus(),
            &schema(),
            buckets(),
            PreqrConfig { seed, ..PreqrConfig::test() },
        );
        let (loss_before, _) = held_out_score(&m);
        m.pretrain(&corpus(), 10, 5e-3);
        let (loss_after, acc_after) = held_out_score(&m);
        assert!(
            loss_after < 0.4 * loss_before,
            "seed {seed}: held-out MLM loss {loss_before:.3} -> {loss_after:.3}"
        );
        assert!(acc_after > 0.6, "seed {seed}: held-out masked accuracy {acc_after:.2}");
    }
}

#[test]
fn targets_are_never_special_tokens() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(3);
    for q in corpus() {
        let pq = m.prepare(&q);
        let (_, targets) = m.mlm_corrupt(&pq, &mut rng);
        for &t in targets.iter().filter(|&&t| t != usize::MAX) {
            let tok = m.input().vocab().token(t).unwrap();
            assert!(
                !["[PAD]", "[UNK]", "[CLS]", "[END]", "[MASK]"].contains(&tok),
                "special token {tok} became an MLM target"
            );
        }
    }
}
