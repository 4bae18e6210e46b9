//! Footprint gate: what one indexed label costs in heap blocks and bytes,
//! for the growing [`LabelIndex`] and for the frozen [`SharedLabelIndex`]
//! every retained snapshot version holds.
//!
//! The workspace's counting allocator (`tests/support/counting_alloc.rs`)
//! measures the blocks and net bytes the test thread leaves live by
//! building an index over a fixed seeded 5 000-label corpus.
//! Both are pure functions of the corpus: every table under a label is a
//! flat vector whose size depends on counts only, never on hash seeds. So
//! the **block count is asserted exactly** — one block per entry (its
//! token sequence) plus a constant number of flat tables — and the
//! **bytes are held under a ceiling** that sits well below what the
//! per-key hash-map layout cost on the same corpus (the parent-commit
//! figures are recorded below; the test prints both as a table).
//!
//! The counters are process-global, so this file holds a single `#[test]`
//! — its own process — and prints only after the last measurement.

use ltee_index::LabelIndex;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::heap;
#[path = "../../../tests/support/seeded_words.rs"]
mod seeded_words;
use seeded_words::SplitMix64;

const SYLLABLES: [&str; 28] = [
    "ka", "ri", "to", "mün", "chen", "berg", "ville", "san", "ta", "lo", "mar", "ne", "os", "wick",
    "ford", "ham", "el", "ya", "zu", "pe", "dro", "gar", "field", "ston", "ó", "li", "brook", "ash",
];

fn word(rng: &mut SplitMix64) -> String {
    seeded_words::word(rng, &SYLLABLES)
}

/// `count` entity-like labels: one to four tokens, most drawn with a skew
/// from a shared pool (head tokens recur across hundreds of labels), the
/// rest fresh words or one-deletion typos of pool words — so the
/// vocabulary keeps growing with the corpus, as it does in a served class
/// — plus numeric suffixes, mixed case and bracketed qualifiers for the
/// normaliser to strip.
fn corpus(seed: u64, count: usize) -> Vec<String> {
    let mut rng = SplitMix64(seed);
    let pool: Vec<String> = (0..1200).map(|_| word(&mut rng)).collect();
    (0..count)
        .map(|_| {
            let tokens = [1, 2, 2, 2, 2, 3, 3, 3, 4, 2][rng.below(10)];
            let mut label = String::new();
            for t in 0..tokens {
                if t > 0 {
                    label.push(' ');
                }
                let ceiling = rng.below(pool.len()) + 1;
                let skewed = rng.below(ceiling);
                match rng.below(10) {
                    0..=6 => label.push_str(&pool[skewed]),
                    7 | 8 => label.push_str(&word(&mut rng)),
                    _ => {
                        let source = &pool[skewed];
                        let drop = rng.below(source.chars().count());
                        label.extend(source.chars().enumerate().filter(|&(i, _)| i != drop).map(|(_, c)| c));
                    }
                }
            }
            match rng.below(20) {
                0..=2 => label.push_str(&format!(" {}", rng.below(400))),
                3 | 4 => label.push_str(" (Live)"),
                5 => label = label.to_uppercase(),
                _ => {}
            }
            label
        })
        .collect()
}

const SEED: u64 = 17;
const LABELS: usize = 5_000;

/// Flat tables behind a growing index, each one heap block however many
/// labels it holds: the entry vector; the interner's arena, span table
/// and probe table; span table + slot arena for the postings and again
/// for the exact-label blocks; the token-length table and the deletion
/// neighborhood's bucket and node vectors.
const MUTABLE_TABLE_BLOCKS: i64 = 1 + 3 + 2 + 2 + 3;
/// Freezing adds the two `Arc` boxes (interner, tables).
const FROZEN_TABLE_BLOCKS: i64 = MUTABLE_TABLE_BLOCKS + 2;

/// The same measurement at the parent commit — a hash-map slot and a
/// heap vector per key under the postings, the exact-label blocks, the
/// deletion neighborhood and the interner, two vectors per token
/// sequence — on this corpus: `(blocks per label, bytes per label)`.
/// Printed for comparison only; nothing is asserted against them.
const PARENT_MUTABLE: (f64, f64) = (12.590, 1029.4);
const PARENT_FROZEN: (f64, f64) = (12.591, 1029.4);

/// Ceilings on net live bytes per label — a few percent above what the
/// flat layout measures (527.9 growing, half of it the doubling slack of
/// vectors still being pushed to; 351.4 frozen), and below 65 % of the
/// parent's figures.
const MUTABLE_BYTES_PER_LABEL_CEILING: f64 = 540.0;
const FROZEN_BYTES_PER_LABEL_CEILING: f64 = 360.0;

#[test]
fn blocks_per_label_are_exact_and_bytes_per_label_stay_under_the_ceiling() {
    let labels = corpus(SEED, LABELS);
    // An entry owns a heap block — its token sequence — unless its label
    // normalises to no tokens at all.
    let with_tokens = labels.iter().filter(|l| l.chars().any(char::is_alphanumeric)).count() as i64;

    counting_alloc::count_this_thread(true);
    let start = heap();
    let mut index = LabelIndex::new();
    for (id, label) in labels.iter().enumerate() {
        index.insert(id as u64, label);
    }
    let built = heap();
    let shared = index.into_shared();
    let frozen = heap();

    assert_eq!(shared.len(), LABELS);
    let per_label = |value: i64| value as f64 / LABELS as f64;
    let (mutable, sealed) = (built - start, frozen - start);
    println!("index footprint, {LABELS} labels (seed {SEED}), {} distinct strings", shared.interner().len());
    println!("{:<24} {:>14} {:>14}", "", "blocks/label", "bytes/label");
    for (name, (blocks, bytes)) in [
        ("parent, growing", PARENT_MUTABLE),
        ("parent, frozen", PARENT_FROZEN),
        ("flat, growing", (per_label(mutable.blocks), per_label(mutable.bytes))),
        ("flat, frozen", (per_label(sealed.blocks), per_label(sealed.bytes))),
    ] {
        println!("{name:<24} {blocks:>14.3} {bytes:>14.1}");
    }
    println!(
        "allocator calls while building: {:.2} per label; while freezing: {}",
        mutable.calls as f64 / LABELS as f64,
        (frozen - built).calls
    );

    assert_eq!(mutable.blocks, with_tokens + MUTABLE_TABLE_BLOCKS, "live blocks, growing index");
    assert_eq!(sealed.blocks, with_tokens + FROZEN_TABLE_BLOCKS, "live blocks, frozen index");
    for (name, bytes, ceiling) in [
        ("growing", per_label(mutable.bytes), MUTABLE_BYTES_PER_LABEL_CEILING),
        ("frozen", per_label(sealed.bytes), FROZEN_BYTES_PER_LABEL_CEILING),
    ] {
        assert!(bytes <= ceiling, "{name} index: {bytes:.1} B per label, ceiling {ceiling}");
    }
}
