//! Footprint gate for the state a serving class accumulates per ingested
//! row: the PHI statistics and frozen table vectors of [`StreamingPhi`],
//! and the bag-of-words vector every row context keeps.
//!
//! The workspace's counting allocator (`tests/support/counting_alloc.rs`)
//! measures live heap blocks and net live bytes. Both layouts are integer
//! tables, so what is asserted is structural: `StreamingPhi` owns no heap block per co-occurrence pair,
//! per vector component or per label string — its blocks grow with the
//! number of labels and tables only — and a `BowVector` is two blocks
//! whatever its term count. The bytes are held under ceilings a little
//! above what the layouts measure on a fixed seeded stream; the figures of
//! the string-keyed layouts they replaced (measured once, on the same
//! stream, from the oracles kept in the crates' unit tests) are printed
//! beside them.
//!
//! The allocator is process-global, so this file holds a single `#[test]`
//! — its own process. It counts the test thread's allocations only and
//! prints only after the last measurement.

use ltee_clustering::StreamingPhi;
use ltee_text::BowVector;
use ltee_webtables::TableId;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// `(live blocks, net live bytes)` of the test thread so far.
fn heap() -> (i64, i64) {
    let heap = counting_alloc::heap();
    (heap.blocks, heap.bytes)
}

#[path = "../../../tests/support/seeded_words.rs"]
mod seeded_words;
use seeded_words::SplitMix64;

const SYLLABLES: [&str; 20] = [
    "ka", "ri", "to", "mün", "chen", "berg", "ville", "san", "ta", "lo", "mar", "ne", "os", "wick", "ford",
    "ham", "el", "ó", "li", "brook",
];

fn word(rng: &mut SplitMix64) -> String {
    seeded_words::word(rng, &SYLLABLES)
}

/// `tables` tables of 6 to 29 normalised row labels each: one- and
/// two-word labels, most drawn with a skew from a shared pool (head
/// entities recur across many tables, and now and then twice in one), the
/// rest new to the stream — so labels, co-occurrence pairs and vector
/// components all keep growing, as they do in a served class.
fn label_stream(seed: u64, tables: usize) -> Vec<(TableId, Vec<String>)> {
    let mut rng = SplitMix64(seed);
    let pool: Vec<String> = (0..400)
        .map(|_| if rng.below(2) == 0 { word(&mut rng) } else { format!("{} {}", word(&mut rng), word(&mut rng)) })
        .collect();
    (0..tables)
        .map(|table| {
            let labels = (0..6 + rng.below(24))
                .map(|_| {
                    if rng.below(5) == 0 {
                        word(&mut rng)
                    } else {
                        let ceiling = rng.below(pool.len()) + 1;
                        pool[rng.below(ceiling)].clone()
                    }
                })
                .collect();
            (TableId(table as u64), labels)
        })
        .collect()
}

const SEED: u64 = 23;
const TABLES: usize = 96;

/// Heap blocks of a `StreamingPhi` that do not depend on what it holds:
/// the label interner's arena, span table and probe table, the occurrence
/// table, the table of adjacency lists and the table-vector map.
const PHI_TABLE_BLOCKS: i64 = 3 + 1 + 1 + 1;

/// The same stream through the string-keyed layout — label strings as the
/// keys of nested hash maps, one heap string per vector component, now the
/// oracle in `src/phi_oracle.rs` — measured once, with this file, at the
/// commit before the change: net live bytes per co-occurrence pair
/// (statistics) and per vector component (frozen vectors), live blocks and
/// bytes in all. Printed for comparison; the ceilings below sit at or under
/// 40 % of the per-pair and per-component figures.
const STRING_KEYED_BYTES_PER_PAIR: f64 = 70.7;
const STRING_KEYED_BYTES_PER_ENTRY: f64 = 44.2;
const STRING_KEYED_BLOCKS: i64 = 57_093;
const STRING_KEYED_BYTES: i64 = 3_188_483;

/// Ceilings on net live bytes. The integer tables measure 12.5 B per pair
/// (a sym and a `u32` count, plus the slack of lists still growing) and
/// 16.9 B per component (a sym and an `f64`, plus the label interner and
/// the table map spread over them); the ceilings give the pairs 10 %
/// head-room and hold the components at 40 % of the string-keyed figure.
const BYTES_PER_PAIR_CEILING: f64 = 13.75;
const BYTES_PER_ENTRY_CEILING: f64 = 17.68;

/// Bag sizes measured, and what each bag cost as a sorted set of owned
/// strings (`(blocks, bytes)`; now the oracle in `ltee-text`'s `vector.rs`,
/// measured the same way). The arena costs one `u32` offset per term
/// beyond the term bytes.
const BAG_TERMS: [usize; 5] = [1, 8, 64, 512, 4096];
const STRING_SET_BAGS: [(i64, i64); 5] = [(2, 294), (9, 354), (72, 2990), (579, 25_371), (4647, 212_846)];
const ARENA_BYTES_PER_TERM: i64 = 4;

#[test]
fn stream_state_is_integer_tables_with_no_block_per_pair_entry_or_term() {
    let tables = label_stream(SEED, TABLES);
    counting_alloc::count_this_thread(true);

    let start = heap();
    let mut phi = StreamingPhi::new();
    for (table, labels) in &tables {
        phi.add_table(*table, labels);
    }
    let built = heap();
    // The frozen vectors (label interner included) are what scoring reads;
    // a clone measures them alone, and the statistics are the rest.
    let frozen_alone = phi.vectors().clone();
    let cloned = heap();
    drop(frozen_alone);

    let (labels, pairs, entries) = (phi.vectors().label_count(), phi.pair_count(), phi.vectors().entry_count());
    let phi_blocks = built.0 - start.0;
    let frozen_bytes = cloned.1 - built.1;
    let stats_bytes = built.1 - start.1 - frozen_bytes;
    let per_pair = stats_bytes as f64 / pairs as f64;
    let per_entry = frozen_bytes as f64 / entries as f64;

    // Bags of 1 to 4 096 distinct terms (and a few repeats): built in one
    // go, as a row context's is, and grown text by text.
    let mut bag_rows = Vec::new();
    for terms in BAG_TERMS {
        let mut rng = SplitMix64(terms as u64);
        let text: Vec<String> = (0..terms).map(|t| format!("{}{t}", word(&mut rng))).collect();
        let cells: Vec<String> = text.chunks(5).map(|cell| cell.join(" ")).collect();
        let term_bytes: i64 = text.iter().map(|t| t.len() as i64).sum();

        let before = heap();
        let bag = BowVector::from_texts(cells.iter().map(String::as_str).chain(cells.first().map(String::as_str)));
        let sealed = heap();
        let mut grown = BowVector::new();
        for cell in &cells {
            grown.add_text(cell);
        }
        let growing = heap();
        assert_eq!(bag.len(), terms);
        assert!(grown == bag);
        bag_rows.push((
            terms,
            term_bytes,
            (sealed.0 - before.0, sealed.1 - before.1),
            (growing.0 - sealed.0, growing.1 - sealed.1),
        ));
    }

    println!(
        "stream state footprint, {TABLES} tables (seed {SEED}): {labels} labels, {pairs} co-occurrence pairs, \
         {entries} vector components, {} frozen tables",
        phi.table_count()
    );
    println!("{:<36} {:>12} {:>12}", "StreamingPhi", "string keys", "sym keys");
    println!("{:<36} {:>12} {:>12}", "heap blocks", STRING_KEYED_BLOCKS, phi_blocks);
    println!("{:<36} {:>12.1} {:>12.1}", "statistics, bytes per pair", STRING_KEYED_BYTES_PER_PAIR, per_pair);
    println!("{:<36} {:>12.1} {:>12.1}", "frozen vectors, bytes per component", STRING_KEYED_BYTES_PER_ENTRY, per_entry);
    println!("{:<36} {:>12} {:>12}", "total bytes", STRING_KEYED_BYTES, built.1 - start.1);
    println!(
        "{:<8} {:>10}   {:>18} {:>18} {:>18}",
        "BowVector", "term bytes", "string set (blk, B)", "arena (blk, B)", "growing (blk, B)"
    );
    for ((terms, term_bytes, sealed, growing), string_set) in bag_rows.iter().zip(STRING_SET_BAGS) {
        println!(
            "{terms:>9} {term_bytes:>10}   {:>18} {:>18} {:>18}",
            format!("{string_set:?}"),
            format!("{sealed:?}"),
            format!("{growing:?}")
        );
    }

    // No block per pair, per component or per label string: at most one
    // adjacency list per label and one vector per table.
    assert!(pairs > 8 * labels && entries > 8 * TABLES, "the stream is too thin to tell");
    assert!(
        phi_blocks <= PHI_TABLE_BLOCKS + labels as i64 + TABLES as i64,
        "{phi_blocks} live blocks for {labels} labels and {TABLES} tables"
    );
    assert!(per_pair <= BYTES_PER_PAIR_CEILING, "{per_pair:.1} B per pair, ceiling {BYTES_PER_PAIR_CEILING}");
    assert!(per_entry <= BYTES_PER_ENTRY_CEILING, "{per_entry:.1} B per component, ceiling {BYTES_PER_ENTRY_CEILING}");

    for (terms, term_bytes, sealed, growing) in bag_rows {
        // Built in one go: the arena and the offsets, exactly sized.
        assert!(sealed.0 <= 2, "{terms} terms: {} blocks", sealed.0);
        assert!(sealed.1 <= term_bytes + ARENA_BYTES_PER_TERM * terms as i64, "{terms} terms: {} B", sealed.1);
        // Still growing: the same two blocks, at most doubled.
        assert!(growing.0 <= 2, "{terms} terms, growing: {} blocks", growing.0);
        assert!(
            growing.1 <= 2 * (term_bytes + ARENA_BYTES_PER_TERM * terms as i64).max(16),
            "{terms} terms, growing: {} B",
            growing.1
        );
    }
}
