//! Set-up: the trained world every run shares, and the seeded inputs —
//! the served table stream and the query schedule — of one run.
//!
//! The program under test receives only [`Corpus`] batches and [`Query`]
//! values; the seed never reaches it.

use std::collections::HashSet;
use std::time::Instant;

use ltee_core::prelude::*;
use ltee_serve::{EntityRef, Query};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::plan::{Mix, Plan, WORLD_SEED};
use crate::rng::{derive, stream, Fnv, Zipf};

/// Entity ids a fetch draws from, and pages a listing draws from.
const FETCH_IDS: usize = 128;
const PAGES: usize = 16;
const PAGE_LEN: usize = 20;

/// The world, the trained models and the pinned pipeline configuration.
#[derive(Debug)]
pub struct Base {
    /// The synthetic world (knowledge base + long-tail ground truth).
    pub world: World,
    /// Models trained once on the plan's training corpus.
    pub models: TrainedModels,
    /// `PipelineConfig::fast()` with threads and shards pinned.
    pub config: PipelineConfig,
    /// Cores the host reports.
    pub nproc: usize,
    /// Worker threads of the program's pool: `min(nproc, 4)`.
    pub threads: usize,
    /// Seconds spent in `train_models`.
    pub train_s: f64,
}

impl Base {
    /// Generate the world and train the models.
    pub fn build(plan: &Plan) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = nproc.min(4);
        pin_malloc_arenas(threads);
        // Pinned in code so LTEE_NUM_THREADS / LTEE_NUM_SHARDS cannot
        // change what is measured.
        let config = PipelineConfig {
            parallelism: Parallelism::Threads(threads),
            shards: ShardPlan::Shards(1),
            ..PipelineConfig::fast()
        };
        config.parallelism.install();
        let world = generate_world(&GeneratorConfig::new(plan.world, WORLD_SEED));
        let corpus = generate_corpus(&world, &plan.train);
        let golds: Vec<GoldStandard> = CLASS_KEYS
            .iter()
            .map(|&c| GoldStandard::build(&world, &corpus, c))
            .collect();
        let start = Instant::now();
        let models = train_models(&corpus, world.kb(), &golds, &config)
            .expect("the training corpus is trainable");
        let train_s = start.elapsed().as_secs_f64();
        Self {
            world,
            models,
            config,
            nproc,
            threads,
            train_s,
        }
    }

    /// Closed-loop query clients of a round: `min(nproc, 4)`.
    pub fn clients(&self) -> usize {
        self.nproc.min(4)
    }
}

/// Cap glibc's malloc at one arena per pool thread. Left alone it hands
/// arenas to threads as they come and go (up to eight per core), and how
/// the heap fragments across them differs from run to run: peak resident
/// memory of identical runs then spreads 5-14 %, with the cap 1 %.
/// Throughput is unchanged. Other allocators have no such knob, and need
/// none.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas(arenas: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt(M_ARENA_MAX, n)` only stores a limit that later
    // arena creation reads; it touches no memory the program owns.
    unsafe {
        mallopt(M_ARENA_MAX, arenas as i32);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas(_arenas: usize) {}

/// The seeded inputs of one run.
#[derive(Debug)]
pub struct Load {
    /// Micro-batches in stream order (preload first).
    pub batches: Vec<Corpus>,
    /// The query schedule one round replays.
    pub schedule: Vec<Query>,
    /// FNV-1a over the streamed table ids and every query's `Debug`.
    pub schedule_digest: u64,
}

impl Load {
    /// Generate the table stream and the query schedule for `seed`.
    pub fn generate(base: &Base, plan: &Plan, seed: u64) -> Self {
        let tables = plan.tables();
        // Which tables exist is fixed (like the world): cost per row depends
        // strongly on a corpus's content, so seeding the content would make
        // runs of different seeds incomparable.
        let corpus = generate_corpus(
            &base.world,
            &CorpusConfig {
                tables_per_class: tables.div_ceil(CLASS_KEYS.len()),
                seed: derive(WORLD_SEED, "served-corpus"),
                ..plan.serve.clone()
            },
        );
        // The generator emits class after class; a fixed shuffle makes all
        // three classes grow together, as a crawl would deliver them.
        let mut stream_tables = corpus.tables().to_vec();
        stream_tables.shuffle(&mut stream(WORLD_SEED, "served-order"));
        stream_tables.truncate(tables);
        let mut batches: Vec<Corpus> = stream_tables
            .chunks(plan.batch_tables)
            .map(|chunk| Corpus::from_tables(chunk.to_vec()))
            .collect();
        // The seed decides the order the micro-batches arrive in, inside
        // windows of one WAL tail's worth of batches. Every seed streams
        // the same batches, and every checkpoint and the final WAL tail
        // hold the same tables, so work per stream and bytes on disk stay
        // comparable across seeds; what a batch finds already in the
        // knowledge base, the queries and the typos differ with every seed.
        let mut order = stream(seed, "corpus-shuffle");
        for window in batches.chunks_mut(plan.tail_batches()) {
            window.shuffle(&mut order);
        }

        let universe = Universe::rank(&base.world);
        let schedule = match plan.mix {
            Mix::Hot => universe.hot_schedule(seed, plan.schedule_len),
            Mix::FuzzyScan => universe.fuzzy_schedule(seed, plan.schedule_len),
        };

        let mut digest = Fnv::default();
        for table in batches.iter().flat_map(|batch| batch.tables()) {
            digest.write_u64(table.id.raw());
        }
        for query in &schedule {
            digest.write(format!("{query:?}").as_bytes());
        }
        Self {
            batches,
            schedule,
            schedule_digest: digest.finish(),
        }
    }

    /// Raw rows of batches `range`.
    pub fn rows(&self, range: std::ops::Range<usize>) -> usize {
        self.batches[range].iter().map(Corpus::total_rows).sum()
    }
}

/// The labels queries ask for: every target-class entity of the world,
/// most popular first.
struct Universe {
    entries: Vec<(ClassKey, String)>,
}

impl Universe {
    fn rank(world: &World) -> Self {
        let mut entities: Vec<_> = world.entities.iter().filter(|e| !e.confusable).collect();
        entities.sort_by(|a, b| b.popularity.cmp(&a.popularity).then(a.id.cmp(&b.id)));
        Self {
            entries: entities
                .into_iter()
                .map(|e| (e.class, e.canonical_label.clone()))
                .collect(),
        }
    }

    fn hot_schedule(&self, seed: u64, len: usize) -> Vec<Query> {
        let mut rng = stream(seed, "query-schedule");
        let mut typos = stream(seed, "typos");
        let labels = Zipf::new(self.entries.len(), 1.1);
        let ids = Zipf::new(FETCH_IDS, 1.1);
        let pages = Zipf::new(PAGES, 1.1);
        (0..len)
            .map(|_| {
                let kind: f64 = rng.gen();
                let (class, label) = &self.entries[labels.sample(&mut rng)];
                if kind < 0.4 {
                    Query::Exact {
                        class: None,
                        label: label.clone(),
                    }
                } else if kind < 0.7 {
                    Query::Fuzzy {
                        class: Some(*class),
                        label: with_typos(label, 1, &mut typos),
                        k: 5,
                    }
                } else if kind < 0.9 {
                    let id = ids.sample(&mut rng) as u32;
                    Query::Entity {
                        entity: EntityRef { class: *class, id },
                    }
                } else {
                    let offset = pages.sample(&mut rng) * PAGE_LEN;
                    Query::List {
                        class: *class,
                        offset,
                        limit: PAGE_LEN,
                    }
                }
            })
            .collect()
    }

    fn fuzzy_schedule(&self, seed: u64, len: usize) -> Vec<Query> {
        let mut rng = stream(seed, "query-schedule");
        let mut typos = stream(seed, "typos");
        let mut seen = HashSet::new();
        let mut schedule = Vec::with_capacity(len);
        while schedule.len() < len {
            let (_, label) = &self.entries[rng.gen_range(0..self.entries.len())];
            let edits = rng.gen_range(1..=2);
            let label = with_typos(label, edits, &mut typos);
            // No query string repeats, so nothing a cache keeps is reused.
            if seen.insert(label.clone()) {
                schedule.push(Query::Fuzzy {
                    class: None,
                    label,
                    k: 10,
                });
            }
        }
        schedule
    }
}

/// `label` with `edits` random single-character edits (substitution,
/// deletion, insertion or adjacent transposition).
pub fn with_typos(label: &str, edits: usize, rng: &mut ChaCha8Rng) -> String {
    let mut chars: Vec<char> = label.chars().collect();
    for _ in 0..edits {
        let letter = (b'a' + rng.gen_range(0..26u8)) as char;
        let pos = rng.gen_range(0..chars.len().max(1));
        match rng.gen_range(0..4u8) {
            _ if chars.len() < 2 => chars.insert(pos.min(chars.len()), letter),
            0 => chars[pos] = letter,
            1 => {
                chars.remove(pos);
            }
            2 => chars.insert(pos, letter),
            _ => {
                let first = pos.min(chars.len() - 2);
                chars.swap(first, first + 1);
            }
        }
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, ScaleKind, Workload};

    #[test]
    fn typos_are_seeded_and_never_empty() {
        let draw = |seed| with_typos("yellow submarine", 2, &mut stream(seed, "typos"));
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), "yellow submarine");
        let mut rng = stream(9, "typos");
        for label in ["", "a", "ab", "abc"] {
            for _ in 0..50 {
                assert!(!with_typos(label, 2, &mut rng).is_empty());
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let p = plan(Workload::FuzzyScan, ScaleKind::Smoke, 1);
        let base = Base::build(&p);
        let (a, b, c) = (
            Load::generate(&base, &p, 42),
            Load::generate(&base, &p, 42),
            Load::generate(&base, &p, 43),
        );
        assert_eq!(a.schedule_digest, b.schedule_digest);
        assert_eq!(a.schedule, b.schedule);
        assert_ne!(a.schedule_digest, c.schedule_digest);
        assert_eq!(a.batches.len(), p.batches());
        assert!(a.batches.iter().all(|batch| batch.len() == p.batch_tables));
        let distinct: HashSet<_> = a.schedule.iter().map(|q| format!("{q:?}")).collect();
        assert_eq!(
            distinct.len(),
            a.schedule.len(),
            "fuzzy-scan never repeats a query"
        );

        let hot = plan(Workload::LookupHot, ScaleKind::Smoke, 1);
        let schedule = Load::generate(&base, &hot, 42).schedule;
        let share = |pred: fn(&Query) -> bool| {
            schedule.iter().filter(|q| pred(q)).count() as f64 / schedule.len() as f64
        };
        assert!((share(|q| matches!(q, Query::Exact { .. })) - 0.4).abs() < 0.05);
        assert!((share(|q| matches!(q, Query::Fuzzy { .. })) - 0.3).abs() < 0.05);
        assert!((share(|q| matches!(q, Query::Entity { .. })) - 0.2).abs() < 0.05);
    }
}
