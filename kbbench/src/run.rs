//! One benchmark run: set-up, then cycles of the three timed phases —
//! durable ingest stream, query rounds, cold recoveries — each verified.
//!
//! Every loop is closed, because the system is an in-process library whose
//! callers wait for a reply: the writer submits the next micro-batch when
//! the previous one is acknowledged, and each query client issues its next
//! query when the last one returns.
//!
//! The reference host is a 2-vCPU virtual machine on shared hardware:
//! depending on where the hypervisor has put the vCPUs and on what shares
//! their cores, allocation- and branch-heavy code runs up to 1.5x slower
//! (2.7x at worst), for milliseconds or for minutes, while its speed on a
//! quiet host repeats within 1-2 %. So a plain run repeats everything — [`CYCLES`] cycles, each ingesting
//! the same stream into a fresh store, replaying the same query rounds on
//! it and recovering it — and every timing is taken from the *quietest*
//! repeat of the smallest unit that can be matched across repeats: a
//! batch, a slice of a round, a query, a recovery. Interference only ever
//! adds time, so the minimum is the figure closest to what the program
//! costs. (It cannot help when a neighbour is busy for a whole run, which
//! is why `BENCHMARK.json` puts no bound on the timings.)

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use ltee_core::{config_fingerprint, encode_corpus};
use ltee_serve::{CheckpointPolicy, DurableServePipeline, Query, SnapshotReader};
use ltee_store::KbStore;

use crate::digest::{check_kb, fold_cheap, result_digest, KbCheck};
use crate::json::{obj, Json};
use crate::layers::read_side;
use crate::load::{Base, Load};
use crate::plan::{plan, Plan, ScaleKind, Workload, CYCLES};
use crate::report::{
    peak_rss_mb, Host, Metric, RunResult, END_TO_END, EXACT_COUNTERS, PER_LAYER, TIMINGS,
};
use crate::shadow::{BatchStages, Shadow};
use crate::stats::{median, quietest, slope, sorted};
use crate::trace::{Open, Recorder};

/// Plain/traced round pairs behind `trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// Queries per timed segment of one client's sequence.
const SEGMENT: usize = 500;

/// Queries of the client beside the writer that are timed in each cycle;
/// it issues (and the run counts) as many more as the stream leaves time
/// for. A fixed size, so the benchmark's own memory does not grow with
/// the throughput it measures.
const CLIENT_TIMED_QUERIES: usize = 1 << 19;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the batch arrival order and the query schedule.
    pub seed: u64,
    /// Size of the run, in reference-host seconds.
    pub seconds: u32,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
    /// Full or smoke size.
    pub scale: ScaleKind,
    /// Directory for the stores and the trace file; created if missing.
    pub out_dir: PathBuf,
}

/// Failure accounting: every batch, query, recovery and verification
/// lookup is attempted once and may fail once.
#[derive(Debug, Default)]
struct Account {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Account {
    fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.failures.push(what);
    }
}

/// What the traced run carries besides the real pipeline.
struct Tracing<'a> {
    rec: Recorder,
    shadow: Shadow<'a>,
    /// A second store the WAL-append twin writes to.
    twin: KbStore,
    twin_dir: PathBuf,
    encode_bytes: u64,
    checkpoint_bytes: u64,
}

/// The quietest timings of one client's query sequence over every replay
/// of it: per query its fastest latency and — for the client beside the
/// writer, whose replays are matched by position — per [`SEGMENT`] of
/// queries its fastest wall time.
struct Quiet {
    latency_ns: Vec<u32>,
    segment_s: Vec<f64>,
    /// Queries every replay so far got to (at most `latency_ns.len()`).
    timed: usize,
}

impl Quiet {
    fn new(queries: usize, segments: usize) -> Self {
        Self {
            latency_ns: vec![u32::MAX; queries],
            segment_s: vec![f64::INFINITY; segments],
            timed: queries,
        }
    }

    /// Begin replaying the sequence from its query `from` at `now`.
    fn replay(&mut self, from: usize, now: Instant) -> Replay<'_> {
        Replay {
            quiet: self,
            next: from,
            segment_start: now,
        }
    }
}

/// One pass over (part of) a client's sequence, folding its timings into
/// a [`Quiet`].
struct Replay<'q> {
    quiet: &'q mut Quiet,
    next: usize,
    segment_start: Instant,
}

impl Replay<'_> {
    /// The next query of the sequence ran from `began` to `ended`.
    #[inline]
    fn query(&mut self, began: Instant, ended: Instant) {
        let i = self.next;
        self.next += 1;
        let Some(best) = self.quiet.latency_ns.get_mut(i) else {
            return;
        };
        *best = (*best).min((ended - began).as_nanos().min(u32::MAX as u128 - 1) as u32);
        if self.next.is_multiple_of(SEGMENT) {
            if let Some(segment) = self.quiet.segment_s.get_mut(i / SEGMENT) {
                *segment = segment.min((ended - self.segment_start).as_secs_f64());
            }
            self.segment_start = ended;
        }
    }

    /// End of a replay that started at the sequence's first query and
    /// stopped wherever it was told to; returns how many queries it saw.
    fn finish(self) -> usize {
        self.quiet.timed = self.quiet.timed.min(self.next);
        self.next
    }
}

/// What one stream's query client beside the writer observed.
struct ClientOutcome {
    queries: u64,
    /// `(version, when this client first held it)`.
    first_seen: Vec<(u64, Instant)>,
    went_backwards: u64,
}

/// Closed-loop client beside the writer: replays the schedule against the
/// latest snapshot until told to stop. It records no spans even in the
/// traced run — millions of them would cost more than the queries.
fn concurrent_client(
    reader: SnapshotReader,
    schedule: &[Query],
    quiet: &mut Quiet,
    done: &AtomicBool,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        queries: 0,
        first_seen: Vec::new(),
        went_backwards: 0,
    };
    let mut last = reader.version();
    let mut observe = |version: u64, at: Instant, out: &mut ClientOutcome| {
        out.went_backwards += u64::from(version < last);
        // A version this client never held itself became visible no later
        // than the first newer one.
        while last < version {
            last += 1;
            out.first_seen.push((last, at));
        }
    };
    let mut replay = quiet.replay(0, Instant::now());
    for query in schedule.iter().cycle() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let began = Instant::now();
        let snap = reader.snapshot();
        let output = snap.execute(query);
        let ended = Instant::now();
        replay.query(began, ended);
        observe(snap.version(), ended, &mut out);
        black_box(output);
    }
    out.queries = replay.finish() as u64;
    observe(reader.snapshot().version(), Instant::now(), &mut out);
    out
}

/// Slices one replay of the schedule is cut into. All clients work
/// through a slice together and are timed together, so what they cost
/// each other stays in the figure; slices are what is matched across
/// replays.
const SLICES: usize = 10;

/// What one replay of the schedule by all clients returned.
struct Round {
    cheap: u64,
    went_backwards: u64,
}

/// The quietest timings of the query rounds: per slice of the schedule
/// the fastest wall time of all clients working through it, per client
/// and query the fastest latency.
struct QuietRounds {
    slice_s: Vec<f64>,
    clients: Vec<Quiet>,
}

impl QuietRounds {
    fn new(clients: usize, queries: usize) -> Self {
        Self {
            slice_s: vec![f64::INFINITY; SLICES],
            clients: (0..clients)
                .map(|_| Quiet::new(queries.div_ceil(clients), 0))
                .collect(),
        }
    }

    /// Wall time of one replay of the schedule, every slice at its
    /// quietest (slices a short schedule never had are skipped).
    fn wall_s(&self) -> f64 {
        self.slice_s.iter().filter(|s| s.is_finite()).sum()
    }
}

/// Replay `schedule` once, slice by slice: within a slice client `c` of
/// `C` issues the queries whose index is `c` modulo `C`, all clients
/// released together by a barrier. With a `trace_origin` every query is a
/// span.
fn run_round(
    readers: &mut [SnapshotReader],
    quiet: &mut QuietRounds,
    schedule: &[Query],
    trace_origin: Option<Instant>,
) -> (Round, Vec<Recorder>) {
    let clients = readers.len();
    let mut round = Round {
        cheap: 0,
        went_backwards: 0,
    };
    let mut recorders = Vec::new();
    let slice_len = schedule.len().div_ceil(SLICES).max(1);
    for (k, slice) in schedule.chunks(slice_len).enumerate() {
        let first = k * slice_len;
        let barrier = Barrier::new(clients);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .iter_mut()
                .zip(quiet.clients.iter_mut())
                .enumerate()
                .map(|(c, (reader, quiet))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut rec = trace_origin.map(Recorder::new);
                        let (mut cheap, mut backwards, mut last) = (0u64, 0u64, 0u64);
                        // This client's queries of the slice: global
                        // indexes `n = c (mod C)`, its `n / C`-th query.
                        let skip = (clients + c - first % clients) % clients;
                        barrier.wait();
                        let start = Instant::now();
                        let mut replay = quiet.replay((first + skip) / clients, start);
                        for (j, query) in slice.iter().enumerate().skip(skip).step_by(clients) {
                            let n = (first + j) as u64;
                            let span = rec.as_mut().map(|r| r.enter("serve.query", n));
                            let began = Instant::now();
                            let snap = reader.snapshot();
                            let output = snap.execute(query);
                            let ended = Instant::now();
                            if let (Some(r), Some(span)) = (rec.as_mut(), span) {
                                r.exit(span);
                            }
                            replay.query(began, ended);
                            backwards += u64::from(snap.version() < last);
                            last = snap.version();
                            cheap = fold_cheap(cheap, &output);
                        }
                        (start, Instant::now(), cheap, backwards, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query client panicked"))
                .collect()
        });
        let first_start = outcomes.iter().map(|o| o.0).min();
        let last_end = outcomes.iter().map(|o| o.1).max();
        let wall_s = first_start
            .zip(last_end)
            .map_or(0.0, |(start, end)| (end - start).as_secs_f64());
        if let Some(best) = quiet.slice_s.get_mut(k) {
            *best = best.min(wall_s);
        }
        for (_, _, cheap, backwards, rec) in outcomes {
            round.cheap = round.cheap.wrapping_add(cheap);
            round.went_backwards += backwards;
            recorders.extend(rec);
        }
    }
    (round, recorders)
}

/// Bytes of the WAL plus the retained checkpoint files of a store.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn fresh_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).expect("clear a stale store directory");
    }
}

/// Copy the files of store `from` into the new directory `to`.
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create a store directory");
    for entry in std::fs::read_dir(from).expect("read the preloaded store") {
        let entry = entry.expect("read the preloaded store");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a store file");
    }
}

/// What one cycle's pass over the timed stream measured. The per-batch
/// vectors have one entry per batch; a batch that failed holds infinity.
struct Pass {
    /// `ingest` call start to the writer's observer holding the new version.
    took_ms: Vec<f64>,
    /// `ingest` call start to a reader holding the new version: the
    /// observer again, or the client thread when there is one.
    visible_ms: Vec<f64>,
    wall_s: f64,
}

/// Per batch, the quietest of its passes; failed batches dropped.
fn quietest_per_batch(passes: &[Pass], series: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    let batches = passes.first().map_or(0, |p| series(p).len());
    (0..batches)
        .map(|i| quietest(&passes.iter().map(|p| series(p)[i]).collect::<Vec<_>>()))
        .filter(|ms| ms.is_finite())
        .collect()
}

/// The state one run threads through its cycles.
struct Run<'a> {
    args: &'a RunArgs,
    plan: &'a Plan,
    base: &'a Base,
    load: &'a Load,
    /// `store-<workload>-<seed>-<pid>`: prefix of every store of this run.
    store_prefix: PathBuf,
    /// The store the preload was ingested into; every cycle starts from a
    /// copy of it.
    preloaded: Option<PathBuf>,
    /// Quietest timings of the client beside the writer ...
    beside: Quiet,
    /// ... and of the query rounds.
    rounds: QuietRounds,
    acct: Account,
    tracing: Option<Tracing<'a>>,
}

impl<'a> Run<'a> {
    /// Everything up to the first timed operation that is not the world,
    /// the models or the inputs: directories, the preload, and — traced —
    /// the shadow pipeline and the twin store.
    fn set_up(
        args: &'a RunArgs,
        plan: &'a Plan,
        base: &'a Base,
        load: &'a Load,
        started: Instant,
    ) -> Self {
        std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
        let store_prefix = args.out_dir.join(format!(
            "store-{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let mut run = Self {
            args,
            plan,
            base,
            load,
            store_prefix,
            preloaded: None,
            beside: if plan.concurrent_reader {
                Quiet::new(CLIENT_TIMED_QUERIES, CLIENT_TIMED_QUERIES / SEGMENT)
            } else {
                Quiet::new(0, 0)
            },
            rounds: QuietRounds::new(base.clients(), load.schedule.len()),
            acct: Account::default(),
            tracing: None,
        };
        let kb = base.world.kb();
        if args.trace {
            let twin_dir = run.store_dir("twin");
            fresh_dir(&twin_dir);
            let twin = KbStore::open(&twin_dir, config_fingerprint(&base.config))
                .expect("open the twin store")
                .store;
            run.tracing = Some(Tracing {
                rec: Recorder::new(started),
                shadow: Shadow::new(kb, &base.models, &base.config),
                twin,
                twin_dir,
                encode_bytes: 0,
                checkpoint_bytes: 0,
            });
        }

        // Preload (ingest-under-read only): ingested once, checkpointed, and
        // copied under every cycle. The shadow pipeline must see these
        // batches too; their spans and counts are thrown away.
        if plan.preload_batches > 0 {
            let dir = run.store_dir("preload");
            fresh_dir(&dir);
            let (mut durable, _) = DurableServePipeline::open(
                &dir,
                kb,
                base.models.clone(),
                base.config.clone(),
                CheckpointPolicy::EveryBatches(plan.checkpoint_every),
            )
            .expect("open a fresh store");
            let mut discard = Recorder::new(started);
            for batch in &load.batches[..plan.preload_batches] {
                durable.ingest(batch).expect("preload batch ingests");
                if let Some(t) = run.tracing.as_mut() {
                    t.shadow.ingest(batch, &mut discard, 0);
                }
            }
            durable.checkpoint().expect("checkpoint the preload");
            if let Some(t) = run.tracing.as_mut() {
                t.shadow.batches.clear();
                t.shadow.counts = Default::default();
            }
            run.preloaded = Some(dir);
        }
        run
    }

    fn store_dir(&self, tag: &str) -> PathBuf {
        let mut name = self.store_prefix.clone().into_os_string();
        name.push(format!("-{tag}"));
        PathBuf::from(name)
    }

    /// The store of cycle `cycle`, opened: empty, or a copy of the
    /// preloaded one.
    fn open_cycle(&self, cycle: usize) -> (PathBuf, DurableServePipeline<'a>) {
        let dir = self.store_dir(&format!("cycle{cycle}"));
        fresh_dir(&dir);
        if let Some(preloaded) = &self.preloaded {
            copy_store(preloaded, &dir);
        }
        // The traced run cuts its checkpoints explicitly, at the same
        // cadence, so each one is its own span.
        let policy = if self.args.trace {
            CheckpointPolicy::Manual
        } else {
            CheckpointPolicy::EveryBatches(self.plan.checkpoint_every)
        };
        let (durable, _) = DurableServePipeline::open(
            &dir,
            self.base.world.kb(),
            self.base.models.clone(),
            self.base.config.clone(),
            policy,
        )
        .expect("open the cycle's store");
        assert_eq!(
            durable.version(),
            self.plan.preload_batches as u64,
            "a cycle starts from the preload"
        );
        (dir, durable)
    }

    /// Open a span in the traced run; nothing in the plain run.
    fn enter(&mut self, name: &'static str, op: u64) -> Option<Open> {
        self.tracing.as_mut().map(|t| t.rec.enter(name, op))
    }

    /// Close what [`Run::enter`] opened.
    fn exit(&mut self, span: Option<Open>) {
        if let (Some(t), Some(span)) = (self.tracing.as_mut(), span) {
            t.rec.exit(span);
        }
    }

    /// Phase I: stream the timed batches through
    /// `DurableServePipeline::ingest`, one at a time, an observer reader
    /// confirming each version; beside it, when the workload says so, one
    /// query client.
    fn stream(&mut self, durable: &mut DurableServePipeline<'a>) -> Pass {
        let (plan, load) = (self.plan, self.load);
        let batches = &load.batches[plan.preload_batches..];
        let observer = durable.reader();
        let done = AtomicBool::new(false);
        let mut took_ms = Vec::with_capacity(batches.len());
        let mut starts = Vec::with_capacity(batches.len());
        let mut observer_last = observer.version();
        let mut beside = std::mem::replace(&mut self.beside, Quiet::new(0, 0));
        let (wall_s, client) = std::thread::scope(|scope| {
            let client = plan.concurrent_reader.then(|| {
                let (reader, done, quiet) = (durable.reader(), &done, &mut beside);
                scope.spawn(move || concurrent_client(reader, &load.schedule, quiet, done))
            });
            let stream_start = Instant::now();
            for (i, batch) in batches.iter().enumerate() {
                let op = (plan.preload_batches + i + 1) as u64;
                let span = self.enter("serve.durable_ingest", op);
                let start = Instant::now();
                let result = durable.ingest(batch);
                let seen = observer.snapshot().version();
                let took = start.elapsed();
                self.exit(span);
                starts.push(start);
                self.acct.attempted += 1;
                match result {
                    Ok(_) if seen == op => took_ms.push(took.as_secs_f64() * 1e3),
                    Ok(_) => {
                        took_ms.push(f64::INFINITY);
                        self.acct.fail(
                            1,
                            format!("batch {op} acknowledged but version {seen} visible"),
                        );
                    }
                    Err(e) => {
                        took_ms.push(f64::INFINITY);
                        self.acct
                            .fail(1, format!("batch {op} failed to ingest: {e}"));
                    }
                }
                if seen < observer_last {
                    self.acct.fail(
                        1,
                        format!("observer saw version {seen} after {observer_last}"),
                    );
                }
                observer_last = seen;
                if let Some(t) = self.tracing.as_mut() {
                    t.shadow_batch(durable, batch, op, plan.checkpoint_every);
                }
            }
            let wall_s = stream_start.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (
                wall_s,
                client.map(|h| h.join().expect("query client panicked")),
            )
        });
        self.beside = beside;

        let mut visible_ms = took_ms.clone();
        if let Some(client) = &client {
            self.acct.attempted += client.queries;
            if client.went_backwards > 0 {
                self.acct.fail(
                    client.went_backwards,
                    "the concurrent client saw versions go backwards".into(),
                );
            }
            // Visibility as the *reader thread* experienced it.
            visible_ms = vec![f64::INFINITY; batches.len()];
            for &(version, at) in &client.first_seen {
                let batch = (version as usize).checked_sub(plan.preload_batches + 1);
                if let Some(i) = batch.filter(|&i| took_ms[i].is_finite()) {
                    visible_ms[i] = at.saturating_duration_since(starts[i]).as_secs_f64() * 1e3;
                }
            }
        }
        Pass {
            took_ms,
            visible_ms,
            wall_s,
        }
    }

    /// Check one replayed round against the digest pass.
    fn check_round(&mut self, round: &Round, cheap_reference: u64) {
        let queries = self.load.schedule.len() as u64;
        self.acct.attempted += queries;
        if round.cheap != cheap_reference {
            self.acct.fail(
                queries,
                "a round's responses differ from the digest pass".into(),
            );
        }
        if round.went_backwards > 0 {
            self.acct.fail(
                round.went_backwards,
                "a round's reader saw versions go backwards".into(),
            );
        }
    }

    /// Phase Q: replay rounds on the cycle's final (pinned) version until
    /// the cycle's share of the query time is up. Returns how many ran.
    fn query_rounds(&mut self, readers: &mut [SnapshotReader], cheap_reference: u64) -> usize {
        let (min_rounds, secs) = (
            self.plan.min_rounds.div_ceil(CYCLES),
            self.plan.query_secs / CYCLES as f64,
        );
        let mut quiet = std::mem::replace(&mut self.rounds, QuietRounds::new(0, 0));
        let mut rounds = 0;
        let phase = Instant::now();
        while rounds < min_rounds || phase.elapsed().as_secs_f64() < secs {
            let (round, _) = run_round(readers, &mut quiet, &self.load.schedule, None);
            self.check_round(&round, cheap_reference);
            rounds += 1;
        }
        self.rounds = quiet;
        rounds
    }

    /// Traced run, after phase Q: alternate plain rounds with rounds that
    /// record a span per query; what tracing costs the read path, in
    /// percent, is the ratio of their quiet wall times (each slice at its
    /// fastest of the [`OVERHEAD_PAIRS`] replays), minus one.
    fn traced_rounds(&mut self, readers: &mut [SnapshotReader], cheap_reference: u64) -> f64 {
        let origin = self.tracing.as_ref().map(|t| t.rec.origin());
        let schedule = &self.load.schedule;
        let mut plain_quiet = QuietRounds::new(readers.len(), schedule.len());
        let mut traced_quiet = QuietRounds::new(readers.len(), schedule.len());
        for pair in 0..OVERHEAD_PAIRS {
            let (plain, _) = run_round(readers, &mut plain_quiet, schedule, None);
            let (traced, recorders) = run_round(readers, &mut traced_quiet, schedule, origin);
            self.check_round(&plain, cheap_reference);
            self.check_round(&traced, cheap_reference);
            // One traced round's spans are enough for the trace file.
            if let (Some(t), 0) = (self.tracing.as_mut(), pair) {
                recorders.into_iter().for_each(|r| t.rec.absorb(r));
            }
        }
        100.0 * (traced_quiet.wall_s() / plain_quiet.wall_s() - 1.0)
    }

    /// Phase R: one cold recovery of the cycle's store, checked against the
    /// live knowledge base; `n` numbers it. The OS page cache is warm: this
    /// times decoding and replay, not a disk.
    fn recover(&mut self, store_dir: &Path, live: &KbCheck, n: u64) -> Option<f64> {
        let total_batches = self.plan.batches() as u64;
        // A restarting process loads its models from an artifact; cloning
        // them is the benchmark's cost, so it is off the clock.
        let (models, config) = (self.base.models.clone(), self.base.config.clone());
        let span = self.enter("serve.recover", n);
        let start = Instant::now();
        let recovered = DurableServePipeline::open(
            store_dir,
            self.base.world.kb(),
            models,
            config,
            CheckpointPolicy::Manual,
        );
        let version = recovered.as_ref().map_or(0, |(d, _)| d.version());
        let took = start.elapsed().as_secs_f64();
        self.exit(span);
        self.acct.attempted += 1;
        match recovered {
            Ok((recovered, _)) if version == total_batches => {
                let digest = check_kb(&recovered.snapshot()).digest;
                if digest == live.digest {
                    return Some(took);
                }
                self.acct.fail(
                    1,
                    format!(
                        "recovery {n}: digest {digest:016x} != live {:016x}",
                        live.digest
                    ),
                );
            }
            Ok(_) => self.acct.fail(
                1,
                format!("recovery {n} reached version {version}, not {total_batches}"),
            ),
            Err(e) => self.acct.fail(1, format!("recovery {n} failed: {e}")),
        }
        None
    }

    /// The same recovery taken apart (traced run): scan the store, then
    /// decode and restore the checkpoint; what is left of `recover_s` is
    /// the snapshot build plus the WAL-tail replay.
    fn recovery_parts(&mut self, store_dir: &Path) {
        let Some(t) = self.tracing.as_mut() else {
            return;
        };
        let base = self.base;
        let fingerprint = config_fingerprint(&base.config);
        let (opened, _) = t
            .rec
            .time("store.open", 0, || KbStore::open(store_dir, fingerprint));
        let checkpoint = opened.expect("reopen the store").checkpoint;
        let models = base.models.clone();
        let (restored, _) = t.rec.time("core.restore", 0, || {
            checkpoint.map(|c| {
                c.restore(base.world.kb(), models, base.config.clone())
                    .map(|_| ())
            })
        });
        if let Some(Err(e)) = restored {
            self.acct.fail(1, format!("checkpoint restore failed: {e}"));
        }
    }
}

impl Tracing<'_> {
    /// After the real ingest of `batch`: the same work once more, taken
    /// apart — encode, WAL append (on the twin store), the checkpoint when
    /// one is due, then the shadow stage driver.
    fn shadow_batch(
        &mut self,
        durable: &mut DurableServePipeline<'_>,
        batch: &ltee_webtables::Corpus,
        op: u64,
        checkpoint_every: u64,
    ) {
        let (payload, _) = self
            .rec
            .time("core.encode_corpus", op, || encode_corpus(batch));
        self.encode_bytes += payload.len() as u64;
        let (appended, _) = self
            .rec
            .time("store.wal_append", op, || self.twin.append_batch(&payload));
        appended.expect("twin WAL append");
        if op.is_multiple_of(checkpoint_every) {
            let (cut, _) = self
                .rec
                .time("store.checkpoint", op, || durable.checkpoint());
            cut.expect("explicit checkpoint");
            let (bytes, _) = self.rec.time("core.checkpoint_encode", op, || {
                durable.serve().pipeline().checkpoint(op).encode()
            });
            self.checkpoint_bytes = bytes.len() as u64;
        }
        self.shadow.ingest(batch, &mut self.rec, op);
    }

    /// The write-side per-layer metrics, from the shadow driver's spans.
    fn ingest_metrics(&self) -> Vec<Metric> {
        let rec = &self.rec;
        let counts = &self.shadow.counts;
        let batches = &self.shadow.batches;
        let n = batches.len();
        let total = |name: &str| rec.total(name);
        let p50 = |name: &'static str, span: &str, scale: f64| {
            let scaled: Vec<f64> = rec.durations(span).iter().map(|s| s * scale).collect();
            Metric::percentile(name, &scaled, 50.0)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        // Clustering cost per row in the last fifth of the stream over the
        // first fifth: growth with the accumulated state shows here.
        let fifth = (n / 5).max(1);
        let per_row = |slice: &[BatchStages]| {
            ratio(
                slice.iter().map(|b| b.clustering_s).sum(),
                slice.iter().map(|b| b.mapped_rows as f64).sum(),
            )
        };
        let late_over_early = ratio(
            per_row(&batches[n.saturating_sub(fifth)..]),
            per_row(&batches[..fifth.min(n)]),
        );

        // Publication cost against the entities in the touched classes:
        // ROADMAP expects a straight line (a full rebuild per batch), whose
        // slope this is.
        let xs: Vec<f64> = batches
            .iter()
            .map(|b| b.entities_in_touched as f64)
            .collect();
        let ys: Vec<f64> = batches.iter().map(|b| b.publish_s * 1e6).collect();

        let real = total("serve.durable_ingest");
        let stage_sum = total("core.encode_corpus")
            + total("store.wal_append")
            + total("core.shadow_ingest")
            + total("serve.publish");
        let checkpoints = rec.durations("store.checkpoint").len();
        let (tables, rows, mapped, fused) = (
            counts.tables as f64,
            counts.rows as f64,
            counts.mapped_rows as f64,
            counts.clusters_fused as f64,
        );
        vec![
            Metric::of("matching.match_s", total("matching.match_corpus"), n),
            Metric::of(
                "matching.ms_per_table",
                ratio(total("matching.match_corpus") * 1e3, tables),
                counts.tables,
            ),
            Metric::new("matching.tables", tables),
            Metric::new("matching.mapped_row_share", ratio(mapped, rows)),
            Metric::of("clustering.context_s", total("clustering.context"), n),
            Metric::of("clustering.ingest_s", total("clustering.ingest"), n),
            Metric::of(
                "clustering.us_per_row",
                ratio(total("clustering.ingest") * 1e6, mapped),
                counts.mapped_rows,
            ),
            Metric::new("clustering.rows", mapped),
            Metric::new("clustering.new_clusters", counts.new_clusters as f64),
            Metric::new(
                "clustering.updated_clusters",
                counts.updated_clusters as f64,
            ),
            Metric::of("clustering.late_over_early", late_over_early, fifth),
            Metric::of("fusion.create_s", total("fusion.create_entities"), n),
            Metric::of(
                "fusion.us_per_cluster",
                ratio(total("fusion.create_entities") * 1e6, fused),
                counts.clusters_fused,
            ),
            Metric::new("fusion.clusters_fused", fused),
            Metric::of("newdetect.context_s", total("newdetect.context"), n),
            Metric::of("newdetect.detect_s", total("newdetect.detect"), n),
            Metric::new("newdetect.entities_classified", fused),
            Metric::new(
                "newdetect.new_share",
                ratio(counts.classified_new as f64, fused),
            ),
            Metric::of("core.ingest_s", total("core.shadow_ingest"), n),
            Metric::of("core.stage_sum_over_ingest", ratio(stage_sum, real), n),
            Metric::of("core.encode_corpus_s", total("core.encode_corpus"), n),
            Metric::new("core.encode_bytes", self.encode_bytes as f64),
            Metric::of(
                "core.checkpoint_encode_s",
                total("core.checkpoint_encode"),
                checkpoints,
            ),
            Metric::new("core.checkpoint_bytes", self.checkpoint_bytes as f64),
            Metric::of("store.wal_append_s", total("store.wal_append"), n),
            p50("store.wal_append_p50_us", "store.wal_append", 1e6),
            Metric::new("store.wal_bytes", store_bytes(&self.twin_dir) as f64),
            Metric::new("store.wal_appends", n as f64),
            Metric::of("store.checkpoint_s", total("store.checkpoint"), checkpoints),
            p50("store.checkpoint_p50_ms", "store.checkpoint", 1e3),
            Metric::new("store.checkpoints", checkpoints as f64),
            Metric::of("serve.durable_ingest_s", real, n),
            Metric::of("serve.publish_s", total("serve.publish"), n),
            p50("serve.publish_p50_ms", "serve.publish", 1e3),
            Metric::of("serve.publish_us_per_entity", slope(&xs, &ys), n),
        ]
    }
}

/// Percentiles over the queries of each query's fastest latency, in
/// microseconds: `[p50, p99]`.
fn latency_metrics<'q>(clients: impl Iterator<Item = &'q Quiet>) -> [Metric; 2] {
    let us = sorted(
        clients
            .flat_map(|q| &q.latency_ns[..q.timed])
            // (a round client whose share is one short never times its last slot)
            .filter(|&&ns| ns != u32::MAX)
            .map(|&ns| f64::from(ns) / 1e3)
            .collect(),
    );
    [
        Metric::percentile_of_sorted("query_p50_us", &us, 50.0),
        Metric::percentile_of_sorted("query_p99_us", &us, 99.0),
    ]
}

/// The query figures, `[query_per_s, query_p50_us, query_p99_us]`, from
/// the quietest timings: of the client beside the
/// writer (the queries in the segments every cycle completed ÷ their
/// time) when there was one, else of the rounds (the schedule ÷ the time
/// of its slices).
fn query_metrics(ctx: &Run<'_>) -> [Metric; 3] {
    let per_s = |queries: usize, wall_s: f64| {
        let rate = if wall_s > 0.0 {
            queries as f64 / wall_s
        } else {
            0.0
        };
        Metric::of("query_per_s", rate, queries)
    };
    if ctx.plan.concurrent_reader {
        let segments = ctx.beside.timed / SEGMENT;
        let wall_s = ctx.beside.segment_s[..segments].iter().sum();
        let [p50, p99] = latency_metrics(std::iter::once(&ctx.beside));
        return [per_s(segments * SEGMENT, wall_s), p50, p99];
    }
    let [p50, p99] = latency_metrics(ctx.rounds.clients.iter());
    [
        per_s(ctx.load.schedule.len(), ctx.rounds.wall_s()),
        p50,
        p99,
    ]
}

/// Run one workload and report it.
pub fn run(args: &RunArgs) -> RunResult {
    let started = Instant::now();
    let plan = plan(args.workload, args.scale, args.seconds);
    let base = Base::build(&plan);
    let load = Load::generate(&base, &plan, args.seed);
    let mut ctx = Run::set_up(args, &plan, &base, &load, started);
    let setup_s = started.elapsed().as_secs_f64();

    let cycles = if args.trace { 1 } else { CYCLES };
    let mut passes = Vec::with_capacity(cycles);
    let mut recover_s = Vec::new();
    let mut layer = Vec::new();
    let mut rounds = 0;
    // What the first cycle built and served; every later cycle must match.
    let mut first: Option<(KbCheck, u64, u64, u64)> = None;
    for cycle in 0..cycles {
        let (store_dir, mut durable) = ctx.open_cycle(cycle);
        passes.push(ctx.stream(&mut durable));
        let snap = durable.snapshot();
        let disk_bytes = store_bytes(&store_dir);
        let live = check_kb(&snap);
        ctx.acct.attempted += live.lookups;
        if live.lookup_failures > 0 {
            ctx.acct.fail(
                live.lookup_failures,
                "exact lookup of a served canonical label missed its entity".into(),
            );
        }
        // The full-response digest pass doubles as the read path's warm-up.
        let (result_digest, cheap_reference) = result_digest(&snap, &load.schedule);
        let built = (live, disk_bytes, result_digest, cheap_reference);
        if *first.get_or_insert(built) != built {
            ctx.acct.fail(
                1,
                format!("cycle {cycle} built or served something else than cycle 0"),
            );
        }

        let mut readers: Vec<SnapshotReader> =
            (0..base.clients()).map(|_| durable.reader()).collect();
        if !plan.concurrent_reader {
            rounds += ctx.query_rounds(&mut readers, cheap_reference);
        }
        if args.trace {
            let overhead = ctx.traced_rounds(&mut readers, cheap_reference);
            layer.push(Metric::of("trace_overhead_pct", overhead, OVERHEAD_PAIRS));
        }
        if let Some(t) = ctx.tracing.as_mut() {
            // The equality check and the gauges need the live pipeline.
            let wrong = t.shadow.mismatches(durable.serve().pipeline(), &snap);
            if !wrong.is_empty() {
                ctx.acct.fail(
                    1,
                    format!("shadow stage driver diverged from the pipeline on {wrong:?}"),
                );
            }
            let serve = durable.serve();
            layer.push(Metric::new(
                "serve.versions_retained",
                serve.versions_retained() as f64,
            ));
            layer.push(Metric::new(
                "serve.versions_reclaimed",
                serve.versions_reclaimed() as f64,
            ));
            layer.extend(read_side(
                &snap,
                &readers[0],
                args.seed,
                plan.block_ops,
                &mut t.rec,
            ));
        }
        // One knowledge base in memory at a time: peak memory is a cycle's.
        drop((readers, snap, durable));

        recover_s.extend(ctx.recover(&store_dir, &live, cycle as u64 + 1));
        ctx.recovery_parts(&store_dir);
        std::fs::remove_dir_all(&store_dir).ok();
    }
    // Read before the report is assembled: what follows is the
    // benchmark's own bookkeeping.
    let peak_rss = peak_rss_mb();
    let (live, disk_bytes, result_digest, _) = first.expect("at least one cycle");

    let stream_rows = load.rows(plan.preload_batches..load.batches.len());
    let all_rows = load.rows(0..load.batches.len());
    let took_ms = quietest_per_batch(&passes, |p| &p.took_ms);
    let visible_ms = quietest_per_batch(&passes, |p| &p.visible_ms);
    let quiet_wall_s = took_ms.iter().sum::<f64>() / 1e3;
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut extra = vec![
        Metric::new("cycles", cycles as f64),
        Metric::new("stream_batches", plan.stream_batches as f64),
        Metric::new("stream_rows", stream_rows as f64),
        Metric::of("stream_wall_s", quiet_wall_s, took_ms.len()),
        Metric::new("served_entities", live.entities as f64),
        Metric::new("disk_bytes", disk_bytes as f64),
        Metric::new("query_rounds", rounds as f64),
        Metric::percentile("ingest_visible_p90_ms", &visible_ms, 90.0),
        Metric::percentile("ingest_visible_max_ms", &visible_ms, 100.0),
    ];
    let [query_per_s, query_p50, query_p99] = query_metrics(&ctx);
    let mut timings = vec![
        Metric::of(
            "ingest_rows_per_s",
            stream_rows as f64 / quiet_wall_s,
            stream_rows,
        ),
        Metric::percentile("ingest_visible_p50_ms", &visible_ms, 50.0),
        Metric::of("recover_s", quietest(&recover_s), recover_s.len()),
        query_per_s,
        query_p50,
        query_p99,
    ];
    debug_assert!(timings
        .iter()
        .map(|m| m.name)
        .eq(TIMINGS.iter().map(|t| t.0)));
    let metrics = if let Some(t) = ctx.tracing.as_ref() {
        let rec = &t.rec;
        layer.push(Metric::new("core.train_s", base.train_s));
        layer.push(Metric::new("core.restore_s", rec.total("core.restore")));
        layer.push(Metric::new("store.open_s", rec.total("store.open")));
        let replay_s = median(&rec.durations("serve.recover"))
            - rec.total("store.open")
            - rec.total("core.restore");
        layer.push(Metric::of("serve.replay_s", replay_s, recover_s.len()));
        layer.extend(t.ingest_metrics());
        extra.push(Metric::new("spans", rec.spans().len() as f64));
        // Report in the documented order, and only documented names.
        let acct = &mut ctx.acct;
        let per_layer = PER_LAYER.iter().map(|&(name, _)| {
            layer
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    acct.fail(1, format!("per-layer metric {name} was not measured"));
                    Metric::new(name, 0.0)
                })
        });
        std::mem::take(&mut timings)
            .into_iter()
            .chain(per_layer)
            .collect()
    } else {
        if args.scale == ScaleKind::Full {
            for m in timings.iter().filter(|m| !m.supported) {
                ctx.acct.fail(
                    1,
                    format!(
                        "{} has fewer than 10 of its {} samples beyond it",
                        m.name, m.samples
                    ),
                );
            }
        }
        extra.push(Metric::of(
            "host_disturbance_pct",
            100.0 * (median(&pass_walls) / quiet_wall_s - 1.0),
            passes.len(),
        ));
        let measured = vec![
            Metric::new("setup_s", setup_s),
            Metric::of(
                "disk_bytes_per_row",
                disk_bytes as f64 / all_rows as f64,
                all_rows,
            ),
            Metric::new("peak_rss_mb", peak_rss),
        ];
        debug_assert!(measured
            .iter()
            .map(|m| m.name)
            .eq(END_TO_END.iter().map(|e| e.0)));
        measured
    };

    let mut result = RunResult {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale.name(),
        traced: args.trace,
        host: Host::probe(base.nproc, base.threads, base.clients()),
        schedule_digest: load.schedule_digest,
        kb_digest: live.digest,
        result_digest,
        attempted: ctx.acct.attempted,
        failed: ctx.acct.failed,
        failures: std::mem::take(&mut ctx.acct.failures),
        metrics,
        timings,
        extra,
    };
    check_expected(&mut result);

    if let Some(t) = ctx.tracing.as_ref() {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let header = obj([
            ("workload", args.workload.name().into()),
            ("seed", args.seed.into()),
            ("seconds", u64::from(args.seconds).into()),
            ("scale", args.scale.name().into()),
        ]);
        t.rec.write(&path, header).expect("write the trace file");
        println!("trace: {} spans -> {}", t.rec.spans().len(), path.display());
        std::fs::remove_dir_all(&t.twin_dir).ok();
    }
    if let Some(dir) = &ctx.preloaded {
        std::fs::remove_dir_all(dir).ok();
    }
    result
}

/// Check the run against `expected.json` when it pins this exact run.
fn check_expected(result: &mut RunResult) {
    let expected = Json::parse(include_str!("../expected.json")).expect("expected.json parses");
    let key = format!(
        "{}/{}/{}/{}",
        result.scale, result.workload, result.seed, result.seconds
    );
    let Some(pinned) = expected.get(&key) else {
        return;
    };
    let mut got = vec![
        (
            "schedule_digest",
            format!("{:016x}", result.schedule_digest),
        ),
        ("kb_digest", format!("{:016x}", result.kb_digest)),
        ("result_digest", format!("{:016x}", result.result_digest)),
    ];
    if result.traced {
        let counters = result
            .metrics
            .iter()
            .filter(|m| EXACT_COUNTERS.contains(&m.name));
        got.extend(counters.map(|m| (m.name, format!("{}", m.value))));
    }
    for (what, got) in got {
        match pinned.get(what).and_then(Json::as_str) {
            Some(want) if want != got => {
                result.failed += 1;
                result.failures.push(format!(
                    "{what} is {got}, expected.json pins {want} for {key}"
                ));
            }
            _ => {}
        }
    }
}
